"""Acceptance suite: six end-to-end criteria with pinned tolerances.

Each test covers one criterion and prints a single ``[criterion N] ...:
PASS``/``FAIL`` line (visible with ``pytest -s`` or in captured output).
Runtime limits are asserted with wall-clock timers around the relevant
computation only.
"""

import io
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from entpow.channels import (
    mixing_channel,
    rank_boost_channel,
    replacement_channel,
    swap_channel,
)
from entpow.power import (
    channel_schmidt_number_bounds,
    channel_schmidt_rank,
    classify_kraus,
)
from entpow.scans import get_scenario, run_scan
from entpow.states import (
    DensityMatrix,
    PureState,
    is_ppt,
    max_entangled,
    pure_from_density,
    random_product_state,
    random_separable,
    random_state_vector,
    schmidt_rank,
)
from entpow.tensor import dagger, kron, swap_matrix
from entpow.witnesses import (
    OptimizerConfig,
    Witness,
    default_witness_family,
    lambda_min,
    min_over_products,
    mixing_shifted_dual,
    schmidt_class_max,
    unitary_mix_scan_min,
)


def _report(num: int, label: str, problems: list) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"[criterion {num}] {label}: {status}")
    assert not problems, f"criterion {num} ({label}): " + "; ".join(
        str(p) for p in problems
    )


def _rand_op(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


# -- criterion 1: measurement-scenario scan, zero contour + engine match ----


def test_criterion_1_measurement_scan_zero_contour():
    problems = []
    step = 0.01
    t0 = time.perf_counter()
    try:
        res = run_scan("fig3", step=step, engine="closed_form")
        axis = sorted({round(p, 10) for p, _, _ in res.rows})
        if len(res.rows) != 101 * 101:
            problems.append(f"grid has {len(res.rows)} rows, expected 10201")
        by_p: dict[float, list[tuple[float, float]]] = {p: [] for p in axis}
        for p, q, v in res.rows:
            by_p[round(p, 10)].append((q, v))

        # the value decreases in q along every column; the zero crossing must
        # sit within one grid step of the two-branch contour
        #   q = 1/2            for p <= 1/3
        #   3p + 4q = 3        for q <= 1/2  (equivalently p >= 1/3)
        # which meets at the kink (1/3, 1/2)
        for p in axis:
            col = sorted(by_p[p])
            crossing = None
            for q, v in col:
                if v <= 1e-12:
                    crossing = q
                    break
            if crossing is None:
                problems.append(f"no zero crossing in column p={p}")
                continue
            predicted = 0.5 if p <= 1 / 3 else (3 - 3 * p) / 4
            if abs(crossing - predicted) > step + 1e-9:
                problems.append(
                    f"crossing at p={p} is q={crossing}, expected {predicted}"
                )

        # kink location: the column nearest p = 1/3 crosses within one step
        # of q = 1/2
        p_kink = min(axis, key=lambda p: abs(p - 1 / 3))
        kink_cross = next(q for q, v in sorted(by_p[p_kink]) if v <= 1e-12)
        if abs(p_kink - 1 / 3) > step + 1e-9 or abs(kink_cross - 0.5) > step + 1e-9:
            problems.append(f"kink at ({p_kink}, {kink_cross}), expected (1/3, 1/2)")

        # every numerically-exact zero lies on the described contour
        for p, q, v in res.rows:
            if abs(v) <= 1e-12:
                on_flat = abs(q - 0.5) <= step and 3 * p + 4 * q <= 3 + 5 * step
                on_slant = abs(3 * p + 4 * q - 3) / 4 <= step and q <= 0.5 + step
                if not (on_flat or on_slant):
                    problems.append(f"stray zero at ({p}, {q})")

        # optimizer engine agrees with the closed form at 100 random grid points
        scenario = get_scenario("fig3")
        witness = scenario.build_witness()
        cfg = OptimizerConfig(restarts=48, seed=7)
        rng = np.random.default_rng(12345)
        rows = list(res.rows)
        for idx in rng.choice(len(rows), size=100, replace=False):
            p, q, v = rows[idx]
            dual = scenario.build_channel(p, q).dual_apply(witness.operator)
            opt = min_over_products(dual, scenario.dims, cfg).value
            if abs(opt - v) > 1e-6:
                problems.append(f"optimizer off by {abs(opt - v):.2e} at ({p}, {q})")
                break
        elapsed = time.perf_counter() - t0
        if elapsed >= 10.0:
            problems.append(f"runtime {elapsed:.2f}s >= 10s")

        # the CLI scan emits the kink-coordinate advisory for this scenario
        out, err = io.StringIO(), io.StringIO()
        from entpow.cli import main

        import tempfile, os

        with tempfile.TemporaryDirectory() as tmp:
            target = os.path.join(tmp, "scan.csv")
            with redirect_stdout(out), redirect_stderr(err):
                rc = main(["scan", "--scenario", "fig3", "--step", "0.25",
                           "--out", target])
            if rc != 0:
                problems.append(f"cli scan exit code {rc}")
        if "transposed" not in err.getvalue():
            problems.append("kink advisory not emitted on stderr")
    except Exception as exc:  # pragma: no cover - reported as a failure
        problems.append(f"unexpected error: {exc!r}")
    _report(1, "measurement scan zero contour + engine agreement, <10s", problems)


# -- criterion 2: unitary-mixture scan values and shift-constant variants ----


def test_criterion_2_unitary_mix_scan():
    problems = []
    try:
        t0 = time.perf_counter()
        res = run_scan(
            "fig4",
            step=0.05,
            engine="optimizer",
            optimizer=OptimizerConfig(restarts=64, seed=0),
        )
        elapsed = time.perf_counter() - t0
        if elapsed >= 60.0:
            problems.append(f"optimizer scan took {elapsed:.1f}s >= 60s")
        if not res.all_converged:
            problems.append("optimizer reported non-convergence")

        by_pq = {(round(p, 10), round(q, 10)): v for p, q, v in res.rows}
        for point, expect in (((1.0, 0.0), -0.2), ((0.0, 0.0), 0.3), ((0.0, 1.0), 0.3)):
            got = by_pq.get(point)
            if got is None or abs(got - expect) > 1e-6:
                problems.append(f"value at {point} is {got}, expected {expect}")
        negatives = sum(1 for v in by_pq.values() if v < -1e-6)
        if negatives == 0:
            problems.append("negative region is empty")

        # raising the witness constant to 5/4 makes the whole grid
        # non-negative (floor 1/4), confirming 4/5 as the detecting constant
        floor = min(
            unitary_mix_scan_min(p, q, shift=1.25)
            for p, q, _ in res.rows
        )
        if floor < 0.25 - 1e-6:
            problems.append(f"5/4-shift floor {floor} < 1/4")
        proj = max_entangled(2, 2).projector()
        big = Witness.from_shift(1.25, proj, (2, 2), label="shifted_5/4")
        scenario = get_scenario("fig4")
        cfg = OptimizerConfig(restarts=48, seed=3)
        rng = np.random.default_rng(99)
        rows = list(res.rows)
        for idx in rng.choice(len(rows), size=5, replace=False):
            p, q, _ = rows[idx]
            dual = scenario.build_channel(p, q).dual_apply(big.operator)
            opt = min_over_products(dual, scenario.dims, cfg).value
            if opt < 0.25 - 1e-6:
                problems.append(f"optimizer 5/4 value {opt} < 1/4 at ({p}, {q})")
    except Exception as exc:  # pragma: no cover
        problems.append(f"unexpected error: {exc!r}")
    _report(2, "unitary-mix scan values, negative region, 5/4 floor, <60s", problems)


# -- criterion 3: rank-boost channel below the separability threshold --------


def test_criterion_3_rank_boost_threshold_behavior():
    problems = []
    try:
        lam0 = 0.99
        lam1 = 1.0 / (9.0 * lam0)
        boundary = np.array([lam0, lam1, np.sqrt(1.0 - lam0**2 - lam1**2)])
        interior = np.array([0.99, 0.1, np.sqrt(1.0 - 0.99**2 - 0.1**2)])
        for coeffs in (boundary, interior):
            if coeffs[0] * coeffs[1] > 1.0 / 9.0 + 1e-12:
                problems.append(f"coefficient vector {coeffs} above threshold")
            ch = rank_boost_channel(2, 3, coeffs)

            non_ppt = 0
            for i in range(500):
                rho = random_separable((3, 3), terms=3, seed=10_000 + i)
                out = DensityMatrix(ch.apply_matrix(rho.matrix), (3, 3))
                if not is_ppt(out):
                    non_ppt += 1
            if non_ppt:
                problems.append(f"{non_ppt}/500 separable inputs left PPT")

            cfg = OptimizerConfig(restarts=48, seed=11)
            for w in default_witness_family((3, 3)):
                dual = ch.dual_apply(w.operator)
                val = min_over_products(dual, (3, 3), cfg).value
                if val < -1e-6:
                    problems.append(f"witness {w.label}: dual minimum {val} < -1e-6")

        # yet the maximally entangled input gains Schmidt rank 2 -> 3
        ch = rank_boost_channel(2, 3, boundary)
        out = DensityMatrix(
            ch.apply_matrix(max_entangled(2, 3).projector()), (3, 3)
        )
        rank = schmidt_rank(pure_from_density(out))
        if rank != 3:
            problems.append(f"output Schmidt rank {rank}, expected 3")
    except Exception as exc:  # pragma: no cover
        problems.append(f"unexpected error: {exc!r}")
    _report(3, "sub-threshold rank-boost channel stays separable, rank 2->3", problems)


# -- criterion 4: channel Schmidt rank table and number bounds ---------------


def test_criterion_4_channel_schmidt_measures():
    problems = []
    try:
        for k in (2, 3, 4):
            for kp in (2, 3, 4):
                m = np.outer(
                    max_entangled(kp, 4).amplitudes,
                    np.conj(max_entangled(k, 4).amplitudes),
                )
                t0 = time.perf_counter()
                rank = channel_schmidt_rank(m, (4, 4))
                elapsed = time.perf_counter() - t0
                if rank != kp:
                    problems.append(f"rank1 k={k}, k'={kp}: got {rank}")
                if elapsed >= 5.0:
                    problems.append(f"rank1 k={k}, k'={kp}: {elapsed:.2f}s >= 5s")

        t0 = time.perf_counter()
        bounds = channel_schmidt_number_bounds(swap_channel(2))
        elapsed = time.perf_counter() - t0
        if (bounds.lower, bounds.upper) != (1, 1):
            problems.append(f"swap bounds ({bounds.lower}, {bounds.upper}) != (1, 1)")
        if elapsed >= 5.0:
            problems.append(f"swap bounds took {elapsed:.2f}s >= 5s")

        for k in (2, 3):
            ch = replacement_channel(max_entangled(k, k))
            t0 = time.perf_counter()
            bounds = channel_schmidt_number_bounds(ch)
            elapsed = time.perf_counter() - t0
            if (bounds.lower, bounds.upper) != (k, k):
                problems.append(
                    f"replacement k={k}: ({bounds.lower}, {bounds.upper}) != ({k}, {k})"
                )
            if elapsed >= 5.0:
                problems.append(f"replacement k={k} took {elapsed:.2f}s >= 5s")
    except Exception as exc:  # pragma: no cover
        problems.append(f"unexpected error: {exc!r}")
    _report(4, "channel Schmidt rank table + number bounds, <5s each", problems)


# -- criterion 5: witness shift algebra ---------------------------------------


def test_criterion_5_witness_algebra():
    problems = []
    try:
        proj = max_entangled(2, 2).projector()

        # brute-force oracle: one million product samples cannot exceed the
        # separable ceiling 1/2, and sampling saturates it from below
        rng = np.random.default_rng(2025)
        oracle = 0.0
        for _ in range(4):
            a = rng.normal(size=(250_000, 2)) + 1j * rng.normal(size=(250_000, 2))
            b = rng.normal(size=(250_000, 2)) + 1j * rng.normal(size=(250_000, 2))
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            b /= np.linalg.norm(b, axis=1, keepdims=True)
            ov = np.abs(a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]) ** 2 / 2.0
            oracle = max(oracle, float(ov.max()))
        lam = lambda_min(proj, (2, 2))
        if abs(lam - 0.5) > 1e-6:
            problems.append(f"lambda_min {lam} != 0.5")
        if not (oracle - 1e-9 <= lam and oracle <= 0.5 + 1e-12):
            problems.append(f"oracle {oracle} inconsistent with lambda_min {lam}")
        if 0.5 - oracle > 5e-3:
            problems.append(f"oracle {oracle} too far below 0.5")

        for r in (1, 2, 3):
            got = schmidt_class_max(max_entangled(3, 3).projector(), r, (3, 3))
            if abs(got - r / 3) > 1e-6:
                problems.append(f"schmidt_class_max r={r}: {got} != {r / 3}")

        # dual-shift identity, elementwise to 1e-12, on random instances
        rng = np.random.default_rng(7)
        eye4 = np.eye(4)
        for _ in range(100):
            g = _rand_op(rng, 4)
            test_op = g @ dagger(g)
            test_op /= np.linalg.norm(test_op, 2)
            lam0 = float(rng.uniform(0.0, 1.5))
            p = float(rng.uniform(0.05, 1.0))
            sigma = random_separable((2, 2), terms=2, seed=int(rng.integers(1 << 30)))
            w = Witness(lam0 * eye4 - test_op, (2, 2), shifted=(lam0, test_op))
            ch = mixing_channel(p, sigma)
            shift = mixing_shifted_dual(p, sigma, w)
            lhs = ch.dual_apply(w.operator)
            rhs = shift.scale * (shift.lambda_prime * eye4 - test_op)
            resid = float(np.max(np.abs(lhs - rhs)))
            if resid > 1e-12:
                problems.append(f"dual-shift residual {resid:.2e} > 1e-12")
                break

        # separable mixing never lowers the shift; mixing toward the
        # maximally entangled state does
        rng = np.random.default_rng(8)
        cfg = OptimizerConfig(restarts=32, seed=8)
        for case in range(40):
            g = _rand_op(rng, 4)
            test_op = g @ dagger(g)
            test_op /= np.linalg.norm(test_op, 2)
            lam0 = lambda_min(test_op, (2, 2), cfg) + 0.05
            w = Witness.from_shift(lam0, test_op, (2, 2))
            p = float(rng.uniform(0.05, 0.95))
            sigma = random_separable((2, 2), terms=3, seed=20_000 + case)
            shift = mixing_shifted_dual(p, sigma, w)
            if shift.lambda_prime < lam0 - 1e-9:
                problems.append(
                    f"separable mix lowered shift: {shift.lambda_prime} < {lam0}"
                )
                break
        omega = DensityMatrix(proj, (2, 2))
        tight = Witness.from_shift(0.5, proj, (2, 2))
        shift = mixing_shifted_dual(0.5, omega, tight)
        if not shift.lambda_prime < 0.5 - 1e-9:
            problems.append(
                f"entangled mix kept shift {shift.lambda_prime} >= 0.5"
            )
    except Exception as exc:  # pragma: no cover
        problems.append(f"unexpected error: {exc!r}")
    _report(5, "lambda_min oracle, class ceilings, dual-shift algebra", problems)


# -- criterion 6: property suites --------------------------------------------


def _form_instances(rng, kind):
    """One product-preserving Kraus operator of the requested form on (2, 2)."""
    if kind == "tensor_product":
        return kron(_rand_op(rng, 2), _rand_op(rng, 2))
    if kind == "permutation_local":
        return kron(_rand_op(rng, 2), _rand_op(rng, 2)) @ swap_matrix(2)
    left = np.kron(random_state_vector(2, rng), random_state_vector(2, rng))
    return np.outer(left, np.conj(random_state_vector(4, rng)))


def test_criterion_6_property_suites():
    problems = []
    try:
        forms = ("tensor_product", "permutation_local", "local_range")

        # product-preserving forms never increase the Schmidt rank
        rng = np.random.default_rng(60)
        violations = 0
        for kind in forms:
            for i in range(1000):
                m = _form_instances(rng, kind)
                if i % 2 == 0:
                    psi = random_product_state((2, 2), seed=i).assemble()
                else:
                    psi = PureState(random_state_vector(4, rng), (2, 2))
                img = m @ psi.amplitudes
                nrm = np.linalg.norm(img)
                if nrm < 1e-12:
                    continue
                before = schmidt_rank(psi)
                after = schmidt_rank(PureState(img / nrm, (2, 2)))
                if after > before:
                    violations += 1
        if violations:
            problems.append(f"{violations} Schmidt-rank increases across forms")

        # duals of non-entangling channels keep witnesses non-negative on
        # products (forward direction of the witness characterization)
        rng = np.random.default_rng(61)
        cfg = OptimizerConfig(restarts=16, seed=61)
        proj = max_entangled(2, 2).projector()
        below = 0
        for case in range(200):
            ops = [
                _form_instances(rng, forms[int(rng.integers(0, 2))])
                for _ in range(int(rng.integers(1, 4)))
            ]
            norm = sum(dagger(m) @ m for m in ops)
            scale = np.sqrt(np.linalg.norm(norm, 2))
            ops = [m / scale for m in ops]
            from entpow.channels import KrausChannel

            ch = KrausChannel(ops, (2, 2))
            lam0 = 0.5 + float(rng.uniform(0.0, 0.5))
            w = Witness.from_shift(lam0, proj, (2, 2))
            val = min_over_products(ch.dual_apply(w.operator), (2, 2), cfg).value
            if val < -1e-6:
                below += 1
        if below:
            problems.append(f"{below}/200 non-entangling duals dipped below -1e-6")

        # duality pairing and Choi reconstruction on random channels
        rng = np.random.default_rng(62)
        worst = 0.0
        for _ in range(200):
            d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            dim = d1 * d2
            n_kraus = int(rng.integers(1, 4))
            iso = np.linalg.qr(
                rng.normal(size=(dim * n_kraus, dim))
                + 1j * rng.normal(size=(dim * n_kraus, dim))
            )[0]
            from entpow.channels import KrausChannel

            ch = KrausChannel(
                [iso[i * dim : (i + 1) * dim] for i in range(n_kraus)], (d1, d2)
            )
            g = _rand_op(rng, dim)
            rho = g @ dagger(g)
            rho /= np.trace(rho).real
            obs = g + dagger(g)
            pairing = abs(
                np.trace(ch.dual_apply(obs) @ rho) - np.trace(obs @ ch.apply_matrix(rho))
            )
            choi = ch.choi()
            from entpow.channels import choi_apply

            recon = np.max(np.abs(choi_apply(choi, rho) - ch.apply_matrix(rho)))
            worst = max(worst, float(pairing), float(recon))
        if worst > 1e-9:
            problems.append(f"duality/Choi residual {worst:.2e} > 1e-9")

        # structural classification recognizes every generated instance
        rng = np.random.default_rng(63)
        cfg = OptimizerConfig(seed=63)
        unknowns = 0
        for kind in forms:
            for _ in range(1000):
                st = classify_kraus(_form_instances(rng, kind), (2, 2), cfg)
                if not st.is_product_preserving or st.form != kind:
                    unknowns += 1
        if unknowns:
            problems.append(f"{unknowns} misclassifications across 3000 instances")
    except Exception as exc:  # pragma: no cover
        problems.append(f"unexpected error: {exc!r}")
    _report(6, "monotonicity, witness duals, duality/Choi, classification", problems)
