"""Write optimizer scan values or descended minima at full precision, or compare two such dumps.

    python3 scripts/dump_scan_outputs.py dump OUTDIR --seeds 0 1 7 --step 0.05
    python3 scripts/dump_scan_outputs.py descent OUTDIR
    python3 scripts/dump_scan_outputs.py compare DIR_A DIR_B [--tol TOL]

``dump`` runs ``run_scan(scenario, step, "optimizer")`` with ``OptimizerConfig(seed=SEED)``
for each scenario and seed, through the `src` tree beside this script, and
writes ``OUTDIR/<scenario>-<seed>.csv`` with one row per grid point:
``p,q,min_value,converged``. Values are written with ``repr``, so they round-trip
exactly; the CLI's CSV keeps 12 significant digits.

``descent`` runs ``product_minima`` at the default config (64 restarts) on a
fixed seeded set of observables that the multi-start descent solves, which no
scan reaches: Gaussian Hermitian stacks on (2, 3), (3, 3), (2, 2, 2) and
(3, 4), a two-qubit ``c I + |psi><psi|`` with relative 1e-9 noise whose dual
certificate declines, and a (3, 3) stack of 2,560 rows. It writes
``OUTDIR/descent-<case>.csv`` with one row per observable:
``case,observable,min_value,converged,restarts,spread,kets``, the kets being
every party's entries in party order, space-separated.

Run either from two checkouts and ``compare``: it prints, per file and in
total, the largest difference of ``min_value``, the signed range of B - A (so
a change that only lowers minima shows a range at or below 0), and the number
of cells that differ, and exits 1 when a file is missing, a grid or
``converged`` flag differs, or a value, or in a descent dump a restart count,
spread or ket entry, differs by more than ``--tol`` (default 0: any
difference). The scan-side twin of `dump_certify_outputs.py`. BLAS is held to
one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import math
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

import numpy as np  # noqa: E402

from entpow import scans  # noqa: E402
from entpow.witnesses import OptimizerConfig, product_minima  # noqa: E402

HEADER = ["p", "q", "min_value", "converged"]
DESCENT_HEADER = ["case", "observable", "min_value", "converged", "restarts", "spread", "kets"]


def dump(outdir: Path, seeds: list[int], step: float) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    minimize = scans.product_minima
    for scenario in scans.SCENARIOS:
        for seed in seeds:
            found = []

            def recording(*args, **kwargs):  # run_scan's one optimizer call, kept per point
                found.append(minimize(*args, **kwargs))
                return found[-1]

            scans.product_minima = recording
            try:
                result = scans.run_scan(scenario, step, "optimizer", OptimizerConfig(seed=seed))
            finally:
                scans.product_minima = minimize
            (minima,) = found
            with open(outdir / f"{scenario}-{seed}.csv", "w", newline="") as fh:
                out = csv.writer(fh, lineterminator="\n")
                out.writerow(HEADER)
                for (p, q, value), flag in zip(result.rows, minima.converged.tolist(), strict=True):
                    out.writerow([repr(p), repr(q), repr(value), flag])
    return 0


def hermitian(seed: int, d: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + np.conj(m.T)) / 2


def declined() -> np.ndarray:
    """``c I + |psi><psi|`` plus noise of relative size 1e-9, on two qubits: the
    observable of `test_a_declined_observable_is_descended`."""
    rng = np.random.default_rng(0)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    c = rng.uniform(-2.0, 2.0) * np.vdot(psi, psi).real
    obs = c * np.eye(4) + np.outer(psi, np.conj(psi))
    noise = hermitian(1, 4)
    return obs + 1e-9 * np.linalg.norm(obs) / np.linalg.norm(noise) * noise


def descent(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    cases = [("x".join(map(str, dims)), dims, [hermitian(s, int(np.prod(dims))) for s in range(8)])
             for dims in [(2, 3), (3, 3), (2, 2, 2), (3, 4)]]
    cases += [("declined", (2, 2), [declined()]),
              ("stack", (3, 3), [hermitian(s, 9) for s in range(40)])]  # 40 x 64 restarts = 2,560 rows
    for name, dims, stack in cases:
        found = product_minima(np.array(stack), dims)
        with open(outdir / f"descent-{name}.csv", "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(DESCENT_HEADER)
            for k in range(len(stack)):
                kets = " ".join(repr(complex(x)) for ket in found.kets for x in ket[k])
                out.writerow([name, k, repr(found.values[k].item()), found.converged[k].item(),
                              found.restarts_used[k].item(), repr(found.spread[k].item()), kets])
    return 0


def read(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] not in (HEADER, DESCENT_HEADER):
        raise ValueError(f"{path}: not a scan or descent dump")
    return rows[0], rows[1:]


def gap(x: str, y: str) -> float:
    """Largest |difference| between two cells of space-separated numbers."""
    return max(abs(complex(a) - complex(b)) for a, b in zip(x.split(), y.split(), strict=True))


def compare(a: Path, b: Path, tol: float) -> int:
    names_a = {p.name for p in a.glob("*.csv")}
    names_b = {p.name for p in b.glob("*.csv")}
    problems = [f"{n}: only in {a}" for n in sorted(names_a - names_b)]
    problems += [f"{n}: only in {b}" for n in sorted(names_b - names_a)]
    cells = differ = 0
    largest, low, high = 0.0, math.inf, -math.inf
    for name in sorted(names_a & names_b):
        (head_a, rows_a), (head_b, rows_b) = read(a / name), read(b / name)
        if head_a != head_b or [r[:2] for r in rows_a] != [r[:2] for r in rows_b]:
            problems.append(f"{name}: grids differ")
            continue
        signed = [float(y[2]) - float(x[2]) for x, y in zip(rows_a, rows_b)]
        gaps = [abs(g) for g in signed]
        flags = sum(x[3] != y[3] for x, y in zip(rows_a, rows_b))
        moved = sum(x[2] != y[2] for x, y in zip(rows_a, rows_b))
        cells, differ, largest = cells + len(gaps), differ + moved, max(largest, *gaps)
        low, high = min(low, *signed), max(high, *signed)
        print(f"{name}: {moved} of {len(gaps)} values differ, largest by {max(gaps):.3g}, "
              f"B - A in [{min(signed):.3g}, {max(signed):.3g}]; {flags} converged flags differ")
        others = [(x[i], y[i]) for x, y in zip(rows_a, rows_b) for i in range(4, len(head_a))]
        if others:  # a descent dump's restarts, spread and kets
            worst = max(gap(x, y) for x, y in others)
            print(f"{name}: {sum(x != y for x, y in others)} of {len(others)} other cells differ, "
                  f"largest by {worst:.3g}")
            if worst > tol:
                problems.append(f"{name}: a restart count, spread or ket differs by {worst:.3g} > {tol:.3g}")
        if flags:
            problems.append(f"{name}: {flags} converged flags differ")
        if max(gaps) > tol:
            problems.append(f"{name}: a value differs by {max(gaps):.3g} > {tol:.3g}")
    for line in problems:
        print(line)
    print(f"{differ} of {cells} values differ, largest by {largest:.3g}, "
          f"B - A in [{low:.3g}, {high:.3g}]; {len(problems)} problems")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump")
    p_dump.add_argument("outdir", type=Path)
    p_dump.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 7])
    p_dump.add_argument("--step", type=float, default=0.05)
    p_descent = sub.add_parser("descent")
    p_descent.add_argument("outdir", type=Path)
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("a", type=Path)
    p_cmp.add_argument("b", type=Path)
    p_cmp.add_argument("--tol", type=float, default=0.0)
    args = parser.parse_args()
    if args.command == "dump":
        return dump(args.outdir, args.seeds, args.step)
    if args.command == "descent":
        return descent(args.outdir)
    return compare(args.a, args.b, args.tol)


if __name__ == "__main__":
    sys.exit(main())
