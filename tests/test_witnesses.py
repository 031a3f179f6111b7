import numpy as np
import pytest

from entpow.channels import mixing_channel
from entpow.errors import (
    DimensionError,
    EntpowError,
    IncomparableWitnessError,
    NotAWitnessError,
)
from entpow.states import (
    DensityMatrix,
    PureState,
    bell_states,
    max_entangled,
    random_state_vector,
    schmidt_decompose,
)
from entpow.tensor import dagger, kron, swap_matrix
from entpow.witnesses import (
    OptimizerConfig,
    Witness,
    compare_finer_shifted,
    default_witness_family,
    is_optimal,
    is_trivial,
    is_witness,
    lambda_min,
    max_over_products,
    measurement_scan_min,
    min_over_products,
    mixing_shifted_dual,
    ppt_witness_from_pure,
    product_minima,
    schmidt_class_max,
    swap_witness,
    unitary_mix_scan_min,
)

FAST = OptimizerConfig(restarts=24, seed=0)


def rand_herm(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + dagger(m)) / 2


def rand_psd(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return m @ dagger(m)


# -- the product-state optimizer --------------------------------------


def test_min_over_products_product_observable():
    # for A (x) B with A, B PSD the product minimum factorizes
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rand_psd(rng, 2)
        b = rand_psd(rng, 3)
        res = min_over_products(kron(a, b), (2, 3), FAST)
        expected = np.linalg.eigvalsh(a)[0] * np.linalg.eigvalsh(b)[0]
        assert abs(res.value - expected) < 1e-9


def test_max_over_products_rank_one_is_top_schmidt_coefficient():
    # <chi| (|psi><psi|) |chi> maximized over products = c_0(psi)^2
    rng = np.random.default_rng(1)
    for dims in ((2, 2), (3, 3), (2, 4)):
        for _ in range(10):
            psi = PureState(random_state_vector(dims[0] * dims[1], rng), dims)
            res = max_over_products(psi.projector(), dims, FAST)
            c0 = schmidt_decompose(psi).coefficients[0]
            assert abs(res.value - c0**2) < 1e-8


def test_optimizer_reaches_brute_force_minimum():
    # random-sampling oracle: optimizer must not be beaten by blind sampling
    rng = np.random.default_rng(2)
    obs = rand_herm(rng, 4)
    res = min_over_products(obs, (2, 2), FAST)
    best = np.inf
    for _ in range(20000):
        a = random_state_vector(2, rng)
        b = random_state_vector(2, rng)
        chi = np.kron(a, b)
        best = min(best, float(np.real(np.conj(chi) @ obs @ chi)))
    assert res.value <= best + 1e-9


def test_optimizer_argument_attains_value():
    rng = np.random.default_rng(3)
    obs = rand_herm(rng, 6)
    res = min_over_products(obs, (2, 3), FAST)
    chi = res.argument.assemble().amplitudes
    attained = float(np.real(np.conj(chi) @ obs @ chi))
    assert abs(attained - res.value) < 1e-10
    assert res.converged


def test_optimizer_deterministic():
    rng = np.random.default_rng(4)
    obs = rand_herm(rng, 9)
    r1 = min_over_products(obs, (3, 3), OptimizerConfig(restarts=16, seed=7))
    r2 = min_over_products(obs, (3, 3), OptimizerConfig(restarts=16, seed=7))
    assert r1.value == r2.value
    for f1, f2 in zip(r1.argument.factors, r2.argument.factors):
        assert np.array_equal(f1, f2)


def test_multiparty_known_overlaps():
    # closed-form geometric-measure values: GHZ -> 1/2, W -> 4/9
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    res = max_over_products(np.outer(ghz, ghz), (2, 2, 2), FAST)
    assert abs(res.value - 0.5) < 1e-8
    w = np.zeros(8)
    w[1] = w[2] = w[4] = 1 / np.sqrt(3)
    res = max_over_products(np.outer(w, w), (2, 2, 2), FAST)
    assert abs(res.value - 4 / 9) < 1e-8


@pytest.mark.parametrize("d", [2, 3])
def test_one_party_optimizer_is_the_spectrum(d):
    rng = np.random.default_rng(d)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    obs = (m + dagger(m)) / 2
    evals = np.linalg.eigvalsh(obs)
    assert abs(min_over_products(obs, (d,), FAST).value - evals[0]) < 1e-12
    assert abs(max_over_products(obs, (d,), FAST).value - evals[-1]) < 1e-12
    check = is_witness(Witness(obs - evals[0] * np.eye(d), (d,)), FAST)
    assert check.is_witness and abs(check.result.value) < 1e-12


def test_non_hermitian_rejected():
    with pytest.raises(DimensionError):
        min_over_products(np.array([[0, 1], [0, 0]], dtype=complex), (2,), FAST)
    # the check is relative to the largest entry, so scaling does not hide it
    with pytest.raises(DimensionError):
        min_over_products(1e-9 * np.array([[0, 1], [0, 0]], dtype=complex), (2,), FAST)


def test_optimizer_config_needs_a_restart():
    with pytest.raises(EntpowError, match="restarts"):
        OptimizerConfig(restarts=0)


def test_optimizer_config_needs_a_non_negative_seed():
    with pytest.raises(EntpowError, match="seed"):
        OptimizerConfig(seed=-1)


def _unit_norm_herm(seed, d):
    obs = rand_herm(np.random.default_rng(seed), d)
    return obs / np.linalg.norm(obs)


def _local_unitary(seed):
    rng = np.random.default_rng(seed)
    us = []
    for _ in range(2):
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        us.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return kron(*us)


@pytest.mark.parametrize("scale", [1e-9, 1e-3, 1.0, 1e3, 1e4, 1e5, 1e6])
def test_witness_checks_are_relative_to_the_operator(scale):
    # rounding in a rotation leaves an asymmetry and a shifted-form mismatch
    # proportional to the scale (1.5e-11 at 1e5 for the swap)
    u = _local_unitary(3)
    Witness(dagger(u) @ (scale * swap_matrix(2)) @ u, (2, 2))
    phi = bell_states().phi_plus.projector()
    test = dagger(u) @ (scale * phi) @ u
    op = dagger(u) @ (scale * (0.5 * np.eye(4) - phi)) @ u
    Witness(op, (2, 2), shifted=(0.5 * scale, test))


def test_tiny_operator_with_a_relative_skew_part_is_refused():
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1], skew[1, 0] = 1e-6, -1e-6
    with pytest.raises(DimensionError, match="Hermitian"):
        Witness(1e-9 * (swap_matrix(2) + skew), (2, 2))


def test_tiny_observable_converges_to_the_scaled_minimum():
    # convergence is judged relative to ||obs||, so a tiny observable is not cut short
    obs = _unit_norm_herm(5, 9)
    ref = min_over_products(obs, (3, 3), FAST)
    tiny = min_over_products(1e-9 * obs, (3, 3), FAST)
    assert tiny.converged
    assert abs(tiny.value / 1e-9 - ref.value) < 1e-9 * abs(ref.value)


@pytest.mark.parametrize("scale", [1e-150, 1e-300])
def test_far_scaled_observables_keep_their_minima(scale):
    # the shifted-pure test must not pass a general observable at a far scale
    obs = _unit_norm_herm(5, 9)
    psi = np.random.default_rng(5).normal(size=9)
    pure = 0.4 * np.eye(9) - np.outer(psi, psi) / (psi @ psi)
    refs = product_minima(np.array([obs, pure]), (3, 3), FAST)
    res = product_minima(scale * np.array([obs, pure]), (3, 3), FAST)
    assert np.array_equal(res.restarts_used, refs.restarts_used)
    assert np.all(np.abs(res.values / scale - refs.values) < 1e-9 * np.abs(refs.values))
    assert refs.restarts_used.tolist() == [FAST.restarts, 0]


def test_large_observable_tolerates_rounding_asymmetry():
    # Hermiticity is judged relative to max|obs|: 1e-7 on entries of size 1e6 is rounding
    obs = _unit_norm_herm(6, 9)
    ref = min_over_products(obs, (3, 3), FAST)
    big = 1e6 * obs
    big[0, 1] += 1e-7
    res = min_over_products(big, (3, 3), FAST)
    assert res.converged
    assert abs(res.value / 1e6 - ref.value) < 1e-9 * abs(ref.value)


# -- witness validation and algebra -----------------------------------


def test_witness_requires_hermitian():
    with pytest.raises(DimensionError):
        Witness(np.array([[0, 1j], [0, 0]]), (2,))


def test_witness_shifted_form_checked():
    proj = max_entangled(2, 2).projector()
    w = Witness.from_shift(0.8, proj, (2, 2))
    assert w.shifted is not None
    with pytest.raises(DimensionError):
        Witness(np.eye(4), (2, 2), shifted=(0.5, proj))  # operator mismatch
    with pytest.raises(DimensionError, match="must be PSD"):
        Witness.from_shift(0.5, np.diag([1.0, -1.0, 0.0, 0.0]), (2, 2))


def test_lambda_min_of_max_entangled():
    # frozen oracle: largest product overlap with phi+_d is 1/d
    for d in (2, 3):
        val = lambda_min(max_entangled(d, d).projector(), (d, d), FAST)
        assert abs(val - 1 / d) < 1e-8


def test_lambda_min_requires_psd():
    with pytest.raises(DimensionError):
        lambda_min(np.diag([1.0, -1.0]), (2,), FAST)


def test_swap_witness_is_optimal_witness():
    w = swap_witness(2)
    assert np.array_equal(w.operator, swap_matrix(2))
    check = is_witness(w, FAST)
    assert check.is_witness
    assert abs(check.result.value) < 1e-9  # the singlet direction touches zero
    assert is_optimal(w, FAST)


def test_shifted_witness_family():
    proj = max_entangled(2, 2).projector()
    # lambda = 1/2 is exactly lambda_min: witness, and optimal
    tight = Witness.from_shift(0.5, proj, (2, 2))
    assert is_witness(tight, FAST).is_witness
    assert is_optimal(tight, FAST)
    # lambda = 4/5 is a strictly-positive witness, not optimal
    loose = Witness.from_shift(0.8, proj, (2, 2))
    assert is_witness(loose, FAST).is_witness
    assert not is_optimal(loose, FAST)
    # lambda = 1/3 < lambda_min is not a witness at all
    broken = Witness.from_shift(1 / 3, proj, (2, 2))
    assert not is_witness(broken, FAST).is_witness
    with pytest.raises(NotAWitnessError):
        is_optimal(broken, FAST)


def test_is_trivial():
    proj = max_entangled(2, 2).projector()
    assert is_trivial(Witness.from_shift(1.25, proj, (2, 2)))
    assert not is_trivial(Witness.from_shift(0.8, proj, (2, 2)))


def test_compare_finer_shifted():
    proj = max_entangled(2, 2).projector()
    w1 = Witness.from_shift(0.6, proj, (2, 2))
    w2 = Witness.from_shift(0.8, proj, (2, 2))
    assert compare_finer_shifted(w1, w2, FAST) == "w1_finer"
    assert compare_finer_shifted(w2, w1, FAST) == "w2_finer"
    assert compare_finer_shifted(w1, w1, FAST) == "equal"
    other = Witness.from_shift(0.6, swap_matrix(2) @ proj @ swap_matrix(2) + 1e-3 * np.eye(4), (2, 2))
    with pytest.raises(IncomparableWitnessError):
        compare_finer_shifted(w1, other, FAST)
    with pytest.raises(IncomparableWitnessError):
        compare_finer_shifted(w1, Witness(proj, (2, 2)), FAST)
    too_low = Witness.from_shift(0.2, proj, (2, 2))
    with pytest.raises(NotAWitnessError):
        compare_finer_shifted(w1, too_low, FAST)


def test_ppt_witness_from_pure():
    bell = bell_states()
    w = ppt_witness_from_pure(bell.psi_minus)
    assert is_witness(w, FAST).is_witness
    # it detects the maximally entangled state at value -1/2
    phi = max_entangled(2, 2)
    val = float(np.real(np.conj(phi.amplitudes) @ w.operator @ phi.amplitudes))
    assert abs(val + 0.5) < 1e-12
    with pytest.raises(DimensionError):
        ppt_witness_from_pure(PureState(np.array([1, 0, 0, 0.0]), (2, 2)))


# -- Schmidt-class maxima ---------------------------------------------


def test_schmidt_class_max_maximally_entangled():
    # frozen oracle: for phi+_d the rank-r maximum is exactly r/d
    for d in (2, 3):
        proj = max_entangled(d, d).projector()
        for r in range(1, d + 1):
            val = schmidt_class_max(proj, r, (d, d), FAST)
            assert abs(val - r / d) < 1e-9


def test_schmidt_class_max_limits():
    rng = np.random.default_rng(5)
    obs = rand_herm(rng, 9)
    # full rank reduces to the top eigenvalue
    top = float(np.linalg.eigvalsh(obs)[-1])
    assert abs(schmidt_class_max(obs, 3, (3, 3), FAST) - top) < 1e-8
    # rank 1 agrees with the product-state maximum
    prod = max_over_products(obs, (3, 3), FAST).value
    assert abs(schmidt_class_max(obs, 1, (3, 3), FAST) - prod) < 1e-8
    # monotone in r
    vals = [schmidt_class_max(obs, r, (3, 3), FAST) for r in (1, 2, 3)]
    assert vals[0] <= vals[1] + 1e-10 <= vals[2] + 2e-10
    with pytest.raises(DimensionError):
        schmidt_class_max(obs, 4, (3, 3), FAST)
    with pytest.raises(DimensionError, match="must be Hermitian"):
        schmidt_class_max(obs + 1j * np.eye(9)[::-1], 1, (3, 3), FAST)


@pytest.mark.parametrize("d", [3, 4])
def test_schmidt_class_max_scales_with_the_operator(d):
    rng = np.random.default_rng(d)
    obs = rand_herm(rng, d * d)
    obs /= np.linalg.norm(obs, 2)
    for r in (1, 2):
        ref = schmidt_class_max(obs, r, (d, d), FAST)
        for s in (1e-11, 1e-6, 1e3, 1e6):
            assert abs(schmidt_class_max(s * obs, r, (d, d), FAST) / s - ref) < 1e-9
    assert schmidt_class_max(np.zeros((d * d, d * d)), 1, (d, d), FAST) == 0.0


# -- closed-form scan oracles -----------------------------------------


def test_measurement_scan_min_frozen_values():
    assert abs(measurement_scan_min(0, 0) - 0.75) < 1e-12
    assert abs(measurement_scan_min(1, 1) + 1.0) < 1e-12
    assert abs(measurement_scan_min(1 / 3, 1 / 2)) < 1e-12  # the kink sits at zero
    assert abs(measurement_scan_min(0.9, 0.9) + 0.825) < 1e-12
    with pytest.raises(Exception):
        measurement_scan_min(1.5, 0)


def test_measurement_scan_zero_contour():
    # zeros on q = 1/2 while p <= 1/3, then along 3p + 4q = 3 while q <= 1/2
    for p in (0.0, 0.1, 0.2, 1 / 3):
        assert abs(measurement_scan_min(p, 0.5)) < 1e-12
    for q in (0.0, 0.2, 0.4, 0.5):
        p = (3 - 4 * q) / 3
        assert abs(measurement_scan_min(p, q)) < 1e-12
    # off the contour the sign is determined: negative above q = 1/2,
    # negative to the right of 3p + 4q = 3, positive inside the wedge
    assert measurement_scan_min(0.1, 0.6) < 0
    assert measurement_scan_min(0.9, 0.4) < 0
    assert measurement_scan_min(0.2, 0.3) > 0


def test_unitary_mix_scan_frozen_values():
    assert abs(unitary_mix_scan_min(1, 0) + 0.2) < 1e-9
    assert abs(unitary_mix_scan_min(0, 0) - 0.3) < 1e-9
    assert abs(unitary_mix_scan_min(0, 1) - 0.3) < 1e-9
    with pytest.raises(Exception):
        unitary_mix_scan_min(0.8, 0.8)  # p + q > 1


def test_unitary_mix_scan_shift_variant():
    # with the conservative constant 5/4 nothing on the grid goes below 1/4
    vals = [
        unitary_mix_scan_min(p, q, shift=1.25)
        for p in np.linspace(0, 1, 6)
        for q in np.linspace(0, 1, 6)
        if p + q <= 1
    ]
    assert min(vals) >= 0.25 - 1e-9


# -- mixing channels and shifted duals --------------------------------


def test_mixing_shifted_dual_identity():
    # Lambda*(lam I - L) == scale * (lam' I - L) exactly
    rng = np.random.default_rng(6)
    for _ in range(30):
        p = float(rng.uniform(0.05, 1.0))
        sig = rand_psd(rng, 4)
        sigma = DensityMatrix(sig / np.trace(sig).real, (2, 2))
        lam = float(rng.uniform(0.5, 2.0))
        test_op = rand_psd(rng, 4)
        w = Witness.from_shift(lam, test_op, (2, 2))
        res = mixing_shifted_dual(p, sigma, w)
        ch = mixing_channel(p, sigma)
        lhs = ch.dual_apply(w.operator)
        rhs = res.scale * (res.lambda_prime * np.eye(4) - test_op)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        assert abs(res.scale - p) < 1e-15


def test_mixing_shifted_dual_monotonicity():
    # separable sigma with lam >= lambda_min keeps lam' >= lam;
    # the maximally entangled sigma with the tight witness drives lam' < lam
    proj = max_entangled(2, 2).projector()
    w = Witness.from_shift(0.5, proj, (2, 2))
    sep = DensityMatrix(np.eye(4) / 4, (2, 2))
    for p in (0.2, 0.5, 0.9):
        assert mixing_shifted_dual(p, sep, w).lambda_prime >= 0.5 - 1e-12
    ent = max_entangled(2, 2).density()
    for p in (0.2, 0.5, 0.9):
        assert mixing_shifted_dual(p, ent, w).lambda_prime < 0.5 - 1e-6


def test_mixing_shifted_dual_requires_shifted():
    w = Witness(swap_matrix(2), (2, 2))
    sep = DensityMatrix(np.eye(4) / 4, (2, 2))
    with pytest.raises(Exception):
        mixing_shifted_dual(0.5, sep, w)
    shifted = Witness.from_shift(0.5, max_entangled(2, 2).projector(), (2, 2))
    with pytest.raises(DimensionError, match="0 < p <= 1"):
        mixing_shifted_dual(0.0, sep, shifted)


# -- the default family -----------------------------------------------


def test_default_family_members_are_witnesses():
    for dims in ((2, 2), (3, 3), (2, 3)):
        family = default_witness_family(dims)
        assert family, f"empty family for {dims}"
        for w in family:
            assert is_witness(w, FAST).is_witness, w.label


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 4), (2, 3), (3, 4)])
def test_default_family_has_no_repeated_member(dims):
    # a member equal to a positive multiple of another fires exactly when it does
    family = default_witness_family(dims)
    for i, a in enumerate(family):
        for b in family[i + 1:]:
            t = np.vdot(b.operator, a.operator).real / np.vdot(b.operator, b.operator).real
            gap = np.linalg.norm(a.operator - t * b.operator)
            assert t <= 0 or gap > 1e-12 * np.linalg.norm(a.operator), (a.label, b.label)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3)])
def test_default_family_is_built_once_with_read_only_members(dims):
    first, second = default_witness_family(dims), default_witness_family(list(dims))
    assert first is not second and first == second
    for a, b in zip(first, second):
        assert a.label == b.label and np.array_equal(a.operator, b.operator)
    for w in first:
        with pytest.raises(ValueError, match="read-only"):
            w.operator[0, 0] = 7.0
        if w.shifted is not None:
            with pytest.raises(ValueError, match="read-only"):
                w.shifted[1][0, 0] = 7.0
    first.clear()
    assert default_witness_family(dims) == second


def test_default_family_for_qubits_is_swap_and_shifted_rank2():
    assert [w.label for w in default_witness_family((2, 2))] == ["swap", "shifted_rank2"]
