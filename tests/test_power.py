from contextlib import ExitStack
from unittest.mock import patch

import numpy as np
import pytest

from entpow.channels import (
    KrausChannel,
    identity_channel,
    mixing_channel,
    rank_boost_channel,
    replacement_channel,
    swap_channel,
    unitary_channel,
)
from entpow import power
from entpow.errors import ArityError, DimensionError
from entpow.power import (
    certify_kraus_channel,
    channel_schmidt_number_bounds,
    channel_schmidt_rank,
    classify_kraus,
    classify_kraus_many,
    entanglement_annihilating_check,
    nonentangling_threshold,
)
from entpow.states import (
    DensityMatrix,
    PureState,
    max_entangled,
    random_product_state,
    random_separable,
    random_state_vector,
    schmidt_rank,
)
from entpow.tensor import DimList, kron, swap_matrix
from entpow.witnesses import OptimizerConfig, swap_witness

CNOT = np.eye(4)[[0, 1, 3, 2]]


def rand_op(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


# -- structural classification ----------------------------------------


def test_classify_tensor_product():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = kron(rand_op(rng, 2), rand_op(rng, 3))
        st = classify_kraus(m, (2, 3))
        assert st.form == "tensor_product"
        assert st.is_product_preserving
        a, b = st.factors
        assert np.max(np.abs(kron(a, b) - m)) < 1e-10


def test_classify_permutation_local():
    rng = np.random.default_rng(1)
    v = swap_matrix(3)
    for _ in range(50):
        m = kron(rand_op(rng, 3), rand_op(rng, 3)) @ v
        st = classify_kraus(m, (3, 3))
        assert st.form == "permutation_local"
        assert st.permutation == (1, 0)
        assert st.is_product_preserving


def test_classify_rank_one_product():
    rng = np.random.default_rng(2)
    for _ in range(50):
        left = np.kron(random_state_vector(2, rng), random_state_vector(2, rng))
        right = random_state_vector(4, rng)  # arbitrary, may be entangled
        m = np.outer(left, np.conj(right))
        st = classify_kraus(m, (2, 2))
        assert st.form == "local_range"
        assert st.is_product_preserving
        # |chi1 chi2><psi| is chi1 (x) N for N = |chi2><psi|
        assert [f.shape for f in st.factors] == [(2,), (2, 4)]
        assert np.max(np.abs(rebuild(st, (2, 2)) - m)) < 1e-9


def party_swap(d1, d2):
    """V |x, y> = |y, x> from the (d1, d2) space to the (d2, d1) space."""
    return np.eye(d1 * d2).reshape(d1, d2, d1 * d2).transpose(1, 0, 2).reshape(d1 * d2, -1)


def rebuild(st, dims):
    """The operator a structure's per-party factors stand for."""
    d1, d2 = dims
    m = np.kron(st.factors[0].reshape(d1, -1), st.factors[1].reshape(d2, -1))
    return m @ party_swap(d1, d2) if st.permutation else m


@pytest.mark.parametrize("dims", [(3, 3), (2, 3), (3, 2)])
def test_classify_local_range_and_rectangular_swap(dims):
    # a (x) N and N (x) b: the range lies in a (x) C^d2 or C^d1 (x) b; and
    # M (x (x) y) = A y (x) B x, which needs A (d1, d2) and B (d2, d1)
    d1, d2 = dims
    n = d1 * d2
    rng = np.random.default_rng(12)

    def rand(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    for _ in range(20):
        cases = [
            ("local_range", None, [(d1,), (d2, n)], np.kron(rand(d1, 1), rand(d2, n))),
            ("local_range", None, [(d1, n), (d2,)], np.kron(rand(d1, n), rand(d2, 1))),
            ("permutation_local", (1, 0), [(d1, d2), (d2, d1)],
             np.kron(rand(d1, d2), rand(d2, d1)) @ party_swap(d1, d2)),
        ]
        for form, permutation, shapes, m in cases:
            st = classify_kraus(m, dims)
            assert (st.form, st.permutation) == (form, permutation)
            assert [f.shape for f in st.factors] == shapes
            assert np.max(np.abs(rebuild(st, dims) - m)) < 1e-12


def test_classify_unknown_with_stochastic_violation():
    st = classify_kraus(CNOT, (2, 2))
    assert st.form == "unknown"
    assert not st.is_product_preserving
    assert st.image_rank == 2
    # the probe hit is stored as a replayable violation: a product input whose
    # image falls below the separable maximum of the stored witness
    v = st.violation
    assert (v.kind, v.kraus_index) == ("stochastic", 0)
    inp = v.input.assemble()
    assert schmidt_rank(inp) == 1
    img = CNOT @ inp.amplitudes
    img = img / np.linalg.norm(img)
    assert schmidt_rank(PureState(img, (2, 2))) == 2
    assert np.vdot(img, v.witness.operator @ img).real == pytest.approx(v.value, abs=1e-12)
    assert v.value < -1e-8


def test_weak_probe_hit_gives_rank_but_no_violation():
    # the image of a (x) b has Schmidt coefficients near (1, 1e-6): rank 2, but
    # c0^2 - 1 stays above -TOL_WITNESS, so the hit certifies nothing
    m = np.diag([1, 0, 0, 1e-6]).astype(complex)
    st = classify_kraus(m, (2, 2))
    assert (st.form, st.image_rank, st.violation) == ("unknown", 2, None)
    cert = certify_kraus_channel(KrausChannel([m], (2, 2)))
    assert cert.structures[0].image_rank == 2 and cert.structures[0].violation is None
    assert cert.violations and {v.kind for v in cert.violations} == {"witness"}


def test_classify_rank_one_entangling_is_not_product_preserving():
    # |phi+><e0| maps |0>|0> to an entangled vector
    phi = max_entangled(2, 2).amplitudes
    e0 = np.zeros(4)
    e0[0] = 1.0
    m = np.outer(phi, e0)
    st = classify_kraus(m, (2, 2))
    assert st.form == "unknown"
    assert not st.is_product_preserving


def test_classify_is_bipartite_only():
    with pytest.raises(ArityError):
        classify_kraus(np.eye(8), (2, 2, 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_classify_rejects_non_finite_entries(bad):
    m = np.eye(4)
    m[3, 0] = bad
    with pytest.raises(DimensionError, match="finite"):
        classify_kraus(m, (2, 2))
    with pytest.raises(DimensionError, match="finite"):
        classify_kraus_many([np.eye(4), m], (2, 2))


# -- channel Schmidt rank (single Kraus operator) ----------------------


def test_channel_schmidt_rank_product_preserving_is_one():
    rng = np.random.default_rng(3)
    m = kron(rand_op(rng, 3), rand_op(rng, 3))
    assert channel_schmidt_rank(m, (3, 3)) == 1
    assert channel_schmidt_rank(swap_matrix(2), (2, 2)) == 1


def test_channel_schmidt_rank_projector_pair():
    # |phi+_k'><phi+_k| reaches exactly k'
    for k in (2, 3):
        for kp in (2, 3, 4):
            m = np.outer(
                max_entangled(kp, 4).amplitudes, np.conj(max_entangled(k, 4).amplitudes)
            )
            assert channel_schmidt_rank(m, (4, 4)) == kp


def test_channel_schmidt_rank_basis_bra():
    # |phi+_k><j| reaches k for a basis vector |j> with nonzero overlap reach
    for k in (2, 3):
        phi = max_entangled(k, 3).amplitudes
        e = np.zeros(9)
        e[4] = 1.0  # |11>, inside the support of phi+_k
        m = np.outer(phi, e)
        assert channel_schmidt_rank(m, (3, 3)) == k


def test_channel_schmidt_rank_cnot():
    assert channel_schmidt_rank(CNOT, (2, 2)) == 2


# -- Schmidt number bounds --------------------------------------------


def test_bounds_swap_and_identity():
    for ch in (swap_channel(2), identity_channel((2, 2))):
        b = channel_schmidt_number_bounds(ch)
        assert (b.lower, b.upper) == (1, 1)


def test_bounds_replacement_exact():
    for k in (2, 3):
        ch = replacement_channel(max_entangled(k, 3))
        b = channel_schmidt_number_bounds(ch)
        assert (b.lower, b.upper) == (k, k)
        assert "replacement" in b.method


def test_replacement_is_read_from_a_pure_output_only():
    # the fixed output comes from the Kraus list: a second eigenvalue of 1e-11
    # makes it mixed, and its dominant eigenvector Phi_3 no longer stands in for it
    phi = max_entangled(3, 3)
    pure = channel_schmidt_number_bounds(replacement_channel(phi))
    assert (pure.lower, pure.upper) == (3, 3) and "replacement" in pure.method
    e01 = np.eye(9)[1]
    rho = (1 - 1e-11) * phi.projector() + 1e-11 * np.outer(e01, e01)
    mixed = channel_schmidt_number_bounds(replacement_channel(DensityMatrix(rho, (3, 3))))
    assert "replacement" not in mixed.method
    assert mixed.lower <= 3 <= mixed.upper


def test_replacement_target_ignores_a_zero_kraus_operator():
    ch = replacement_channel(max_entangled(3, 3))
    padded = KrausChannel([*ch.kraus, np.zeros((9, 9))], (3, 3))
    b = channel_schmidt_number_bounds(padded)
    assert (b.lower, b.upper) == (3, 3) and "replacement" in b.method


def test_bounds_entangling_unitary():
    b = channel_schmidt_number_bounds(unitary_channel(CNOT, (2, 2)))
    assert b.lower == 2
    assert b.upper == 2


def controlled_shift(d):
    """``|a, b> -> |a, a + b mod d>``: operator Schmidt rank d, image rank d."""
    shift = np.roll(np.eye(d), 1, axis=0)
    return sum(np.kron(np.diag(np.eye(d)[a]), np.linalg.matrix_power(shift, a))
               for a in range(d))


@pytest.mark.parametrize("d", [2, 3, 4])  # the controlled shift for d = 2 is CNOT
def test_choi_rank_one_bounds_are_the_image_rank_for_any_split(d):
    rng = np.random.default_rng(d)
    local = [kron(haar(rng, d), haar(rng, d)) for _ in range(2)]
    u = local[0] @ controlled_shift(d) @ local[1]
    w = rng.dirichlet(np.ones(3))
    c = np.sqrt(w) * np.exp(2j * np.pi * rng.random(3))
    for ops in ([u], [np.sqrt(0.5) * u] * 2, [cj * u for cj in c]):
        b = channel_schmidt_number_bounds(KrausChannel(ops, (d, d)))
        assert (b.lower, b.upper) == (d, d)
        assert b.method == "Choi rank 1: exact image rank of the one Kraus operator"
        assert b.certificate is not None and len(b.certificate) == len(ops)


def test_bounds_hidden_product_decomposition():
    # stored operators entangle individually, but a remixing is product
    rng = np.random.default_rng(4)
    ab = kron(rand_op(rng, 2), rand_op(rng, 2))
    cd = kron(rand_op(rng, 2), rand_op(rng, 2))
    ch = KrausChannel([(ab + cd) / np.sqrt(2), (ab - cd) / np.sqrt(2)], (2, 2))
    b = channel_schmidt_number_bounds(ch)
    assert (b.lower, b.upper) == (1, 1)


# -- golden pins: bounds and verdicts recorded before the blocked searches --


def haar(rng, n):
    q, r = np.linalg.qr(rand_op(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rank_boost_23():
    lam0 = 0.99
    lam1 = 1 / (9 * lam0)
    return rank_boost_channel(2, 3, np.array([lam0, lam1, np.sqrt(1 - lam0**2 - lam1**2)]))


def sum_difference_pair():
    """``(ab +- cd)/sqrt 2``, whose product decomposition is ab, cd."""
    rng = np.random.default_rng(4)
    ab = kron(rand_op(rng, 2), rand_op(rng, 2))
    cd = kron(rand_op(rng, 2), rand_op(rng, 2))
    return KrausChannel([(ab + cd) / np.sqrt(2), (ab - cd) / np.sqrt(2)], (2, 2)), (ab, cd)


def hidden_mixture(seed, dims, terms, swap=False):
    """`terms` weighted local unitaries, each times the party swap when `swap`,
    with the Kraus list rotated by a Haar unitary."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(terms))
    ops = np.array([np.sqrt(pi) * kron(haar(rng, dims[0]), haar(rng, dims[1])) for pi in p])
    if swap:
        ops = ops @ swap_matrix(dims[0])
    return KrausChannel(list(np.einsum("ij,jkl->ikl", haar(rng, terms), ops)), dims)


def hidden_qutrit_mixture():
    return hidden_mixture(8, (3, 3), 3)


def bell_mixing():
    return mixing_channel(0.3, DensityMatrix(max_entangled(2, 2).projector(), (2, 2)))


def unnormalized_choi(ops):
    """``sum_k |K_k>><<K_k|``: the Choi matrix up to its index order and scale,
    defined for channels that are not trace-preserving too."""
    flat = np.array(ops).reshape(len(ops), -1)
    return flat.T @ np.conj(flat)


def reproduces_choi(ops, ch):
    want = unnormalized_choi(ch.kraus)
    return np.linalg.norm(unnormalized_choi(ops) - want) <= 1e-9 * np.linalg.norm(want)


SNE = "stochastically_nonentangling"
DECOMPOSITION = "product-preserving Kraus decomposition"
DECOMPOSITION_NOTE = "a product-preserving remixing of the Kraus list reproduces the Choi matrix"
STOCHASTIC_NOTE = (
    "structural classification incomplete and no witness violation found; a stored Kraus "
    "operator entangles a product input, which speaks only about the stored list"
)


@pytest.mark.parametrize(
    "build, bounds, verdict, note",
    [
        # on the threshold of `nonentangling_threshold`: not entangling, and only
        # its stored list entangles
        pytest.param(
            rank_boost_23, (1, 3, "stored decomposition"), "inconclusive", STOCHASTIC_NOTE,
            id="rank_boost_23-inconclusive",
        ),
        # SNE by construction: three local unitaries hidden by a Haar unitary
        pytest.param(
            hidden_qutrit_mixture, (1, 1, DECOMPOSITION), SNE, DECOMPOSITION_NOTE,
            id="hidden_qutrit_mixture-sne",
        ),
        (bell_mixing, (2, 2, "stored decomposition"), "entangling", ""),
    ],
)
def test_golden_bounds_and_verdicts(build, bounds, verdict, note):
    ch = build()
    b = channel_schmidt_number_bounds(ch)
    assert (b.lower, b.upper, b.method) == bounds
    assert len(b.certificate) == len(ch.kraus)
    assert reproduces_choi(b.certificate, ch)
    if b.method == "stored decomposition":
        assert all(np.allclose(c, k) for c, k in zip(b.certificate, ch.kraus))
    cert = certify_kraus_channel(ch)
    assert (cert.verdict, cert.note) == (verdict, note)
    assert verdict != SNE or all(s.is_product_preserving for s in cert.structures)


@pytest.mark.parametrize(
    "build",
    [lambda: unitary_channel(CNOT, (2, 2)), rank_boost_23, bell_mixing],
    ids=["cnot", "rank_boost_23", "bell_mixing"],
)
def test_one_search_backs_evidence_and_schmidt_ranks(build):
    ch = build()
    config = OptimizerConfig()
    cert = certify_kraus_channel(ch, config)
    structures = classify_kraus_many(ch.kraus, ch.dims, config)
    stochastic = [v for v in cert.violations if v.kind == "stochastic"]
    assert stochastic
    for v in stochastic:
        assert v is cert.structures[v.kraus_index].violation
        alone = structures[v.kraus_index]
        w = alone.violation
        assert w.value == v.value and np.array_equal(w.witness.operator, v.witness.operator)
        assert all(np.array_equal(x, y) for x, y in zip(v.input.factors, w.input.factors))
        assert channel_schmidt_rank(ch.kraus[v.kraus_index], ch.dims, config) == alone.image_rank


def hidden_product_pair():
    rng = np.random.default_rng(5)
    ab = kron(rand_op(rng, 2), rand_op(rng, 2))
    cd = kron(rand_op(rng, 2), rand_op(rng, 2))
    return KrausChannel([(ab + cd) / np.sqrt(2), (ab - cd) / np.sqrt(2)], (2, 2))


def test_simple_tensor_basis_refuses_dependent_factors():
    # A (x) B1 and A (x) B2 span no basis of two simple tensors with independent A-factors
    rng = np.random.default_rng(4)
    a = rand_op(rng, 2)
    ops = np.array([kron(a, rand_op(rng, 2)), kron(a, rand_op(rng, 2))])
    t = ops.reshape(2, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(2, 4, 4)  # (r, d1^2, d2^2)
    assert power._simple_tensor_basis(t, rng) is None


def test_product_decomposition_misses_a_span_without_independent_factors():
    # every operator of the span of A (x) B1 and A (x) B2 is A (x) B, but no basis
    # of it has independent A-factors: the search misses it, and the stored
    # list certifies itself
    rng = np.random.default_rng(4)
    a = rand_op(rng, 2)
    ch = KrausChannel([kron(a, rand_op(rng, 2)), kron(a, rand_op(rng, 2))], (2, 2))
    assert power._product_decomposition(ch, 0) is None
    assert certify_kraus_channel(ch).verdict == SNE


def test_simple_tensor_basis_misses_when_the_pencil_fails():
    # a failed eigendecomposition is no decomposition, not an error
    rng = np.random.default_rng(4)
    ops = np.array([kron(rand_op(rng, 2), rand_op(rng, 2)) for _ in range(2)])
    t = ops.reshape(2, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(2, 4, 4)
    assert power._simple_tensor_basis(t, rng) is not None
    with patch.object(np.linalg, "eig", side_effect=np.linalg.LinAlgError):
        assert power._simple_tensor_basis(t, rng) is None


def test_bounds_classify_and_search_once():
    # a found decomposition comes with its structures, and the exact Choi-rank-1
    # bounds read the certificate's: no second classification
    names = ("_structures", "_image_rank_search", "_product_decomposition")
    for build, bounds, counts in [(rank_boost_23, (1, 3), [1, 1, 1]),
                                  (hidden_product_pair, (1, 1), [1, 0, 1]),
                                  (lambda: dressed_controlled_shift(3, 5), (3, 3), [1, 1, 1])]:
        ch = build()
        with ExitStack() as stack:
            spies = [
                stack.enter_context(patch.object(power, n, wraps=getattr(power, n)))
                for n in names
            ]
            b = channel_schmidt_number_bounds(ch)
        assert (b.lower, b.upper) == bounds
        assert [spy.call_count for spy in spies] == counts



def equal_up_to_phase(x, y):
    overlap = np.vdot(y, x)
    return np.allclose(x, overlap / abs(overlap) * y, atol=1e-10)


def test_golden_dft_remixing_wins():
    ch, (ab, cd) = sum_difference_pair()
    b = channel_schmidt_number_bounds(ch)
    assert (b.lower, b.upper, b.method) == (1, 1, DECOMPOSITION)
    assert len(b.certificate) == 2
    x, y = b.certificate
    assert (equal_up_to_phase(x, ab) and equal_up_to_phase(y, cd)) or (
        equal_up_to_phase(x, cd) and equal_up_to_phase(y, ab)
    )
    assert reproduces_choi(b.certificate, ch)
    cert = certify_kraus_channel(ch)
    assert (cert.verdict, cert.note) == (SNE, DECOMPOSITION_NOTE)
    assert [s.form for s in cert.structures] == ["tensor_product"] * 2


@pytest.mark.parametrize(
    "build",
    [lambda: sum_difference_pair()[0], hidden_qutrit_mixture],
    ids=["sum_difference_pair", "hidden_qutrit_mixture"],
)
def test_decomposition_search_does_not_depend_on_the_seed(build):
    ch = build()

    def run(seed):
        config = OptimizerConfig(seed=seed)
        b = channel_schmidt_number_bounds(ch, config)
        cert = certify_kraus_channel(ch, config)
        return b.lower, b.upper, b.method, cert.verdict, [st.form for st in cert.structures]

    results = [run(seed) for seed in range(4)]
    assert results[0][:4] == (1, 1, DECOMPOSITION, SNE)
    assert all(r == results[0] for r in results)


# -- the product-decomposition search ----------------------------------


@pytest.mark.parametrize(
    "seed, dims, terms, swap",
    [
        (11, (2, 2), 3, False),
        (12, (2, 2), 4, False),
        (13, (3, 3), 3, False),
        (14, (3, 3), 4, False),
        (15, (3, 3), 9, False),
        (16, (3, 3), 4, True),
    ],
    ids=["qubits_3", "qubits_4", "qutrits_3", "qutrits_4", "qutrits_9", "qutrits_swap_4"],
)
def test_hidden_local_unitary_mixtures_are_sne(seed, dims, terms, swap):
    ch = hidden_mixture(seed, dims, terms, swap)
    cert = certify_kraus_channel(ch)
    assert (cert.verdict, cert.note) == (SNE, DECOMPOSITION_NOTE)
    form = "permutation_local" if swap else "tensor_product"
    assert [s.form for s in cert.structures] == [form] * terms
    v = swap_matrix(dims[0]) if swap else np.eye(dims[0] * dims[1])
    for s, op in zip(cert.structures, cert.kraus):  # the factors rebuild each operator
        assert np.allclose(kron(*s.factors) @ v, op, atol=1e-12)
    b = channel_schmidt_number_bounds(ch)
    assert (b.lower, b.upper, b.method) == (1, 1, DECOMPOSITION)
    assert reproduces_choi(b.certificate, ch)


@pytest.mark.parametrize(
    "build",
    [
        lambda: KrausChannel([np.sqrt(0.5) * np.eye(4), np.sqrt(0.5) * CNOT], (2, 2)),
        # weight 1e-12 is far above the rank cutoff, yet below RANK_RTOL * ||Choi||_F
        lambda: KrausChannel([np.sqrt(1 - 1e-12) * np.eye(4), 1e-6 * CNOT], (2, 2)),
        lambda: hidden_mixture(17, (2, 2), 5),
        rank_boost_23,
    ],
    ids=["cnot_with_identity", "cnot_admixture", "five_qubit_terms", "rank_boost_23"],
)
def test_channels_without_a_product_decomposition_are_never_sne(build):
    ch = build()
    assert power._product_decomposition(ch, 0) is None
    assert certify_kraus_channel(ch).verdict != SNE


@pytest.mark.parametrize("row", power._form_table(DimList.of((2, 3))), ids=lambda row: row[0])
def test_product_decomposition_finds_each_form_of_the_table(row):
    # as many operators of one row's form as the row reaches, min(m, n) of its
    # (m, n) reshuffle, remixed by a Haar unitary: the reshuffled Kraus span
    # has a basis of rank-one slices
    form, axes, (left, right), _ = row
    m, n = np.prod(left), np.prod(right)
    r = min(m, n)
    rng = np.random.default_rng(6)
    slices = np.array([np.outer(rng.normal(size=m) + 1j * rng.normal(size=m),
                                rng.normal(size=n) + 1j * rng.normal(size=n)) for _ in range(r)])
    ops = slices.reshape(np.take((r, 2, 3, 2, 3), axes)).transpose(np.argsort(axes))
    ch = KrausChannel(list(np.einsum("ij,jkl->ikl", haar(rng, r), ops.reshape(r, 6, 6))), (2, 3))
    found, structures = power._product_decomposition(ch, 0)
    assert [s.form for s in structures] == [form] * r
    for s, op in zip(structures, found):  # the factors rebuild each operator
        assert np.max(np.abs(rebuild(s, (2, 3)) - op)) < 1e-12
    assert reproduces_choi(found, ch)


# -- certificates ------------------------------------------------------


def test_certify_swap_is_sne():
    cert = certify_kraus_channel(swap_channel(2))
    assert cert.verdict == "stochastically_nonentangling"
    assert cert.structures is not None
    assert all(s.is_product_preserving for s in cert.structures)


def test_certify_single_kraus_rank_one():
    # rho -> Tr(phi+ rho) |00><00| keeps separability despite the entangled bra
    phi = max_entangled(2, 2).amplitudes
    e0 = np.zeros(4)
    e0[0] = 1.0
    ch = KrausChannel([np.outer(e0, np.conj(phi))], (2, 2))
    cert = certify_kraus_channel(ch)
    assert cert.verdict == "stochastically_nonentangling"


def test_certify_cnot_entangling_with_replayable_evidence():
    ch = unitary_channel(CNOT, (2, 2))
    cert = certify_kraus_channel(ch)
    assert cert.verdict == "entangling" and cert.note == ""
    assert [(v.kind, v.witness.label) for v in cert.violations] == [
        ("witness", "image_shift[0]"), ("stochastic", "image_shift[0]")]
    # Choi rank 1: the probe hit, valued on the channel's output, is the evidence
    hit = cert.violations[0]
    out = CNOT @ np.kron(*hit.input.factors)
    lam, test_op = hit.witness.shifted
    assert np.allclose(test_op, np.outer(out, out.conj()))
    assert abs(lam - np.linalg.svd(out.reshape(2, 2), compute_uv=False)[0] ** 2) < 1e-12
    assert abs(hit.value - np.real(out.conj() @ (lam * out - test_op @ out))) < 1e-12
    assert abs(hit.value - (-0.0354710781001)) < 1e-9


def dressed_controlled_shift(d, seed):
    """The controlled shift between two random local unitaries, as a channel."""
    rng = np.random.default_rng(seed)
    local = [kron(haar(rng, d), haar(rng, d)) for _ in range(2)]
    return KrausChannel([local[0] @ controlled_shift(d) @ local[1]], (d, d))


def test_choi_rank_one_certificate_minimizes_no_witness_family():
    # the probe hit of the one operator is the channel's own output: no descent
    ch = dressed_controlled_shift(4, 4)
    with patch.object(power, "product_minima", wraps=power.product_minima) as spy:
        cert = certify_kraus_channel(ch)
    assert spy.call_count == 0
    assert cert.verdict == "entangling"
    assert [(v.kind, v.kraus_index) for v in cert.violations] == [("witness", None),
                                                                  ("stochastic", 0)]
    hit, stored = cert.violations
    assert hit.witness is stored.witness and hit.input is stored.input
    chi = hit.input.assemble().amplitudes
    out = ch.apply_matrix(np.outer(chi, chi.conj()))
    assert abs(np.real(np.trace(hit.witness.operator @ out)) - hit.value) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_bell_mixing_hit_is_a_witness_violation_in_any_local_frame(seed):
    # the first probe hit, valued on the channel's output, is evidence about the
    # channel at Choi rank 5 too; it replays from the Kraus list alone
    rng = np.random.default_rng(seed)
    after, before = (kron(haar(rng, 2), haar(rng, 2)) for _ in range(2))
    ops = [after @ k @ before for k in bell_mixing().kraus]
    cert = certify_kraus_channel(KrausChannel(ops, (2, 2)))
    assert cert.verdict == "entangling"
    v = cert.violations[0]
    assert v.kind == "witness" and v.witness.label.startswith("image_shift[")
    chi = np.kron(*v.input.factors)
    out = sum(np.outer(k @ chi, np.conj(k @ chi)) for k in ops)
    replayed = np.real(np.trace(v.witness.operator @ out))
    assert replayed < -1e-8 and abs(replayed - v.value) < 1e-12


def test_product_decomposition_skips_choi_rank_one():
    # every Kraus list is multiples of one operator, which _structures classified
    u = dressed_controlled_shift(3, 3).kraus[0]
    ch = KrausChannel([np.sqrt(0.5) * u, np.sqrt(0.5) * u], (3, 3))
    with patch.object(power, "_simple_tensor_basis", wraps=power._simple_tensor_basis) as spy:
        assert power._product_decomposition(ch, 0) is None
    assert spy.call_count == 0


def test_certify_hidden_product_decomposition_is_sne():
    cert = certify_kraus_channel(hidden_product_pair())
    assert cert.verdict == "stochastically_nonentangling"
    assert cert.note == DECOMPOSITION_NOTE


def test_certify_local_range_operators_are_sne():
    # (|0> (x) I) N1 and (|1> (x) I) N2 send every input to a product state:
    # each range lies in a (x) C^2, so the stored list certifies itself
    rng = np.random.default_rng(11)
    u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    ops = [np.kron(np.eye(2)[:, [a]], np.eye(2)) @ u[2 * a:2 * a + 2] for a in (0, 1)]
    ch = KrausChannel(ops, (2, 2))
    assert ch.is_trace_preserving
    cert = certify_kraus_channel(ch)
    assert (cert.verdict, cert.violations) == (SNE, ())
    assert [s.form for s in cert.structures] == ["local_range", "local_range"]
    for s, op in zip(cert.structures, cert.kraus):  # the factors rebuild each operator
        assert np.max(np.abs(rebuild(s, (2, 2)) - op)) < 1e-12
    b = channel_schmidt_number_bounds(ch)
    assert (b.lower, b.upper, b.method) == (1, 1, "stored decomposition")
    assert reproduces_choi(b.certificate, ch)


def test_certify_inconclusive_without_structure_or_violation():
    # diag(1, 0, 0, 1e-9) entangles, but so weakly that neither its probe hit
    # nor a witness of the channel reaches -TOL_WITNESS: no structure and no
    # violation leave the verdict open
    weak = np.diag([1, 0, 0, 1e-9]).astype(complex)
    ch = KrausChannel([np.sqrt(0.5) * weak, np.sqrt(0.5) * np.eye(4)], (2, 2))
    cert = certify_kraus_channel(ch)
    assert cert.verdict == "inconclusive" and cert.violations == ()
    assert [(s.form, s.image_rank) for s in cert.structures] == [
        ("unknown", 2), ("tensor_product", 1)]
    b = channel_schmidt_number_bounds(ch)
    assert (b.lower, b.upper) == (1, 2)


def test_certify_rank_boost_never_sne():
    # the parameter regime is non-entangling, yet no decomposition with
    # product-preserving operators exists; stochastic evidence must appear
    lam0 = 0.99
    lam1 = 1 / (9 * lam0)
    coeffs = np.array([lam0, lam1, np.sqrt(1 - lam0**2 - lam1**2)])
    ch = rank_boost_channel(2, 3, coeffs)
    cert = certify_kraus_channel(ch)
    assert cert.verdict != "stochastically_nonentangling"
    if cert.verdict == "entangling":
        assert all(v.kind == "stochastic" for v in cert.violations)


# -- monotonicity of product-preserving operators ----------------------


def test_product_preserving_images_stay_product():
    rng = np.random.default_rng(6)
    v = swap_matrix(2)
    for i in range(60):
        kind = i % 3
        if kind == 0:
            m = kron(rand_op(rng, 2), rand_op(rng, 2))
        elif kind == 1:
            m = kron(rand_op(rng, 2), rand_op(rng, 2)) @ v
        else:
            left = np.kron(random_state_vector(2, rng), random_state_vector(2, rng))
            m = np.outer(left, np.conj(random_state_vector(4, rng)))
        psi = random_product_state((2, 2), seed=1000 + i).assemble()
        img = m @ psi.amplitudes
        nrm = np.linalg.norm(img)
        if nrm < 1e-12:
            continue
        from entpow.states import PureState

        assert schmidt_rank(PureState(img / nrm, (2, 2))) == 1


# -- threshold reports -------------------------------------------------


def test_threshold_certification():
    # uniform coefficients violate the bound
    rep = nonentangling_threshold(2, 3, np.full(3, 1 / np.sqrt(3)))
    assert not rep.certified
    assert rep.verdict == "unknown"
    assert abs(rep.coeff_product - 1 / 3) < 1e-12
    # steep coefficients satisfy it
    lam0 = 0.99
    lam1 = 1 / (9 * lam0)
    coeffs = np.array([lam0, lam1, np.sqrt(1 - lam0**2 - lam1**2)])
    rep = nonentangling_threshold(2, 3, coeffs)
    assert rep.certified
    assert abs(rep.bound - 1 / 9) < 1e-15
    assert abs(rep.p_max - 1 / (1 + 9 * rep.coeff_product)) < 1e-12
    assert abs(rep.effect_bound - 0.5) < 1e-15


def test_threshold_k3_cases():
    c = np.array([0.980, 0.141, 0.141])
    c = c / np.linalg.norm(c)
    rep = nonentangling_threshold(3, 3, c)
    assert rep.certified  # product ~= 0.138 <= 2/9
    u = np.full(3, 1 / np.sqrt(3))
    assert not nonentangling_threshold(3, 3, u).certified or (1 / 3) <= 2 / 9


GOOD_23 = list(np.sqrt([0.5, 0.3, 0.2]))


@pytest.mark.parametrize("k, d, coeffs", [
    (2, 3, [float("nan"), 0.1, 0.1]),
    (2.5, 3, GOOD_23),
    (2.0, 3, GOOD_23),
    (2, 3.0, GOOD_23),
    (1, 3, GOOD_23),
    (2, 3, [0.9, 0.3, 0.2]),
    (2, 3, GOOD_23[::-1]),
    (2, 3, [1.0, 0.0, 0.0]),
    (2, 3, GOOD_23[:2]),
])
def test_rank_boost_parameters_are_refused_alike(k, d, coeffs):
    # the channel and its threshold report check the same rules
    with pytest.raises(DimensionError):
        rank_boost_channel(k, d, coeffs)
    with pytest.raises(DimensionError):
        nonentangling_threshold(k, d, coeffs)


# -- entanglement annihilating ----------------------------------------


def test_entanglement_annihilating_check():
    sep = DensityMatrix(np.eye(4) / 4, (2, 2))
    const = replacement_channel(sep)
    assert entanglement_annihilating_check(const)
    assert not entanglement_annihilating_check(identity_channel((2, 2)))
    assert not entanglement_annihilating_check(swap_channel(2))


def test_annihilating_respects_mixing_threshold():
    # mixing with enough maximally-mixed noise annihilates all two-qubit
    # entanglement (p <= 1/3 keeps every output separable by the known
    # two-qubit ball radius); the check should accept the deep-noise case
    sep = DensityMatrix(np.eye(4) / 4, (2, 2))
    deep = mixing_channel(0.1, sep)
    assert entanglement_annihilating_check(deep)
    shallow = mixing_channel(0.9, sep)
    assert not entanglement_annihilating_check(shallow)


def least_x_eigenvalue(ch):
    """Least eigenvalue of the output-transposed Choi matrix of trace D."""
    return ch.dims.total * np.linalg.eigvalsh(ch.output_transposed_choi())[0]


@pytest.mark.parametrize("name, ch, proven, least", [
    ("replacement I/4", replacement_channel(DensityMatrix(np.eye(4) / 4, (2, 2))), True, 0.25),
    ("identity", identity_channel((2, 2)), False, -2.0),
    ("swap", swap_channel(2), False, -2.0),
    ("mixing 0.1", mixing_channel(0.1, DensityMatrix(np.eye(4) / 4, (2, 2))), True, 0.025),
    ("mixing 0.9", mixing_channel(0.9, DensityMatrix(np.eye(4) / 4, (2, 2))), False, -1.775),
    # the demo's separable sigma: its outputs may all be separable, but X is
    # not PSD, so nothing is proven
    ("mixing 0.1 sigma", mixing_channel(0.1, random_separable((2, 2), 3, seed=9)), False, -0.105),
    ("replacement I/6 on 2x3",
     replacement_channel(DensityMatrix(np.eye(6) / 6, (2, 3))), True, 1 / 6),
    # X is PSD here too, but above 2x3 that proves only PPT outputs
    ("replacement I/9 on 3x3",
     replacement_channel(DensityMatrix(np.eye(9) / 9, (3, 3))), False, 1 / 9),
])
def test_annihilation_is_an_exact_ppt_proof(name, ch, proven, least):
    # X, the Choi matrix with output B transposed, is PSD exactly when every
    # output is provably PPT; only on 2x2 and 2x3 does that prove separability
    assert abs(least_x_eigenvalue(ch) - least) < 1e-3
    assert entanglement_annihilating_check(ch) is proven


def test_output_transposed_choi_exchanges_the_last_output_indices():
    # X is the Choi matrix on (R1, R2, S1, S2) with S2's row and column
    # indices exchanged (`choi` symmetrizes its matrix, so to rounding)
    ch = mixing_channel(0.3, random_separable((2, 3), 2, seed=1))
    d = ch.dims.total
    j = ch.choi().matrix.reshape(d, 2, 3, d, 2, 3)
    expected = j.transpose(0, 1, 5, 3, 4, 2).reshape(d * d, d * d)
    assert np.allclose(ch.output_transposed_choi(), expected, rtol=0, atol=1e-15)
