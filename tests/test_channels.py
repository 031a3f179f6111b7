import tracemalloc

import numpy as np
import pytest

from entpow.channels import (
    KrausChannel,
    MeasurementChannel,
    choi_apply,
    identity_channel,
    measurement_channel,
    mixing_channel,
    random_unitary_channel,
    rank_boost_channel,
    replacement_channel,
    swap_channel,
    unitary_channel,
)
from entpow.errors import DimensionError
from entpow.states import (
    DensityMatrix,
    ProductStateParam,
    PureState,
    max_entangled,
    random_separable,
)
from entpow.tensor import dagger, kron, partial_trace


def rand_channel(rng, d, n_ops):
    """Random trace-preserving channel from a Haar-ish isometry."""
    g = rng.normal(size=(n_ops * d, d)) + 1j * rng.normal(size=(n_ops * d, d))
    q, _ = np.linalg.qr(g)  # isometry: q^dag q = I_d
    return [q[i * d : (i + 1) * d, :] for i in range(n_ops)]


def rand_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ dagger(g)
    return m / np.trace(m).real


def test_kraus_channel_validation():
    with pytest.raises(DimensionError):
        KrausChannel([], (2, 2))
    with pytest.raises(DimensionError):
        KrausChannel([np.eye(3)], (2, 2))
    with pytest.raises(DimensionError, match=r"\(3, 3\)"):
        KrausChannel([np.eye(4), np.eye(3)], (2, 2))
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        op = np.eye(4, dtype=complex)
        op[1, 2] = bad
        with pytest.raises(DimensionError, match="finite"):
            KrausChannel([np.eye(4), op], (2, 2))
    ops = [np.eye(4)]
    ch = KrausChannel(ops, (2, 2))
    assert ch.kraus.shape == (1, 4, 4)
    with pytest.raises(ValueError):
        ch.kraus[0, 0, 0] = 2.0
    ops[0][0, 0] = 2.0  # the channel keeps its own copy
    assert ch.kraus[0, 0, 0] == 1.0
    assert repr(ch) == "<KrausChannel: 1 Kraus ops on dims (2, 2)>"
    assert repr(KrausChannel(ops, (2, 2), label="id")).startswith("<id: ")
    with pytest.raises(DimensionError, match="do not match"):
        ch.apply(DensityMatrix(np.eye(4) / 4, (4,)))


def with_entry(m, bad):
    """`m` as a complex array with its second entry set to `bad`."""
    m = np.array(m, dtype=complex)
    m.flat[1] = bad
    return m


PROJ = np.diag([1.0, 0.0, 1.0, 0.0])
NON_FINITE = {
    "measurement_effect": lambda bad: measurement_channel(
        [with_entry(PROJ, bad), np.eye(4) - PROJ], [np.eye(4) / 4] * 2, (2, 2)),
    "density_matrix": lambda bad: DensityMatrix(with_entry(np.eye(4) / 4, bad), (2, 2)),
    "pure_state": lambda bad: PureState(with_entry(np.eye(4)[0], bad), (2, 2)),
    "product_state": lambda bad: ProductStateParam((with_entry([1.0, 0.0], bad), np.eye(2)[0])),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)], ids=["nan", "inf", "-inf_i"])
@pytest.mark.parametrize("build", sorted(NON_FINITE))
def test_constructors_refuse_non_finite_entries(build, bad):
    # NaN passes every `max(...) > tol` check, so each constructor tests it first
    with pytest.raises(DimensionError, match="finite"):
        NON_FINITE[build](bad)


def test_trace_preservation_detection():
    assert identity_channel((2, 2)).is_trace_preserving
    assert swap_channel(2).is_trace_preserving
    not_tp = KrausChannel([0.5 * np.eye(4)], (2, 2))
    assert not not_tp.is_trace_preserving


def test_apply_and_dual_match_definitions():
    # the batched maps equal the per-operator sums bit for bit
    rng = np.random.default_rng(0)
    for _ in range(10):
        ops = rand_channel(rng, 6, 3)
        ch = KrausChannel(ops, (2, 3))
        rho = rand_density(rng, 6)
        obs = rng.normal(size=(6, 6))
        obs = obs + obs.T
        assert np.array_equal(ch.apply_matrix(rho), sum(m @ rho @ dagger(m) for m in ops))
        assert np.array_equal(ch.dual_apply(obs), sum(dagger(m) @ obs @ m for m in ops))
        vecs = [m.T.reshape(-1) / np.sqrt(6) for m in ops]
        j = sum(np.outer(v, np.conj(v)) for v in vecs)
        assert np.array_equal(ch.choi().matrix, (j + dagger(j)) / 2.0)


def test_duality_pairing():
    # Tr(Lambda*(O) rho) == Tr(O Lambda(rho))
    rng = np.random.default_rng(1)
    for _ in range(25):
        ch = KrausChannel(rand_channel(rng, 4, 2), (2, 2))
        rho = rand_density(rng, 4)
        obs = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        obs = (obs + dagger(obs)) / 2
        lhs = np.trace(ch.dual_apply(obs) @ rho)
        rhs = np.trace(obs @ ch.apply_matrix(rho))
        assert abs(lhs - rhs) < 1e-11


def test_dual_unital_iff_tp():
    rng = np.random.default_rng(2)
    ch = KrausChannel(rand_channel(rng, 4, 3), (2, 2))
    assert ch.is_trace_preserving
    assert np.max(np.abs(ch.dual_apply(np.eye(4)) - np.eye(4))) < 1e-10


def test_choi_is_a_state_and_reconstructs():
    rng = np.random.default_rng(3)
    for _ in range(10):
        ch = KrausChannel(rand_channel(rng, 4, 3), (2, 2))
        choi = ch.choi()
        assert abs(choi.trace - 1) < 1e-10
        assert np.linalg.eigvalsh(choi.matrix)[0] > -1e-12
        rho = rand_density(rng, 4)
        direct = ch.apply_matrix(rho)
        via_choi = choi_apply(choi, rho)
        assert np.max(np.abs(direct - via_choi)) < 1e-10


def test_choi_party_bookkeeping():
    # (R1, R2, S1, S2) on dims (2, 3): the references are maximally mixed, the
    # systems hold the image of I/6, and choi_apply reads that split from dims
    rng = np.random.default_rng(5)
    ch = KrausChannel(rand_channel(rng, 6, 2), (2, 3))
    choi = ch.choi()
    assert choi.dims.dims == (2, 3, 2, 3)
    assert np.allclose(partial_trace(choi.matrix, choi.dims, keep=(0, 1)), np.eye(6) / 6,
                       atol=1e-12)
    assert np.allclose(partial_trace(choi.matrix, choi.dims, keep=(2, 3)),
                       ch.apply_matrix(np.eye(6) / 6), atol=1e-12)
    rho = rand_density(rng, 6)
    assert np.allclose(choi_apply(choi, rho), ch.apply_matrix(rho), atol=1e-12)
    with pytest.raises(DimensionError):
        choi_apply(choi, np.eye(4) / 4)
    with pytest.raises(DimensionError, match="one reference per system party"):
        choi_apply(DensityMatrix(np.eye(12) / 12, (2, 3, 2)), np.eye(6) / 6)


def test_choi_rank_counts_a_minimal_kraus_list_once():
    rng = np.random.default_rng(6)
    u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    ops = rand_channel(rng, 4, 3)
    for kraus, rank in [([u], 1), ([0.6 * u, 0.8j * u], 1), ([u, 0 * u], 1), (ops, 3),
                        ([*ops, ops[0] + ops[1]], 3), ([0 * u], 0)]:
        ch = KrausChannel(kraus, (2, 2))
        assert ch.choi_rank == rank
        # cached: read again without a second SVD
        assert vars(ch)["choi_rank"] == rank
    assert mixing_channel(0.3, DensityMatrix(np.eye(4) / 4, (2, 2))).choi_rank == 16


def test_choi_memory_stays_at_one_choi_matrix():
    # 257 Kraus operators; summing their outer products all at once took 259 MB
    ch = mixing_channel(0.3, DensityMatrix(np.eye(16) / 16, (4, 4)))
    tracemalloc.start()
    try:
        choi = ch.choi()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert choi.dims.dims == (4, 4, 4, 4)
    assert peak <= 16 * choi.matrix.nbytes  # 16 complex Choi-sized arrays: 16 * 16 * D^4 bytes


def test_measurement_channel_closed_forms():
    rng = np.random.default_rng(4)
    proj = max_entangled(2, 2).projector()
    effects = [proj, np.eye(4) - proj]
    outputs = [
        DensityMatrix(np.eye(4) / 4, (2, 2)),
        rand_density(rng, 4),
    ]
    outputs[1] = DensityMatrix(outputs[1], (2, 2))
    ch = measurement_channel(effects, outputs, (2, 2))
    assert ch.is_trace_preserving
    rho = rand_density(rng, 4)
    expected = sum(
        np.trace(e @ rho).real * o.matrix for e, o in zip(effects, outputs)
    )
    assert np.max(np.abs(ch.apply_matrix(rho) - expected)) < 1e-12
    # generic Kraus action agrees with the closed form
    generic = KrausChannel(ch.kraus, (2, 2))
    assert np.max(np.abs(generic.apply_matrix(rho) - expected)) < 1e-10
    obs = rng.normal(size=(4, 4))
    obs = obs + obs.T
    dual_expected = sum(
        np.trace(o.matrix @ obs).real * e for e, o in zip(effects, outputs)
    )
    assert np.max(np.abs(ch.dual_apply(obs) - dual_expected)) < 1e-12


def kraus_with_an_eigh_per_output_eigenvector(ch):
    """The stored Kraus list, built by decomposing each effect again for every
    eigenvector of its output."""
    def pairs(mat):
        evals, evecs = np.linalg.eigh(mat)
        return [(float(w), evecs[:, i]) for i, w in enumerate(evals) if w > 1e-14]

    kraus = []
    for e, out in zip(ch.effects, ch.outputs):
        for r_i, u in pairs(out.matrix):
            for e_m, f in pairs(e):
                kraus.append(np.sqrt(r_i * e_m) * np.outer(u, np.conj(f)))
    return kraus


def test_measurement_kraus_list_decomposes_each_effect_once():
    rng = np.random.default_rng(8)
    proj = max_entangled(2, 2).projector()
    outputs = [DensityMatrix(rand_density(rng, 4), (2, 2)), DensityMatrix(np.eye(4) / 4, (2, 2))]
    for ch in (measurement_channel([proj, np.eye(4) - proj], outputs, (2, 2)),
               rank_boost_channel(2, 3, np.sqrt([0.5, 0.3, 0.2]))):
        reference = kraus_with_an_eigh_per_output_eigenvector(ch)
        assert len(ch.kraus) == len(reference)
        assert all(np.array_equal(a, b) for a, b in zip(ch.kraus, reference))


def test_measurement_channel_requires_povm():
    proj = max_entangled(2, 2).projector()
    outputs = [DensityMatrix(np.eye(4) / 4, (2, 2))]
    with pytest.raises(DimensionError):
        measurement_channel([proj], outputs, (2, 2))  # effects don't sum to I
    with pytest.raises(DimensionError, match="at least one effect"):
        measurement_channel([], [], (2, 2))
    with pytest.raises(DimensionError, match="2 effects but 1 outputs"):
        measurement_channel([proj, np.eye(4) - proj], outputs, (2, 2))
    skew = np.eye(4, dtype=complex)
    skew[0, 1] = 0.5
    with pytest.raises(DimensionError, match="effect 0 is not Hermitian"):
        measurement_channel([skew], outputs, (2, 2))
    with pytest.raises(DimensionError, match="effect 1 is not positive semidefinite"):
        measurement_channel([2 * np.eye(4), -np.eye(4)], outputs * 2, (2, 2))
    mixed = DensityMatrix(np.eye(6) / 6, (3, 2))
    with pytest.raises(DimensionError, match=r"output 0 has dims \(3, 2\)"):
        measurement_channel([np.eye(6)], [mixed], (2, 3))


def test_random_unitary_channel():
    rng = np.random.default_rng(5)
    cnot = np.eye(4)[[0, 1, 3, 2]]
    ch = random_unitary_channel([np.eye(4), cnot], [0.25, 0.75], (2, 2))
    assert ch.is_trace_preserving
    rho = rand_density(rng, 4)
    expected = 0.25 * rho + 0.75 * cnot @ rho @ cnot.T
    assert np.max(np.abs(ch.apply_matrix(rho) - expected)) < 1e-13
    with pytest.raises(DimensionError):
        random_unitary_channel([np.eye(4) * 2], [1.0], (2, 2))
    with pytest.raises(DimensionError):
        random_unitary_channel([np.eye(4), cnot], [0.5, 0.6], (2, 2))
    with pytest.raises(DimensionError, match="2 unitaries but 1 probabilities"):
        random_unitary_channel([np.eye(4), cnot], [1.0], (2, 2))


def test_mixing_channel_forms():
    rng = np.random.default_rng(6)
    sigma = DensityMatrix(rand_density(rng, 4), (2, 2))
    ch = mixing_channel(0.3, sigma)
    assert ch.is_trace_preserving
    rho = rand_density(rng, 4)
    expected = 0.3 * rho + 0.7 * sigma.matrix
    assert np.max(np.abs(ch.apply_matrix(rho) - expected)) < 1e-12
    # generic Kraus list realizes the same map
    generic = KrausChannel(ch.kraus, (2, 2))
    assert np.max(np.abs(generic.apply_matrix(rho) - expected)) < 1e-10
    obs = rng.normal(size=(4, 4))
    obs = obs + obs.T
    dual_expected = 0.3 * obs + 0.7 * np.trace(sigma.matrix @ obs).real * np.eye(4)
    assert np.max(np.abs(ch.dual_apply(obs) - dual_expected)) < 1e-12
    for p in (-0.1, 1.5):
        with pytest.raises(DimensionError, match="outside"):
            mixing_channel(p, sigma)


def test_rank_boost_channel():
    coeffs = np.sqrt([0.5, 0.3, 0.2])
    ch = rank_boost_channel(2, 3, coeffs)
    assert ch.is_trace_preserving
    assert isinstance(ch, MeasurementChannel)
    # the flagged effect is a rank-1 projector, so the maximally entangled
    # input is mapped exactly onto the designated output state
    rho = max_entangled(2, 3).density()
    out = ch.apply(rho)
    assert np.max(np.abs(out.matrix - ch.output_state.projector())) < 1e-12
    # and an orthogonal input lands on the maximally mixed state
    rho_perp = DensityMatrix(np.diag([0, 0, 0, 0, 0, 0, 0, 0, 1.0]), (3, 3))
    out2 = ch.apply(rho_perp)
    assert np.max(np.abs(out2.matrix - np.eye(9) / 9)) < 1e-12


def test_rank_boost_validation():
    good = np.sqrt([0.5, 0.3, 0.2])
    with pytest.raises(DimensionError):
        rank_boost_channel(1, 3, good)  # k < 2
    with pytest.raises(DimensionError):
        rank_boost_channel(4, 3, good)  # k > d
    with pytest.raises(DimensionError):
        rank_boost_channel(2, 3, np.sqrt([0.2, 0.3, 0.5]))  # increasing
    with pytest.raises(DimensionError):
        rank_boost_channel(2, 3, np.array([0.9, 0.3, 0.2]))  # not normalized


def test_swap_channel_action():
    rng = np.random.default_rng(7)
    a = rand_density(rng, 2)
    b = rand_density(rng, 2)
    out = swap_channel(2).apply_matrix(kron(a, b))
    assert np.max(np.abs(out - kron(b, a))) < 1e-13


def test_replacement_channel():
    rng = np.random.default_rng(8)
    target = max_entangled(2, 2)
    ch = replacement_channel(target)
    for _ in range(5):
        rho = random_separable((2, 2), terms=2, seed=int(rng.integers(1 << 30)))
        out = ch.apply(rho)
        assert np.max(np.abs(out.matrix - target.projector())) < 1e-12


def test_unitary_channel_constructor():
    cnot = np.eye(4)[[0, 1, 3, 2]]
    ch = unitary_channel(cnot, (2, 2))
    assert len(ch.kraus) == 1
    assert np.max(np.abs(ch.kraus[0] - cnot)) < 1e-15
