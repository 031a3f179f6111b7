import numpy as np
import pytest

import entpow
from entpow.errors import ArityError, DimensionError, InvalidCutError
from entpow.states import (
    DensityMatrix,
    ProductStateParam,
    PureState,
    bell_states,
    is_ppt,
    max_entangled,
    pure_from_density,
    random_product_state,
    random_separable,
    random_state_vector,
    schmidt_decompose,
    schmidt_rank,
)


def test_pure_state_normalization_gate():
    PureState(np.array([1.0, 0.0]), (2,))
    with pytest.raises(DimensionError):
        PureState(np.array([1.0, 1.0]), (2,))
    with pytest.raises(DimensionError, match="amplitude length 2"):
        PureState(np.array([1.0, 0.0]), (2, 2))


def test_pure_state_projector_and_overlap():
    psi = max_entangled(2, 2)
    proj = psi.projector()
    assert np.allclose(proj @ proj, proj, atol=1e-14)
    assert abs(np.trace(proj) - 1) < 1e-14
    assert abs(psi.overlap(psi) - 1) < 1e-14


def test_density_matrix_gates():
    with pytest.raises(DimensionError):
        DensityMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]), (2,))  # not Hermitian
    with pytest.raises(DimensionError):
        DensityMatrix(np.diag([1.5, -0.5]), (2,))  # negative eigenvalue
    with pytest.raises(DimensionError):
        DensityMatrix(np.diag([0.9, 0.9]), (2,))  # trace 1.8
    DensityMatrix(np.diag([0.3, 0.3]), (2,), subnormalized=True)
    with pytest.raises(DimensionError, match="sub-normalized state has trace"):
        DensityMatrix(np.diag([0.9, 0.9]), (2,), subnormalized=True)


def test_density_matrix_expectation_and_purity():
    rho = DensityMatrix(np.diag([0.5, 0.5]), (2,))
    assert abs(rho.purity() - 0.5) < 1e-14


def test_schmidt_decompose_max_entangled():
    for k in (2, 3, 4):
        dec = schmidt_decompose(max_entangled(k, 4))
        assert np.allclose(dec.coefficients[:k], np.full(k, 1 / np.sqrt(k)), atol=1e-12)
        assert np.all(dec.coefficients[k:] < 1e-12)
        assert schmidt_rank(max_entangled(k, 4)) == k


def test_schmidt_decompose_reconstructs():
    rng = np.random.default_rng(0)
    for dims in ((2, 2), (3, 2), (3, 4)):
        for _ in range(10):
            psi = PureState(random_state_vector(dims[0] * dims[1], rng), dims)
            dec = schmidt_decompose(psi)
            rebuilt = np.zeros(dims[0] * dims[1], dtype=complex)
            for c, left, right in zip(dec.coefficients, dec.left.T, dec.right.T):
                rebuilt += c * np.kron(left, right)
            assert np.max(np.abs(rebuilt - psi.amplitudes)) < 1e-12


def test_schmidt_rank_product_is_one():
    for seed in range(10):
        psi = random_product_state((2, 3), seed=seed).assemble()
        assert schmidt_rank(psi) == 1


def test_schmidt_rank_cuts_on_ghz():
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    psi = PureState(ghz, (2, 2, 2))
    for cut in ((0,), (1,), (2,), (0, 1), (0, 2)):
        assert schmidt_rank(psi, cut) == 2


def test_schmidt_rank_invalid_cuts():
    psi = max_entangled(2, 2)
    with pytest.raises(InvalidCutError):
        schmidt_rank(psi, ())
    with pytest.raises(InvalidCutError):
        schmidt_rank(psi, (0, 1))
    with pytest.raises(InvalidCutError):
        schmidt_rank(psi, (5,))
    ghz3 = PureState(np.eye(8)[[0, 7]].sum(axis=0) / np.sqrt(2), (2, 2, 2))
    with pytest.raises(ArityError, match="explicit cut"):
        schmidt_rank(ghz3)  # no default cut beyond two parties


def test_max_entangled_validation():
    with pytest.raises(DimensionError):
        max_entangled(3, 2)
    with pytest.raises(DimensionError):
        max_entangled(0, 2)
    with pytest.warns(UserWarning):
        max_entangled(1, 2)


def test_bell_states_orthonormal():
    bell = bell_states()
    vecs = [bell.phi_plus, bell.phi_minus, bell.psi_plus, bell.psi_minus]
    for i, a in enumerate(vecs):
        for j, b in enumerate(vecs):
            expect = 1.0 if i == j else 0.0
            assert abs(abs(np.vdot(a.amplitudes, b.amplitudes)) - expect) < 1e-14


def test_random_separable_is_a_state_and_ppt():
    for seed in range(30):
        rho = random_separable((2, 2), terms=3, seed=seed)
        assert abs(rho.trace - 1) < 1e-12
        assert np.linalg.eigvalsh(rho.matrix)[0] > -1e-12
        assert is_ppt(rho)
    for seed in range(10):
        rho = random_separable((3, 3), terms=4, seed=seed)
        assert is_ppt(rho)
    with pytest.raises(DimensionError, match="terms must be >= 1"):
        random_separable((2, 2), terms=0, seed=0)


def test_is_ppt_flags_bell():
    assert not is_ppt(max_entangled(2, 2).density())
    assert not is_ppt(max_entangled(3, 3).density())


def test_pure_from_density_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(10):
        v = random_state_vector(6, rng)
        psi = PureState(v, (2, 3))
        back = pure_from_density(psi.density())
        # recovery up to global phase
        assert abs(abs(np.vdot(back.amplitudes, v)) - 1) < 1e-10
    with pytest.raises(DimensionError):
        pure_from_density(DensityMatrix(np.eye(4) / 4, (2, 2)))


def test_product_state_param_assemble():
    rng = np.random.default_rng(2)
    a = random_state_vector(2, rng)
    b = random_state_vector(3, rng)
    psi = ProductStateParam((a, b)).assemble()
    assert psi.dims.dims == (2, 3)
    assert np.max(np.abs(psi.amplitudes - np.kron(a, b))) < 1e-14
    with pytest.raises(DimensionError, match="unit vector"):
        ProductStateParam((a, 2 * b))


def test_package_exports_states():
    assert entpow.max_entangled is max_entangled
    assert entpow.schmidt_rank is schmidt_rank
