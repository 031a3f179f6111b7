import numpy as np
import pytest

from entpow.errors import DimensionError, InvalidCutError
from entpow.tensor import (
    DimList,
    dagger,
    is_hermitian,
    kron,
    kron_all,
    numerical_rank,
    operator_schmidt,
    partial_trace,
    partial_transpose,
    swap_matrix,
)


def rand_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def rand_herm(rng, d):
    m = rand_matrix(rng, d)
    return (m + dagger(m)) / 2


def test_dimlist_basic():
    dims = DimList.of((2, 3))
    assert dims.n == 2
    assert dims.total == 6
    assert list(dims) == [2, 3]
    assert dims[1] == 3
    assert DimList.of(dims) is dims


def test_dimlist_rejects_bad_dims():
    with pytest.raises(DimensionError):
        DimList.of((2, 1))
    with pytest.raises(DimensionError):
        DimList.of(())
    with pytest.raises(DimensionError):
        DimList.of((2, 0, 3))


def test_dimlist_check_matrix():
    dims = DimList.of((2, 2))
    dims.check_matrix(np.eye(4))
    with pytest.raises(DimensionError):
        dims.check_matrix(np.eye(3))
    with pytest.raises(DimensionError):
        dims.check_matrix(np.zeros((4, 3)))


def test_partial_trace_bell():
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi)
    for keep in ((0,), (1,)):
        red = partial_trace(rho, (2, 2), keep)
        assert np.allclose(red, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rand_herm(rng, 2)
        b = rand_herm(rng, 3)
        c = rand_herm(rng, 2)
        big = kron_all([a, b, c])
        dims = (2, 3, 2)
        assert np.allclose(
            partial_trace(big, dims, (1,)), b * np.trace(a) * np.trace(c), atol=1e-12
        )
        assert np.allclose(
            partial_trace(big, dims, (0, 2)), kron(a, c) * np.trace(b), atol=1e-12
        )
        # keeping everything is the identity operation
        assert np.allclose(partial_trace(big, dims, (0, 1, 2)), big, atol=1e-13)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = rand_herm(rng, 12)
        t = partial_trace(m, (2, 3, 2), (1,))
        assert abs(np.trace(t) - np.trace(m)) < 1e-11


def test_partial_transpose_bell_spectrum():
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    gamma = partial_transpose(np.outer(phi, phi), (2, 2), 1)
    evals = np.linalg.eigvalsh(gamma)
    assert np.allclose(evals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_involution_and_party0():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = rand_matrix(rng, 6)
        dims = (2, 3)
        for party in (0, 1):
            twice = partial_transpose(partial_transpose(m, dims, party), dims, party)
            assert np.allclose(twice, m, atol=1e-14)
        # transposing both parties is the full transpose
        both = partial_transpose(partial_transpose(m, dims, 0), dims, 1)
        assert np.allclose(both, m.T, atol=1e-14)


def test_partial_transpose_keeps_product_spectrum():
    # on A (x) B the partial transpose only transposes one factor, which
    # preserves Hermitian spectra factor-wise
    rng = np.random.default_rng(3)
    a = rand_herm(rng, 2)
    b = rand_herm(rng, 3)
    gamma = partial_transpose(kron(a, b), (2, 3), 1)
    assert np.allclose(gamma, kron(a, b.T), atol=1e-14)


def test_operator_schmidt_swap():
    dec = operator_schmidt(swap_matrix(2), (2, 2))
    assert np.allclose(dec.values, [1, 1, 1, 1], atol=1e-12)


def test_operator_schmidt_product_is_rank_one():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rand_matrix(rng, 2)
        b = rand_matrix(rng, 3)
        dec = operator_schmidt(kron(a, b), (2, 3))
        assert numerical_rank(dec.values) == 1


def test_operator_schmidt_reconstruction():
    rng = np.random.default_rng(5)
    for dims in ((2, 2), (2, 3), (3, 2)):
        for _ in range(10):
            m = rand_matrix(rng, dims[0] * dims[1])
            dec = operator_schmidt(m, dims)
            back = sum(s * kron(a, b) for s, a, b in zip(dec.values, dec.left, dec.right))
            assert np.max(np.abs(back - m)) < 1e-12
            # terms are orthogonal in Hilbert-Schmidt inner product
            for i in range(len(dec.values)):
                for j in range(i + 1, len(dec.values)):
                    ip = np.trace(dagger(dec.left[i]) @ dec.left[j])
                    assert abs(ip) < 1e-10


def test_numerical_rank_threshold():
    assert numerical_rank(np.array([1.0, 1e-3, 1e-12])) == 2
    assert numerical_rank(np.array([0.0, 0.0])) == 0
    # threshold scales with the leading value once it exceeds 1 ...
    assert numerical_rank(np.array([1e12, 50.0])) == 1
    # ... but never drops below the absolute floor
    assert numerical_rank(np.array([1e-30, 1e-32])) == 0


def test_numerical_rank_counts_rows():
    rows = np.array([
        [1.0, 1e-3, 1e-12],   # relative cut below 1: the floor 1e-10 applies
        [0.0, 0.0, 0.0],      # all-zero row
        [1e12, 50.0, 0.0],    # cut 1e2 scales with the leading value
        [1e-30, 1e-32, 0.0],  # below the floor throughout
        [3.0, 2.0, 1.0],
        [0.5, 2e-10, 5e-11],  # leading value under 1: still the floor
    ])
    counts = numerical_rank(rows)
    assert counts.shape == (len(rows),)
    assert counts.tolist() == [numerical_rank(r) for r in rows] == [2, 0, 1, 0, 3, 2]
    rng = np.random.default_rng(7)
    # descending rows spread over many decades, so some values sit near the cut
    scale = 10.0 ** rng.integers(-14, 3, size=(200, 1))
    svals = -np.sort(-np.abs(rng.normal(size=(200, 4))) ** 8 * scale)
    counts = numerical_rank(svals)
    assert counts.tolist() == [numerical_rank(r) for r in svals]
    assert np.array_equal(numerical_rank(svals.reshape(8, 25, 4)), counts.reshape(8, 25))


def test_numerical_rank_zero_width():
    assert numerical_rank(np.zeros(0)) == 0
    empty = numerical_rank(np.zeros((3, 0)))
    assert empty.shape == (3,) and not empty.any()
    assert numerical_rank(np.zeros((0, 4))).shape == (0,)


def test_swap_matrix_action():
    rng = np.random.default_rng(6)
    for d in (2, 3, 4):
        v = swap_matrix(d)
        assert np.allclose(v @ v, np.eye(d * d), atol=1e-14)
        a = rng.normal(size=d) + 1j * rng.normal(size=d)
        b = rng.normal(size=d) + 1j * rng.normal(size=d)
        assert np.allclose(v @ np.kron(a, b), np.kron(b, a), atol=1e-13)


def test_is_hermitian():
    rng = np.random.default_rng(7)
    h = rand_herm(rng, 4)
    assert is_hermitian(h, 1e-12)
    assert not is_hermitian(h + 1e-6 * 1j * np.eye(4), 1e-12)


def test_bad_cut_errors():
    rng = np.random.default_rng(8)
    m = rand_herm(rng, 8)
    with pytest.raises(DimensionError):
        partial_trace(m, (2, 2, 2), (3,))
    with pytest.raises((DimensionError, InvalidCutError)):
        partial_trace(m, (2, 2, 2), ())
    with pytest.raises(DimensionError):
        partial_transpose(np.eye(4), (2, 2), 2)
