"""Property tests of the batched product-state optimizer."""

from functools import reduce
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entpow import witnesses
from entpow.errors import DimensionError
from entpow.tensor import dagger, kron_all
from entpow.witnesses import (
    OptimizerConfig,
    _bloch_ket,
    _bloch_step,
    _eigh_step,
    _ket_coordinates,
    _observable_coordinates,
    _starts,
    min_over_products,
    product_minima,
)

CFG = OptimizerConfig(restarts=16, seed=11)
PROPS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

DIMS = st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2)])
SEEDS = st.integers(0, 2**32 - 1)


def observable(seed, dims):
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + dagger(m)) / 2


def shifted_pure(seed, dims, sign=-1.0):
    """``c I + sign |psi><psi|`` with a Gaussian psi and c from -2 to 2 times
    ||psi||^2, and the exact product minimum: ``c - s_1(psi)^2`` for sign -1
    (Eckart-Young), c for sign +1 (some product vector is orthogonal to psi)."""
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    c = rng.uniform(-2.0, 2.0) * np.vdot(psi, psi).real
    top = np.linalg.svd(psi.reshape(dims[0], -1), compute_uv=False)[0]
    return c * np.eye(d) + sign * np.outer(psi, np.conj(psi)), c - top**2 if sign < 0 else c


def local_unitary(seed, dims):
    rng = np.random.default_rng(seed)
    us = []
    for d in dims:
        q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        us.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return kron_all(us)


def row(found, i):
    """Entry i of a `product_minima` result: value, kets, restarts, converged, spread."""
    return (found.values[i], [k[i] for k in found.kets], found.restarts_used[i],
            found.converged[i], found.spread[i])


def same(a, b):
    """Bitwise equal `row` entries."""
    return a[0] == b[0] and all(np.array_equal(x, y) for x, y in zip(a[1], b[1])) and a[2:] == b[2:]


def alone(obs, dims, config=CFG):
    """`min_over_products` of one observable, as a `row` entry."""
    res = min_over_products(obs, dims, config)
    return res.value, res.argument.factors, res.restarts_used, res.converged, res.spread


@PROPS
@given(DIMS, st.lists(SEEDS, min_size=1, max_size=4))
def test_batch_matches_each_observable_alone(dims, seeds):
    obs = [observable(s, dims) for s in seeds] + [shifted_pure(seeds[0], dims, sign)[0]
                                                  for sign in (-1.0, 1.0)]
    batched = product_minima(np.array(obs), dims, CFG)
    assert len(batched.values) == len(obs)
    for i, o in enumerate(obs):
        assert same(row(batched, i), alone(o, dims))


@PROPS
@given(DIMS, st.lists(SEEDS, min_size=2, max_size=4))
def test_reversed_input_reverses_results(dims, seeds):
    obs = np.array([observable(s, dims) for s in seeds])
    forward = product_minima(obs, dims, CFG)
    backward = product_minima(obs[::-1], dims, CFG)
    n = len(obs)
    assert all(same(row(forward, i), row(backward, n - 1 - i)) for i in range(n))


@PROPS
@given(DIMS, SEEDS)
def test_argument_attains_value(dims, seed):
    obs = observable(seed, dims)
    res = min_over_products(obs, dims, CFG)
    chi = res.argument.assemble().amplitudes
    assert abs(float(np.real(np.conj(chi) @ obs @ chi)) - res.value) < 1e-9


@PROPS
@given(DIMS, SEEDS, SEEDS)
def test_local_unitary_conjugation_keeps_the_minimum(dims, seed, u_seed):
    obs = observable(seed, dims)
    u = local_unitary(u_seed, dims)
    rotated = u @ obs @ dagger(u)
    rotated = (rotated + dagger(rotated)) / 2
    a, b = product_minima(np.array([obs, rotated]), dims, CFG).values
    assert abs(a - b) < 1e-8


def starts_one_party_at_a_time(d, config):
    """Reference start vectors: per restart, one draw per party and part."""
    r_count = max(1, int(config.restarts))
    factors = [np.empty((r_count, di), dtype=complex) for di in d]
    for r in range(r_count):
        rng = np.random.default_rng(config.seed + r)
        for i, di in enumerate(d):
            v = rng.normal(size=di) + 1j * rng.normal(size=di)
            factors[i][r] = v / np.linalg.norm(v)
    return factors


@PROPS
@given(st.sampled_from([(2, 2), (3, 3), (4, 4), (2, 2, 2)]), st.integers(0, 2**31), st.integers(1, 9))
def test_start_vectors_match_one_draw_per_party(dims, seed, restarts):
    config = OptimizerConfig(restarts=restarts, seed=seed)
    starts = _starts(dims, config)
    assert starts is _starts(dims, config) and not any(v.flags.writeable for v in starts)
    for a, b in zip(starts, starts_one_party_at_a_time(dims, config)):
        assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-15


def coordinate_basis(d):
    """The optimizer's party basis, built here from its definition: Pauli
    (I, X, Y, Z) for a qubit, else the matrix units E_xy in row-major order."""
    if d == 2:
        return np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    return np.eye(d * d, dtype=complex).reshape(d * d, d, d)  # [x d + y] is E_xy


def step(stack):
    """One party step on effective matrices M (lowest eigenpair of each):
    their coordinates ``v_a = sum M[x, y] B_a[x, y]``, then the optimizer's step."""
    d = stack.shape[-1]
    v = np.einsum("nxy,axy->na", stack, coordinate_basis(d))
    if d != 2:
        return _eigh_step(v, d)
    vals, q = _bloch_step(v.real)
    proj = np.einsum("na,axy->nxy", q, coordinate_basis(2))  # conj(u) u^T
    return vals, _bloch_ket(q), proj


def norms(a):
    """Each row's 2-norm (Frobenius for matrices), by hypot: cannot overflow at 1e200."""
    return reduce(np.hypot, np.abs(a).reshape(len(a), -1).T)


def check_step(stack):
    out = step(stack)
    vals, vecs = out[:2]
    size = np.linalg.norm(stack, ord=2, axis=(1, 2))
    assert np.all(np.abs(vals - np.linalg.eigvalsh(stack)[:, 0]) <= 1e-14 * size)
    res = np.einsum("nij,nj->ni", stack, vecs) - vals[:, None] * vecs
    assert np.all(norms(res) <= 1e-14 * size)
    assert np.max(np.abs(np.linalg.norm(vecs, axis=1) - 1.0)) <= 1e-14
    if len(out) == 3:  # the qubit step's projector, from its coordinates alone
        eig_proj = np.conj(out[2])
        res = np.einsum("nij,njk->nik", stack, eig_proj) - vals[:, None, None] * eig_proj
        assert np.all(norms(res) <= 1e-14 * size)
        ket_proj = vecs[:, :, None] * np.conj(vecs)[:, None, :]
        assert np.max(np.abs(ket_proj - eig_proj)) <= 1e-15


def random_hermitian(seed, d, scale):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(32, d, d)) + 1j * rng.normal(size=(32, d, d))
    return scale * (m + np.conj(m.transpose(0, 2, 1))) / 2


@PROPS
@given(SEEDS, st.sampled_from([1e-11, 1.0, 1e3]))
def test_qubit_eigenpairs_match_eigh(seed, scale):
    check_step(random_hermitian(seed, 2, scale))


@PROPS
@given(SEEDS, st.sampled_from([1e-11, 1.0, 1e3]), st.sampled_from([3, 4]))
def test_eigh_step_matches_eigh(seed, scale, d):
    check_step(random_hermitian(seed, d, scale))


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e-11, 1.0, 1e3, 1e160, 1e200])
def test_qubit_eigenpairs_of_scalar_and_diagonal_matrices(scale):
    cases = np.array([
        [[0, 0], [0, 0]],           # zero
        [[0.7, 0], [0, 0.7]],       # b = 0, a = c
        [[2, 0], [0, -1]],          # diagonal, a > c
        [[-1, 0], [0, 2]],          # diagonal, a < c
        [[1, 1e-9j], [-1e-9j, 1]],  # nearly scalar
    ], dtype=complex)
    check_step(scale * cases)
    _, vecs, _ = step(scale * cases)
    assert np.array_equal(vecs[:2], [[1, 0], [1, 0]])
    assert np.array_equal(np.abs(vecs[2:4]), [[0, 1], [1, 0]])


@PROPS
@given(st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 4), (4, 4), (2, 2, 2)]), SEEDS, SEEDS)
def test_coordinates_reproduce_the_expectation(dims, seed, chi_seed):
    obs = observable(seed, dims)
    rng = np.random.default_rng(chi_seed)
    kets = [k / np.linalg.norm(k) for k in (rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims)]
    t = _observable_coordinates(obs[None], dims)[0]
    for ket in kets:
        t = np.tensordot(_ket_coordinates(ket[None])[0], t, axes=(0, 0))
    chi = reduce(np.kron, kets)
    exact = np.real(np.conj(chi) @ obs @ chi)
    assert abs(t - exact) <= 1e-12 * np.linalg.norm(obs)


@pytest.mark.parametrize("dims", [(2,), (2, 2), (2, 2, 2), (3,), (2, 3), (3, 3), (4, 4), (2, 2, 3)])
def test_observable_coordinates_are_real_only_for_qubits(dims):
    coords = _observable_coordinates(observable(0, dims)[None], dims)
    assert coords.shape == (1, *(d * d for d in dims))
    assert np.iscomplexobj(coords) == any(d != 2 for d in dims)


@PROPS
@given(
    st.sampled_from([(2, 2), (2, 3), (2, 2, 2)]),
    st.lists(SEEDS, min_size=1, max_size=3),
    st.sampled_from([3, 5]),
    st.sampled_from([witnesses.MAX_SWEEPS, 1, 12]),
)
def test_refilled_rows_match_each_observable_alone(dims, seeds, block, max_sweeps):
    obs = [observable(s, dims) for s in seeds]
    with patch.object(witnesses, "MAX_SWEEPS", max_sweeps):
        each = [alone(o, dims) for o in obs]
        with patch.object(witnesses, "BLOCK_ROWS", block):
            refilled = product_minima(np.array(obs), dims, CFG)
    for i, a in enumerate(each):
        assert same(a, row(refilled, i)) and a[2] == CFG.restarts
    if max_sweeps == 1:
        assert not refilled.converged.any()


def eigh_descent(obs, dims, config):
    """Reference optimizer: each restart alone, every eigenpair from `eigh`;
    the earliest restart within the tolerance of the lowest value wins."""
    tol = witnesses.TOL_SWEEP * np.linalg.norm(obs)
    values = []
    for start in zip(*_starts(dims, config)):
        vecs, value = list(start), np.inf
        for _ in range(witnesses.MAX_SWEEPS):
            for i, di in enumerate(dims):
                embed = reduce(np.kron, [
                    np.eye(di) if j == i else v[:, None] for j, v in enumerate(vecs)
                ])
                evals, evecs = np.linalg.eigh(dagger(embed) @ obs @ embed)
                vecs[i], new = evecs[:, 0], evals[0]
            done, value = abs(new - value) <= tol, new
            if done:
                break
        values.append(value)
    values = np.array(values)
    return values[np.argmax(values <= values.min() + tol)]


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(DIMS, SEEDS)
def test_descent_agrees_with_an_eigh_only_descent(dims, seed):
    obs = observable(seed, dims)
    obs = obs / np.linalg.norm(obs)
    assert abs(min_over_products(obs, dims, CFG).value - eigh_descent(obs, dims, CFG)) <= 1e-12


def test_non_hermitian_observable_in_a_stack_raises():
    dims = (2, 2)
    obs = [observable(s, dims) for s in range(5)]
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1e-3
    for scale in (1.0, 1e-9):
        stack = np.array(obs[:4] + [scale * (obs[4] + skew)])
        with pytest.raises(DimensionError, match="must be Hermitian"):
            product_minima(stack, dims, CFG)
    with pytest.raises(DimensionError, match="does not match dims"):
        product_minima(np.array(obs)[:, :3, :3], dims, CFG)
    with pytest.raises(DimensionError, match="does not match dims"):
        min_over_products(np.eye(3), dims, CFG)


BIPARTITE = st.sampled_from([(2, 2), (2, 3), (3, 3), (3, 4)])


@PROPS
@given(BIPARTITE, SEEDS)
def test_shifted_pure_minimum_is_exact(dims, seed):
    for sign in (-1.0, 1.0):
        obs, exact = shifted_pure(seed, dims, sign)
        size = np.linalg.norm(obs)
        res = min_over_products(obs, dims, CFG)
        chi = res.argument.assemble().amplitudes
        assert res.restarts_used == 0 and res.converged and res.spread == 0.0
        assert abs(res.value - exact) <= 1e-12 * size
        assert abs(np.real(np.conj(chi) @ obs @ chi) - res.value) <= 1e-12 * size
        assert res.value <= eigh_descent(obs, dims, CFG) + 1e-14 * size
        for scale in (1e-11, 1e3):
            scaled = min_over_products(scale * obs, dims, CFG)
            assert scaled.restarts_used == 0
            assert abs(scaled.value - scale * res.value) <= 1e-12 * scale * size


SCALES = np.array([1e-300, 1e-11, 1e3, 1e200])


@PROPS
@given(BIPARTITE, SEEDS)
def test_perturbed_shifted_pure_observables_are_descended(dims, seed):
    # a Hermitian perturbation of relative size 1e-9 leaves the exact path at every scale
    noise = observable(seed + 1, dims)
    for sign in (-1.0, 1.0):
        obs, _ = shifted_pure(seed, dims, sign)
        obs = obs + 1e-9 * np.linalg.norm(obs) / np.linalg.norm(noise) * noise
        found = product_minima(SCALES[:, None, None] * obs, dims, CFG)
        assert np.all(found.restarts_used == CFG.restarts)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2)])
def test_descended_minimum_is_scale_free(dims):
    # the descent's stopping tolerance is relative to the observable's norm, read
    # without a square under- or overflowing at any scale
    obs = observable(5, dims)
    obs = obs / np.linalg.norm(obs)
    scales = np.array([1e-300, 1.0, 1e200])
    found = product_minima(scales[:, None, None] * obs, dims, CFG)
    assert np.all(found.restarts_used == CFG.restarts)
    assert np.all(np.abs(found.values / scales - found.values[1]) <= 1e-12)
    assert np.all(found.converged == found.converged[1])


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4)])
@pytest.mark.parametrize("c", [0.7, -0.7, 0.0])
def test_scalar_observables_are_solved_exactly(dims, c):
    d = int(np.prod(dims))
    found = product_minima(SCALES[:, None, None] * (c * np.eye(d)), dims, CFG)
    assert np.all(found.restarts_used == 0)
    assert np.all(np.abs(found.values - c * SCALES) <= 1e-15 * np.abs(c * SCALES))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entry_in_a_stack_raises(bad):
    stack = np.array([observable(s, (2, 2)) for s in range(3)])
    stack[1, 0, 0] = bad
    with pytest.raises(DimensionError, match="finite"):
        product_minima(stack, (2, 2), CFG)
