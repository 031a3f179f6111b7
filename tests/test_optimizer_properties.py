"""Property tests of the batched product-state optimizer."""

import warnings
from functools import reduce
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entpow import witnesses
from entpow.errors import DimensionError
from entpow.tensor import CERT_CONE_RTOL, CERT_PSD_RTOL, dagger, kron_all, swap_matrix
from entpow.witnesses import (
    OptimizerConfig,
    ProductMinima,
    _bloch_ket,
    _bloch_step,
    _descent_minima,
    _eigh_step,
    _ket_coordinates,
    _observable_coordinates,
    _shifted_pure_minima,
    _starts,
    _two_qubit_duals,
    _two_qubit_minima,
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


def descended(stack, dims, config=CFG):
    """The multi-start descent of every observable of a Hermitian stack, as
    `product_minima` would run it on observables that no exact path solves:
    two-qubit observables are solved exactly there, so their descent is
    tested through `_descent_minima` directly."""
    values, converged, spread, kets = _descent_minima(np.asarray(stack, dtype=complex), dims,
                                                      config)
    return ProductMinima(values, tuple(kets), np.full(len(values), config.restarts), converged,
                         spread)


def minimizer(dims):
    """`product_minima` where it descends, and `descended` on two qubits."""
    return descended if tuple(dims) == (2, 2) else product_minima


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
    their coordinates ``v_a = sum M[x, y] B_a[x, y]``, one column per matrix,
    then the optimizer's step; the vectors come back one row per matrix."""
    d = stack.shape[-1]
    v = np.einsum("nxy,axy->an", stack, coordinate_basis(d))
    if d != 2:
        vals, vecs = _eigh_step(v, d)
        return vals, vecs.T
    vals, q = _bloch_step(v.real)
    proj = np.einsum("an,axy->nxy", q, coordinate_basis(2))  # conj(u) u^T
    return vals, _bloch_ket(q).T, proj


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
        t = np.tensordot(_ket_coordinates(ket[:, None])[:, 0], t, axes=(0, 0))
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
    st.sampled_from([witnesses.MAX_SWEEPS, 1, 12]),
)
def test_stacked_rows_match_each_observable_alone(dims, seeds, max_sweeps):
    obs = np.array([observable(s, dims) for s in seeds])
    minimize = minimizer(dims)
    with patch.object(witnesses, "MAX_SWEEPS", max_sweeps):
        each = [row(minimize(o[None], dims, CFG), 0) for o in obs]
        stacked = minimize(obs, dims, CFG)
        if dims == (2, 2):  # product_minima solves these without a descent
            assert not product_minima(obs, dims, CFG).restarts_used.any()
    for i, a in enumerate(each):
        assert same(a, row(stacked, i)) and a[2] == CFG.restarts
    if max_sweeps == 1:
        assert not stacked.converged.any()


@pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
def test_a_lone_restart_descends_without_warnings(dims):
    # a lone restart is a one-column matmul; a party of d >= 3 last steps it by `eigh`,
    # and its first sweep's change from a start at inf must not warn
    d, obs = int(np.prod(dims)), observable(0, dims)
    one = OptimizerConfig(restarts=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        diagonal = min_over_products(np.diag(np.arange(float(d))), dims, one)
        generic = min_over_products(obs, dims, one)
    assert diagonal.converged and abs(diagonal.value) <= witnesses.TOL_SWEEP * d
    assert generic.converged and generic.value >= np.linalg.eigvalsh(obs)[0]


@pytest.mark.parametrize("dims", [(2, 3), (3, 3), (2, 2, 2), (3, 4), (2, 2, 3)])
@pytest.mark.parametrize("restarts", [1, 2, 3])
def test_few_restarts_in_a_batch_match_each_observable_alone(dims, restarts):
    # an observable's matmuls have as many columns as it has restarts, in a batch
    # or alone, down to a single column
    config = OptimizerConfig(restarts=restarts, seed=5)
    obs = np.array([observable(s, dims) for s in range(4)])
    stacked = product_minima(obs, dims, config)
    for i, o in enumerate(obs):
        assert same(row(stacked, i), alone(o, dims, config))


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
@given(st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 4)]), SEEDS)
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
    # a Hermitian perturbation of relative size 1e-9 leaves the shifted-pure path at
    # every scale. On two qubits the dual certificate then solves the minus sign; the
    # plus sign's minimum sits on a curve of product vectors, so its certificate is
    # ill-conditioned and may decline, and the row is descended
    noise = observable(seed + 1, dims)
    for sign in (-1.0, 1.0):
        obs, _ = shifted_pure(seed, dims, sign)
        obs = obs + 1e-9 * np.linalg.norm(obs) / np.linalg.norm(noise) * noise
        stack = SCALES[:, None, None] * obs
        assert not _shifted_pure_minima(stack, dims)[0].any()
        found = product_minima(stack, dims, CFG)
        if dims != (2, 2):
            assert np.all(found.restarts_used == CFG.restarts)
        elif sign < 0:
            assert not found.restarts_used.any()
        else:
            assert set(found.restarts_used.tolist()) <= {0, CFG.restarts}


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2)])
def test_descended_minimum_is_scale_free(dims):
    # the descent's stopping tolerance is relative to the observable's norm, read
    # without a square under- or overflowing at any scale; on two qubits, both the
    # descent and the dual certificate that replaces it are checked
    obs = observable(5, dims)
    obs = obs / np.linalg.norm(obs)
    scales = np.array([1e-300, 1.0, 1e200])
    runs = [minimizer(dims)] + ([product_minima] if dims == (2, 2) else [])
    for minimize, restarts in zip(runs, (CFG.restarts, 0)):
        found = minimize(scales[:, None, None] * obs, dims, CFG)
        assert np.all(found.restarts_used == restarts)
        assert np.all(np.abs(found.values / scales - found.values[1]) <= 1e-12)
        assert np.all(found.converged == found.converged[1])


@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2)])
def test_rows_at_far_scales_in_one_block_match_each_observable_alone(dims):
    # the Bloch step's hypot chain runs on the rows at 1e-200 and 1e200 only; on
    # two qubits, the dual certificate's rows are also each their own
    obs = observable(9, dims)
    stack = np.array([1e-200, 1.0, 1e200])[:, None, None] * obs
    runs = [minimizer(dims)] + ([product_minima] if dims == (2, 2) else [])
    for minimize, restarts in zip(runs, (CFG.restarts, 0)):
        found = minimize(stack, dims, CFG)
        assert np.all(found.restarts_used == restarts)
        for i, o in enumerate(stack):
            assert same(row(found, i), row(minimize(o[None], dims, CFG), 0))


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


# -- the two-qubit dual certificate --------------------------------------------

PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
KINDS = ["random", "product", "local_sum", "bell_diagonal", "swap", "scalar"]


def two_qubit(kind, seed):
    """A Hermitian 4x4 observable of the given kind, of norm about 1."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return observable(seed, (2, 2))
    a, b = (observable(s, (2,)) for s in rng.integers(0, 2**32, size=2))
    if kind == "product":
        return np.kron(a, b)
    if kind == "local_sum":
        return np.kron(a, np.eye(2)) + np.kron(np.eye(2), b)
    if kind == "bell_diagonal":
        t = rng.normal(size=3)
        return rng.normal() * np.eye(4) + sum(ti * np.kron(s, s) for ti, s in zip(t, PAULI[1:]))
    if kind == "swap":
        return rng.normal() * swap_matrix(2)
    return rng.normal() * np.eye(4)


def replay(obs, tau, mu):
    """The certificate check in plain numpy: at unit Frobenius norm, with
    ``T_ab = Tr(O sigma_a (x) sigma_b)``, ``Lam = T - tau e_0 e_0^T``,
    ``S = Lam J Lam^T - mu J`` is PSD and tau is at most ``T_00 - |T[1:, 0]|``."""
    obs = obs / norms(obs[None])[0]
    basis = np.array([np.kron(a, b) for a in PAULI for b in PAULI]).reshape(4, 4, 4, 4)
    t = np.einsum("xy,abyx->ab", obs, basis).real
    lam = t - tau * np.diag([1.0, 0.0, 0.0, 0.0])
    j = np.diag([1.0, -1.0, -1.0, -1.0])
    least = np.linalg.eigvalsh(lam @ j @ lam.T - mu * j)[0]
    return least >= -CERT_PSD_RTOL and tau <= t[0, 0] - np.linalg.norm(t[1:, 0]) + CERT_CONE_RTOL


TWO_QUBIT = st.lists(st.tuples(st.sampled_from(KINDS), SEEDS,
                               st.sampled_from([1e-300, 1e-11, 1.0, 1e3, 1e200])),
                     min_size=1, max_size=4)


@PROPS
@given(TWO_QUBIT)
def test_two_qubit_certificates_prove_the_minimum(specs):
    stack = np.array([scale * two_qubit(kind, seed) for kind, seed, scale in specs])
    stack = (stack + dagger(stack)) / 2
    solved, values, pair = _two_qubit_minima(stack, (2, 2))
    # a scalar's optimal mu is 0, where s = sqrt(mu) resolves tau only to ~1e-7;
    # scalars are shifted pure, and solved before this path
    assert solved[[kind != "scalar" for kind, _, _ in specs]].all()
    descent = _descent_minima(stack, (2, 2), witnesses.DEFAULT_CONFIG)[0]
    size = norms(stack)
    scaled = stack / size[:, None, None]
    tau, mu, _ = _two_qubit_duals(_observable_coordinates(scaled, (2, 2)))
    for i, k in enumerate(np.flatnonzero(solved)):
        value, kets = values[i], [f[i] for f in pair]
        assert value <= descent[k] + 1e-14 * size[k]
        chi = np.kron(*kets)
        assert abs(np.vdot(chi, stack[k] @ chi).real - value) <= 1e-14 * size[k]
        one = _two_qubit_minima(stack[k:k + 1], (2, 2))
        assert one[0][0] and one[1][0] == value
        assert all(np.array_equal(f[0], ket) for f, ket in zip(one[2], kets))
        assert replay(scaled[k], tau[k], mu[k])
        assert not replay(scaled[k], tau[k] + 1e-6, mu[k])


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e200])
def test_degenerate_two_qubit_observables_are_certified(scale):
    # O = c + sum t_i n_i m_i over Bloch vectors; min c - max|t_i| (alpha = beta = 0),
    # with a two-dimensional null space when two |t_i| tie for the largest
    bell = [c * np.eye(4) + sum(ti * np.kron(s, s) for ti, s in zip(t, PAULI[1:]))
            for c, t in ((0.3, (0.5, 0.2, -0.1)), (0.3, (0.5, -0.5, 0.2)), (0.0, (0.0, 0.4, -0.4)))]
    local = np.kron(observable(3, (2,)), np.eye(2))  # beta = M = 0: beta + M^T n = 0 for all n
    # 4 O = c - a n_z - |m| (1 - n_z): least at n_z = 1 for a > |m|, where beta + M^T n = 0
    # while M != 0; here K = B J B^T = 0, and the optimal mu sits on that pole, so the
    # certificate resolves the minimum only to about 1e-8 and the row may be descended
    m = np.array([0.3, -0.4, 0.5])
    flat = (np.eye(4) - 2.0 * np.kron(PAULI[3], np.eye(2))
            - 2.0 * np.kron(np.diag([0.0, 1.0]), np.einsum("i,ixy->xy", m, PAULI[1:]))) / 4
    stack = scale * np.array(bell + [local, flat])
    exact = scale * np.array([0.3 - 0.5, 0.3 - 0.5, -0.4, np.linalg.eigvalsh(local)[0], -0.25])
    solved, values, _ = _two_qubit_minima(stack, (2, 2))
    assert solved[:-1].all()
    assert np.all(np.abs(values[:4] - exact[:4]) <= 1e-14 * norms(stack[:4]))
    found = product_minima(stack, (2, 2), CFG)
    assert not found.restarts_used[:-1].any()
    assert np.all(np.abs(found.values - exact) <= np.array([1e-14] * 4 + [1e-12]) * norms(stack))


def test_a_declined_observable_is_descended():
    # c I + |psi><psi| plus noise of relative size 1e-9: its minimum lies near a curve of
    # product vectors, the certificate is ill-conditioned and does not replay
    obs, _ = shifted_pure(0, (2, 2), 1.0)
    noise = observable(1, (2, 2))
    obs = obs + 1e-9 * np.linalg.norm(obs) / np.linalg.norm(noise) * noise
    assert not _two_qubit_minima(obs[None], (2, 2))[0].any()
    res = min_over_products(obs, (2, 2), CFG)
    assert res.restarts_used == CFG.restarts
    assert res.value == row(descended(obs[None], (2, 2)), 0)[0]
