"""Property tests of the batched product-state optimizer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entpow.tensor import dagger, kron_all
from entpow.witnesses import OptimizerConfig, min_over_products, min_over_products_many

CFG = OptimizerConfig(restarts=16, seed=11)
PROPS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

DIMS = st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2)])
SEEDS = st.integers(0, 2**32 - 1)


def observable(seed, dims):
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + dagger(m)) / 2


def local_unitary(seed, dims):
    rng = np.random.default_rng(seed)
    us = []
    for d in dims:
        q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        us.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return kron_all(us)


def same(a, b):
    return (
        a.value == b.value
        and a.converged == b.converged
        and a.spread == b.spread
        and all(np.array_equal(x, y) for x, y in zip(a.argument.factors, b.argument.factors))
    )


@PROPS
@given(DIMS, st.lists(SEEDS, min_size=1, max_size=4))
def test_batch_matches_each_observable_alone(dims, seeds):
    obs = [observable(s, dims) for s in seeds]
    batched = min_over_products_many(obs, dims, CFG)
    assert len(batched) == len(obs)
    for o, res in zip(obs, batched):
        assert same(res, min_over_products(o, dims, CFG))


@PROPS
@given(DIMS, st.lists(SEEDS, min_size=2, max_size=4))
def test_reversed_input_reverses_results(dims, seeds):
    obs = [observable(s, dims) for s in seeds]
    forward = min_over_products_many(obs, dims, CFG)
    backward = min_over_products_many(obs[::-1], dims, CFG)
    assert all(same(a, b) for a, b in zip(forward, backward[::-1]))


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
    a, b = min_over_products_many([obs, rotated], dims, CFG)
    assert abs(a.value - b.value) < 1e-8
