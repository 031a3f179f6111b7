"""Property tests of the batched Kraus-structure kernel in `entpow.power`.

Each batched call must give, for every operator of a stack, what that operator
gets alone, whatever the probe chunk size; the stacked classification and image
ranks must also agree with the one-operator-at-a-time code they replaced,
kept here as the reference. The image-rank search reports a hit only for
ranks of at least 2, so its rank is compared with ``max(1, reference)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entpow import power
from entpow.power import (
    _image_rank_search,
    _structures,
    channel_schmidt_rank,
    classify_kraus_many,
)
from entpow.states import PureState, schmidt_rank
from entpow.tensor import DimList, kron, numerical_rank, operator_schmidt, swap_matrix
from entpow.witnesses import OptimizerConfig

PROPS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

DIMS = st.sampled_from([(2, 2), (2, 3), (3, 3)])
SEEDS = st.integers(0, 2**32 - 1)
KINDS = st.sampled_from(
    ["tensor", "swap", "rank1_product", "rank1_entangled", "schmidt2", "generic", "zero"]
)
OPS = st.lists(st.tuples(KINDS, SEEDS), min_size=1, max_size=7)
CHUNK = st.integers(1, 3)
SCALES = st.sampled_from([1e-9, 1.0, 1e3])

# Few probes, so that several probe chunks run: `power.PROBES` is patched to
# SMALL_PROBES wherever SMALL is used.
SMALL_PROBES = 5
SMALL = OptimizerConfig(seed=3)

# The largest image rank of each kind of `operator`; "generic" reaches min(d1, d2).
KNOWN_RANK = {
    "tensor": 1, "swap": 1, "rank1_product": 1, "zero": 1, "rank1_entangled": 2, "schmidt2": 2,
}


def rand_op(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def rand_vec(rng, d):
    return rng.normal(size=d) + 1j * rng.normal(size=d)


def operator(kind, seed, dims):
    """One operator of a given structure: each form, plus operators that
    entangle with image rank below or at min(d1, d2)."""
    rng = np.random.default_rng(seed)
    d1, d2 = dims
    if kind == "tensor" or (kind == "swap" and d1 != d2):
        return kron(rand_op(rng, d1), rand_op(rng, d2))
    if kind == "swap":
        return kron(rand_op(rng, d1), rand_op(rng, d2)) @ swap_matrix(d1)
    if kind == "rank1_product":
        return np.outer(np.kron(rand_vec(rng, d1), rand_vec(rng, d2)), rand_vec(rng, d1 * d2))
    if kind == "rank1_entangled":  # |00> + |11> out: image rank 2 for every input
        bell = np.kron(np.eye(d1)[0], np.eye(d2)[0]) + np.kron(np.eye(d1)[1], np.eye(d2)[1])
        return np.outer(bell, rand_vec(rng, d1 * d2))
    if kind == "schmidt2":  # operator Schmidt rank 2: image rank at most 2
        return kron(rand_op(rng, d1), rand_op(rng, d2)) + kron(rand_op(rng, d1), rand_op(rng, d2))
    if kind == "zero":
        return np.zeros((d1 * d2, d1 * d2), dtype=complex)
    return rand_op(rng, d1 * d2)


def stack_of(ops, dims):
    return np.array([operator(kind, seed, dims) for kind, seed in ops])


# -- the one-operator code the kernel replaced ---------------------------


def reference_image_svals(m, a, b):
    d1, d2 = a.shape[1], b.shape[1]
    chi = np.einsum("pi,pj->pij", a, b).reshape(a.shape[0], -1)
    img = chi @ m.T
    norms = np.linalg.norm(img, axis=1)
    scale = max(float(np.linalg.norm(m)), 1.0)
    ok = norms > 1e-12 * scale
    svals = np.zeros((a.shape[0], min(d1, d2)))
    if np.any(ok):
        normalized = img[ok] / norms[ok, None]
        svals[ok] = np.linalg.svd(normalized.reshape(-1, d1, d2), compute_uv=False)
    return svals


def reference_max_image_rank(m, dims, config):
    d1, d2 = dims
    rng = np.random.default_rng((config.seed, 17))
    a = power._unit_rows(rng, SMALL_PROBES, d1)
    b = power._unit_rows(rng, SMALL_PROBES, d2)
    return max(numerical_rank(s) for s in reference_image_svals(m, a, b))


def reference_form(m, dims):
    """Form and factors from the per-operator structural tests."""
    d1, d2 = dims
    dec = operator_schmidt(m, dims)
    if numerical_rank(dec.values) <= 1:
        s = float(dec.values[0])
        return "tensor_product", (np.sqrt(s) * dec.left[0], np.sqrt(s) * dec.right[0])
    if d1 == d2:
        dec2 = operator_schmidt(m @ swap_matrix(d1), dims)
        if numerical_rank(dec2.values) <= 1:
            s = float(dec2.values[0])
            return "permutation_local", (np.sqrt(s) * dec2.left[0], np.sqrt(s) * dec2.right[0])
    u_m, s_m, _ = np.linalg.svd(m)
    if numerical_rank(s_m) == 1 and schmidt_rank(PureState(u_m[:, 0], dims)) == 1:
        u2, s2, vh2 = np.linalg.svd(u_m[:, 0].reshape(d1, d2))
        return "rank1_product", (s2[0] * u2[:, 0], vh2[0, :])
    return "unknown", None


# -- properties ------------------------------------------------------------


def arrays(st):
    return (st.factors or ()) + (() if st.right_vector is None else (st.right_vector,))


def same_structure(x, y):
    return (
        x.form == y.form
        and x.permutation == y.permutation
        and len(arrays(x)) == len(arrays(y))
        and all(np.array_equal(p, q) for p, q in zip(arrays(x), arrays(y)))
    )


@PROPS
@given(DIMS, OPS)
def test_classify_many_matches_each_operator(dims, ops):
    stack = stack_of(ops, dims)
    dl = DimList.of(dims)
    batched = _structures(stack, dl)
    assert len(batched) == len(stack)
    for m, st_many in zip(stack, batched):
        assert same_structure(st_many, _structures(m[None], dl)[0])
        form, factors = reference_form(m, dims)
        assert st_many.form == form
        if factors is not None:
            assert all(np.array_equal(p, q) for p, q in zip(st_many.factors, factors))


def rank_of(hit):
    """The image rank a search result stands for: None stands for 0 and 1."""
    return 1 if hit is None else hit.image_rank


def same_hit(x, y):
    if x is None or y is None:
        return x is None and y is None
    return (
        x.image_rank == y.image_rank
        and all(np.array_equal(p, q) for p, q in zip(x.input.factors, y.input.factors))
        and np.array_equal(x.image.amplitudes, y.image.amplitudes)
    )


def replays(m, hit, dims):
    """The hit's image is the normalized image of its input, of its rank."""
    img = m @ hit.input.assemble().amplitudes
    svals = np.linalg.svd(hit.image.amplitudes.reshape(dims), compute_uv=False)
    return (
        np.allclose(hit.image.amplitudes, img / np.linalg.norm(img), atol=1e-10)
        and numerical_rank(svals) == hit.image_rank >= 2
    )


@PROPS
@given(DIMS, OPS, CHUNK, SCALES)
def test_image_ranks_match_each_operator_alone(dims, ops, chunk, scale):
    stack = scale * stack_of(ops, dims)
    dl = DimList.of(dims)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(power, "PROBE_CHUNK", chunk)
        mp.setattr(power, "PROBES", SMALL_PROBES)
        batched = _image_rank_search(stack, dl, SMALL)
        alone = [_image_rank_search(m[None], dl, SMALL)[0] for m in stack]
    assert all(same_hit(x, y) for x, y in zip(batched, alone, strict=True))
    ranks = [rank_of(h) for h in alone]
    assert ranks == [max(1, reference_max_image_rank(m, dims, SMALL)) for m in stack]
    assert ranks == [KNOWN_RANK.get(kind, min(dims)) for kind, _ in ops]
    assert all(replays(m, h, dims) for m, h in zip(stack, alone) if h is not None)


@PROPS
@given(DIMS, OPS)
def test_schmidt_ranks_match_channel_schmidt_rank(dims, ops):
    stack = stack_of(ops, dims)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(power, "PROBES", SMALL_PROBES)
        alone = [channel_schmidt_rank(m, dims, SMALL) for m in stack]
        structures = classify_kraus_many(stack, dims, SMALL)
    assert [s.image_rank for s in structures] == alone


@pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
def test_long_stack_classifies_each_operator_as_alone(dims):
    # 70 operators cycling through every kind: each form and each image rank
    kinds = sorted(KNOWN_RANK) + ["generic"]
    stack = stack_of([(kinds[i % len(kinds)], i) for i in range(70)], dims)
    many = classify_kraus_many(stack, dims)
    alone = [classify_kraus_many(m[None], dims)[0] for m in stack]
    assert {st.form for st in many} == {
        "tensor_product", "permutation_local", "rank1_product", "unknown"}
    for x, y in zip(many, alone, strict=True):
        assert same_structure(x, y) and same_hit(x.witness_violation, y.witness_violation)


def test_product_preserving_stack_has_no_hit():
    # the search then runs over no operator at all
    ops = [("tensor", 1), ("swap", 2), ("rank1_product", 3), ("zero", 4)]
    structures = classify_kraus_many(stack_of(ops, (2, 2)), (2, 2))
    assert [st.form for st in structures] == [
        "tensor_product", "permutation_local", "rank1_product", "tensor_product"]
    assert all(st.witness_violation is None for st in structures)
