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
from entpow.tensor import DimList, kron, numerical_rank, operator_schmidt
from entpow.witnesses import OptimizerConfig

PROPS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

DIMS = st.sampled_from([(2, 2), (2, 3), (3, 3)])
SEEDS = st.integers(0, 2**32 - 1)
KINDS = st.sampled_from([
    "tensor", "swap", "local_left", "local_right", "rank1_product", "rank1_entangled",
    "schmidt2", "generic", "zero",
])
OPS = st.lists(st.tuples(KINDS, SEEDS), min_size=1, max_size=7)
CHUNK = st.integers(1, 3)
SCALES = st.sampled_from([1e-9, 1.0, 1e3])

# Few probes, so that several probe chunks run: `power.PROBES` is patched to
# SMALL_PROBES wherever SMALL is used.
SMALL_PROBES = 5
SMALL = OptimizerConfig(seed=3)

# The largest image rank of each kind of `operator`; "generic" reaches min(d1, d2).
KNOWN_RANK = {
    "tensor": 1, "swap": 1, "local_left": 1, "local_right": 1, "rank1_product": 1, "zero": 1,
    "rank1_entangled": 2, "schmidt2": 2,
}


def rand_op(rng, d, cols=None):
    cols = d if cols is None else cols
    return rng.normal(size=(d, cols)) + 1j * rng.normal(size=(d, cols))


def rand_vec(rng, d):
    return rng.normal(size=d) + 1j * rng.normal(size=d)


def party_swap(d1, d2):
    """V |x, y> = |y, x> from the (d1, d2) space to the (d2, d1) space."""
    return np.eye(d1 * d2).reshape(d1, d2, d1 * d2).transpose(1, 0, 2).reshape(d1 * d2, -1)


def operator(kind, seed, dims):
    """One operator of a given structure: each form, plus operators that
    entangle with image rank below or at min(d1, d2). "swap" is
    ``M (x (x) y) = A y (x) B x``, which on unequal dims needs rectangular
    A and B; "local_left" is ``a (x) N`` and "local_right" ``N (x) b``."""
    rng = np.random.default_rng(seed)
    d1, d2 = dims
    n = d1 * d2
    if kind == "tensor":
        return kron(rand_op(rng, d1), rand_op(rng, d2))
    if kind == "swap":
        return kron(rand_op(rng, d1, d2), rand_op(rng, d2, d1)) @ party_swap(d1, d2)
    if kind == "local_left":
        return np.kron(rand_op(rng, d1, 1), rand_op(rng, d2, n))
    if kind == "local_right":
        return np.kron(rand_op(rng, d1, n), rand_op(rng, d2, 1))
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
    """Form and factors from per-operator structural tests, one form at a
    time: the operator Schmidt rank of M; of ``M V^-1 = A (x) B`` for the
    party swap V, a map from the (d2, d1) space with A (d1, d2), B (d2, d1);
    and the rank of ``M M^dagger`` reduced to output party 1, then 2 (rank 1
    puts the range in ``a (x) C^d2``, or in ``C^d1 (x) b``). A local-range
    operator gets the unit vector a (or b) and its contraction with M."""
    d1, d2 = dims
    dec = operator_schmidt(m, dims)
    if numerical_rank(dec.values) <= 1:
        s = float(dec.values[0])
        return "tensor_product", (np.sqrt(s) * dec.left[0], np.sqrt(s) * dec.right[0])
    simple = (m @ party_swap(d1, d2).T).reshape(d1, d2, d2, d1).transpose(0, 2, 1, 3)
    u, s, vh = np.linalg.svd(simple.reshape(d1 * d2, d2 * d1), full_matrices=False)
    if numerical_rank(s) <= 1:
        root = np.sqrt(float(s[0]))
        return "permutation_local", (root * u[:, 0].reshape(d1, d2), root * vh[0].reshape(d2, d1))
    t = m.reshape(d1, d2, -1)
    gram = np.einsum("ajx,bkx->ajbk", t, np.conj(t))
    vals, vecs = np.linalg.eigh(np.einsum("ajbj->ab", gram))
    if numerical_rank(vals[::-1]) == 1:
        a = vecs[:, -1]
        return "local_range", (a, np.einsum("a,ajx->jx", np.conj(a), t))
    vals, vecs = np.linalg.eigh(np.einsum("ajak->jk", gram))
    if numerical_rank(vals[::-1]) == 1:
        b = vecs[:, -1]
        return "local_range", (np.einsum("ajx,j->ax", t, np.conj(b)), b)
    return "unknown", None


# -- properties ------------------------------------------------------------


def same_structure(x, y):
    return (
        x.form == y.form
        and x.permutation == y.permutation
        and len(x.factors or ()) == len(y.factors or ())
        and all(np.array_equal(p, q) for p, q in zip(x.factors or (), y.factors or ()))
    )


def rebuild(factors, dims):
    """``f1 (x) f2`` with vectors as columns: the operator of a local-range form."""
    return np.kron(factors[0].reshape(dims[0], -1), factors[1].reshape(dims[1], -1))


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
        if form == "local_range":  # the same product, split differently
            assert [p.shape for p in st_many.factors] == [q.shape for q in factors]
            assert np.allclose(rebuild(st_many.factors, dims), rebuild(factors, dims), atol=1e-10)
        elif factors is not None:
            assert all(np.array_equal(p, q) for p, q in zip(st_many.factors, factors))


def rank_of(hit):
    """The image rank a search result stands for: None stands for 0 and 1."""
    return 1 if hit is None else hit[0]


def same_factors(x, y):
    return all(np.array_equal(p, q) for p, q in zip(x.factors, y.factors, strict=True))


def same_hit(x, y):
    """Two `_image_rank_search` results: rank, input and image bitwise."""
    if x is None or y is None:
        return x is None and y is None
    (rx, px, ix), (ry, py, iy) = x, y
    return rx == ry and same_factors(px, py) and np.array_equal(ix.amplitudes, iy.amplitudes)


def same_violation(x, y):
    """Two stochastic violations, bitwise apart from their Kraus index."""
    if x is None or y is None:
        return x is None and y is None
    return (
        (x.kind, x.value) == (y.kind, y.value)
        and same_factors(x.input, y.input)
        and np.array_equal(x.witness.operator, y.witness.operator)
    )


def replays(m, hit, dims):
    """The hit's image is the normalized image of its input, of its rank."""
    rank, probe, image = hit
    img = m @ probe.assemble().amplitudes
    svals = np.linalg.svd(image.amplitudes.reshape(dims), compute_uv=False)
    return (
        np.allclose(image.amplitudes, img / np.linalg.norm(img), atol=1e-10)
        and numerical_rank(svals) == rank >= 2
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
        "tensor_product", "permutation_local", "local_range", "unknown"}
    assert any(st.violation is not None for st in many)
    for k, (x, y) in enumerate(zip(many, alone, strict=True)):
        assert same_structure(x, y) and x.image_rank == y.image_rank
        assert same_violation(x.violation, y.violation)
        if x.violation is not None:
            assert (x.violation.kraus_index, y.violation.kraus_index) == (k, 0)


def test_product_preserving_stack_has_no_hit():
    # the search then runs over no operator at all
    ops = [("tensor", 1), ("swap", 2), ("rank1_product", 3), ("zero", 4), ("local_left", 5),
           ("local_right", 6)]
    structures = classify_kraus_many(stack_of(ops, (2, 3)), (2, 3))
    assert [st.form for st in structures] == [
        "tensor_product", "permutation_local", "local_range", "tensor_product", "local_range",
        "local_range"]
    assert all(st.violation is None and st.image_rank == 1 for st in structures)
