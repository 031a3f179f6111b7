"""Entangling-power analysis: Kraus structure, channel Schmidt measures,
and stochastic-non-entangling certificates.

A single Kraus operator preserves the set of product states exactly when it
has one of three structural forms: a simple tensor ``A (x) B``, a simple
tensor composed with a party permutation, or a rank-1 operator
``|chi_1, chi_2><Psi|`` whose column space is a product vector. Channels all
of whose Kraus operators (in some decomposition) take these forms cannot
create entanglement even stochastically; this module classifies operators,
searches decompositions, bounds the channel Schmidt number, and produces
replayable certificates.

Verdict semantics: "entangling" is backed either by a witness violation of
the full channel (a separable input provably maps to an entangled output) or
by a single Kraus operator of the *stored* decomposition mapping a product
input to an entangled conditional output. The latter speaks about the stored
decomposition; a different decomposition of the same channel may be free of
such operators. "stochastically_nonentangling" requires structural
classification of every operator in at least one decomposition; probe
evidence alone never certifies it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import KrausChannel, MeasurementChannel
from .errors import DimensionError, EntpowError, NotAWitnessError
from .states import ProductStateParam, PureState, schmidt_rank
from .tensor import RANK_RTOL, DimList, as_matrix, numerical_rank, swap_matrix
from .witnesses import (
    DEFAULT_CONFIG,
    TOL_WITNESS,
    OptimizerConfig,
    Witness,
    default_witness_family,
    is_witness,
    min_over_products,
)

FORM_TENSOR = "tensor_product"
FORM_PERMUTATION = "permutation_local"
FORM_RANK1 = "rank1_product"
FORM_UNKNOWN = "unknown"


@dataclass(frozen=True)
class ProbeConfig:
    """Knobs for the randomized searches in this module.

    `probes` product inputs, refined by `refine_steps` ascent steps, look for
    entangled images; classification and certification read ``probes=0`` as
    "no probing", and Schmidt ranks need ``probes >= 1``. `seed` also draws
    the contractions of the product-decomposition search.
    """

    probes: int = 200
    refine_steps: int = 10
    seed: int = 0
    optimizer: OptimizerConfig = DEFAULT_CONFIG


DEFAULT_PROBES = ProbeConfig()

# Block sizes of the image-rank kernel: IMAGE_BLOCK_OPS operators at a time,
# whose images of every probe are decomposed PROBE_CHUNK probes at a time until
# the operator reaches full rank. Blocks bound peak memory on long Kraus lists.
IMAGE_BLOCK_OPS = 64
PROBE_CHUNK = 8


class ProbeViolation(NamedTuple):
    """A product input whose (normalized) image under one operator is entangled."""

    input: ProductStateParam
    image: PureState
    image_rank: int


@dataclass(frozen=True)
class KrausStructure:
    """Structural classification of a single Kraus operator.

    `factors` holds the per-party operators for the tensor and permutation
    forms, and the per-party *vectors* of the product column space for the
    rank-1 form (whose bra side is `right_vector`: M = |factors><right_vector|).
    """

    form: str
    factors: tuple[np.ndarray, ...] | None = None
    permutation: tuple[int, ...] | None = None
    right_vector: np.ndarray | None = None
    witness_violation: ProbeViolation | None = None

    @property
    def is_product_preserving(self) -> bool:
        return self.form in (FORM_TENSOR, FORM_PERMUTATION, FORM_RANK1)


def _unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    v = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _scales(ops: np.ndarray) -> np.ndarray:
    """Per operator, the Frobenius norm floored at 1: images below 1e-12 of it are zero."""
    return np.maximum(np.linalg.norm(ops.reshape(len(ops), -1), axis=1), 1.0)


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows ``a[p] (x) b[p]``."""
    return np.einsum("pi,pj->pij", a, b).reshape(len(a), -1)


def _images(ops: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """``M chi`` for each operator M of a stack: chi (P, d) sends every input
    through every operator, giving (K, P, d); chi (K, 1, d) sends input k
    through operator k, giving (K, 1, d)."""
    return chi @ ops.transpose(0, 2, 1)


def _image_svals(img: np.ndarray, scale: np.ndarray, dims: DimList):
    """Schmidt coefficients and norms of images (K, P, d) of operators with
    scales (K,); an image below ``1e-12 * scale`` gets zero coefficients."""
    d1, d2 = dims.dims
    norms = np.linalg.norm(img, axis=-1)
    ok = norms > 1e-12 * scale[:, None]
    svals = np.zeros(norms.shape + (min(d1, d2),))
    if np.any(ok):
        normalized = img[ok] / norms[ok][:, None]
        svals[ok] = np.linalg.svd(normalized.reshape(-1, d1, d2), compute_uv=False)
    return svals, norms


def _ascend(ops, scale, a, b, target, steps: int, rng, dims: DimList, eps0=0.3):
    """Local random ascent, for each operator k, of Schmidt coefficient
    ``target[k]`` of the image of ``a[k] (x) b[k]``.

    Each step draws one perturbation pair from `rng` whether or not any row
    accepts it, and every row uses it; an operator ascending alone therefore
    sees the same draws as in a stack. Returns the final inputs with the
    singular values, images and image norms there.
    """
    d1, d2 = dims.dims
    rows = np.arange(len(ops))

    def evaluate(av, bv):
        img = _images(ops, _products(av, bv)[:, None, :])
        svals, norms = _image_svals(img, scale, dims)
        return svals[:, 0], img[:, 0], norms[:, 0]

    s, img, norms = evaluate(a, b)
    best = s[rows, target]
    eps = np.full(len(ops), eps0)
    for _ in range(steps):
        da = rng.normal(size=d1) + 1j * rng.normal(size=d1)
        db = rng.normal(size=d2) + 1j * rng.normal(size=d2)
        a2 = a + eps[:, None] * da
        a2 /= np.linalg.norm(a2, axis=1, keepdims=True)
        b2 = b + eps[:, None] * db
        b2 /= np.linalg.norm(b2, axis=1, keepdims=True)
        s2, img2, norms2 = evaluate(a2, b2)
        val = s2[rows, target]
        up = val > best
        a, b, s, img = (np.where(up[:, None], x2, x) for x2, x in
                        ((a2, a), (b2, b), (s2, s), (img2, img)))
        norms = np.where(up, norms2, norms)
        best = np.where(up, val, best)
        eps = np.where(up, eps, eps * 0.7)
    return a, b, s, img, norms


def _max_image_ranks(ops, dims: DimList, config: ProbeConfig, stream: int = 17) -> np.ndarray:
    """For each operator, the largest image Schmidt rank found over product inputs.

    Every operator gets the same search: `config.probes` product inputs drawn
    from ``(seed, stream)``, then, from its first best probe, rounds of
    `_ascend` on the next Schmidt coefficient while a round raises the rank
    below ``min(d1, d2)``. Operators run in blocks of `IMAGE_BLOCK_OPS`; each
    block redraws the probes. An operator leaves the probing once it reaches
    ``min(d1, d2)`` and the ascent once a round fails to raise its rank, so
    each result is the one the operator gets alone.
    """
    d1, d2 = dims.dims
    dmin = min(d1, d2)
    stack = np.asarray(ops)
    ranks = np.zeros(len(stack), dtype=int)
    for lo in range(0, len(stack), IMAGE_BLOCK_OPS):
        block = stack[lo:lo + IMAGE_BLOCK_OPS]
        rng = np.random.default_rng((config.seed, stream))
        a = _unit_rows(rng, config.probes, d1)
        b = _unit_rows(rng, config.probes, d2)
        scale = _scales(block)
        img = _images(block, _products(a, b))
        rank = np.zeros(len(block), dtype=int)
        best = np.zeros(len(block), dtype=int)
        todo = np.arange(len(block))
        for p in range(0, config.probes, PROBE_CHUNK):
            s, _ = _image_svals(img[todo, p:p + PROBE_CHUNK], scale[todo], dims)
            r = numerical_rank(s)
            top = np.argmax(r, axis=1)
            got = r[np.arange(len(todo)), top]
            up = got > rank[todo]
            rank[todo[up]], best[todo[up]] = got[up], p + top[up]
            todo = todo[rank[todo] < dmin]
            if not todo.size:
                break
        av, bv = a[best], b[best]
        live = np.flatnonzero(rank < dmin) if config.refine_steps > 0 else np.arange(0)
        while live.size:
            a2, b2, s, _, _ = _ascend(
                block[live], scale[live], av[live], bv[live], rank[live],
                config.refine_steps, rng, dims,
            )
            new = numerical_rank(s)  # zero on images too small to count
            up = new > rank[live]
            rank[live[up]], av[live[up]], bv[live[up]] = new[up], a2[up], b2[up]
            live = live[up][new[up] < dmin]
        ranks[lo:lo + len(block)] = rank
    return ranks


def _probe_bipartite(m, dims: DimList, config: ProbeConfig, stream: int):
    """Search product inputs for an entangled image; None when none found."""
    if config.probes < 1:
        return None
    d1, d2 = dims.dims
    rng = np.random.default_rng((config.seed, stream))
    a = _unit_rows(rng, config.probes, d1)
    b = _unit_rows(rng, config.probes, d2)
    ops = m[None]
    scale = _scales(ops)
    img = _images(ops, _products(a, b))
    svals, norms = _image_svals(img, scale, dims)
    svals, norms, img = svals[0], norms[0], img[0]
    ranks = numerical_rank(svals)
    best = int(np.argmax(ranks))
    if ranks[best] < 2 and config.refine_steps > 0:
        # push the second Schmidt coefficient of the most promising probe
        cand = int(np.argmax(svals[:, 1]))
        av, bv, s, img1, n1 = (x[0] for x in _ascend(
            ops, scale, a[[cand]], b[[cand]], np.array([1]), config.refine_steps, rng, dims
        ))
        rank = numerical_rank(s)
        if n1 > 0 and rank >= 2:
            return ProbeViolation(
                ProductStateParam((av, bv)), PureState(img1 / n1, dims), rank
            )
        return None
    if ranks[best] < 2:
        return None
    vec = img[best] / norms[best]
    return ProbeViolation(
        ProductStateParam((a[best], b[best])),
        PureState(vec, dims),
        int(ranks[best]),
    )


def _probe_multiparty(m, dims: DimList, config: ProbeConfig, stream: int):
    """Probe-only product preservation test across all single-party cuts."""
    rng = np.random.default_rng((config.seed, stream))
    scale = max(float(np.linalg.norm(m)), 1.0)
    for _ in range(config.probes):
        param = ProductStateParam(
            tuple(_unit_rows(rng, 1, d)[0] for d in dims)
        )
        chi = param.assemble().amplitudes
        img = m @ chi
        nrm = np.linalg.norm(img)
        if nrm <= 1e-12 * scale:
            continue
        state = PureState(img / nrm, dims)
        worst = max(schmidt_rank(state, cut=(i,)) for i in range(dims.n))
        if worst >= 2:
            return ProbeViolation(param, state, worst)
    return None


def classify_kraus(m, dims, config: ProbeConfig | None = None) -> KrausStructure:
    """Classify one Kraus operator against the product-preserving forms.

    Bipartite operators get exact structural tests; with more than two
    parties only the randomized probe runs (with a warning). An `unknown`
    form with a stored `witness_violation` means the operator demonstrably
    creates entanglement from a product input.
    """
    return classify_kraus_many([m], dims, config)[0]


def classify_kraus_many(ops, dims, config: ProbeConfig | None = None) -> list[KrausStructure]:
    """`classify_kraus` for each operator, in order.

    The tensor, permutation and rank-1 tests each run as one stacked
    reshuffle and SVD over the operators no earlier test classified; the
    permutation test reshuffles with the party swap folded into the index
    order. No step mixes operators, so each result is the one the operator
    gets alone.
    """
    config = config or DEFAULT_PROBES
    dims = DimList.of(dims)
    mats = [as_matrix(m) for m in ops]
    for m in mats:
        dims.check_matrix(m)
    if dims.n != 2:
        warnings.warn(
            "structural classification is bipartite-only; falling back to probes",
            stacklevel=2,
        )
        return [
            KrausStructure(FORM_UNKNOWN, witness_violation=_probe_multiparty(m, dims, config, 0))
            for m in mats
        ]
    if not mats:
        return []
    d1, d2 = dims.dims
    stack = np.array(mats).reshape(-1, d1, d2, d1, d2)
    out: list[KrausStructure | None] = [None] * len(mats)
    rest = np.arange(len(mats))

    # A (x) B, then (A (x) B) V for the swap V: operator Schmidt rank at most
    # one after reshuffling (out1, in1 | out2, in2); V swaps the input axes.
    tests = [(FORM_TENSOR, (0, 1, 3, 2, 4), None)]
    if d1 == d2:
        tests.append((FORM_PERMUTATION, (0, 1, 4, 2, 3), (1, 0)))
    for form, axes, permutation in tests:
        if not rest.size:
            break
        shuffled = stack[rest].transpose(axes).reshape(-1, d1 * d1, d2 * d2)
        u, s, vh = np.linalg.svd(shuffled, full_matrices=False)
        simple = numerical_rank(s) <= 1
        for k, j in zip(rest[simple], np.flatnonzero(simple)):
            root = np.sqrt(float(s[j, 0]))
            factors = (root * u[j, :, 0].reshape(d1, d1), root * vh[j, 0].reshape(d2, d2))
            out[k] = KrausStructure(form, factors=factors, permutation=permutation)
        rest = rest[~simple]

    if rest.size:
        # |chi_1 chi_2><Psi|: rank one with a product column space
        u_m, s_m, vh_m = np.linalg.svd(stack[rest].reshape(len(rest), d1 * d2, -1))
        one = np.flatnonzero(numerical_rank(s_m) == 1)
        amats = u_m[one, :, 0].reshape(-1, d1, d2)
        keep = numerical_rank(np.linalg.svd(amats, compute_uv=False)) == 1
        if keep.any():
            u2, s2, vh2 = np.linalg.svd(amats[keep])
            for j, u2j, s2j, vh2j in zip(one[keep], u2, s2, vh2):
                out[rest[j]] = KrausStructure(
                    FORM_RANK1,
                    factors=(s2j[0] * u2j[:, 0], vh2j[0, :]),
                    right_vector=float(s_m[j, 0]) * np.conj(vh_m[j, 0, :]),
                )

    for k in np.flatnonzero([st is None for st in out]):
        viol = _probe_bipartite(mats[k], dims, config, stream=0)
        out[k] = KrausStructure(FORM_UNKNOWN, witness_violation=viol)
    return out


def _require_probes(config: ProbeConfig):
    if config.probes < 1:
        raise EntpowError(f"a Schmidt rank needs probes >= 1, got probes={config.probes}")


def _schmidt_ranks(ops, dims: DimList, config: ProbeConfig) -> np.ndarray:
    """`channel_schmidt_rank` for each operator of a stack, in order."""
    structures = classify_kraus_many(ops, dims, ProbeConfig(probes=0, seed=config.seed))
    ranks = np.ones(len(structures), dtype=int)
    rest = [k for k, st in enumerate(structures) if not st.is_product_preserving]
    if rest:
        ranks[rest] = np.maximum(1, _max_image_ranks(np.asarray(ops)[rest], dims, config))
    return ranks


def channel_schmidt_rank(m, dims, config: ProbeConfig | None = None) -> int:
    """Max Schmidt rank of ``M|chi>`` over product inputs, for one Kraus operator.

    Structurally product-preserving operators return 1 without search;
    otherwise the value is the best found by `_max_image_ranks`: randomized
    probing with local refinement, hence a lower bound on the true maximum.
    It is the same value the operator gets within a stack.
    """
    config = config or DEFAULT_PROBES
    _require_probes(config)
    dims = DimList.of(dims)
    dims.require_bipartite()
    m = as_matrix(m)
    dims.check_matrix(m)
    return int(_schmidt_ranks(m[None], dims, config)[0])


@dataclass(frozen=True)
class ChannelSchmidtBounds:
    """Bracket on the channel Schmidt number (convex-roof over decompositions)."""

    lower: int
    upper: int
    method: str
    certificate: tuple[np.ndarray, ...] | None = None  # Kraus list achieving upper

    def __post_init__(self):
        if not 1 <= self.lower <= self.upper:
            raise DimensionError(
                f"invalid bounds: lower={self.lower}, upper={self.upper}"
            )


@dataclass(frozen=True)
class Violation:
    """One replayable piece of entangling evidence."""

    kind: str  # "witness" (full channel) | "stochastic" (single stored Kraus op)
    witness: Witness
    input: ProductStateParam
    value: float
    kraus_index: int | None = None


@dataclass(frozen=True)
class Certificate:
    verdict: str  # "stochastically_nonentangling" | "entangling" | "inconclusive"
    violations: tuple[Violation, ...] = ()
    structures: tuple[KrausStructure, ...] | None = None
    note: str = ""


def replay_violations(cert: Certificate, ch: KrausChannel) -> list[float]:
    """Recompute each stored violation value from its stored witness and input."""
    out = []
    for v in cert.violations:
        chi = v.input.assemble().amplitudes
        if v.kind == "witness":
            dual = ch.dual_apply(v.witness.operator)
            out.append(float(np.real(np.conj(chi) @ dual @ chi)))
        else:
            img = ch.kraus[v.kraus_index] @ chi
            img = img / np.linalg.norm(img)
            out.append(float(np.real(np.conj(img) @ v.witness.operator @ img)))
    return out


def _simple_tensor_basis(ops: np.ndarray, dims: DimList, rng) -> np.ndarray | None:
    """r unit-norm simple tensors ``A_j (x) B_j`` spanning the r independent
    `ops`, by Jennrich's simultaneous diagonalization; None on failure.
    Reshuffled, `ops` are the slices of an (r, d1^2, d2^2) tensor. In its
    column and row spaces, the eigenvectors of ``M_x M_y^-1`` for two random
    slice contractions are the vectorized ``A_j`` (which must be independent,
    as must the ``B_j``), and each ``B_j`` is the top right singular vector of
    its row of the un-mixed slices.
    """
    d1, d2 = dims.dims
    r = len(ops)
    t = ops.reshape(r, d1, d2, d1, d2).transpose(0, 1, 3, 2, 4).reshape(r, d1 * d1, d2 * d2)
    u, su, _ = np.linalg.svd(t.transpose(1, 0, 2).reshape(d1 * d1, -1), full_matrices=False)
    v, sv, _ = np.linalg.svd(t.transpose(2, 0, 1).reshape(d2 * d2, -1), full_matrices=False)
    if numerical_rank(su) < r or numerical_rank(sv) < r:
        return None
    u = u[:, :r]
    core = np.conj(u.T) @ t @ np.conj(v[:, :r])  # (r, r, r), slice k = A~ diag(c_k) B~^T
    mx, my = np.tensordot(rng.normal(size=(2, r)) + 1j * rng.normal(size=(2, r)), core, 1)
    try:
        _, w = np.linalg.eig(np.linalg.solve(my.T, mx.T).T)
        rows = np.linalg.solve(w, np.conj(u.T) @ t)  # slice k, row j: c_kj vec(B_j)^T
    except np.linalg.LinAlgError:
        return None
    a = u @ w  # column j: vec(A_j)
    b = np.linalg.svd(rows.transpose(1, 0, 2), full_matrices=False)[2][:, 0]
    simple = (a / np.linalg.norm(a, axis=0)).T[:, :, None] * b[:, None, :]
    return simple.reshape(r, d1, d1, d2, d2).transpose(0, 1, 3, 2, 4).reshape(ops.shape)


def _product_decomposition(ch: KrausChannel, seed: int) -> tuple[np.ndarray, ...] | None:
    """A Kraus list of `ch` made only of ``A (x) B``, or only of ``(A (x) B) V``
    for the party swap V; None when the search finds none.

    ``s[:r, None] * vh[:r]`` from the SVD of the flattened Kraus stack is a
    minimal Kraus list, r the Choi rank. A product list of r operators is a
    basis of simple tensors of its span (after ``@ V``), which
    `_simple_tensor_basis` draws from ``(seed, 23)``. Least squares gives the
    mixing; each operator is weighted by the norm of its coefficient column.
    A candidate must reproduce the Choi matrix to ``RANK_RTOL`` in each
    direction of the span at its own weight: each operator lies in the span,
    and its coordinates over s form a unitary (``RANK_RTOL * ||Choi||_F``
    alone would pass an entangling admixture of weight 1e-12). So the search
    can miss a decomposition but never invent one. Out of reach: lists mixing
    the two forms, rank-1 product forms, lists of more than r operators; for
    ``r > min(d1^2, d2^2)`` this returns None at once.
    """
    d1, d2 = ch.dims.dims
    n = d1 * d2
    flat = np.array(ch.kraus).reshape(len(ch.kraus), -1)
    _, s, vh = np.linalg.svd(flat, full_matrices=False)
    r = numerical_rank(s)
    if r > min(d1 * d1, d2 * d2):
        return None
    s, vh = s[:r], vh[:r]
    basis = (s[:, None] * vh).reshape(r, n, n)
    rng = np.random.default_rng((seed, 23))
    for perm in [np.eye(n)] + ([swap_matrix(d1)] if d1 == d2 else []):  # V^-1 = V
        target = basis @ perm
        simple = _simple_tensor_basis(target, ch.dims, rng)
        if simple is None:
            continue
        mix = np.linalg.lstsq(simple.reshape(r, -1).T, target.reshape(r, -1).T, rcond=None)[0]
        ops = np.linalg.norm(mix, axis=1)[:, None, None] * simple @ perm
        got = ops.reshape(r, -1)
        coords = got @ np.conj(vh.T)
        off_span = np.linalg.norm(got - coords @ vh, axis=1) / np.linalg.norm(got, axis=1)
        whitened = coords / s  # unitary exactly when the two lists share a Choi matrix
        gap = np.linalg.norm(whitened @ np.conj(whitened.T) - np.eye(r))
        if gap <= RANK_RTOL and np.all(off_span <= RANK_RTOL):
            return tuple(ops)
    return None


def _stochastic_violation(
    index: int, dims: DimList, probe: ProbeViolation
) -> Violation | None:
    """Package a probe hit as a replayable shifted-witness violation.

    The witness is ``c0^2 I - |image><image|`` whose separable maximum is
    exactly the largest squared Schmidt coefficient of the image; its value
    on the image, c0^2 - 1, is negative for any genuinely entangled image.
    """
    from .states import schmidt_decompose

    dec = schmidt_decompose(probe.image)
    c0sq = float(dec.coefficients[0] ** 2)
    value = c0sq - 1.0
    if value > -TOL_WITNESS:
        return None
    w = Witness.from_shift(
        c0sq, probe.image.projector(), dims, label=f"image_shift[{index}]"
    )
    return Violation(
        kind="stochastic", witness=w, input=probe.input, value=value, kraus_index=index
    )


def detect_entangling(
    ch: KrausChannel, w: Witness, config: ProbeConfig | None = None
) -> Certificate:
    """Witness test for entanglement generation by the full channel.

    Minimizes the pulled-back witness over product inputs. A value at or
    below -1e-8 certifies an entangling channel (with the violating input
    stored); otherwise the result is inconclusive — one witness proving
    nothing is expected, not exceptional.
    """
    config = config or DEFAULT_PROBES
    check = is_witness(w, config.optimizer)
    if not check.is_witness:
        raise NotAWitnessError(
            f"operator is not a witness (separable minimum {check.result.value})"
        )
    dual = ch.dual_apply(w.operator)
    res = min_over_products(dual, ch.dims, config.optimizer)
    if res.value <= -TOL_WITNESS:
        v = Violation(kind="witness", witness=w, input=res.argument, value=res.value)
        return Certificate("entangling", violations=(v,))
    return Certificate(
        "inconclusive",
        note="no violation for this witness; this proves nothing about the channel",
    )


def certify_kraus_channel(
    ch: KrausChannel,
    config: ProbeConfig | None = None,
    witnesses: list[Witness] | None = None,
) -> Certificate:
    """Three-way certificate: SNE / entangling / inconclusive.

    SNE requires every Kraus operator of the stored list, or of the list
    `_product_decomposition` finds, to classify structurally. The entangling
    verdict needs replayable evidence: a witness violation of the full
    channel, or a stored Kraus operator probed into mapping a product input
    to an entangled conditional output. Probe evidence speaks only about the
    stored decomposition, so the search runs first; it also runs before the
    witnesses, which no SNE channel violates. ``probes=0`` probes nothing.
    """
    config = config or DEFAULT_PROBES
    ch.dims.require_bipartite()
    no_probe = ProbeConfig(probes=0, seed=config.seed)
    structures = tuple(classify_kraus_many(ch.kraus, ch.dims, no_probe))
    if all(s.is_product_preserving for s in structures):
        return Certificate(
            "stochastically_nonentangling",
            structures=structures,
            note="every stored Kraus operator is product-preserving",
        )
    found = _product_decomposition(ch, config.seed)
    if found is not None:
        return Certificate(
            "stochastically_nonentangling",
            structures=tuple(classify_kraus_many(found, ch.dims, no_probe)),
            note="a product-preserving remixing of the Kraus list reproduces the Choi matrix",
        )

    violations: list[Violation] = []
    family = default_witness_family(ch.dims) if witnesses is None else witnesses
    for w in family:
        dual = ch.dual_apply(w.operator)
        res = min_over_products(dual, ch.dims, config.optimizer)
        if res.value <= -TOL_WITNESS:
            violations.append(
                Violation(kind="witness", witness=w, input=res.argument, value=res.value)
            )
    note = "" if violations else (
        "evidence is stochastic: a stored Kraus operator entangles a "
        "product input, and no product-preserving remixing was found"
    )
    for i, (m, s) in enumerate(zip(ch.kraus, structures)):  # probe evidence
        if s.is_product_preserving:
            continue
        probe = _probe_bipartite(m, ch.dims, config, stream=i + 1)
        v = None if probe is None else _stochastic_violation(i, ch.dims, probe)
        if v is not None:
            violations.append(v)
    if violations:
        return Certificate(
            "entangling", violations=tuple(violations), structures=structures, note=note
        )
    return Certificate(
        "inconclusive",
        structures=structures,
        note="structural classification incomplete and no violation found",
    )


def _replacement_target(ch: KrausChannel):
    """The fixed output of a constant channel rho -> Tr(E rho) |phi><phi|, if any."""
    if isinstance(ch, MeasurementChannel) and len(ch.effects) == 1:
        out = ch.outputs[0]
        if abs(out.purity() - out.trace**2) < 1e-9:
            from .states import pure_from_density

            return pure_from_density(out)
        return None
    # structural fallback: every operator rank one with a common column space
    ref = None
    for m in ch.kraus:
        u, s, _ = np.linalg.svd(m)
        if numerical_rank(s) != 1:
            return None
        col = u[:, 0]
        if ref is None:
            ref = col
        elif abs(abs(np.vdot(ref, col)) - 1.0) > 1e-9:
            return None
    return PureState(ref, ch.dims) if ref is not None else None


def channel_schmidt_number_bounds(
    ch: KrausChannel, config: ProbeConfig | None = None
) -> ChannelSchmidtBounds:
    """Bracket the convex-roof channel Schmidt number.

    Replacement channels short-circuit to their exact value. A channel with
    a product-preserving Kraus list found by `_product_decomposition` gets
    ``(1, 1)`` with that list as the certificate. Otherwise the upper bound is
    the largest image rank found over the stored Kraus operators, and an
    entangling certificate raises the lower bound to 2.
    """
    config = config or DEFAULT_PROBES
    _require_probes(config)
    ch.dims.require_bipartite()

    target = _replacement_target(ch)
    if target is not None:
        r = schmidt_rank(target)
        return ChannelSchmidtBounds(
            lower=r,
            upper=r,
            method="replacement channel: exact rank of the fixed output",
            certificate=tuple(ch.kraus),
        )
    found = _product_decomposition(ch, config.seed)
    if found is not None:
        return ChannelSchmidtBounds(
            lower=1, upper=1, method="product-preserving Kraus decomposition", certificate=found
        )

    upper = int(_schmidt_ranks(ch.kraus, ch.dims, config).max())
    lower = 1
    if upper > 1 and certify_kraus_channel(ch, config).verdict == "entangling":
        lower = 2
    return ChannelSchmidtBounds(
        lower, max(upper, lower), method="stored decomposition", certificate=tuple(ch.kraus)
    )


@dataclass(frozen=True)
class ThresholdReport:
    """Separability threshold for the rank-boost channel parameters."""

    verdict: str  # "nonentangling_certified" | "unknown"
    coeff_product: float
    bound: float
    p_max: float       # largest measurement weight compatible with separability
    effect_bound: float

    @property
    def certified(self) -> bool:
        return self.verdict == "nonentangling_certified"


def nonentangling_threshold(k: int, d: int, schmidt_coeffs) -> ThresholdReport:
    """Certify non-entanglement of the rank-boost channel by the coefficient test.

    The channel is provably non-entangling when the product of the two
    largest Schmidt coefficients of its pure output stays within
    ``(k - 1)/d^2``. Above the bound nothing is claimed ("unknown").
    """
    coeffs = np.asarray(schmidt_coeffs, dtype=float)
    if not 2 <= k <= d:
        raise DimensionError(f"need 2 <= k <= d, got k={k}, d={d}")
    if coeffs.shape != (d,) or np.any(coeffs <= 0) or np.any(np.diff(coeffs) > 1e-12):
        raise DimensionError("coefficients must be positive, non-increasing, length d")
    if abs(float(np.sum(coeffs**2)) - 1.0) > 1e-9:
        raise DimensionError("squared coefficients must sum to 1")
    product = float(coeffs[0] * coeffs[1])
    bound = (k - 1) / d**2
    verdict = "nonentangling_certified" if product <= bound + 1e-12 else "unknown"
    return ThresholdReport(
        verdict=verdict,
        coeff_product=product,
        bound=bound,
        p_max=1.0 / (1.0 + d**2 * product),
        effect_bound=1.0 / k,
    )


def entanglement_annihilating_check(
    ch: KrausChannel, witnesses: list[Witness], config: ProbeConfig | None = None
) -> bool:
    """PSD test of the dual on sampled witnesses.

    True means every sampled witness pulls back to a PSD operator — evidence
    (not proof) that every channel output is separable.
    """
    for w in witnesses:
        dual = ch.dual_apply(w.operator)
        dual = (dual + np.conj(dual.T)) / 2.0
        if np.linalg.eigvalsh(dual)[0] < -1e-10:
            return False
    return True
