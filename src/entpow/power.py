"""Entangling-power analysis: Kraus structure, channel Schmidt measures,
and stochastic-non-entangling certificates.

A single Kraus operator sends every product input to a product output when
it takes one of the forms of Westwick's characterization of maps that
preserve decomposable tensors (Pacific J. Math. 23, 613, 1967): a simple
tensor ``A (x) B``, a simple tensor after the party swap, ``(A (x) B) V``,
or an operator whose range lies in a local subspace, ``a (x) N`` or
``N (x) b`` (this covers every rank-1 operator ``|chi_1, chi_2><Psi|``).
Each detected form is product-preserving, and its factors rebuild the
operator. Channels all of whose Kraus operators (in some decomposition)
take these forms cannot create entanglement even stochastically; this
module classifies operators, searches decompositions, bounds the channel
Schmidt number, and produces replayable certificates. Each form is a row
of one reshuffle table, which both classifies operators and drives the
decomposition search: an operator takes a row's form when its (m, n)
reshuffle has rank at most one, and the search reaches lists of up to
min(m, n) operators of that form.

Verdict semantics: "entangling" is backed either by a witness violation of
the full channel (a separable input provably maps to an entangled output) or
by a single Kraus operator of the *stored* decomposition mapping a product
input to an entangled conditional output. The latter speaks about the stored
decomposition; a different decomposition of the same channel may be free of
such operators. At Choi rank 1 the two coincide: the channel has one
outcome, so a probe hit's entangled image is the channel's own output, and
the hit is a witness violation of the channel.
"stochastically_nonentangling" requires structural classification of every
operator in at least one decomposition; probe evidence alone never certifies
it. The channel Schmidt number is 1 exactly for SNE channels, so its bounds
read the certificate, except at Choi rank 1: there every Kraus list is one
operator up to weights and phases, and that operator's image rank is the
Schmidt number.

Every seeded search takes one `OptimizerConfig`: its restarts drive the
witness minimizations, and its seed also draws the image-rank probes and
the decomposition search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, _kraus_stack, _rank_boost_coefficients
from .errors import DimensionError
from .states import ProductStateParam, PureState, schmidt_decompose, schmidt_rank
from .tensor import (
    IMAGE_RTOL,
    MATCH_RTOL,
    PSD_ATOL,
    THRESHOLD_ATOL,
    TOL_WITNESS,
    DimList,
    numerical_rank,
)
from .witnesses import (
    DEFAULT_CONFIG,
    OptimizerConfig,
    Witness,
    default_witness_family,
    product_minima,
)

FORM_TENSOR = "tensor_product"
FORM_PERMUTATION = "permutation_local"
FORM_LOCAL = "local_range"
FORM_UNKNOWN = "unknown"
SNE = "stochastically_nonentangling"


# Product inputs of the one image-rank search, drawn from ``(config.seed, 17)``:
# classification stores its hits, and Schmidt ranks, stochastic evidence and
# bounds read them.
PROBES = 200

# Probes per step of the image-rank search. A step holds the operators still
# below full rank and their PROBE_CHUNK images each, so memory is bounded by a
# small multiple of the caller's stack, whatever PROBES is.
PROBE_CHUNK = 8


@dataclass(frozen=True)
class Violation:
    """One replayable piece of entangling evidence."""

    kind: str  # "witness" (full channel; at Choi rank 1, a probe hit) | "stochastic" (stored op)
    witness: Witness
    input: ProductStateParam
    value: float
    kraus_index: int | None = None


@dataclass(frozen=True)
class KrausStructure:
    """Structural classification of a single Kraus operator.

    `factors` holds one array per party, D = d1 * d2, and rebuilds the operator:
    - `tensor_product`: A (d1, d1), B (d2, d2); M = A (x) B.
    - `permutation_local`: A (d1, d2), B (d2, d1), `permutation` (1, 0);
      M = (A (x) B) V for the party swap V, so M (x (x) y) = A y (x) B x.
    - `local_range`: a (d1,), N (d2, D), M = a (x) N with range inside
      a (x) C^d2; or N (d1, D), b (d2,), M = N (x) b.
    An `unknown` operator carries the largest image Schmidt rank the probes
    found (1 when none reached 2) and, when its probe image is entangled
    enough to certify, that hit as a stochastic `Violation`.
    """

    form: str
    factors: tuple[np.ndarray, ...] | None = None
    permutation: tuple[int, ...] | None = None
    image_rank: int = 1
    violation: Violation | None = None

    @property
    def is_product_preserving(self) -> bool:
        return self.form != FORM_UNKNOWN


def _unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    v = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _image_svals(img: np.ndarray, scale: np.ndarray, dims: DimList) -> np.ndarray:
    """Schmidt coefficients of images (K, P, d) of operators with scales
    (K,); an image below ``IMAGE_RTOL * scale`` gets zero coefficients."""
    d1, d2 = dims.dims
    norms = np.linalg.norm(img, axis=-1)
    ok = norms > IMAGE_RTOL * scale[:, None]
    svals = np.zeros(norms.shape + (min(d1, d2),))
    if np.any(ok):
        normalized = img[ok] / norms[ok][:, None]
        svals[ok] = np.linalg.svd(normalized.reshape(-1, d1, d2), compute_uv=False)
    return svals


def _image_rank_search(ops, dims: DimList, config: OptimizerConfig):
    """For each operator, the largest image Schmidt rank among `PROBES`
    product inputs drawn from ``(seed, 17)``, with the first input that
    reaches it and its normalized image: ``(rank, input, image)`` when that
    rank is at least 2, else None (ranks 0 and 1).

    Image rank at least R means a non-zero R x R minor of the bilinear map
    ``(a, b) -> M (a (x) b)``, a polynomial that vanishes only on a null set,
    so one Gaussian probe reaches the largest rank with probability 1.
    The probes run `PROBE_CHUNK` at a time through the operators still below
    ``min(d1, d2)``, and each operator keeps only the image of the probe that
    set its rank: memory stays a small multiple of the stack (see
    `PROBE_CHUNK`). No step mixes operators, so each result is the one the
    operator gets alone.
    """
    d1, d2 = dims.dims
    stack = np.asarray(ops)
    if not len(stack):
        return []
    rng = np.random.default_rng((config.seed, 17))
    a = _unit_rows(rng, PROBES, d1)
    b = _unit_rows(rng, PROBES, d2)
    chi = np.einsum("pi,pj->pij", a, b).reshape(PROBES, -1)
    scale = np.linalg.norm(stack.reshape(len(stack), -1), axis=1)  # Frobenius
    rank = np.zeros(len(stack), dtype=int)
    best = np.zeros(len(stack), dtype=int)
    kept = np.zeros(stack.shape[:2], dtype=complex)  # image of each operator's best probe
    todo = np.arange(len(stack))
    for p in range(0, PROBES, PROBE_CHUNK):
        img = chi[p:p + PROBE_CHUNK] @ stack[todo].transpose(0, 2, 1)  # img[k, q] = M_k chi_q
        r = numerical_rank(_image_svals(img, scale[todo], dims))
        top = np.argmax(r, axis=1)
        got = r[np.arange(len(todo)), top]
        up = got > rank[todo]
        rank[todo[up]], best[todo[up]], kept[todo[up]] = got[up], p + top[up], img[up, top[up]]
        todo = todo[rank[todo] < min(d1, d2)]
        if not todo.size:
            break
    found: list[tuple[int, ProductStateParam, PureState] | None] = [None] * len(stack)
    for k in np.flatnonzero(rank >= 2):
        factors = (a[best[k]].copy(), b[best[k]].copy())  # a view would keep every probe alive
        image = PureState(kept[k] / np.linalg.norm(kept[k]), dims)
        found[k] = (int(rank[k]), ProductStateParam(factors), image)
    return found


def classify_kraus(m, dims, config: OptimizerConfig | None = None) -> KrausStructure:
    """Classify one Kraus operator against the product-preserving forms.

    Bipartite only: more than two parties raise `ArityError`. An `unknown`
    form with a stored `violation` means the operator demonstrably creates
    entanglement from a product input.
    """
    return classify_kraus_many([m], dims, config)[0]


def classify_kraus_many(ops, dims, config: OptimizerConfig | None = None) -> list[KrausStructure]:
    """`classify_kraus` for each operator, in order: the structural tests of
    `_structures`, then one `_image_rank_search` over the operators they left
    `unknown`, whose ranks and hits each stores. No step mixes operators, so
    each result is the one the operator gets alone.
    """
    config = config or DEFAULT_CONFIG
    dims = DimList.of(dims)
    dims.require_bipartite()
    stack = _kraus_stack(ops, dims)
    return _probe_unknown(_structures(stack, dims), stack, dims, config)


def _form_table(dims: DimList):
    """One row (form, axes of the (K, out1, out2, in1, in2) stack, factor
    shapes, permutation) per product-preserving form: an operator takes the
    form exactly when its reshuffle by the axes, a (prod(left), prod(right))
    matrix, has rank at most one. The rows split (out1, in1 | out2, in2),
    (out1, in2 | out2, in1), (out1 | out2, in) and (out1, in | out2)."""
    d1, d2 = dims.dims
    n = d1 * d2
    return (
        (FORM_TENSOR, (0, 1, 3, 2, 4), ((d1, d1), (d2, d2)), None),
        (FORM_PERMUTATION, (0, 1, 4, 2, 3), ((d1, d2), (d2, d1)), (1, 0)),
        (FORM_LOCAL, (0, 1, 2, 3, 4), ((d1,), (d2, n)), None),
        (FORM_LOCAL, (0, 1, 3, 4, 2), ((d1, n), (d2,)), None),
    )


def _structures(ops: np.ndarray, dims: DimList) -> list[KrausStructure]:
    """The structural form of each operator of the (K, D, D) stack `ops`, with
    no probing. Each row of `_form_table` runs as one stacked reshuffle and SVD
    over the operators no earlier row classified, and splits the top singular
    value evenly between the two factors.
    """
    out = [KrausStructure(FORM_UNKNOWN)] * len(ops)
    rest = np.arange(len(ops))
    for form, axes, (left, right), permutation in _form_table(dims):
        if not rest.size:
            break
        shuffled = ops[rest].reshape((-1,) + dims.dims * 2).transpose(axes)
        u, s, vh = np.linalg.svd(shuffled.reshape(len(rest), -1, int(np.prod(right))),
                                 full_matrices=False)
        simple = numerical_rank(s) <= 1
        for k, j in zip(rest[simple], np.flatnonzero(simple)):
            root = np.sqrt(float(s[j, 0]))
            factors = (root * u[j, :, 0].reshape(left), root * vh[j, 0].reshape(right))
            out[k] = KrausStructure(form, factors=factors, permutation=permutation)
        rest = rest[~simple]
    return out


def _stochastic_violation(
    index: int, dims: DimList, probe: ProductStateParam, image: PureState
) -> Violation | None:
    """Package the probe hit of operator `index` as a replayable
    shifted-witness violation.

    The witness is ``c0^2 I - |image><image|`` whose separable maximum is
    exactly the largest squared Schmidt coefficient of the image; its value
    on the image, c0^2 - 1, must reach ``-TOL_WITNESS``, else None.
    """
    c0sq = float(schmidt_decompose(image).coefficients[0] ** 2)
    value = c0sq - 1.0
    if value > -TOL_WITNESS:
        return None
    w = Witness.from_shift(c0sq, image.projector(), dims, label=f"image_shift[{index}]")
    return Violation("stochastic", w, probe, value, kraus_index=index)


def _probe_unknown(structures, stack: np.ndarray, dims: DimList, config: OptimizerConfig):
    """`structures`, each `unknown` one with its operator's rank in
    `_image_rank_search` and its hit as a `Violation` indexed into `stack`."""
    out = list(structures)
    rest = [k for k, st in enumerate(out) if st.form == FORM_UNKNOWN]
    for k, hit in zip(rest, _image_rank_search(stack[rest], dims, config)):
        if hit is not None:
            rank, probe, image = hit
            out[k] = KrausStructure(FORM_UNKNOWN, image_rank=rank,
                                    violation=_stochastic_violation(k, dims, probe, image))
    return out


def channel_schmidt_rank(m, dims, config: OptimizerConfig | None = None) -> int:
    """Max Schmidt rank of ``M|chi>`` over product inputs, for one Kraus operator.

    Structurally product-preserving operators return 1 without search;
    otherwise the value is the `image_rank` of the structure `classify_kraus`
    returns: the largest rank over seeded Gaussian product probes, which
    reach the true maximum with probability 1 since it holds at generic
    inputs, and the same value the operator gets within a stack.
    """
    return classify_kraus(m, dims, config).image_rank


@dataclass(frozen=True)
class ChannelSchmidtBounds:
    """Bracket on the channel Schmidt number (convex-roof over decompositions)."""

    lower: int
    upper: int
    method: str
    certificate: np.ndarray | None = None  # (K, D, D) Kraus stack achieving upper

    def __post_init__(self):
        if not 1 <= self.lower <= self.upper:
            raise DimensionError(
                f"invalid bounds: lower={self.lower}, upper={self.upper}"
            )


@dataclass(frozen=True)
class Certificate:
    verdict: str  # "stochastically_nonentangling" | "entangling" | "inconclusive"
    structures: tuple[KrausStructure, ...]
    kraus: np.ndarray  # the (K, D, D) stack `structures` classify: ch.kraus or found
    violations: tuple[Violation, ...] = ()
    note: str = ""


def _simple_tensor_basis(t: np.ndarray, rng):
    """The factors a (r, m), of unit-norm rows, and b (r, n) of r rank-one
    slices ``a_j b_j^T`` spanning the r independent slices of the (r, m, n)
    stack `t`, by Jennrich's simultaneous diagonalization; None on failure.
    In the column and row spaces of the slices, the eigenvectors of
    ``M_x M_y^-1`` for two random slice contractions are the ``a_j`` (which
    must be independent, as must the ``b_j``, so r <= min(m, n)), and each
    ``b_j`` is the top right singular vector of its row of the un-mixed slices.
    """
    r, m, n = t.shape
    u, su, _ = np.linalg.svd(t.transpose(1, 0, 2).reshape(m, -1), full_matrices=False)
    v, sv, _ = np.linalg.svd(t.transpose(2, 0, 1).reshape(n, -1), full_matrices=False)
    if numerical_rank(su) < r or numerical_rank(sv) < r:
        return None
    u = u[:, :r]
    core = np.conj(u.T) @ t @ np.conj(v[:, :r])  # (r, r, r), slice k = A~ diag(c_k) B~^T
    mx, my = np.tensordot(rng.normal(size=(2, r)) + 1j * rng.normal(size=(2, r)), core, 1)
    try:
        _, w = np.linalg.eig(np.linalg.solve(my.T, mx.T).T)
        rows = np.linalg.solve(w, np.conj(u.T) @ t)  # slice k, row j: c_kj b_j^T
    except np.linalg.LinAlgError:
        return None
    a = u @ w  # column j: a_j
    b = np.linalg.svd(rows.transpose(1, 0, 2), full_matrices=False)[2][:, 0]
    return (a / np.linalg.norm(a, axis=0)).T, b


def _product_decomposition(ch: KrausChannel, seed: int):
    """A Kraus stack of `ch` of operators of one `_form_table` form, with the
    `KrausStructure` of each; None when the search finds none.

    ``s[:r, None] * vh[:r]`` from the SVD of the flattened Kraus stack is a
    minimal Kraus list, r the `choi_rank`. A list of r operators of one form
    is a basis of its span, of rank-one slices once reshuffled by the form's
    row; `_simple_tensor_basis`, drawing from ``(seed, 23)``, finds them, and
    the inverse reshuffle rebuilds them. Least squares gives the mixing;
    each operator is weighted by the norm of its coefficient column.
    A candidate must reproduce the Choi matrix to ``MATCH_RTOL`` in each
    direction of the span at its own weight: each operator lies in the span,
    and its coordinates over s form a unitary (``MATCH_RTOL * ||Choi||_F``
    alone would pass an entangling admixture of weight 1e-12). So the search
    can miss a decomposition but never invent one. A row reaches
    ``r <= min(m, n)`` of its (m, n) reshuffle: min(d1^2, d2^2) for A (x) B,
    d1 d2 for (A (x) B) V, d1 for a (x) N and d2 for N (x) b. Out of reach:
    lists mixing forms, and lists longer than every row's reach; for
    ``r > d1 d2`` and for r = 1 this returns None before the singular vectors.
    At r = 1 every Kraus list is multiples of one operator, which `_structures`
    has already classified in the stored list.
    """
    n = ch.dims.total
    r = ch.choi_rank
    if not 1 < r <= n:
        return None  # decided without the singular vectors
    _, s, vh = np.linalg.svd(ch.kraus.reshape(len(ch.kraus), -1), full_matrices=False)
    s, vh = s[:r], vh[:r]
    basis = (s[:, None] * vh).reshape((r,) + ch.dims.dims * 2)
    rng = np.random.default_rng((seed, 23))
    for form, axes, (left, right), permutation in _form_table(ch.dims):
        if r > min(np.prod(left), np.prod(right)):
            continue
        factors = _simple_tensor_basis(basis.transpose(axes).reshape(r, np.prod(left), -1), rng)
        if factors is None:
            continue
        a, b = factors
        simple = (a[:, :, None] * b[:, None, :]).reshape(basis.transpose(axes).shape)
        simple = simple.transpose(np.argsort(axes)).reshape(r, n, n)  # the inverse reshuffle
        mix = np.linalg.lstsq(simple.reshape(r, -1).T, basis.reshape(r, -1).T, rcond=None)[0]
        weights = np.linalg.norm(mix, axis=1)
        ops = weights[:, None, None] * simple
        got = ops.reshape(r, -1)
        coords = got @ np.conj(vh.T)
        off_span = np.linalg.norm(got - coords @ vh, axis=1) / np.linalg.norm(got, axis=1)
        whitened = coords / s  # unitary exactly when the two lists share a Choi matrix
        gap = np.linalg.norm(whitened @ np.conj(whitened.T) - np.eye(r))
        if gap <= MATCH_RTOL and np.all(off_span <= MATCH_RTOL):
            return ops, tuple(KrausStructure(form, factors=(w * x.reshape(left), y.reshape(right)),
                                             permutation=permutation)
                              for w, x, y in zip(weights, a, b))
    return None


def _channel_violations(
    ch: KrausChannel, witnesses: list[Witness], config: OptimizerConfig | None
) -> list[Violation]:
    """The violations of `witnesses` by the full channel, minimized in one batch."""
    found = product_minima(np.array([ch.dual_apply(w.operator) for w in witnesses]),
                           ch.dims, config)
    return [
        Violation("witness", w, ProductStateParam(factors), value)
        for w, value, factors in zip(witnesses, found.values.tolist(), zip(*found.kets))
        if value <= -TOL_WITNESS
    ]


def _image_witness_violations(ch: KrausChannel, hit: Violation) -> list[Violation]:
    """A probe hit of a Choi-rank-1 channel as a `witness` violation of the
    channel: the hit's witness ``c0^2 I - |img><img|`` (its separable ceiling
    c0^2 is exact) and input, valued on the channel's output on that input.
    Kept when the value reaches ``-TOL_WITNESS``."""
    chi = hit.input.assemble().amplitudes
    out = ch.apply_matrix(np.outer(chi, np.conj(chi)))
    value = float(np.real(np.trace(hit.witness.operator @ out)))
    return [Violation("witness", hit.witness, hit.input, value)] if value <= -TOL_WITNESS else []


def certify_kraus_channel(ch: KrausChannel, config: OptimizerConfig | None = None) -> Certificate:
    """Three-way certificate: SNE / entangling / inconclusive.

    SNE requires every Kraus operator of the stored list, or of the list
    `_product_decomposition` finds, to classify structurally; `kraus` is
    that list. The entangling verdict needs replayable evidence: a witness
    violation of the full channel, or the stochastic `violation` that
    `classify_kraus_many` with `config` stores for a stored Kraus operator: a
    product input whose conditional output reaches the operator's
    `channel_schmidt_rank`. Probe evidence speaks only about the stored
    decomposition, so the stored list's `unknown` operators are probed only
    after the decomposition search fails. At `choi_rank` 1 every Kraus list
    is multiples of one operator, so the first hit, valued on the channel's
    output, is a witness violation of the channel; the multiples are probed
    with the same inputs, so later hits would repeat it. The witnesses of
    `default_witness_family`, which no SNE channel violates, are minimized
    only when no such violation is kept.
    """
    config = config or DEFAULT_CONFIG
    ch.dims.require_bipartite()
    structures = tuple(_structures(ch.kraus, ch.dims))
    if all(s.is_product_preserving for s in structures):
        return Certificate(SNE, structures=structures, kraus=ch.kraus,
                           note="every stored Kraus operator is product-preserving")
    found = _product_decomposition(ch, config.seed)
    if found is not None:
        ops, found_structures = found
        return Certificate(SNE, structures=found_structures, kraus=ops, note=(
            "a product-preserving remixing of the Kraus list reproduces the Choi matrix"))
    structures = tuple(_probe_unknown(structures, ch.kraus, ch.dims, config))
    hits = [s.violation for s in structures if s.violation is not None]
    violations = _image_witness_violations(ch, hits[0]) if hits and ch.choi_rank == 1 else []
    if not violations:
        violations = _channel_violations(ch, default_witness_family(ch.dims), config)
    violations += hits
    if violations:
        note = "" if violations[0].kind == "witness" else (
            "evidence is stochastic: a stored Kraus operator entangles a "
            "product input, and no product-preserving remixing was found"
        )
        return Certificate(
            "entangling", violations=tuple(violations), structures=structures,
            kraus=ch.kraus, note=note,
        )
    return Certificate("inconclusive", structures=structures, kraus=ch.kraus,
                       note="structural classification incomplete and no violation found")


def _replacement_target(ch: KrausChannel):
    """The fixed output of a constant channel rho -> Tr(E rho) |phi><phi|, if any:
    the Kraus operators laid side by side, ``[M_1 ... M_K]``, have rank one,
    so every output is a multiple of |phi><phi| for their top left singular
    vector phi."""
    d = ch.dims.total
    u, s, _ = np.linalg.svd(ch.kraus.transpose(1, 0, 2).reshape(d, -1), full_matrices=False)
    if numerical_rank(s) != 1:
        return None
    return PureState(u[:, 0], ch.dims)


def channel_schmidt_number_bounds(
    ch: KrausChannel, config: OptimizerConfig | None = None
) -> ChannelSchmidtBounds:
    """Bracket the convex-roof channel Schmidt number.

    Two cases are exact without a certificate: a replacement channel (the
    rank of its fixed output), and a channel of `choi_rank` 1, whose Kraus
    lists are all one operator up to weights and phases (the largest
    `image_rank` that `classify_kraus_many` stores for the stored list).
    Otherwise the bounds read one `certify_kraus_channel` result. The Schmidt
    number is 1 exactly when the channel is SNE, so an SNE verdict gives
    ``(1, 1)`` with the certificate's Kraus list; else the upper bound is the
    largest image rank stored for the stored list, and the lower bound is 2
    exactly when the verdict is `entangling`.
    """
    ch.dims.require_bipartite()
    target = _replacement_target(ch)
    if target is not None:
        r = schmidt_rank(target)
        return ChannelSchmidtBounds(r, r, "replacement channel: exact rank of the fixed output",
                                    certificate=ch.kraus)
    if ch.choi_rank == 1:
        r = max(s.image_rank for s in classify_kraus_many(ch.kraus, ch.dims, config))
        return ChannelSchmidtBounds(r, r, "Choi rank 1: exact image rank of the one Kraus operator",
                                    certificate=ch.kraus)
    cert = certify_kraus_channel(ch, config)
    if cert.verdict == SNE:
        method = ("stored decomposition" if cert.kraus is ch.kraus
                  else "product-preserving Kraus decomposition")
        return ChannelSchmidtBounds(lower=1, upper=1, method=method, certificate=cert.kraus)
    upper = max(s.image_rank for s in cert.structures)
    lower = 2 if cert.verdict == "entangling" else 1
    return ChannelSchmidtBounds(lower, max(upper, lower), "stored decomposition", cert.kraus)


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
    ``(k - 1)/d^2``. Above the bound nothing is claimed ("unknown"). The
    parameters must be valid for `rank_boost_channel`, else `DimensionError`.
    """
    coeffs = _rank_boost_coefficients(k, d, schmidt_coeffs)
    product = float(coeffs[0] * coeffs[1])
    bound = (k - 1) / d**2
    verdict = "nonentangling_certified" if product <= bound + THRESHOLD_ATOL else "unknown"
    return ThresholdReport(
        verdict=verdict,
        coeff_product=product,
        bound=bound,
        p_max=1.0 / (1.0 + d**2 * product),
        effect_bound=1.0 / k,
    )


def entanglement_annihilating_check(ch: KrausChannel, witnesses: list[Witness]) -> bool:
    """PSD test of the dual on sampled witnesses.

    True means every sampled witness pulls back to a PSD operator — evidence
    (not proof) that every channel output is separable.
    """
    for w in witnesses:
        dual = ch.dual_apply(w.operator)
        dual = (dual + np.conj(dual.T)) / 2.0
        if np.linalg.eigvalsh(dual)[0] < -PSD_ATOL:
            return False
    return True
