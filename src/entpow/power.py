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
evidence alone never certifies it. The channel Schmidt number is 1 exactly
for SNE channels, so its bounds read the certificate, except at Choi rank 1:
there every Kraus list is one operator up to weights and phases, and that
operator's image rank is the Schmidt number.

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
from .tensor import RANK_RTOL, DimList, numerical_rank, swap_matrix
from .witnesses import (
    DEFAULT_CONFIG,
    TOL_WITNESS,
    OptimizerConfig,
    Witness,
    default_witness_family,
    product_minima,
)

FORM_TENSOR = "tensor_product"
FORM_PERMUTATION = "permutation_local"
FORM_RANK1 = "rank1_product"
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

    kind: str  # "witness" (full channel) | "stochastic" (single stored Kraus op)
    witness: Witness
    input: ProductStateParam
    value: float
    kraus_index: int | None = None


@dataclass(frozen=True)
class KrausStructure:
    """Structural classification of a single Kraus operator.

    `factors` holds the per-party operators for the tensor and permutation
    forms, and the per-party *vectors* of the product column space for the
    rank-1 form (whose bra side is `right_vector`: M = |factors><right_vector|).
    An `unknown` operator carries the largest image Schmidt rank the probes
    found (1 when none reached 2) and, when its probe image is entangled
    enough to certify, that hit as a stochastic `Violation`.
    """

    form: str
    factors: tuple[np.ndarray, ...] | None = None
    permutation: tuple[int, ...] | None = None
    right_vector: np.ndarray | None = None
    image_rank: int = 1
    violation: Violation | None = None

    @property
    def is_product_preserving(self) -> bool:
        return self.form in (FORM_TENSOR, FORM_PERMUTATION, FORM_RANK1)


def _unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    v = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _scales(ops: np.ndarray) -> np.ndarray:
    """Per operator, the Frobenius norm floored at 1: images below 1e-12 of it are zero."""
    return np.maximum(np.linalg.norm(ops.reshape(len(ops), -1), axis=1), 1.0)


def _image_svals(img: np.ndarray, scale: np.ndarray, dims: DimList) -> np.ndarray:
    """Schmidt coefficients of images (K, P, d) of operators with scales
    (K,); an image below ``1e-12 * scale`` gets zero coefficients."""
    d1, d2 = dims.dims
    norms = np.linalg.norm(img, axis=-1)
    ok = norms > 1e-12 * scale[:, None]
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
    scale = _scales(stack)
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


def _structures(ops: np.ndarray, dims: DimList) -> list[KrausStructure]:
    """The structural form of each operator of the (K, D, D) stack `ops`, with
    no probing. The tensor, permutation and rank-1 tests each run as one
    stacked reshuffle and SVD over the operators no earlier test classified;
    the permutation test reshuffles with the party swap folded into the
    index order.
    """
    d1, d2 = dims.dims
    stack = ops.reshape(-1, d1, d2, d1, d2)
    out = [KrausStructure(FORM_UNKNOWN)] * len(ops)
    rest = np.arange(len(ops))

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


def _simple_tensor_basis(ops: np.ndarray, dims: DimList, rng):
    """The factors A (r, d1, d1) and B (r, d2, d2) of r unit-norm simple
    tensors ``A_j (x) B_j`` spanning the r independent `ops`, by Jennrich's
    simultaneous diagonalization; None on failure.
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
    return (a / np.linalg.norm(a, axis=0)).T.reshape(r, d1, d1), b.reshape(r, d2, d2)


def _product_decomposition(ch: KrausChannel, seed: int):
    """A Kraus stack of `ch` made only of ``A (x) B``, or only of ``(A (x) B) V``
    for the party swap V, with the `KrausStructure` of each operator; None
    when the search finds none.

    ``s[:r, None] * vh[:r]`` from the SVD of the flattened Kraus stack is a
    minimal Kraus list, r the `choi_rank`. A product list of r operators is a
    basis of simple tensors of its span (after ``@ V``), which
    `_simple_tensor_basis` draws from ``(seed, 23)``. Least squares gives the
    mixing; each operator is weighted by the norm of its coefficient column.
    A candidate must reproduce the Choi matrix to ``RANK_RTOL`` in each
    direction of the span at its own weight: each operator lies in the span,
    and its coordinates over s form a unitary (``RANK_RTOL * ||Choi||_F``
    alone would pass an entangling admixture of weight 1e-12). So the search
    can miss a decomposition but never invent one. Out of reach: lists mixing
    the two forms, rank-1 product forms, lists of more than r operators; for
    ``r > min(d1^2, d2^2)`` this returns None before the singular vectors.
    """
    d1, d2 = ch.dims.dims
    n = d1 * d2
    r = ch.choi_rank
    if r > min(d1 * d1, d2 * d2):
        return None  # decided without the singular vectors
    _, s, vh = np.linalg.svd(ch.kraus.reshape(len(ch.kraus), -1), full_matrices=False)
    s, vh = s[:r], vh[:r]
    basis = (s[:, None] * vh).reshape(r, n, n)
    rng = np.random.default_rng((seed, 23))
    branches = [(np.eye(n), FORM_TENSOR, None)]
    if d1 == d2:
        branches.append((swap_matrix(d1), FORM_PERMUTATION, (1, 0)))  # V^-1 = V
    for perm, form, permutation in branches:
        target = basis @ perm
        factors = _simple_tensor_basis(target, ch.dims, rng)
        if factors is None:
            continue
        a, b = factors
        simple = (a.reshape(r, -1, 1) * b.reshape(r, 1, -1)).reshape(r, d1, d1, d2, d2)
        simple = simple.transpose(0, 1, 3, 2, 4).reshape(r, n, n)
        mix = np.linalg.lstsq(simple.reshape(r, -1).T, target.reshape(r, -1).T, rcond=None)[0]
        weights = np.linalg.norm(mix, axis=1)
        ops = weights[:, None, None] * simple @ perm
        got = ops.reshape(r, -1)
        coords = got @ np.conj(vh.T)
        off_span = np.linalg.norm(got - coords @ vh, axis=1) / np.linalg.norm(got, axis=1)
        whitened = coords / s  # unitary exactly when the two lists share a Choi matrix
        gap = np.linalg.norm(whitened @ np.conj(whitened.T) - np.eye(r))
        if gap <= RANK_RTOL and np.all(off_span <= RANK_RTOL):
            return ops, tuple(KrausStructure(form, factors=(w * x, y), permutation=permutation)
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
    after the decomposition search fails, both before the witnesses of
    `default_witness_family`, which no SNE channel violates.
    """
    config = config or DEFAULT_CONFIG
    ch.dims.require_bipartite()
    structures = tuple(_structures(ch.kraus, ch.dims))
    if all(s.is_product_preserving for s in structures):
        return Certificate(
            SNE,
            structures=structures,
            kraus=ch.kraus,
            note="every stored Kraus operator is product-preserving",
        )
    found = _product_decomposition(ch, config.seed)
    if found is not None:
        ops, found_structures = found
        return Certificate(
            SNE,
            structures=found_structures,
            kraus=ops,
            note="a product-preserving remixing of the Kraus list reproduces the Choi matrix",
        )
    structures = tuple(_probe_unknown(structures, ch.kraus, ch.dims, config))
    violations = _channel_violations(ch, default_witness_family(ch.dims), config)
    violations += [s.violation for s in structures if s.violation is not None]
    if violations:
        note = "" if violations[0].kind == "witness" else (
            "evidence is stochastic: a stored Kraus operator entangles a "
            "product input, and no product-preserving remixing was found"
        )
        return Certificate(
            "entangling", violations=tuple(violations), structures=structures,
            kraus=ch.kraus, note=note,
        )
    return Certificate(
        "inconclusive",
        structures=structures,
        kraus=ch.kraus,
        note="structural classification incomplete and no violation found",
    )


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
    verdict = "nonentangling_certified" if product <= bound + 1e-12 else "unknown"
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
        if np.linalg.eigvalsh(dual)[0] < -1e-10:
            return False
    return True
