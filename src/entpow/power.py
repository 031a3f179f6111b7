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

import itertools
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import KrausChannel, MeasurementChannel
from .errors import DimensionError, NotAWitnessError
from .states import ProductStateParam, PureState, schmidt_rank
from .tensor import DimList, as_matrix, numerical_rank
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
    """Knobs for the randomized searches in this module."""

    probes: int = 200
    refine_steps: int = 10
    remixings: int = 256
    seed: int = 0
    optimizer: OptimizerConfig = DEFAULT_CONFIG


DEFAULT_PROBES = ProbeConfig()

# Block sizes of the batched searches. The image-rank kernel takes operators
# IMAGE_BLOCK_OPS at a time and holds their images of every probe; it
# decomposes those images PROBE_CHUNK probes at a time, and an operator stops
# probing once it reaches full rank. The remixing searches draw and remix
# REMIX_BLOCK unitaries on the Kraus index at a time. Blocks bound peak memory
# on long Kraus lists.
IMAGE_BLOCK_OPS = 64
PROBE_CHUNK = 8
REMIX_BLOCK = 8


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
        viol = None
        if config.probes > 0:
            viol = _probe_bipartite(mats[k], dims, config, stream=0)
        out[k] = KrausStructure(FORM_UNKNOWN, witness_violation=viol)
    return out


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


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _remix_unitaries(n: int, count: int, rng: np.random.Generator):
    """Candidate unitaries on the Kraus index: DFT first, then Haar samples.

    The DFT un-mixes discrete interference patterns (e.g. sums/differences of
    product operators) that Haar sampling hits with probability zero.
    """
    jk = np.outer(np.arange(n), np.arange(n))
    yield np.exp(-2j * np.pi * jk / n) / np.sqrt(n)
    for _ in range(count):
        yield _haar_unitary(n, rng)


def _unitary_blocks(n: int, count: int, rng: np.random.Generator):
    """`_remix_unitaries`, in order, as (B, n, n) blocks of at most `REMIX_BLOCK`."""
    unitaries = _remix_unitaries(n, count, rng)
    unitary = np.dtype((complex, (n, n)))  # fromiter fills the block with no list beside it
    while len(block := np.fromiter(itertools.islice(unitaries, REMIX_BLOCK), unitary)):
        yield block


def _remix(rows: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``sum_j rows[k, j] stack[j]`` for each row k, in one matmul; no row's
    arithmetic depends on the others, so an operator is the same in any batch."""
    flat = stack.reshape(len(stack), -1)
    return (rows[:, None, :] @ flat).reshape(len(rows), *stack.shape[1:])


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

    SNE requires every Kraus operator of the stored list — or of one of the
    sampled unitary remixings — to classify structurally. The remixings are
    searched in blocks: operator i is classified across the block's live
    remixings at once, a remixing drops out at its first non-product
    operator, and the first surviving remixing in sampling order wins. The entangling
    verdict needs replayable evidence: a witness violation of the full
    channel, or a stored Kraus operator probed into mapping a product input
    to an entangled conditional output. Precedence matters: probe evidence
    speaks only about the stored decomposition, and a channel whose stored
    operators entangle can still admit a product-preserving remixing, so the
    remixing search runs before probe-only evidence is allowed to decide.
    (A witness violation needs no such care — it certifies that the channel
    itself entangles some product input, which no decomposition can undo.)
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

    def probe_evidence() -> list[Violation]:
        found = []
        for i, (m, s) in enumerate(zip(ch.kraus, structures)):
            if s.is_product_preserving:
                continue
            probe = _probe_bipartite(m, ch.dims, config, stream=i + 1)
            if probe is not None:
                v = _stochastic_violation(i, ch.dims, probe)
                if v is not None:
                    found.append(v)
        return found

    violations: list[Violation] = []
    family = default_witness_family(ch.dims) if witnesses is None else witnesses
    for w in family:
        dual = ch.dual_apply(w.operator)
        res = min_over_products(dual, ch.dims, config.optimizer)
        if res.value <= -TOL_WITNESS:
            violations.append(
                Violation(kind="witness", witness=w, input=res.argument, value=res.value)
            )
    if violations:
        violations.extend(probe_evidence())  # enrich the certificate
        return Certificate("entangling", violations=tuple(violations), structures=structures)

    rng = np.random.default_rng((config.seed, 999))
    stack = np.stack(ch.kraus)
    for us in _unitary_blocks(len(stack), config.remixings, rng):
        live = np.arange(len(us))
        for i in range(len(stack)):  # generic remixings fail on their first operator
            forms = classify_kraus_many(_remix(us[live, i], stack), ch.dims, no_probe)
            live = live[[st.is_product_preserving for st in forms]]
            if not live.size:
                break
        else:
            remixed = _remix(us[live[0]], stack)
            return Certificate(
                "stochastically_nonentangling",
                structures=tuple(classify_kraus_many(remixed, ch.dims, no_probe)),
                note="a sampled remixing of the Kraus list is product-preserving",
            )

    violations = probe_evidence()
    if violations:
        return Certificate(
            "entangling",
            violations=tuple(violations),
            structures=structures,
            note="evidence is stochastic: a stored Kraus operator entangles a "
            "product input, and no product-preserving remixing was found",
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

    The upper bound is the best (smallest) max-over-operators image rank over
    sampled unitary remixings of the Kraus list — a heuristic search, reported
    as such. The remixings are searched in blocks: the image ranks of
    operator i are found across the block's live remixings at once, a
    remixing drops out once one of its operators reaches the current upper
    bound, and the survivors are taken in sampling order, so the first
    remixing to lower the bound is kept. Replacement channels short-circuit to their exact value; an
    entangling certificate raises the lower bound to 2.
    """
    config = config or DEFAULT_PROBES
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

    upper = int(_schmidt_ranks(ch.kraus, ch.dims, config).max())
    best_ops = tuple(ch.kraus)
    method = "stored decomposition"
    if upper > 1:
        rng = np.random.default_rng((config.seed, 1000))
        stack = np.stack(ch.kraus)
        for us in _unitary_blocks(len(stack), config.remixings, rng):
            worst = np.ones(len(us), dtype=int)
            live = np.arange(len(us))
            for i in range(len(stack)):
                ranks = _schmidt_ranks(_remix(us[live, i], stack), ch.dims, config)
                worst[live] = np.maximum(worst[live], ranks)
                live = live[worst[live] < upper]  # cannot improve on the incumbent
                if not live.size:
                    break
            for j in live:
                if worst[j] < upper:
                    upper = int(worst[j])
                    best_ops = tuple(_remix(us[j], stack))
                    method = "best sampled unitary remixing (heuristic upper bound)"
            if upper == 1:
                break

    lower = 1
    if upper > 1:
        cert = certify_kraus_channel(ch, config)
        if cert.verdict == "entangling":
            lower = 2
    upper = max(upper, lower)
    return ChannelSchmidtBounds(
        lower=lower, upper=upper, method=method, certificate=best_ops
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
