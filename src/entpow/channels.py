"""Quantum channels in Kraus form, their duals, and Choi matrices.

A channel acts as ``rho -> sum_j M_j rho M_j^dag``; its dual (Heisenberg
picture) acts on observables as ``O -> sum_j M_j^dag O M_j``, so that
``Tr(dual(O) rho) == Tr(O apply(rho))``. Input and output spaces are kept
equal: every channel here is square.

Besides raw Kraus lists, constructors are provided for the channel families
used throughout the package: measurement channels ``rho -> sum_j
Tr(E_j rho) rho_j``, random-unitary mixtures, mixing with a fixed state,
replacement channels, and the rank-boosting measurement channel whose single
selected outcome turns a maximally entangled input into a chosen pure state.

The Choi matrix follows the trace-1 state convention: one reference party per
system party, ``J = (id (x) channel)`` applied to the projector onto
``|Omega> = (1/sqrt(D)) sum_i |i>_R |i>_S``. Parties are ordered references
first, then systems: (R1..Rn, S1..Sn).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DimensionError
from .states import DensityMatrix, PureState, max_entangled, schmidt_diagonal
from .tensor import (
    COEFF_ATOL,
    EFFECT_HERM_ATOL,
    EIG_CUTOFF,
    ORDER_ATOL,
    PROB_ATOL,
    PSD_ATOL,
    TP_ATOL,
    DimList,
    as_matrix,
    dagger,
    finite,
    kron,
    numerical_rank,
    partial_trace,
    swap_matrix,
)


def _kraus_stack(kraus, dims: DimList) -> np.ndarray:
    """The operators as a new complex (K, D, D) array; `DimensionError` names
    every shape other than (D, D), and refuses a NaN or infinite entry."""
    bad = {np.shape(m) for m in kraus} - {(dims.total, dims.total)}
    if bad:
        raise DimensionError(f"Kraus operator shapes {sorted(bad)} do not match dims {dims.dims}")
    return finite(np.array(kraus, dtype=complex).reshape(-1, dims.total, dims.total),
                  "Kraus operators")


class KrausChannel:
    """A completely positive map given by an explicit Kraus operator list.

    Parameters
    ----------
    kraus : sequence of square complex matrices, all of shape (D, D) where
        D is the product of `dims`; stored as the read-only (K, D, D) array
        `kraus`.
    dims : per-party dimensions of the (shared) input/output space.
    label : optional display name.
    """

    def __init__(self, kraus, dims, label: str = ""):
        dims = DimList.of(dims)
        ops = _kraus_stack(kraus, dims)
        if not len(ops):
            raise DimensionError("a channel needs at least one Kraus operator")
        ops.flags.writeable = False
        self.kraus = ops
        self.dims = dims
        self.label = label
        acc = (dagger(ops) @ ops).sum(axis=0)
        self._tp_residual = float(np.max(np.abs(acc - np.eye(dims.total))))

    @property
    def is_trace_preserving(self) -> bool:
        return self._tp_residual <= TP_ATOL

    @cached_property
    def choi_rank(self) -> int:
        """The length of a minimal Kraus list: `numerical_rank` of the flattened (K, D^2) stack."""
        flat = self.kraus.reshape(len(self.kraus), -1)
        return int(numerical_rank(np.linalg.svd(flat, compute_uv=False)))

    def __repr__(self):
        name = self.label or type(self).__name__
        return f"<{name}: {len(self.kraus)} Kraus ops on dims {self.dims.dims}>"

    # -- the three fundamental maps ------------------------------------

    def apply_matrix(self, rho: np.ndarray) -> np.ndarray:
        """Schroedinger action on a raw matrix (no state validation)."""
        rho = as_matrix(rho)
        self.dims.check_matrix(rho)
        return (self.kraus @ rho @ dagger(self.kraus)).sum(axis=0)

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        """Apply the channel to a state.

        The output is flagged sub-normalized unless the channel is
        trace-preserving and the input was normalized.
        """
        if rho.dims.dims != self.dims.dims:
            raise DimensionError(
                f"state dims {rho.dims.dims} do not match channel dims {self.dims.dims}"
            )
        out = self.apply_matrix(rho.matrix)
        sub = rho.subnormalized or not self.is_trace_preserving
        return DensityMatrix(out, self.dims, subnormalized=sub)

    def dual_apply(self, obs: np.ndarray) -> np.ndarray:
        """Heisenberg action on an observable: sum_j M_j^dag obs M_j."""
        obs = as_matrix(obs)
        self.dims.check_matrix(obs)
        return (dagger(self.kraus) @ obs @ self.kraus).sum(axis=0)

    def choi(self) -> DensityMatrix:
        """Choi state of the channel on (R1..Rn, S1..Sn), trace-1 convention;
        sub-normalized unless the channel is trace-preserving."""
        d = self.dims.total
        v = self.kraus.transpose(0, 2, 1).reshape(-1, d * d) / np.sqrt(d)  # (I (x) M)|Omega>
        j = np.zeros((d * d, d * d), dtype=complex)
        for row in v:  # one outer product at a time: memory stays at one Choi matrix
            j += np.outer(row, np.conj(row))
        # trace = Tr(sum M^dag M)/d, which is 1 exactly when trace-preserving
        return DensityMatrix(
            j, DimList(self.dims.dims + self.dims.dims), subnormalized=not self.is_trace_preserving
        )


def choi_apply(choi: DensityMatrix, rho: np.ndarray) -> np.ndarray:
    """Reconstruct the channel action from the Choi state on (R1..Rn, S1..Sn).

    Standard contraction: ``D * Tr_R[(rho^T (x) I) J]``.
    """
    n = choi.dims.n // 2
    if choi.dims.dims[:n] != choi.dims.dims[n:]:
        raise DimensionError(f"Choi dims {choi.dims.dims} need one reference per system party")
    rho = as_matrix(rho)
    d = DimList(choi.dims.dims[n:]).total
    if rho.shape != (d, d):
        raise DimensionError(f"input shape {rho.shape} does not match Choi system dim {d}")
    big = kron(rho.T, np.eye(d)) @ choi.matrix
    return d * partial_trace(big, choi.dims, keep=tuple(range(n, 2 * n)))


def _eig_pairs(evals: np.ndarray, evecs: np.ndarray):
    """The eigenvalues above `EIG_CUTOFF` of an `np.linalg.eigh` result, and
    their eigenvectors as rows."""
    keep = evals > EIG_CUTOFF
    return evals[keep], evecs[:, keep].T


def _outer_stack(coeffs: np.ndarray, u: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The (R * F, D, D) stack ``coeffs[i, m] * |u_i><f_m|`` for rows u (R, D)
    and f (F, D), i-major."""
    ops = coeffs[:, :, None, None] * (u[:, None, :, None] * np.conj(f)[None, :, None, :])
    return ops.reshape(-1, u.shape[1], u.shape[1])


class MeasurementChannel(KrausChannel):
    """``rho -> sum_j Tr(E_j rho) rho_j`` for a POVM {E_j} and fixed outputs.

    The stored Kraus operators are ``sqrt(r_i e_m) |u_i><f_m|`` built from the
    eigenbases of the outputs and effects, which gives the structural analysis
    a concrete decomposition to classify; `apply`/`dual_apply` use the closed
    form directly for numerical stability.
    """

    def __init__(self, effects, outputs, dims, label: str = "measurement"):
        effects = [finite(as_matrix(e), f"effect {j}") for j, e in enumerate(effects)]
        if not effects:
            raise DimensionError("need at least one effect")
        dims = DimList.of(dims)
        outs = [o if isinstance(o, DensityMatrix) else DensityMatrix(as_matrix(o), dims)
                for o in outputs]
        if len(effects) != len(outs):
            raise DimensionError(f"{len(effects)} effects but {len(outs)} outputs")
        kraus = []
        for j, (e, out) in enumerate(zip(effects, outs)):
            dims.check_matrix(e)
            if out.dims != dims:
                raise DimensionError(f"output {j} has dims {out.dims.dims}, the channel {dims.dims}")
            if np.max(np.abs(e - dagger(e))) > EFFECT_HERM_ATOL:
                raise DimensionError(f"effect {j} is not Hermitian")
            evals, evecs = np.linalg.eigh(e)
            if evals[0] < -PSD_ATOL:
                raise DimensionError(f"effect {j} is not positive semidefinite")
            e_m, f = _eig_pairs(evals, evecs)
            r_i, u = _eig_pairs(*np.linalg.eigh(out.matrix))
            kraus.append(_outer_stack(np.sqrt(r_i[:, None] * e_m), u, f))
        if np.max(np.abs(sum(effects) - np.eye(dims.total))) > TP_ATOL:
            raise DimensionError("effects do not sum to the identity (POVM completeness)")
        super().__init__(np.concatenate(kraus), dims, label=label)
        self.effects = tuple(effects)
        self.outputs = tuple(outs)

    def apply_matrix(self, rho: np.ndarray) -> np.ndarray:
        rho = as_matrix(rho)
        self.dims.check_matrix(rho)
        out = np.zeros_like(rho)
        for e, o in zip(self.effects, self.outputs):
            out += np.trace(e @ rho) * o.matrix
        return out

    def dual_apply(self, obs: np.ndarray) -> np.ndarray:
        obs = as_matrix(obs)
        self.dims.check_matrix(obs)
        out = np.zeros_like(obs)
        for e, o in zip(self.effects, self.outputs):
            out += np.trace(o.matrix @ obs) * e
        return out


def measurement_channel(effects, outputs, dims) -> MeasurementChannel:
    """Build a measurement channel from a POVM and its per-outcome outputs."""
    return MeasurementChannel(effects, outputs, dims)


class RandomUnitaryChannel(KrausChannel):
    """Convex mixture of unitary conjugations: ``rho -> sum_a p_a U_a rho U_a^dag``."""

    def __init__(self, unitaries, probabilities, dims, label: str = "random_unitary"):
        unitaries = [as_matrix(u) for u in unitaries]
        probs = np.asarray(probabilities, dtype=float)
        if probs.ndim != 1:
            raise DimensionError(
                f"probabilities must be a list of numbers, got shape {probs.shape}"
            )
        if len(unitaries) != probs.shape[0]:
            raise DimensionError(
                f"{len(unitaries)} unitaries but {probs.shape[0]} probabilities"
            )
        if not np.isfinite(probs).all() or np.any(probs < -PROB_ATOL):
            raise DimensionError(f"negative or non-finite probability in {probs.tolist()}")
        if abs(probs.sum() - 1.0) > TP_ATOL:
            raise DimensionError(f"probabilities sum to {probs.sum()}, not 1")
        dims = DimList.of(dims)
        for a, u in enumerate(unitaries):
            dims.check_matrix(u)
            if np.max(np.abs(dagger(u) @ u - np.eye(dims.total))) > TP_ATOL:
                raise DimensionError(f"operator {a} is not unitary")
        kraus = [
            np.sqrt(p) * u for p, u in zip(probs, unitaries) if p > EIG_CUTOFF
        ]
        super().__init__(kraus, dims, label=label)
        self.unitaries = tuple(unitaries)
        self.probabilities = tuple(float(p) for p in probs)


def random_unitary_channel(unitaries, probabilities, dims) -> RandomUnitaryChannel:
    """Build a random-unitary (mixed-unitary) channel."""
    return RandomUnitaryChannel(unitaries, probabilities, dims)


class MixingChannel(KrausChannel):
    """``rho -> p rho + (1-p) Tr(rho) sigma`` for a fixed state sigma."""

    def __init__(self, p: float, sigma: DensityMatrix):
        if not 0.0 <= p <= 1.0:
            raise DimensionError(f"mixing probability {p} outside [0, 1]")
        dims = sigma.dims
        eye = np.eye(dims.total, dtype=complex)
        kraus = [np.sqrt(p) * eye[None]] if p > EIG_CUTOFF else []
        if 1.0 - p > EIG_CUTOFF:
            r_i, u = _eig_pairs(*np.linalg.eigh(sigma.matrix))
            kraus.append(_outer_stack(np.sqrt((1.0 - p) * r_i)[:, None], u, eye))
        super().__init__(np.concatenate(kraus), dims, label="mixing")
        self.p = float(p)
        self.sigma = sigma

    def apply_matrix(self, rho: np.ndarray) -> np.ndarray:
        rho = as_matrix(rho)
        self.dims.check_matrix(rho)
        return self.p * rho + (1.0 - self.p) * np.trace(rho) * self.sigma.matrix

    def dual_apply(self, obs: np.ndarray) -> np.ndarray:
        obs = as_matrix(obs)
        self.dims.check_matrix(obs)
        shift = np.trace(self.sigma.matrix @ obs)
        return self.p * obs + (1.0 - self.p) * shift * np.eye(self.dims.total)


def mixing_channel(p: float, sigma: DensityMatrix) -> MixingChannel:
    """Mix the identity channel with replacement by `sigma`."""
    return MixingChannel(p, sigma)


def _rank_boost_coefficients(k, d, schmidt_coeffs) -> np.ndarray:
    """The rank-boost parameters' Schmidt coefficients as floats, once checked:
    integers ``2 <= k <= d``, and d finite, positive, non-increasing
    coefficients whose squares sum to 1."""
    if not all(isinstance(n, (int, np.integer)) for n in (k, d)) or not 2 <= k <= d:
        raise DimensionError(f"need integers 2 <= k <= d, got k={k!r}, d={d!r}")
    coeffs = np.asarray(schmidt_coeffs, dtype=float)
    if coeffs.shape != (d,):
        raise DimensionError(f"need exactly d={d} Schmidt coefficients, got shape {coeffs.shape}")
    if not (np.isfinite(coeffs).all() and np.all(coeffs > 0)):
        raise DimensionError("all Schmidt coefficients must be finite and positive")
    if np.any(np.diff(coeffs) > ORDER_ATOL):
        raise DimensionError("Schmidt coefficients must be non-increasing")
    if abs(float(np.sum(coeffs**2)) - 1.0) > COEFF_ATOL:
        raise DimensionError("squared Schmidt coefficients must sum to 1")
    return coeffs


class RankBoostChannel(MeasurementChannel):
    """Two-outcome measurement channel that boosts Schmidt rank.

    Effects are the projector onto the rank-k maximally entangled state and
    its complement; the first outcome emits the pure state
    ``|psi> = sum_b c_b |bb>`` (all d coefficients positive), the second the
    maximally mixed state. Feeding in the rank-k maximally entangled state
    returns exactly ``|psi><psi|``, whose Schmidt rank is d.
    """

    def __init__(self, k: int, d: int, schmidt_coeffs):
        coeffs = _rank_boost_coefficients(k, d, schmidt_coeffs)
        dims = DimList((d, d))
        phi = max_entangled(k, d)
        psi = schmidt_diagonal(coeffs, dims)
        e0 = phi.projector()
        effects = [e0, np.eye(d * d) - e0]
        outputs = [
            DensityMatrix(np.outer(psi, np.conj(psi)), dims),
            DensityMatrix(np.eye(d * d) / (d * d), dims),
        ]
        super().__init__(effects, outputs, dims, label="rank_boost")
        self.k = int(k)
        self.d = int(d)
        self.schmidt_coeffs = tuple(float(c) for c in coeffs)
        self.output_state = PureState(psi, dims)


def rank_boost_channel(k: int, d: int, schmidt_coeffs) -> RankBoostChannel:
    """Measurement channel with effects {phi+_k, 1 - phi+_k} and outputs
    {|psi><psi|, 1/d^2}; non-entangling iff the top two Schmidt coefficients
    of psi are small enough (see `entpow.power.nonentangling_threshold`)."""
    return RankBoostChannel(k, d, schmidt_coeffs)


def identity_channel(dims) -> KrausChannel:
    dims = DimList.of(dims)
    return KrausChannel([np.eye(dims.total, dtype=complex)], dims, label="identity")


def unitary_channel(u, dims, label: str = "unitary") -> RandomUnitaryChannel:
    return RandomUnitaryChannel([u], [1.0], dims, label=label)


def swap_channel(d: int) -> RandomUnitaryChannel:
    """Unitary channel conjugating by the swap of two d-dimensional parties."""
    return unitary_channel(swap_matrix(d), (d, d), label="swap")


def replacement_channel(target: DensityMatrix | PureState) -> MeasurementChannel:
    """Constant channel ``rho -> Tr(rho) target``."""
    if isinstance(target, PureState):
        target = target.density()
    dims = target.dims
    ch = MeasurementChannel(
        [np.eye(dims.total, dtype=complex)], [target], dims, label="replacement"
    )
    return ch
