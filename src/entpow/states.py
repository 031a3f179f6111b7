"""Pure and mixed states over tensor-product spaces.

Provides Schmidt decomposition/rank, the standard maximally entangled and
Bell states, and seeded samplers for product and separable states. Schmidt
structure is only computed across bipartitions; for states with more than two
parties a `cut` groups the parties into two blocks first.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ArityError, DimensionError, InvalidCutError
from .tensor import (
    PSD_ATOL,
    STATE_HERM_ATOL,
    STATE_PSD_RTOL,
    TRACE_ATOL,
    UNIT_ATOL,
    DimList,
    as_matrix,
    as_vector,
    finite,
    numerical_rank,
    partial_transpose,
)


@dataclass(frozen=True)
class PureState:
    """A unit state vector with its party structure."""

    amplitudes: np.ndarray
    dims: DimList

    def __post_init__(self):
        amps = finite(as_vector(self.amplitudes), "amplitudes")
        dims = DimList.of(self.dims)
        if amps.shape[0] != dims.total:
            raise DimensionError(
                f"amplitude length {amps.shape[0]} does not match dims {dims.dims}"
            )
        nrm = float(np.linalg.norm(amps))
        if abs(nrm - 1.0) > UNIT_ATOL:
            raise DimensionError(f"state norm {nrm} is not 1")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, np.conj(self.amplitudes))

    def density(self) -> "DensityMatrix":
        return DensityMatrix(self.projector(), self.dims)

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class DensityMatrix:
    """A positive-semidefinite operator with unit trace (or flagged sub-normalized)."""

    matrix: np.ndarray
    dims: DimList
    subnormalized: bool = False

    def __post_init__(self):
        m = finite(as_matrix(self.matrix), "density matrix")
        dims = DimList.of(self.dims)
        dims.check_matrix(m)
        if np.max(np.abs(m - np.conj(m.T))) > STATE_HERM_ATOL:
            raise DimensionError("density matrix must be Hermitian")
        m = (m + np.conj(m.T)) / 2.0
        evals = np.linalg.eigvalsh(m)
        if evals[0] < -STATE_PSD_RTOL * float(evals[-1]):
            raise DimensionError(f"density matrix has negative eigenvalue {evals[0]}")
        tr = float(np.real(np.trace(m)))
        if not self.subnormalized and abs(tr - 1.0) > TRACE_ATOL:
            raise DimensionError(f"trace {tr} is not 1 (flag subnormalized=True to allow)")
        if self.subnormalized and tr > 1.0 + TRACE_ATOL:
            raise DimensionError(f"sub-normalized state has trace {tr} > 1")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


@dataclass(frozen=True)
class ProductStateParam:
    """Per-party unit vectors parameterizing |chi_1> (x) ... (x) |chi_n>."""

    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        fs = []
        for f in self.factors:
            f = finite(as_vector(f), "every party factor")
            if abs(np.linalg.norm(f) - 1.0) > UNIT_ATOL:
                raise DimensionError("every party factor must be a unit vector")
            fs.append(f)
        object.__setattr__(self, "factors", tuple(fs))

    @property
    def dims(self) -> DimList:
        return DimList(tuple(len(f) for f in self.factors))

    def assemble(self) -> PureState:
        vec = self.factors[0]
        for f in self.factors[1:]:
            vec = np.kron(vec, f)
        return PureState(vec, self.dims)


class SchmidtDecomposition(NamedTuple):
    coefficients: np.ndarray  # descending, >= 0
    left: np.ndarray          # columns are left Schmidt vectors
    right: np.ndarray         # columns are right Schmidt vectors


def _amplitude_matrix(psi: PureState, cut: Sequence[int] | None) -> np.ndarray:
    """Reshape amplitudes into the (block A) x (block B) matrix for a cut."""
    dims = psi.dims
    n = dims.n
    if cut is None:
        if n != 2:
            raise ArityError("state has more than two parties; provide an explicit cut")
        cut = (0,)
    block_a = sorted(set(int(i) for i in cut))
    if not block_a or len(block_a) == n:
        raise InvalidCutError("cut must leave both blocks non-empty")
    if block_a[0] < 0 or block_a[-1] >= n:
        raise InvalidCutError(f"cut indices {block_a} out of range for {n} parties")
    block_b = [i for i in range(n) if i not in block_a]
    t = psi.amplitudes.reshape(dims.dims)
    t = t.transpose(block_a + block_b)
    da = int(np.prod([dims[i] for i in block_a]))
    return t.reshape(da, -1)


def schmidt_decompose(psi: PureState) -> SchmidtDecomposition:
    """Bipartite Schmidt decomposition via SVD of the amplitude matrix.

    Coefficients are descending with sum of squares equal to the squared norm
    (= 1 for normalized input); psi == sum_i c_i |left_i>|right_i>.
    """
    psi.dims.require_bipartite()
    a = _amplitude_matrix(psi, None)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return SchmidtDecomposition(s, u, vh.T)


def schmidt_rank(psi: PureState, cut: Sequence[int] | None = None) -> int:
    """Number of Schmidt coefficients above the rank threshold across `cut`.

    `cut` lists the 0-based parties of one block; defaults to ({0},{1}) for
    bipartite states.
    """
    a = _amplitude_matrix(psi, cut)
    s = np.linalg.svd(a, compute_uv=False)
    return numerical_rank(s)


def max_entangled(k: int, d: int) -> PureState:
    """(1/sqrt(k)) sum_{a<k} |aa> embedded in d x d."""
    if k < 1:
        raise DimensionError(f"rank k must be >= 1, got {k}")
    if k > d:
        raise DimensionError(f"rank k={k} exceeds local dimension d={d}")
    if k == 1:
        warnings.warn("max_entangled with k=1 is the product state |00>", stacklevel=2)
    dims = DimList((d, d))
    return PureState(schmidt_diagonal(np.full(k, 1.0 / np.sqrt(k)), dims), dims)


def schmidt_diagonal(coeffs, dims) -> np.ndarray:
    """Amplitudes of ``sum_a coeffs[a] |a, a>`` on bipartite dims (d1, d2)."""
    d1, d2 = DimList.of(dims).dims
    vec = np.zeros(d1 * d2, dtype=complex)
    vec[np.arange(len(coeffs)) * (d2 + 1)] = coeffs
    return vec


class BellBasis(NamedTuple):
    phi_plus: PureState
    phi_minus: PureState
    psi_plus: PureState
    psi_minus: PureState


def bell_states() -> BellBasis:
    """The four two-qubit Bell states."""
    dims = DimList((2, 2))
    s = 1.0 / np.sqrt(2.0)
    return BellBasis(
        phi_plus=PureState(np.array([s, 0, 0, s], dtype=complex), dims),
        phi_minus=PureState(np.array([s, 0, 0, -s], dtype=complex), dims),
        psi_plus=PureState(np.array([0, s, s, 0], dtype=complex), dims),
        psi_minus=PureState(np.array([0, s, -s, 0], dtype=complex), dims),
    )


def random_state_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform unit vector in C^d."""
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_product_state(dims, seed: int) -> ProductStateParam:
    """Independent Haar-uniform factor per party; deterministic for fixed seed."""
    dims = DimList.of(dims)
    rng = np.random.default_rng(seed)
    return ProductStateParam(tuple(random_state_vector(d, rng) for d in dims))


def random_separable(dims, terms: int, seed: int) -> DensityMatrix:
    """Convex mixture of `terms` random product projectors, Dirichlet weights."""
    if terms < 1:
        raise DimensionError(f"terms must be >= 1, got {terms}")
    dims = DimList.of(dims)
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(terms))
    out = np.zeros((dims.total, dims.total), dtype=complex)
    for a in range(terms):
        vec = reduce(np.kron, [random_state_vector(d, rng) for d in dims])
        out += weights[a] * np.outer(vec, np.conj(vec))
    return DensityMatrix(out, dims)


def is_ppt(rho: DensityMatrix) -> bool:
    """Positivity of the partial transpose (necessary for separability)."""
    rho.dims.require_bipartite()
    gamma = partial_transpose(rho.matrix, rho.dims, 1)
    return bool(np.linalg.eigvalsh(gamma)[0] >= -PSD_ATOL)


def pure_from_density(rho: DensityMatrix) -> PureState:
    """Extract the state vector of a rank-1 density matrix: its purity must
    be its squared trace to `TRACE_ATOL`."""
    if abs(rho.purity() - rho.trace**2) > TRACE_ATOL:
        raise DimensionError(f"density matrix is not pure (purity {rho.purity()})")
    evals, evecs = np.linalg.eigh(rho.matrix)
    vec = evecs[:, -1] * np.sqrt(max(evals[-1], 0.0))
    nrm = np.linalg.norm(vec)
    return PureState(vec / nrm, rho.dims)
