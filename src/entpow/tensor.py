"""Dense complex linear algebra over tensor-product spaces.

All matrices are dense complex ndarrays in row-major order; subsystem
structure is carried separately by a :class:`DimList`. Dimensions in this
package stay small (products up to ~100), so nothing here is tuned beyond
plain numpy calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ArityError, DimensionError

# Singular values count as nonzero iff s > RANK_RTOL * max(s_max, 1).
RANK_RTOL = 1e-10

HERM_ATOL = 1e-12


@dataclass(frozen=True)
class DimList:
    """Ordered per-party dimensions of a tensor-product space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) < 1:
            raise DimensionError("need at least one party")
        for d in self.dims:
            if not isinstance(d, (int, np.integer)) or d < 2:
                raise DimensionError(f"party dimensions must be integers >= 2, got {self.dims}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @classmethod
    def of(cls, dims: "DimList | Sequence[int]") -> "DimList":
        if isinstance(dims, DimList):
            return dims
        return cls(tuple(dims))

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        return math.prod(self.dims)

    def __iter__(self):
        return iter(self.dims)

    def __getitem__(self, i):
        return self.dims[i]

    def __len__(self):
        return len(self.dims)

    def check_matrix(self, m: np.ndarray):
        if m.shape != (self.total, self.total):
            raise DimensionError(f"matrix shape {m.shape} does not match dims {self.dims}")

    def require_bipartite(self):
        if self.n != 2:
            raise ArityError(f"operation requires exactly 2 parties, got {self.n}")


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex array (copying only when needed)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    return a


def as_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1:
        raise DimensionError(f"expected a vector, got ndim={a.ndim}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m.T)


def is_hermitian(m: np.ndarray, atol: float = HERM_ATOL) -> bool:
    return m.shape[0] == m.shape[1] and np.max(np.abs(m - dagger(m))) <= atol


def kron(a, b) -> np.ndarray:
    """Kronecker product; dims multiply."""
    return np.kron(as_matrix(a), as_matrix(b))


def kron_all(mats: Iterable[np.ndarray]) -> np.ndarray:
    out = None
    for m in mats:
        m = np.asarray(m, dtype=complex)
        out = m if out is None else np.kron(out, m)
    if out is None:
        raise DimensionError("kron_all needs at least one factor")
    return out


def partial_trace(rho, dims, keep: Iterable[int]) -> np.ndarray:
    """Trace out every party not listed in `keep`.

    The kept parties stay in their original order; the result has dimension
    prod(dims[k] for k in keep). The total trace is preserved.
    """
    dims = DimList.of(dims)
    rho = as_matrix(rho)
    dims.check_matrix(rho)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise DimensionError("keep set must be non-empty")
    if keep[0] < 0 or keep[-1] >= dims.n:
        raise DimensionError(f"keep indices {keep} out of range for {dims.n} parties")
    n = dims.n
    t = rho.reshape(*dims.dims, *dims.dims)
    # contract row/col indices of each traced party pairwise
    traced = [i for i in range(n) if i not in keep]
    for count, i in enumerate(traced):
        # after `count` traces the tensor has n-count row axes followed by
        # n-count col axes; party i has slipped left by the parties already removed
        off = sum(1 for j in traced[:count] if j < i)
        ax = i - off
        t = np.trace(t, axis1=ax, axis2=ax + (n - count))
    d_keep = int(np.prod([dims[k] for k in keep]))
    return t.reshape(d_keep, d_keep)


def partial_transpose(rho, dims, party: int) -> np.ndarray:
    """Transpose one tensor factor of a bipartite operator."""
    dims = DimList.of(dims)
    dims.require_bipartite()
    rho = as_matrix(rho)
    dims.check_matrix(rho)
    if party not in (0, 1):
        raise DimensionError(f"party must be 0 or 1, got {party}")
    d1, d2 = dims.dims
    t = rho.reshape(d1, d2, d1, d2)
    if party == 0:
        t = t.transpose(2, 1, 0, 3)
    else:
        t = t.transpose(0, 3, 2, 1)
    return t.reshape(d1 * d2, d1 * d2)


class OperatorSchmidt(NamedTuple):
    """Operator Schmidt decomposition M = sum_i values[i] * left[i] (x) right[i]."""

    values: np.ndarray  # descending, >= 0
    left: np.ndarray    # stack (m, d1, d1), orthonormal in Frobenius inner product
    right: np.ndarray   # stack (m, d2, d2)


def operator_schmidt(m, dims) -> OperatorSchmidt:
    """Decompose a bipartite operator into simple tensors via reshuffle + SVD.

    Satisfies sum(values**2) == ||M||_F**2 and reconstruction to 1e-10.
    """
    dims = DimList.of(dims)
    dims.require_bipartite()
    m = as_matrix(m)
    dims.check_matrix(m)
    d1, d2 = dims.dims
    r = m.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2)
    u, s, vh = np.linalg.svd(r, full_matrices=False)
    left = u.T.reshape(-1, d1, d1)
    right = vh.reshape(-1, d2, d2)
    return OperatorSchmidt(s, left, right)


def numerical_rank(singular_values: np.ndarray) -> int | np.ndarray:
    """Count of singular values above the package-wide rank threshold.

    Values are in descending order, so the first is the largest. A 2-D array
    is counted row by row and gives an integer array with one count per row;
    each count equals the 1-D call on that row.
    """
    s = np.asarray(singular_values, dtype=float)
    if s.shape[-1] == 0:
        return 0 if s.ndim == 1 else np.zeros(s.shape[:-1], dtype=int)
    counts = np.sum(s > RANK_RTOL * np.maximum(s[..., :1], 1.0), axis=-1)
    return int(counts) if s.ndim == 1 else counts


def swap_matrix(d: int) -> np.ndarray:
    """The operator exchanging two d-dimensional parties: V|i,j> = |j,i>."""
    v = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            v[j * d + i, i * d + j] = 1.0
    return v.astype(complex)
