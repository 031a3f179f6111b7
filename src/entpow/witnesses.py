"""Entanglement witnesses and optimization over the product-state manifold.

The central primitive is `product_minima`: minimize ``<chi|O|chi>`` over
normalized product vectors ``|chi> = |chi_1> (x) ... (x) |chi_n>``. Because
separable states are convex mixtures of such vectors, the minimum over
product states equals the minimum over all separable states, which is what
every separability bound in this package rests on.

The optimizer is multi-start coordinate descent: with all parties but one
frozen, the objective is a Hermitian quadratic form in the free party, whose
exact minimizer is an extremal eigenvector. Sweeps are monotone, so each
restart converges; restarts guard against local minima.
`product_minima` minimizes a whole stack of observables at once, and
`min_over_products` is its one-row view. Each party's projector
``conj(u) u^T`` and each observable are expanded per party in a basis: Pauli
for a qubit, with real coordinates, and otherwise the matrix units ``E_xy``,
whose coordinates are the matrix entries themselves. So every observable
becomes one tensor ``T[a_1, ..., a_n]``, real when every party is a qubit,
built once per call and never copied per restart. An observable's R restarts
run side by side as the R columns of its party states, and party i's step is
one stacked matmul: T with party i's axis first, times the outer product of
the other parties' coordinates, ``(rest, R)`` per observable. A qubit party
then moves in closed form on the Bloch sphere (`_bloch_step`: the length of
its Bloch vector is the root of a sum of squares, and a `hypot` chain only
where that root leaves (`SQUARE_MIN`, `SQUARE_MAX`)); a larger one takes the
lowest eigenvector of the effective matrix that its coordinates are, reshaped
(`_eigh_step`). Qubit unit vectors are recovered only for each observable's
best restart. A restart that converges goes idle in its column, and an
observable leaves the working arrays once all its restarts have (`_descend`).
Every step acts on one observable with one shape, so a value does not depend
on the batch it ran in; tolerances are relative to the observable's size.

Before any descent, each bipartite observable of the form
``c I - |psi><psi|`` or ``c I + |psi><psi|`` is solved exactly
(`_shifted_pure_minima`). For the minus sign the product minimum is
``c - s_1(psi)^2``, attained at psi's top Schmidt pair (Eckart-Young); for the
plus sign it is c, attained at a product vector orthogonal to psi. The form
is read from the spectrum, one batched `eigh` per stack: all eigenvalues but
the lowest (or but the highest) are equal, to `TOL_SHIFTED_PURE`. It is
common: a shifted pure witness pulled back through a unitary or a mixing
channel keeps it, and so do the two-qubit swap, ``I - 2 |psi^-><psi^-|``, and
the dual of any witness under a two-outcome measurement of a pure projector,
``b I + (a - b) |psi><psi|``.

A two-qubit observable of any other form is solved from its dual
(`_two_qubit_minima`). In Pauli coordinates ``4 <a (x) b|O|a (x) b> = c +
alpha.n + beta.m + n^T M m`` for Bloch vectors n, m, and a bound tau on 4
times the minimum holds when ``tau <= c - |alpha|`` and ``S = Lam J Lam^T - mu
J`` is PSD for some real mu, with ``Lam`` the coordinates less ``tau e_0
e_0^T`` and J the Minkowski metric; by Finsler's lemma such a mu exists at
the true minimum. A fixed-length bisection finds mu, the minimizer is a
lightlike null vector of S, and its ``<chi|O|chi>`` is reported. The
observable counts as solved only when the certificate replays and the value
attained is within ``TOL_SWEEP ||O||_F`` of the bound ``tau / 4``; else, as
near-flat minima can make it, it is descended, so this path can lower a
minimum but never invent one. Only the other observables are descended:
those of more than two parties, larger bipartite ones whose spectra have
another shape, such as a mixture of several projectors or the swap of two
qutrits, and the two-qubit ones whose certificate declines.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionError,
    EntpowError,
    IncomparableWitnessError,
    NotAWitnessError,
)
from .states import ProductStateParam, PureState, schmidt_diagonal, schmidt_rank
from .tensor import (
    CERT_CONE_RTOL,
    CERT_PSD_RTOL,
    COORD_ATOL,
    GRID_ATOL,
    OBSERVABLE_RTOL,
    TEST_PSD_RTOL,
    TOL_POWER,
    TOL_SHIFTED_PURE,
    TOL_SWEEP,
    TOL_WITNESS,
    UNIT_ATOL,
    WITNESS_RTOL,
    DimList,
    as_matrix,
    dagger,
    finite,
    is_hermitian,
    is_psd,
    partial_transpose,
    swap_matrix,
)

MAX_SWEEPS = 500  # sweeps after which a restart stops unconverged
# Bisection steps for a two-qubit certificate's multiplier: they leave a bracket
# of at most 36 at 2^-50 of its width, still above the spacing of floats there.
DUAL_STEPS = 50
# A root of a sum of squares outside (SQUARE_MIN, SQUARE_MAX) may have under- or overflowed.
SQUARE_MIN, SQUARE_MAX = 1e-150, 1e150


@dataclass(frozen=True)
class Witness:
    """Hermitian operator with non-negative expectation on all separable states.

    `shifted` optionally records the form ``lambda * I - L`` with a PSD test
    operator L; only shifted witnesses sharing the same L can be compared.
    The operator must be Hermitian, and match its shifted form, to
    `WITNESS_RTOL` of its largest |entry|; L must be PSD to `TEST_PSD_RTOL` of
    its largest |eigenvalue|.
    """

    operator: np.ndarray
    dims: DimList
    shifted: tuple[float, np.ndarray] | None = None
    label: str = ""

    def __post_init__(self):
        op = as_matrix(self.operator)
        dims = DimList.of(self.dims)
        dims.check_matrix(op)
        tol = WITNESS_RTOL * np.abs(op).max()
        if not is_hermitian(op, tol):
            raise DimensionError(f"witness operator must be Hermitian (to {WITNESS_RTOL:g} of its"
                                 " largest entry)")
        if self.shifted is not None:
            lam, test = self.shifted
            test = as_matrix(test)
            if np.max(np.abs(op - (lam * np.eye(dims.total) - test))) > tol:
                raise DimensionError("shifted form does not match operator")
            if not is_psd(test, TEST_PSD_RTOL):
                raise DimensionError("shifted test operator must be PSD")
            object.__setattr__(self, "shifted", (float(lam), test))
        object.__setattr__(self, "operator", op)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def from_shift(cls, lam: float, test_op, dims, label: str = "") -> "Witness":
        test_op = as_matrix(test_op)
        dims = DimList.of(dims)
        op = lam * np.eye(dims.total) - test_op
        return cls(op, dims, shifted=(float(lam), test_op), label=label)


@dataclass(frozen=True)
class OptimizerConfig:
    """The one config of the seeded searches: `restarts` (at least 1) optimizer
    restarts, restart r drawn from ``default_rng(seed + r)`` for a `seed` of at
    least 0; `entpow.power` draws its image-rank probes from ``(seed, 17)``
    and its decomposition search from ``(seed, 23)``."""

    restarts: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise EntpowError(f"optimizer needs restarts >= 1, got {self.restarts}")
        if self.seed < 0:
            raise EntpowError(f"optimizer needs seed >= 0, got {self.seed}")


DEFAULT_CONFIG = OptimizerConfig()


@dataclass(frozen=True)
class OptimizationResult:
    """`min_over_products` of one observable; `converged` as in `ProductMinima`."""

    value: float
    argument: ProductStateParam
    restarts_used: int
    converged: bool
    spread: float


def _basis_contract(t: np.ndarray, d: int) -> np.ndarray:
    """``sum_{x,y} t[..., x, y] B_a[x, y]`` for each element B_a of party
    dimension d's basis, on a new last axis a: Pauli (I, X, Y, Z) for a qubit,
    otherwise the matrix units E_xy in row-major order, so the entries
    ``t[..., x, y]`` themselves, reshaped to d^2."""
    if d == 2:
        t00, t01, t10, t11 = t[..., 0, 0], t[..., 0, 1], t[..., 1, 0], t[..., 1, 1]
        return np.stack([t00 + t11, t01 + t10, 1j * (t10 - t01), t00 - t11], axis=-1)
    return t.reshape(*t.shape[:-2], d * d)


def _observable_coordinates(stack: np.ndarray, d: tuple[int, ...]) -> np.ndarray:
    """``T[k, a_1, ..., a_n] = sum_{x,y} stack[k, x, y] prod_j B_{a_j}[x_j, y_j]``:
    real when every party is a qubit, since each observable and each Pauli
    matrix is Hermitian, and complex otherwise."""
    n = len(d)
    t = stack.reshape(len(stack), *d, *d)
    for i, di in enumerate(d):  # axes: k, x then y of parties i.., a of parties before i
        t = _basis_contract(np.moveaxis(t, (1, 1 + n - i), (-2, -1)), di)
    return t.real if set(d) == {2} else t


def _ket_coordinates(u: np.ndarray) -> np.ndarray:
    """Per column of the ``(..., d, n)`` u of unit vectors, the coordinates q of
    the projector ``P = conj(u) u^T``, so ``P = sum_a q_a B_a``, as ``(..., d^2
    or 4, n)``: real Pauli coordinates ``q_a = Tr(B_a P) / 2`` for a qubit,
    otherwise P's entries in C order."""
    if u.shape[-2] != 2:
        p = np.conj(u)[..., :, None, :] * u[..., None, :, :]
        return p.reshape(*u.shape[:-2], -1, u.shape[-1])
    rows = np.swapaxes(u, -1, -2)
    t = rows[..., :, None] * np.conj(rows)[..., None, :]
    return np.swapaxes(_basis_contract(t, 2), -1, -2).real / 2.0


def _bloch_step(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least value of ``q . v`` over a qubit's projector coordinates
    ``q = (1, m) / 2``, m a unit Bloch vector, and the coordinates attaining it,
    per column of the ``(..., 4, n)`` v.

    The value is ``(v_0 - |v'|) / 2`` at ``m = -v' / |v'|``, for ``v' = v[1:]``;
    at ``v' = 0`` every m attains it, and m = +z (the ket |0>) is taken.
    ``|v'|`` is the root of the sum of squares, taken entry by entry, so a
    column gets the same bits in any batch; only where the root falls outside
    (`SQUARE_MIN`, `SQUARE_MAX`), where a square may under- or overflow, is it
    redone as a `hypot` chain and checked for zero.
    """
    x, y, z = v[..., 1, :], v[..., 2, :], v[..., 3, :]
    with np.errstate(over="ignore", under="ignore"):
        norm = np.sqrt(x * x + y * y + z * z)
    q = np.empty_like(v)
    q[..., 0, :] = 0.5
    odd = ~((norm > SQUARE_MIN) & (norm < SQUARE_MAX))
    if not odd.any():
        np.divide(v[..., 1:, :], -2.0 * norm[..., None, :], out=q[..., 1:, :])
    else:
        norm[odd] = np.hypot(np.hypot(x[odd], y[odd]), z[odd])
        flat = norm == 0.0
        np.divide(v[..., 1:, :], -2.0 * np.where(flat, 1.0, norm)[..., None, :], out=q[..., 1:, :])
        np.moveaxis(q, -2, 0)[1:, flat] = ((0.0,), (0.0,), (0.5,))
    return (v[..., 0, :] - norm) / 2.0, q


def _bloch_ket(q: np.ndarray) -> np.ndarray:
    """Per column, a unit vector u with ``conj(u) u^T = sum_a q_a B_a`` for qubit
    coordinates ``q = (1, m) / 2``; of the two free of cancellation, the one
    with a real non-negative second entry when m_z <= 0, and first entry
    otherwise."""
    m1, m2, m3 = 2.0 * q[1], 2.0 * q[2], 2.0 * q[3]
    up = m3 <= 0.0
    ket = np.stack([np.where(up, m1 + 1j * m2, 1.0 + m3),
                    np.where(up, 1.0 - m3, m1 - 1j * m2)])
    return ket / np.hypot(np.hypot(m1, m2), 1.0 + np.abs(m3))


def _eigh_step(v: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Least value of ``q . v`` over the projector coordinates q of a unit
    vector of dimension d, and that vector, per column of the ``(d^2, n)`` v:
    the lowest eigenpair of the effective matrix ``v[:, k].reshape(d, d)``,
    read from its lower triangle."""
    evals, evecs = np.linalg.eigh(v.T.reshape(-1, d, d))
    return evals[:, 0], evecs[:, :, 0].T


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, by the dot products `np.linalg.norm` takes of one
    vector; a nonzero row whose norm leaves (`SQUARE_MIN`, `SQUARE_MAX`), where a
    square may under- or overflow, is divided by its largest |entry| first."""
    with np.errstate(over="ignore", under="ignore"):
        norm = np.sqrt(sum(x[:, None, :] @ x[:, :, None] for x in (v.real, v.imag)))[:, 0, 0]
    odd = ~((norm > SQUARE_MIN) & (norm < SQUARE_MAX))
    if odd.any():
        odd[odd] = v[odd].any(axis=1)
        big = np.abs(v[odd]).max(axis=1)
        norm[odd] = big * _row_norms(v[odd] / big[:, None])
    return norm


@lru_cache(maxsize=64)
def _starts(d: tuple[int, ...], config: OptimizerConfig) -> tuple[np.ndarray, ...]:
    """Per-party start vectors, read-only and drawn once per ``(d, config)``;
    restart r makes one draw from ``default_rng(seed + r)``."""
    draws = np.array([np.random.default_rng(config.seed + r).normal(size=2 * sum(d))
                      for r in range(config.restarts)])
    parts = np.split(draws, 2 * np.cumsum(d)[:-1], axis=1)  # per party: real, then imaginary
    vs = [part[:, :di] + 1j * part[:, di:] for part, di in zip(parts, d)]
    out = tuple(v / _row_norms(v)[:, None] for v in vs)
    for v in out:
        v.flags.writeable = False
    return out


def _descend(tensor, dims, tols, states):
    """Coordinate descent, in place, from the party states ``states[i][k, :, r]``
    of observable k's restart r: a qubit's projector coordinates, any other
    party's unit vector. Returns each restart's value and whether it
    converged, as ``(n, R)`` arrays.

    Observable k's coordinates are ``tensor[k]``, one axis per party, and its
    restarts have converged once a sweep moves their value by at most
    ``tols[k]``. Party i's step is one stacked matmul per sweep: the
    observable's coordinates with party i's axis first, ``(n, d_i^2, rest)``,
    laid out once, times the other parties' coordinates, ``(n, rest, R)``,
    their outer product in party order. A restart that converges, or reaches
    `MAX_SWEEPS` sweeps, is read out at the end of the sweep and goes idle: it
    skips the `eigh` steps, the costly ones, and is no longer read, but keeps
    its column, so its observable's matmuls keep their R columns. An
    observable leaves the working arrays once all its restarts are idle.
    Every step acts on each observable alone, with one shape throughout, so no
    result depends on the other observables.
    """
    n, r = states[0].shape[0], states[0].shape[-1]
    values, converged = np.empty((n, r)), np.zeros((n, r), dtype=bool)
    at = np.arange(n)  # the observable in each working row
    left = [np.ascontiguousarray(np.moveaxis(tensor, 1 + i, 1).reshape(n, di * di, -1))
            for i, di in enumerate(dims)]
    cur = [s.copy() for s in states]
    busy, last = np.ones((n, r), dtype=bool), np.full((n, r), np.inf)

    def outer(a, b):
        return (a[:, :, None] * b[:, None]).reshape(len(a), -1, r)

    for sweep in range(1, MAX_SWEEPS + 1):
        for i, di in enumerate(dims):
            others = [c if dj == 2 else _ket_coordinates(c)
                      for j, (c, dj) in enumerate(zip(cur, dims)) if j != i]
            v = left[i] @ (reduce(outer, others) if others else np.ones((len(at), 1, r)))
            if di == 2:
                new, cur[i] = _bloch_step(v.real)
            else:
                new = last.copy()
                new[busy], np.moveaxis(cur[i], 1, 0)[:, busy] = _eigh_step(
                    np.moveaxis(v, 1, 0)[:, busy], di)
        done = np.abs(new - last) <= tols[at, None]
        last = new
        free = busy & (done | (sweep == MAX_SWEEPS))
        if not free.any():
            continue
        k, col = np.nonzero(free)
        values[at[k], col], converged[at[k], col] = new[k, col], done[k, col]
        for s, c in zip(states, cur):
            s[at[k], :, col] = c[k, :, col]
        busy &= ~free
        keep = busy.any(axis=1)
        if not keep.any():
            break
        if not keep.all():
            at, busy, last = at[keep], busy[keep], last[keep]
            left, cur = [x[keep] for x in left], [c[keep] for c in cur]
    return values, converged


def _product_expectations(stack: np.ndarray, pair) -> np.ndarray:
    """``<chi|O|chi>`` for each observable O of the bipartite stack, at
    ``chi = pair[0][k] (x) pair[1][k]``."""
    chi = (pair[0][:, :, None] * pair[1][:, None, :]).reshape(stack.shape[:2])
    return (np.conj(chi)[:, None, :] @ stack @ chi[:, :, None]).real[:, 0, 0]


def _shifted_pure_minima(stack: np.ndarray, dims: tuple[int, int]):
    """The observables of the bipartite stack of the form ``c I - |psi><psi|``
    or ``c I + |psi><psi|``, as a mask, and for those the exact product
    minimum and a product vector attaining it, as its two factors. With psi's
    Schmidt pairs ``(u_j, v_j)``: for the minus sign, ``u_1 (x) v_1``, value
    ``c - s_1(psi)^2`` (Eckart-Young); for the plus sign, ``u_1 (x) v_2``,
    which is orthogonal to psi, value c. Each value is ``<chi|O|chi>``.

    The form is read from the ascending eigenvalues w, with t = `TOL_SHIFTED_PURE`:
    the minus sign holds when ``w[-1] - w[1] <= t max|w|`` (psi the eigenvector
    of w[0]), else the plus sign when ``w[-2] - w[0] <= t max|w|`` (of w[-1]).
    """
    w, vecs = np.linalg.eigh(stack)
    tol = TOL_SHIFTED_PURE * np.abs(w).max(axis=1)
    minus = w[:, -1] - w[:, 1] <= tol
    plus = ~minus & (w[:, -2] - w[:, 0] <= tol)
    exact = minus | plus
    count = int(exact.sum())
    psi = vecs[exact][range(count), :, np.where(plus[exact], -1, 0)]
    u, _, vh = np.linalg.svd(psi.reshape(count, *dims))
    pair = (u[:, :, 0], vh[range(count), plus[exact].astype(int), :])
    return exact, _product_expectations(stack[exact], pair), pair


# The Minkowski metric J on a qubit's coordinates (1, n), n its Bloch vector.
LORENTZ = np.array([1.0, -1.0, -1.0, -1.0])


def _dual_bound(mu, k, p, r, quad, a2):
    """At multiplier mu, per row: the least s with ``S(c - s, mu)`` PSD and
    ``(s, alpha)`` future-pointing, whether there is one, and z.

    In the eigenbasis of ``K = B J B^T`` (eigenvalues k, rows last), with
    ``y = s p + r`` the coordinates of ``B J l`` and quad holding ``p^2``,
    ``p r`` and ``r^2``, Woodbury gives ``mu (1 + l^T G^-1 l) = g s^2 + 2 h s
    + e`` for ``G = -B^T B - mu J``. Above every pole G has one negative
    eigenvalue, so ``S = l l^T + G`` is PSD iff that quadratic is <= 0; s is
    its root where it falls, ``e / (root - h)`` or ``-(h + root) / g``,
    whichever cancels nothing. None falls on the future branch when the
    discriminant is negative, or when g and h are both >= 0. With
    ``z = y / (mu + k)``, ``ds/dmu`` has the sign of ``1 - |z|^2``.
    """
    w = 1.0 / (mu + k)
    g, h, e = (quad * w).sum(axis=1)
    g, e = g - 1.0, e + a2 + mu
    disc = h * h - g * e
    feasible = (disc >= 0.0) & ((h < 0.0) | (g < 0.0))
    root = np.sqrt(np.maximum(disc, 0.0))
    falls = h < 0.0
    s = np.where(falls, e, h + root) / np.where(feasible, np.where(falls, root - h, -g), 1.0)
    return s, feasible, (s * p + r) * w


def _two_qubit_duals(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A dual certificate ``(tau, mu)`` per ``(4, 4)`` Pauli coordinate tensor
    of the stack t, taken of observables of unit Frobenius norm, and
    ``mu G^-1 l``, a null vector of its S, one row each.

    With ``t = [[c, beta^T], [alpha, M]]``, ``4 <a (x) b|O|a (x) b> = c + alpha.n
    + beta.m + n^T M m`` for Bloch vectors n, m; over m its least value is
    ``c + alpha.n - |B x|`` with ``x = (1, n)`` and ``B x = beta + M^T n``. So
    tau bounds 4 times the product minimum when ``tau <= c - |alpha|`` and
    ``S = Lam J Lam^T - mu J`` is PSD for ``Lam = t - tau e_0 e_0^T``: on
    lightlike x, ``x^T S x = (l.x)^2 - |B x|^2`` with ``l = (c - tau, alpha)``.
    By Finsler's lemma such a mu exists at the true minimum. Above the
    largest pole ``max(0, -k_min)`` the least ``s = c - tau`` at mu
    (`_dual_bound`) was unimodal in mu, and its stationary point is where
    ``x = G^-1 l`` is lightlike; `DUAL_STEPS` bisection steps on the sign of
    its slope find it, a mu where no s exists counting as below it. The
    bracket's top ``lo + (|c| + 4)^2`` lies above the optimum, since
    ``mu <= s^2`` and ``s <= |c| + 4`` at unit norm; it is feasible, so the mu
    returned, the bracket's final top, is too, and tau is exact there.
    Woodbury gives ``mu G^-1 l = -J (l - t[:, 1:] V z)``.
    """
    c, beta = t[:, 0, 0], t[:, 0, 1:]
    alpha, m = t[:, 1:, 0], t[:, 1:, 1:]
    side = t[:, :, 1:]
    k, vecs = np.linalg.eigh((side[:, :, :, None] * (LORENTZ[:, None] * side)[:, :, None, :])
                             .sum(axis=1))
    mt_alpha = (m * alpha[:, :, None]).sum(axis=1)
    p = (vecs * beta[:, :, None]).sum(axis=1).T
    r = -(vecs * mt_alpha[:, :, None]).sum(axis=1).T
    k, a2, quad = k.T, (alpha * alpha).sum(axis=1), np.array([p * p, p * r, r * r])
    lo = np.maximum(-k[0], 0.0)
    hi = lo + (np.abs(c) + 4.0) ** 2
    for _ in range(DUAL_STEPS):
        mid = 0.5 * (lo + hi)
        _, feasible, z = _dual_bound(mid, k, p, r, quad, a2)
        up = ~feasible | ((z * z).sum(axis=0) > 1.0)
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    s, _, z = _dual_bound(hi, k, p, r, quad, a2)
    ell = t[:, :, 0].copy()
    ell[:, 0] -= c - s
    ell -= (side * (vecs * z.T[:, None, :]).sum(axis=2)[:, None, :]).sum(axis=2)
    return c - s, hi, -LORENTZ * ell


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row of the ``(n, 3)`` v scaled to unit length; +z where the row is 0.
    As in `_bloch_step`, every step here gives a row the same bits in any batch."""
    length = np.sqrt((v * v).sum(axis=1))
    flat = length == 0.0
    v = v / np.where(flat, 1.0, length)[:, None]
    v[flat] = (0.0, 0.0, 1.0)
    return v


def _two_qubit_minima(stack: np.ndarray, dims: tuple[int, int]):
    """The nonzero observables of the ``(2, 2)`` stack whose product minimum a
    dual certificate proves, as a mask, and for those the minimum and a
    product vector attaining it, as its two factors.

    Each observable is taken at unit Frobenius norm (its size from
    `_row_norms`) in Pauli coordinates t, and `_two_qubit_duals` gives its
    certificate ``(tau, mu)``. The minimizer's ``x = (1, n)`` is a lightlike
    null vector of ``S(tau, mu)``. Four candidates are tried: ``mu G^-1 l``,
    which is one unless mu sits on a pole; the two lightlike vectors in the
    span of S's two lowest eigenvectors, for a null space of two dimensions;
    and the lowest eigenvector. The one whose n gives the least value, once m
    is solved for, is taken. An observable is solved when the certificate
    holds, ``lambda_min(S) >= -CERT_PSD_RTOL`` and ``tau <= c - |alpha| +
    CERT_CONE_RTOL``, and the attained ``<chi|O|chi>`` is within ``TOL_SWEEP
    ||O||_F`` of ``tau / 4``. Each row's steps are its own, so no result
    depends on the other rows.
    """
    scale = _row_norms(stack.reshape(len(stack), -1))
    t = _observable_coordinates(stack / scale[:, None, None], dims)
    tau, mu, null = _two_qubit_duals(t)
    lam = t.copy()
    lam[:, 0, 0] -= tau
    cert = (lam[:, :, None, :] * (lam * LORENTZ)[:, None, :, :]).sum(axis=-1)
    cert -= mu[:, None, None] * np.diag(LORENTZ)
    low, vecs = np.linalg.eigh(cert)
    v1, v2 = vecs[:, :, 0], vecs[:, :, 1]
    a, b, d = ((x * LORENTZ * y).sum(axis=1) for x, y in ((v1, v1), (v1, v2), (v2, v2)))
    q = -(b + np.copysign(np.sqrt(np.maximum(b * b - a * d, 0.0)), b))
    # each candidate x gives n along the spatial part of whichever of x, -x points to the future
    candidates = (null, q[:, None] * v1 + a[:, None] * v2, d[:, None] * v1 + q[:, None] * v2, v1)
    ns = np.array([_unit_rows(np.where(x[:, :1] < 0.0, -x[:, 1:], x[:, 1:])) for x in candidates])
    us = t[:, 0, :] + (ns[..., None] * t[:, 1:, :]).sum(axis=2)  # twice b's effective coordinates
    pick = np.argmin(us[..., 0] - np.sqrt((us[..., 1:] ** 2).sum(axis=-1)), axis=0)
    rows = np.arange(len(stack))
    n, m = ns[pick, rows], _unit_rows(-us[pick, rows, 1:])
    pair = tuple(_bloch_ket(np.concatenate([np.full((1, len(f)), 0.5), f.T / 2.0])).T
                 for f in (n, m))
    values = _product_expectations(stack, pair)
    holds = (low[:, 0] >= -CERT_PSD_RTOL) & (
        tau <= t[:, 0, 0] - np.sqrt((t[:, 1:, 0] ** 2).sum(axis=1)) + CERT_CONE_RTOL)
    solved = holds & (values / scale - tau / 4.0 <= TOL_SWEEP)
    return solved, values[solved], tuple(f[solved] for f in pair)


def _descent_minima(stack: np.ndarray, d: tuple[int, ...], config: OptimizerConfig):
    """Multi-start `_descend` of every observable of the stack, from the
    config's restarts: per observable, the best restart's value, whether it
    converged, the restart spread and the best restart's party kets."""
    count = len(stack)
    scale = _row_norms(stack.reshape(count, -1))
    starts = [_ket_coordinates(s.T) if di == 2 else s.T for s, di in zip(_starts(d, config), d)]
    states = [np.repeat(s[None], count, axis=0) for s in starts]
    values, converged = _descend(_observable_coordinates(stack, d), d, TOL_SWEEP * scale, states)
    low = values.min(axis=1)
    # lowest value wins; ties (within the convergence tolerance) go to the earliest restart
    first = np.argmax(values <= (low + TOL_SWEEP * scale)[:, None], axis=1)
    rows = np.arange(count)
    kets = [_bloch_ket(s[rows, :, first].T).T if di == 2 else s[rows, :, first]
            for s, di in zip(states, d)]
    return values[rows, first], converged[rows, first], values.max(axis=1) - low, kets


class ProductMinima(NamedTuple):
    """`product_minima` of a stack of n observables, one entry per observable.

    A descended observable is `converged` when its best restart's last sweep
    moved the value by at most ``TOL_SWEEP ||O||_F``: a stopping rule, not a
    bound on the distance to the true minimum, which can exceed it (a
    two-qubit dual once sat 1.08e-11 above, against a 4.3e-12 tolerance).
    """

    values: np.ndarray         # (n,) attained product minima
    kets: tuple[np.ndarray, ...]  # per party, (n, d_i) unit vectors attaining them
    restarts_used: np.ndarray  # (n,) 0 where solved exactly, else the config's restarts
    converged: np.ndarray      # (n,) bool
    spread: np.ndarray         # (n,) largest minus smallest restart value


def product_minima(stack, dims, config: OptimizerConfig | None = None) -> ProductMinima:
    """`min_over_products` of each observable of an ``(n, D, D)`` stack, as arrays.

    A bipartite observable ``c I - |psi><psi|`` or ``c I + |psi><psi|`` is
    solved exactly (`_shifted_pure_minima`), and then any other two-qubit
    observable whose dual certificate holds (`_two_qubit_minima`): its value
    is ``<chi|O|chi>`` at the product vector found there, with no restarts
    (`restarts_used` 0, converged, spread 0). One `_descend` runs the others,
    each with the config's restarts. The stack gets a shape check, a check
    that every entry is finite and a Hermitian check
    (``max|O - O^dagger| <= OBSERVABLE_RTOL max|O|`` per observable). Each
    entry is bitwise the one the observable gets alone.
    """
    dims = DimList.of(dims)
    config = config or DEFAULT_CONFIG
    stack = np.asarray(stack, dtype=complex)
    if stack.ndim != 3 or stack.shape[1:] != (dims.total, dims.total):
        raise DimensionError(f"observable stack shape {stack.shape} does not match dims {dims.dims}")
    finite(stack, "observables")
    adjoint = np.conj(stack.transpose(0, 2, 1))
    size = np.abs(stack).max(axis=(1, 2))
    if np.any(np.abs(stack - adjoint).max(axis=(1, 2)) > OBSERVABLE_RTOL * size):
        raise DimensionError(f"observable must be Hermitian (to {OBSERVABLE_RTOL:g} of its"
                             " largest entry)")
    stack = (stack + adjoint) / 2.0
    d = dims.dims
    count = len(stack)
    values, converged, spread = np.empty(count), np.ones(count, dtype=bool), np.zeros(count)
    used = np.full(count, config.restarts)
    kets = tuple(np.empty((count, di), dtype=complex) for di in d)
    exact = np.zeros(count, dtype=bool)
    solvers = [_shifted_pure_minima] if len(d) == 2 else []
    if d == (2, 2):
        solvers.append(_two_qubit_minima)
    for solve in solvers:
        open_rows = np.flatnonzero(~exact)
        if not open_rows.size:
            break
        solved, found, pair = solve(stack[open_rows], d)
        rows = open_rows[solved]
        exact[rows], values[rows], used[rows] = True, found, 0
        for ket, f in zip(kets, pair):
            ket[rows] = f
    rest = ~exact
    if rest.any():
        values[rest], converged[rest], spread[rest], found = _descent_minima(stack[rest], d, config)
        for ket, f in zip(kets, found):
            ket[rest] = f
    for ket in kets:
        if np.any(np.abs(_row_norms(ket) - 1.0) > UNIT_ATOL):
            raise DimensionError("every party factor must be a unit vector")
    return ProductMinima(values, kets, used, converged, spread)


def min_over_products(obs, dims, config: OptimizerConfig | None = None) -> OptimizationResult:
    """Approximate min of <chi|obs|chi> over normalized product vectors.

    The one-row view of `product_minima`, deterministic for a fixed config;
    the value is attained by `argument`, hence an upper bound on the true minimum.
    """
    found = product_minima(as_matrix(obs)[None], dims, config)
    argument = ProductStateParam(tuple(k[0] for k in found.kets))
    return OptimizationResult(found.values[0].item(), argument, found.restarts_used[0].item(),
                              found.converged[0].item(), found.spread[0].item())


def max_over_products(obs, dims, config: OptimizerConfig | None = None) -> OptimizationResult:
    """Approximate max of <chi|obs|chi> over normalized product vectors."""
    res = min_over_products(-as_matrix(obs), dims, config)
    return replace(res, value=-res.value)


class WitnessCheck(NamedTuple):
    is_witness: bool
    result: OptimizationResult  # result.argument is the violating state when not


def is_witness(w: Witness, config: OptimizerConfig | None = None) -> WitnessCheck:
    """Check non-negativity over product (hence separable) states, to
    ``TOL_WITNESS`` times the witness's Frobenius norm."""
    res = min_over_products(w.operator, w.dims, config)
    return WitnessCheck(res.value >= -TOL_WITNESS * np.linalg.norm(w.operator), res)


def is_trivial(w: Witness) -> bool:
    """A witness PSD to `TEST_PSD_RTOL` (`is_psd`) detects nothing at any scale."""
    return is_psd(w.operator, TEST_PSD_RTOL)


def lambda_min(test_op, dims, config: OptimizerConfig | None = None) -> float:
    """Smallest shift making ``lambda*I - test_op`` a witness.

    Equals the maximum of <test_op> over separable states; the witness
    shifted by exactly this value touches zero on a product state. The test
    operator must be PSD to `TEST_PSD_RTOL` (`is_psd`).
    """
    test_op = as_matrix(test_op)
    if not is_psd((test_op + dagger(test_op)) / 2, TEST_PSD_RTOL):
        raise DimensionError("test operator must be PSD")
    return max_over_products(test_op, dims, config).value


def compare_finer_shifted(w1: Witness, w2: Witness, config: OptimizerConfig | None = None) -> str:
    """Order two shifted witnesses with the same test operator.

    The smaller shift detects strictly more states (provided both shifts stay
    above lambda_min, checked here). Returns "w1_finer", "w2_finer" or
    "equal"; test operators agree, and shifts are equal, to `WITNESS_RTOL`
    of their own size, else the witnesses are incomparable.
    """
    if w1.shifted is None or w2.shifted is None:
        raise IncomparableWitnessError("both witnesses must carry a shifted form")
    lam1, test1 = w1.shifted
    lam2, test2 = w2.shifted
    size = max(np.abs(test1).max(), np.abs(test2).max())
    if test1.shape != test2.shape or np.abs(test1 - test2).max() > WITNESS_RTOL * size:
        raise IncomparableWitnessError("shifted witnesses have different test operators")
    floor = lambda_min(test1, w1.dims, config)
    if min(lam1, lam2) < floor - TOL_WITNESS * np.linalg.norm(test1):
        raise NotAWitnessError(f"shift below lambda_min={floor}: not a witness, comparison is void")
    if abs(lam1 - lam2) <= WITNESS_RTOL * max(abs(lam1), abs(lam2)):
        return "equal"
    return "w1_finer" if lam1 < lam2 else "w2_finer"


def is_optimal(w: Witness, config: OptimizerConfig | None = None) -> bool:
    """A witness is optimal here iff some product state brings it to zero, to
    ``TOL_WITNESS`` times its Frobenius norm: the mirror of `is_witness`."""
    check = is_witness(w, config)
    if not check.is_witness:
        raise NotAWitnessError(f"operator is not a witness (min {check.result.value})")
    return check.result.value <= TOL_WITNESS * np.linalg.norm(w.operator)


def ppt_witness_from_pure(psi: PureState) -> Witness:
    """Partial transpose of an entangled pure projector, as an optimal witness."""
    psi.dims.require_bipartite()
    if schmidt_rank(psi) < 2:
        raise DimensionError("product state gives a trivial (PSD) witness; refusing")
    op = partial_transpose(psi.projector(), psi.dims, 1)
    op = (op + dagger(op)) / 2.0
    return Witness(op, psi.dims, label="ppt_pure")


def schmidt_class_max(test_op, r: int, dims, config: OptimizerConfig | None = None) -> float:
    """Max of <psi|test_op|psi> over pure states of Schmidt rank <= r.

    Multi-start power iteration with rank-r truncation after every step (the
    test operator is shifted to be PSD first, which leaves the maximizer
    unchanged). The Hermitian check (`OBSERVABLE_RTOL`), the shift and the
    stopping tolerance are relative, so the value scales with the operator.
    r = min(d1, d2) reduces to the largest eigenvalue; r = 1 agrees with
    `max_over_products`.
    """
    dims = DimList.of(dims)
    dims.require_bipartite()
    test_op = as_matrix(test_op)
    dims.check_matrix(test_op)
    if not is_hermitian(test_op, OBSERVABLE_RTOL * np.abs(test_op).max()):
        raise DimensionError("test operator must be Hermitian")
    d1, d2 = dims.dims
    if not 1 <= r <= min(d1, d2):
        raise DimensionError(f"Schmidt class r={r} outside 1..{min(d1, d2)}")
    config = config or DEFAULT_CONFIG
    evals = np.linalg.eigvalsh(test_op)
    size = float(np.max(np.abs(evals)))
    if size == 0.0:
        return 0.0
    shift = max(0.0, -float(evals[0])) + size
    lifted = test_op + shift * np.eye(dims.total)

    r_count = config.restarts
    rng = np.random.default_rng(config.seed)
    psi = rng.normal(size=(r_count, d1, d2)) + 1j * rng.normal(size=(r_count, d1, d2))

    def truncate(stack):
        u, s, vh = np.linalg.svd(stack, full_matrices=False)
        s[:, r:] = 0.0
        out = np.einsum("zik,zk,zkj->zij", u, s, vh)
        return out / np.linalg.norm(out.reshape(r_count, -1), axis=1)[:, None, None]

    psi = truncate(psi)
    prev = np.full(r_count, -np.inf)
    for _ in range(MAX_SWEEPS):
        psi = truncate((psi.reshape(r_count, -1) @ lifted.T).reshape(r_count, d1, d2))
        vec = psi.reshape(r_count, -1)
        vals = np.real(np.einsum("zi,ij,zj->z", np.conj(vec), test_op, vec))
        if np.max(np.abs(vals - prev)) < TOL_POWER * size:
            break
        prev = vals
    return float(vals.max())


# -- closed forms for the two benchmark scans --------------------------

# Most points per block of `unitary_mix_scan_min`: each holds a row of 721 angles
CLOSED_FORM_BLOCK = 256


def _scan_points(p, q, top: float, total: float) -> tuple[np.ndarray, np.ndarray]:
    """(p, q) as float arrays of one shape, each entry in 0 <= p, q <= top, p + q <= total."""
    p, q = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    bad = np.flatnonzero(~((0.0 <= p) & (p <= top) & (0.0 <= q) & (q <= top) & (p + q <= total)))
    if bad.size:
        raise EntpowError(f"(p, q) = ({p.flat[bad[0]]}, {q.flat[bad[0]]}) outside the domain")
    return p, q


def measurement_scan_min(p, q):
    """Exact product-state minimum of the dual swap witness for the
    two-outcome singlet-detector channel.

    The dual observable is a linear pencil in x = <singlet projector>, which
    ranges over [0, 1/2] on product states, so the minimum sits at an
    endpoint: min(1 - 2q, (1 - 3p)/4 + (1 - 2q)/2). Scalar `p`, `q` give a
    float, arrays an array; an entry outside the unit square is an `EntpowError`.
    """
    p, q = _scan_points(p, q, 1.0, 2.0)
    out = np.minimum(1.0 - 2.0 * q, (1.0 - 3.0 * p) / 4.0 + (1.0 - 2.0 * q) / 2.0)
    return float(out) if out.ndim == 0 else out


def _unitary_mix_peak(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Max over t of <L> in `unitary_mix_scan_min`, per entry of 1-D p and q."""
    p, q = p[:, None], q[:, None]
    a2, b = (1.0 - p - 2.0 * q) ** 2, 1.0 - p

    def value(t):
        c, s = np.cos(t), np.sin(t)
        return ((1.0 + p * c) + np.sqrt(a2 * c * c + (b * s + p + p * c) ** 2)) / 4.0

    theta = np.linspace(0.0, 2.0 * np.pi, 721)
    grid, h = value(theta), theta[1]
    t = theta[np.argmax(grid, axis=1), None]
    # central-difference Newton steps, at most one grid spacing and only where
    # the curve bends down; the grid peak stays the answer at sqrt kinks
    for span in (h, 1e-4, 1e-6):
        lo, mid, hi = (value(t + d) for d in (-span, 0.0, span))
        bend = 2.0 * (lo + hi - 2.0 * mid)
        step = np.divide(span * (lo - hi), bend, out=np.zeros_like(t), where=bend < 0.0)
        t = t + np.clip(step, -h, h)
    return np.fmax(grid.max(axis=1), value(t)[:, 0])


def unitary_mix_scan_min(p, q, shift: float = 0.8):
    """Product-state minimum of ``shift*I - L`` pulled back through the
    identity/controlled-X/local-flip unitary mixture with weights
    (1-p-q, p, q).

    Real amplitudes suffice, and the best first-party vector leaves one angle
    t of the second party: <L> = (1 + p cos t + sqrt((1-p-2q)^2 cos^2 t +
    ((1-p) sin t + p + p cos t)^2)) / 4, maximized as the larger of the best of
    721 grid angles and three Newton steps from it. Scalar `p`, `q` give a
    float, arrays an array (in blocks of `CLOSED_FORM_BLOCK` points, each value
    bitwise its point's alone); p, q >= 0, p + q <= 1 or `EntpowError`.
    """
    p, q = _scan_points(p, q, 1.0 + COORD_ATOL, 1.0 + GRID_ATOL)
    flat_p, flat_q, out = p.ravel(), q.ravel(), np.empty(p.size)
    for lo in range(0, p.size, CLOSED_FORM_BLOCK):
        block = slice(lo, lo + CLOSED_FORM_BLOCK)
        out[block] = shift - _unitary_mix_peak(flat_p[block], flat_q[block])
    return float(out[0]) if p.ndim == 0 else out.reshape(p.shape)


class MixShiftResult(NamedTuple):
    lambda_prime: float
    witness: Witness  # the dual witness, rescaled by 1/p
    scale: float      # p: dual output equals scale * witness.operator


def mixing_shifted_dual(p: float, sigma, w: Witness) -> MixShiftResult:
    """Shifted form of the dual of a mixing channel on a shifted witness.

    For the channel ``rho -> p rho + (1-p) Tr(rho) sigma`` and W = lambda*I - L,
    the dual output is ``p * (lambda' I - L)`` with
    ``lambda' = lambda/p - ((1-p)/p) <L>_sigma``. Mixing with separable sigma
    can only raise the shift (never yields a finer witness).
    """
    if w.shifted is None:
        raise IncomparableWitnessError("witness must carry a shifted form")
    if not 0.0 < p <= 1.0:
        raise DimensionError(f"need 0 < p <= 1, got {p}")
    lam, test = w.shifted
    mean = float(np.real(np.trace(sigma.matrix @ test)))
    lam_prime = lam / p - (1.0 - p) / p * mean
    out = Witness.from_shift(lam_prime, test, w.dims, label="mixed_dual")
    return MixShiftResult(lam_prime, out, float(p))


def swap_witness(d: int) -> Witness:
    """The swap operator as a witness (zero on products, -1 on the singlet)."""
    return Witness(swap_matrix(d), DimList((d, d)), label="swap")


def default_witness_family(dims) -> list[Witness]:
    """Reference witnesses used by channel certification.

    Contains (in order): the swap witness for equal local dimensions, the
    lambda_min-shifted witnesses for each maximally entangled rank, and, for
    unequal local dimensions, the partial-transpose witness of the maximally
    entangled state. No member is a positive multiple of another, since such
    a pair fires together: for d1 = d2 that partial transpose is ``swap / d``,
    and for two qubits the singlet's is ``shifted_rank2`` itself, so neither
    is included. No member is dominated by another either: the 4/5-shifted
    two-qubit ``0.8 I - Phi+`` is ``shifted_rank2`` plus ``0.3 I``, whose dual
    ``0.3 sum K^dagger K`` is PSD, so wherever it fires ``shifted_rank2`` fires
    lower. The members are built once per dims, with read-only operators; each
    call returns a new list.
    """
    dims = DimList.of(dims)
    dims.require_bipartite()
    return list(_witness_family(dims))


@lru_cache(maxsize=16)
def _witness_family(dims: DimList) -> tuple[Witness, ...]:
    d1, d2 = dims.dims
    dmin = min(d1, d2)
    family: list[Witness] = []
    if d1 == d2:
        family.append(swap_witness(d1))
    for k in range(2, dmin + 1):
        amps = schmidt_diagonal(np.full(k, 1.0 / np.sqrt(k)), dims)
        proj = np.outer(amps, np.conj(amps))
        family.append(
            Witness.from_shift(1.0 / k, proj, dims, label=f"shifted_rank{k}")
        )
    if d1 != d2:
        amps = schmidt_diagonal(np.full(dmin, 1.0 / np.sqrt(dmin)), dims)
        family.append(ppt_witness_from_pure(PureState(amps, dims)))
    for w in family:
        w.operator.flags.writeable = False
        if w.shifted is not None:
            w.shifted[1].flags.writeable = False
    return tuple(family)
