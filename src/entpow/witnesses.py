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
`min_over_products` is its one-row view: every (observable, restart) pair
is one row. Each party's projector
``conj(u) u^T`` and each observable are expanded per party in a basis: Pauli
for a qubit, with real coordinates, and otherwise the matrix units ``E_xy``,
whose coordinates are the matrix entries themselves. So every observable
becomes one tensor ``T[a_1, ..., a_n]``, real when every party is a qubit,
built once per call. A step contracts the other parties' coordinates with it
in one einsum. A qubit party then moves in closed form on the Bloch sphere
(`_bloch_step`: the length of its Bloch vector is the root of a sum of
squares, and a `hypot` chain only where that root leaves (1e-150, 1e150)); a
larger one takes the lowest eigenvector of the effective matrix that its
coordinates are, reshaped (`_eigh_step`). Qubit unit vectors are recovered only
for each observable's best row. A row that converges frees its slot for the
next waiting row (the refill), so no sweep waits on the slowest restart; a
slot keeps its row's coordinate tensors until then. No step mixes rows, so a
value does not depend on the batch it ran in; tolerances are relative to the
observable's size.

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
``b I + (a - b) |psi><psi|``. Only the other observables are descended:
those of more than two parties, and spectra of another shape, such as a
mixture of several projectors or the swap of two qutrits or larger.
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
from .tensor import DimList, as_matrix, dagger, is_hermitian, partial_transpose, swap_matrix

TOL_WITNESS = 1e-8  # minima above -TOL_WITNESS still count as a witness
TOL_ZERO = 1e-6     # minima below +TOL_ZERO count as touching zero (optimality)
TOL_SWEEP = 1e-12   # a restart converges once a sweep moves it by this, relative to ||O||_F
MAX_SWEEPS = 500    # sweeps after which a restart stops unconverged
TOL_SHIFTED_PURE = 1e-12  # eigenvalue spread of the shifted-pure form, relative to max|eigenvalue|


@dataclass(frozen=True)
class Witness:
    """Hermitian operator with non-negative expectation on all separable states.

    `shifted` optionally records the form ``lambda * I - L`` with a PSD test
    operator L; only shifted witnesses sharing the same L can be compared.
    """

    operator: np.ndarray
    dims: DimList
    shifted: tuple[float, np.ndarray] | None = None
    label: str = ""

    def __post_init__(self):
        op = as_matrix(self.operator)
        dims = DimList.of(self.dims)
        dims.check_matrix(op)
        tol = 1e-12 * np.abs(op).max()
        if not is_hermitian(op, tol):
            raise DimensionError("witness operator must be Hermitian (to 1e-12 of its largest"
                                 " entry)")
        if self.shifted is not None:
            lam, test = self.shifted
            test = as_matrix(test)
            if np.max(np.abs(op - (lam * np.eye(dims.total) - test))) > tol:
                raise DimensionError("shifted form does not match operator")
            spectrum = np.linalg.eigvalsh(test)
            if spectrum[0] < -1e-10 * np.abs(spectrum).max():
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
    """The one config of the seeded searches: `restarts` optimizer restarts,
    restart r drawn from ``default_rng(seed + r)``; `entpow.power` draws its
    image-rank probes from ``(seed, 17)`` and its decomposition search from
    ``(seed, 23)``."""

    restarts: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise EntpowError(f"optimizer needs restarts >= 1, got {self.restarts}")


DEFAULT_CONFIG = OptimizerConfig()


@dataclass(frozen=True)
class OptimizationResult:
    value: float
    argument: ProductStateParam
    restarts_used: int
    converged: bool
    spread: float


# Most rows active at once. The active set's working set is its rows times
# each party's gathered coordinate tensor, so this bounds memory on whole grids;
# a tensor is complex, twice the bytes per row, when some party has d >= 3.
BLOCK_ROWS = 2048


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
    """Per row, the coordinates q of the projector ``P = conj(u) u^T`` of a unit
    vector u, so ``P = sum_a q_a B_a``: real Pauli coordinates
    ``q_a = Tr(B_a P) / 2`` for a qubit, otherwise P's entries."""
    if u.shape[1] != 2:
        return (np.conj(u)[:, :, None] * u[:, None, :]).reshape(len(u), -1)
    return _basis_contract(u[:, :, None] * np.conj(u)[:, None, :], 2).real / 2.0


def _bloch_step(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least value of ``q . v`` over a qubit's projector coordinates
    ``q = (1, m) / 2``, m a unit Bloch vector, and the coordinates attaining it.

    The value is ``(v_0 - |v'|) / 2`` at ``m = -v' / |v'|``, for ``v' = v[1:]``;
    at ``v' = 0`` every m attains it, and m = +z (the ket |0>) is taken.
    ``|v'|`` is the root of the sum of squares, or a `hypot` chain for rows
    where that root falls outside (1e-150, 1e150), where a square may under-
    or overflow.
    """
    x, y, z = v[:, 1], v[:, 2], v[:, 3]
    with np.errstate(over="ignore", under="ignore"):
        norm = np.sqrt(x * x + y * y + z * z)
    odd = ~((norm > 1e-150) & (norm < 1e150))
    if odd.any():
        norm[odd] = np.hypot(np.hypot(x[odd], y[odd]), z[odd])
    flat = norm == 0.0
    q = np.empty_like(v)
    q[:, 0] = 0.5
    scale = -2.0 * np.where(flat, 1.0, norm)
    for a in (1, 2, 3):  # column by column: a broadcast divide of the (n, 3) block is slower
        np.divide(v[:, a], scale, out=q[:, a])
    if flat.any():
        q[flat, 1:] = (0.0, 0.0, 0.5)
    return (v[:, 0] - norm) / 2.0, q


def _bloch_ket(q: np.ndarray) -> np.ndarray:
    """A unit vector u with ``conj(u) u^T = sum_a q_a B_a`` for qubit coordinates
    ``q = (1, m) / 2``; of the two free of cancellation, the one with a real
    non-negative second entry when m_z <= 0, and first entry otherwise."""
    m1, m2, m3 = 2.0 * q[:, 1], 2.0 * q[:, 2], 2.0 * q[:, 3]
    up = m3 <= 0.0
    ket = np.stack([np.where(up, m1 + 1j * m2, 1.0 + m3),
                    np.where(up, 1.0 - m3, m1 - 1j * m2)], axis=1)
    return ket / np.hypot(np.hypot(m1, m2), 1.0 + np.abs(m3))[:, None]


def _eigh_step(v: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Least value of ``q . v`` over the projector coordinates q of a unit
    vector of dimension d, and that vector: the lowest eigenpair of the
    effective matrix ``v.reshape(d, d)``, read from its lower triangle."""
    evals, evecs = np.linalg.eigh(v.reshape(len(v), d, d))
    return evals[:, 0], evecs[:, :, 0]


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, by the dot products `np.linalg.norm` takes of one
    vector; a nonzero row whose norm leaves (1e-150, 1e150), where a square may
    under- or overflow, is divided by its largest |entry| first."""
    with np.errstate(over="ignore", under="ignore"):
        norm = np.sqrt(sum(x[:, None, :] @ x[:, :, None] for x in (v.real, v.imag)))[:, 0, 0]
    odd = ~((norm > 1e-150) & (norm < 1e150))
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


def _descend(tensors, dims, owner, tols, states):
    """Coordinate descent, in place, from the party states ``states[i][k]``:
    a qubit's projector coordinates, any other party's unit vector. Returns
    each row's value and whether it converged.

    Row k minimizes observable ``owner[k]``, whose coordinates with party i's
    axis first are ``tensors[i][owner[k]]``, and has converged once a sweep
    moves its value by at most ``tols[k]``. At most `BLOCK_ROWS` rows are
    active: a row that converges or reaches `MAX_SWEEPS` sweeps frees its
    slot at the end of the sweep, and the next waiting row takes it. Each
    slot holds its row's states, coordinate tensors, last value and
    tolerance, written when a row takes the slot. Every step acts on each
    row alone, so no result depends on the other rows.
    """
    rows = len(owner)
    values, converged = np.full(rows, np.inf), np.zeros(rows, dtype=bool)
    nxt = min(BLOCK_ROWS, rows)
    live, sweeps = np.arange(nxt), np.zeros(nxt, dtype=int)
    cur = [s[live] for s in states]
    gathered = [t[owner[live]] for t in tensors]
    last, tol = np.full(nxt, np.inf), tols[live]
    while live.size:
        for i, (t, di) in enumerate(zip(gathered, dims)):
            others = [c if dj == 2 else _ket_coordinates(c)
                      for j, (c, dj) in enumerate(zip(cur, dims)) if j != i]
            w = reduce(lambda a, b: (a[:, :, None] * b[:, None, :]).reshape(len(a), -1),
                       others[1:], others[0]) if others else np.ones((live.size, 1))
            v = np.einsum("nm,nam->na", w, t)
            new, cur[i] = _bloch_step(v.real) if di == 2 else _eigh_step(v, di)
        sweeps += 1
        done = np.abs(new - last) <= tol
        last = new
        free = np.flatnonzero(done | (sweeps >= MAX_SWEEPS))
        if not free.size:
            continue
        gone = live[free]
        values[gone], converged[gone] = new[free], done[free]
        for s, c in zip(states, cur):
            s[gone] = c[free]
        fresh = np.arange(nxt, min(nxt + free.size, rows))
        nxt += fresh.size
        fill, free = free[:fresh.size], free[fresh.size:]
        live[fill], sweeps[fill], last[fill], tol[fill] = fresh, 0, np.inf, tols[fresh]
        for c, s in zip(cur, states):
            c[fill] = s[fresh]
        own = owner[fresh]
        for g, t in zip(gathered, tensors):
            g[fill] = t[own]
        if free.size:  # nothing left waiting: drop the idle slots
            keep = np.ones(live.size, dtype=bool)
            keep[free] = False
            live, sweeps, last, tol = live[keep], sweeps[keep], last[keep], tol[keep]
            cur = [c[keep] for c in cur]
            gathered = [g[keep] for g in gathered]
    return values, converged


def _shifted_pure_minima(stack: np.ndarray, dims: tuple[int, int]):
    """The observables of the bipartite stack of the form ``c I - |psi><psi|``
    or ``c I + |psi><psi|``, as a mask, and for those a product vector
    attaining the exact product minimum, as its two factors. With psi's
    Schmidt pairs ``(u_j, v_j)``: for the minus sign, ``u_1 (x) v_1``, value
    ``c - s_1(psi)^2`` (Eckart-Young); for the plus sign, ``u_1 (x) v_2``,
    which is orthogonal to psi, value c.

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
    return exact, (u[:, :, 0], vh[range(count), plus[exact].astype(int), :])


def _descent_minima(stack: np.ndarray, d: tuple[int, ...], config: OptimizerConfig):
    """Multi-start `_descend` over every (observable, restart) row of the
    stack: per observable, the best row's value, whether it converged, the
    restart spread and the best row's party kets."""
    count = len(stack)
    scale = _row_norms(stack.reshape(count, -1))
    coords = _observable_coordinates(stack, d)
    tensors = [np.ascontiguousarray(np.moveaxis(coords, 1 + i, 1).reshape(count, di * di, -1))
               for i, di in enumerate(d)]
    starts = [_ket_coordinates(s) if di == 2 else s for s, di in zip(_starts(d, config), d)]
    r_count = len(starts[0])
    owner = np.repeat(np.arange(count), r_count)
    states = [np.tile(s, (count, 1)) for s in starts]
    values, converged = _descend(tensors, d, owner, TOL_SWEEP * scale[owner], states)
    per_obs = values.reshape(count, r_count)
    low = per_obs.min(axis=1)
    # lowest value wins; ties (within the convergence tolerance) go to the earliest restart
    first = np.argmax(per_obs <= (low + TOL_SWEEP * scale)[:, None], axis=1)
    best = np.arange(count) * r_count + first
    kets = [_bloch_ket(s[best]) if di == 2 else s[best] for s, di in zip(states, d)]
    return values[best], converged[best], per_obs.max(axis=1) - low, kets


class ProductMinima(NamedTuple):
    """`product_minima` of a stack of n observables, one entry per observable."""

    values: np.ndarray         # (n,) attained product minima
    kets: tuple[np.ndarray, ...]  # per party, (n, d_i) unit vectors attaining them
    restarts_used: np.ndarray  # (n,) 0 where solved exactly, else the config's restarts
    converged: np.ndarray      # (n,) bool
    spread: np.ndarray         # (n,) largest minus smallest restart value


def product_minima(stack, dims, config: OptimizerConfig | None = None) -> ProductMinima:
    """`min_over_products` of each observable of an ``(n, D, D)`` stack, as arrays.

    A bipartite observable ``c I - |psi><psi|`` or ``c I + |psi><psi|`` is
    solved exactly (`_shifted_pure_minima`): its value is ``<chi|O|chi>`` at
    the product vector found there, with no restarts (`restarts_used` 0,
    converged, spread 0). Every (observable, restart) pair of the others is
    one row, and one `_descend` runs them all. The stack gets a shape check, a
    check that every entry is finite and a Hermitian check
    (``max|O - O^dagger| <= 1e-8 max|O|`` per observable). Each entry is
    bitwise the one the observable gets alone.
    """
    dims = DimList.of(dims)
    config = config or DEFAULT_CONFIG
    stack = np.asarray(stack, dtype=complex)
    if stack.ndim != 3 or stack.shape[1:] != (dims.total, dims.total):
        raise DimensionError(f"observable stack shape {stack.shape} does not match dims {dims.dims}")
    if not np.isfinite(stack).all():
        raise DimensionError("observable entries must be finite")
    adjoint = np.conj(stack.transpose(0, 2, 1))
    if np.any(np.abs(stack - adjoint).max(axis=(1, 2)) > 1e-8 * np.abs(stack).max(axis=(1, 2))):
        raise DimensionError("observable must be Hermitian (to 1e-8 of its largest entry)")
    stack = (stack + adjoint) / 2.0
    d = dims.dims
    count = len(stack)
    values, converged, spread = np.empty(count), np.ones(count, dtype=bool), np.zeros(count)
    used = np.full(count, config.restarts)
    kets = tuple(np.empty((count, di), dtype=complex) for di in d)
    exact = np.zeros(count, dtype=bool)
    if len(d) == 2:
        exact, pair = _shifted_pure_minima(stack, d)
        chi = (pair[0][:, :, None] * pair[1][:, None, :]).reshape(len(pair[0]), dims.total)
        values[exact] = (np.conj(chi)[:, None, :] @ stack[exact] @ chi[:, :, None]).real[:, 0, 0]
        used[exact] = 0
        for ket, f in zip(kets, pair):
            ket[exact] = f
    rest = ~exact
    if rest.any():
        values[rest], converged[rest], spread[rest], found = _descent_minima(stack[rest], d, config)
        for ket, f in zip(kets, found):
            ket[rest] = f
    for ket in kets:
        if np.any(np.abs(_row_norms(ket) - 1.0) > 1e-9):
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
    """Check non-negativity over product (hence separable) states."""
    res = min_over_products(w.operator, w.dims, config)
    return WitnessCheck(res.value >= -TOL_WITNESS, res)


def is_trivial(w: Witness) -> bool:
    """A PSD witness detects nothing: non-negative on every state."""
    return bool(np.linalg.eigvalsh(w.operator)[0] >= -1e-10)


def lambda_min(test_op, dims, config: OptimizerConfig | None = None) -> float:
    """Smallest shift making ``lambda*I - test_op`` a witness.

    Equals the maximum of <test_op> over separable states; the witness
    shifted by exactly this value touches zero on a product state.
    """
    test_op = as_matrix(test_op)
    if np.linalg.eigvalsh((test_op + dagger(test_op)) / 2)[0] < -1e-10:
        raise DimensionError("test operator must be PSD")
    return max_over_products(test_op, dims, config).value


def compare_finer_shifted(
    w1: Witness, w2: Witness, config: OptimizerConfig | None = None
) -> str:
    """Order two shifted witnesses with the same test operator.

    The smaller shift detects strictly more states (provided both shifts stay
    above lambda_min, checked here). Returns "w1_finer", "w2_finer" or
    "equal"; witnesses with different test operators are incomparable.
    """
    if w1.shifted is None or w2.shifted is None:
        raise IncomparableWitnessError("both witnesses must carry a shifted form")
    lam1, test1 = w1.shifted
    lam2, test2 = w2.shifted
    if test1.shape != test2.shape or np.max(np.abs(test1 - test2)) > 1e-12:
        raise IncomparableWitnessError("shifted witnesses have different test operators")
    floor = lambda_min(test1, w1.dims, config)
    if min(lam1, lam2) < floor - TOL_WITNESS:
        raise NotAWitnessError(
            f"shift below lambda_min={floor}: not a witness, comparison is void"
        )
    if abs(lam1 - lam2) <= 1e-12:
        return "equal"
    return "w1_finer" if lam1 < lam2 else "w2_finer"


def is_optimal(w: Witness, config: OptimizerConfig | None = None) -> bool:
    """A witness is optimal here iff some product state brings it to zero."""
    check = is_witness(w, config)
    if not check.is_witness:
        raise NotAWitnessError(f"operator is not a witness (min {check.result.value})")
    return check.result.value <= TOL_ZERO


def ppt_witness_from_pure(psi: PureState) -> Witness:
    """Partial transpose of an entangled pure projector, as an optimal witness."""
    psi.dims.require_bipartite()
    if schmidt_rank(psi) < 2:
        raise DimensionError("product state gives a trivial (PSD) witness; refusing")
    op = partial_transpose(psi.projector(), psi.dims, 1)
    op = (op + dagger(op)) / 2.0
    return Witness(op, psi.dims, label="ppt_pure")


def schmidt_class_max(
    test_op, r: int, dims, config: OptimizerConfig | None = None
) -> float:
    """Max of <psi|test_op|psi> over pure states of Schmidt rank <= r.

    Multi-start power iteration with rank-r truncation after every step (the
    test operator is shifted to be PSD first, which leaves the maximizer
    unchanged). The shift and the stopping tolerance are relative to the
    largest |eigenvalue|, so the value scales with the operator.
    r = min(d1, d2) reduces to the largest eigenvalue; r = 1 agrees with
    `max_over_products`.
    """
    dims = DimList.of(dims)
    dims.require_bipartite()
    test_op = as_matrix(test_op)
    dims.check_matrix(test_op)
    if not is_hermitian(test_op, 1e-8):
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
        norms = np.linalg.norm(out.reshape(r_count, -1), axis=1, keepdims=True)
        return out / norms.reshape(-1, 1, 1)

    psi = truncate(psi)
    prev = np.full(r_count, -np.inf)
    for _ in range(MAX_SWEEPS):
        vec = psi.reshape(r_count, -1)
        psi = truncate((vec @ lifted.T).reshape(r_count, d1, d2))
        vec = psi.reshape(r_count, -1)
        vals = np.real(np.einsum("zi,ij,zj->z", np.conj(vec), test_op, vec))
        if np.max(np.abs(vals - prev)) < 1e-13 * size:
            prev = vals
            break
        prev = vals
    return float(prev.max())


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
    p, q = _scan_points(p, q, 1.0 + 1e-12, 1.0 + 1e-9)
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
