"""Parameter scans of witness minima over two-parameter channel families.

Each scenario fixes a two-qubit channel family Lambda_{p,q}, a reference
witness W, and reports min over product inputs of <chi| Lambda*(W) |chi> on a
(p, q) grid. Negative values certify that some product input acquires
entanglement. Two engines are available, both plain numpy over the whole grid:
"closed_form" evaluates an exact expression for the minimum in one array call,
"optimizer" minimizes the stack of duals formed from three corner channels in
one `product_minima` call: duals ``c I -+ |psi><psi|`` are solved exactly,
every other two-qubit dual from its certified dual problem, and only a dual
whose certificate declines by batched multi-start descent, so the seed and
restarts move no value unless some point falls back. Agreement between the
engines is one of the package's acceptance checks.

Scenarios
---------
``measurement``: measure the singlet projector {P, 1 - P} and prepare
    rho_0 = p * singlet + (1 - p) * I/4 on outcome 0,
    rho_1 = q * singlet + (1 - q) * triplet_plus on outcome 1,
    scanned against the swap witness. The minimum crosses zero along q = 1/2
    and 3p + 4q = 3, which meet at the kink (1/3, 1/2).
``unitary_mix``: mix {identity, controlled-NOT, identity (x) NOT} with
    weights (1 - p - q, p, q), scanned against the shifted witness
    (4/5) * I - P_+ where P_+ projects onto the maximally entangled state.

The historical aliases "fig3" and "fig4" name the same scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import KrausChannel, measurement_channel, random_unitary_channel
from .errors import SpecError
from .states import DensityMatrix, bell_states, max_entangled
from .tensor import GRID_ATOL, DimList
from .witnesses import (
    OptimizerConfig,
    Witness,
    measurement_scan_min,
    product_minima,
    swap_witness,
    unitary_mix_scan_min,
)

CSV_HEADER = "p,q,min_value"


@dataclass(frozen=True)
class Scenario:
    """A named two-parameter channel family plus its reference witness.

    `build_channel(p, q)` must be affine in (p, q): the optimizer engine builds
    it only at three corners. `closed_form` and `in_domain` take arrays.
    """

    name: str
    dims: DimList
    build_channel: Callable[[float, float], KrausChannel]
    build_witness: Callable[[], Witness]
    closed_form: Callable[[np.ndarray, np.ndarray], np.ndarray]
    in_domain: Callable[[np.ndarray, np.ndarray], np.ndarray | bool]


def _measurement_scenario_channel(p: float, q: float) -> KrausChannel:
    bell = bell_states()
    eye4 = np.eye(4)
    proj = bell.psi_minus.projector()
    rho0 = DensityMatrix(p * proj + (1.0 - p) * eye4 / 4.0, (2, 2))
    rho1 = DensityMatrix(q * proj + (1.0 - q) * bell.psi_plus.projector(), (2, 2))
    return measurement_channel([proj, eye4 - proj], [rho0, rho1], (2, 2))


def _unitary_mix_scenario_channel(p: float, q: float) -> KrausChannel:
    cnot = np.eye(4)[[0, 1, 3, 2]]
    not_on_second = np.kron(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
    return random_unitary_channel(
        [np.eye(4), cnot, not_on_second], [1.0 - p - q, p, q], (2, 2)
    )


def _unitary_mix_witness() -> Witness:
    proj = max_entangled(2, 2).projector()
    return Witness.from_shift(4.0 / 5.0, proj, (2, 2), label="shifted_4/5")


SCENARIOS: dict[str, Scenario] = {
    "measurement": Scenario(
        name="measurement",
        dims=DimList.of((2, 2)),
        build_channel=_measurement_scenario_channel,
        build_witness=lambda: swap_witness(2),
        closed_form=measurement_scan_min,
        in_domain=lambda p, q: True,
    ),
    "unitary_mix": Scenario(
        name="unitary_mix",
        dims=DimList.of((2, 2)),
        build_channel=_unitary_mix_scenario_channel,
        build_witness=_unitary_mix_witness,
        closed_form=lambda p, q: unitary_mix_scan_min(p, q, shift=4.0 / 5.0),
        in_domain=lambda p, q: p + q <= 1.0 + GRID_ATOL,
    ),
}

SCENARIO_ALIASES = {"fig3": "measurement", "fig4": "unitary_mix"}


def get_scenario(name: str) -> Scenario:
    resolved = SCENARIO_ALIASES.get(name, name)
    try:
        return SCENARIOS[resolved]
    except KeyError:
        known = sorted(set(SCENARIOS) | set(SCENARIO_ALIASES))
        raise SpecError("scenario", f"unknown scenario {name!r}; known: {known}") from None


@dataclass(frozen=True)
class ScanResult:
    scenario: str
    engine: str
    step: float
    rows: tuple[tuple[float, float, float], ...]
    all_converged: bool


def _axis(step: float) -> np.ndarray:
    vals = np.minimum(np.arange(int(round(1.0 / step)) + 1) * step, 1.0)
    # a step that does not divide 1 still includes the edge
    return vals if vals[-1] >= 1.0 - GRID_ATOL else np.append(vals, 1.0)


def _check_step(step: float) -> float:
    """`step` as a float in (0, 0.25] whose axis of ``round(1 / step) + 1``
    points numpy can index, decided without building the axis."""
    step = float(step)
    if not (0.0 < step <= 0.25):
        raise SpecError("step", f"step must lie in (0, 0.25], got {step}")
    if not 1.0 / step < np.iinfo(np.intp).max:  # round(1 / step) + 1 > intp max, or inf
        raise SpecError("step", f"step {step} gives an axis of more points than numpy can index")
    return step


def _duals(scenario: Scenario, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Stacked duals at the points (p[k], q[k]): by affinity, the sum of the
    duals at (0, 0), (1, 0) and (0, 1) weighted (1 - p - q, p, q)."""
    w = scenario.build_witness().operator
    corners = np.array([scenario.build_channel(a, b).dual_apply(w)
                        for a, b in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))])
    return np.einsum("nk,kij->nij", np.stack([1.0 - p - q, p, q], axis=1), corners)


def run_scan(
    scenario_name: str,
    step: float,
    engine: str = "closed_form",
    optimizer: OptimizerConfig | None = None,
) -> ScanResult:
    """Evaluate the scenario's witness minimum on the (p, q) grid.

    Grid points are p = i * step, q = j * step clipped to [0, 1], restricted to
    the scenario's domain, emitted in row-major (p outer, q inner) order. The
    closed-form engine evaluates all points in one array call. The result is
    deterministic: the optimizer engine minimizes the stack of every point's
    dual witness (from `_duals`) in one `product_minima` call with the same
    seeded config, and each point's value is the one it gets when minimized
    alone.
    """
    scenario = get_scenario(scenario_name)
    step = _check_step(step)
    if engine not in ("closed_form", "optimizer"):
        raise SpecError("engine", f"unknown engine {engine!r}")
    axis = _axis(step)
    p, q = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
    keep = np.broadcast_to(scenario.in_domain(p, q), p.shape)
    p, q = p[keep], q[keep]

    if engine == "closed_form":
        values, converged = scenario.closed_form(p, q), True
    else:
        found = product_minima(_duals(scenario, p, q), scenario.dims, optimizer)
        values, converged = found.values, bool(found.converged.all())

    rows = tuple(zip(p.tolist(), q.tolist(), np.asarray(values, dtype=float).tolist()))
    return ScanResult(scenario.name, engine, step, rows, converged)


def format_csv(result: ScanResult) -> str:
    lines = [CSV_HEADER]
    for p, q, v in result.rows:
        lines.append(f"{p:.10g},{q:.10g},{v:.12g}")
    return "\n".join(lines) + "\n"


def write_csv(result: ScanResult, path: str) -> None:
    text = format_csv(result)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def zero_contour_residual(result: ScanResult) -> float:
    """Largest |closed_form - row value| across the grid (engine cross-check)."""
    scenario = get_scenario(result.scenario)
    p, q, v = np.array(result.rows).T
    return float(np.max(np.abs(scenario.closed_form(p, q) - v)))
