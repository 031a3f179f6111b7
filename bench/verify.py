"""Independent checks of CLI outputs, in plain numpy.

Each check returns a list of `Problem`s instead of raising, so the runner can
count failures. Problem kinds "false_entangling" and "lower_bound" are the ones
a channel tagged with a known defect is expected to show; any other kind on any
channel, a "false_sne" verdict included, makes the run incorrect.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import NamedTuple

import numpy as np

from workloads import CLOSED_STEP, Channel

TOL_CLOSED = 1e-9   # closed-form rows
TOL_OPT = 1e-6      # optimizer rows (the engines agree to 1e-6)
TOL_WITNESS = 1e-8  # a replayed violation must come out at or below -TOL_WITNESS
TOL_SIGN = 1e-6     # grid points this close to zero carry no detection label
REFERENCE = Path(__file__).resolve().parent / "reference" / "unitary_mix_closed_form.npy"

SNE = "stochastically_nonentangling"
EXPECTED_KINDS = frozenset({"false_entangling", "lower_bound"})

# The verdict a correct program gives for each label. A channel that is not
# entangling but has no product-preserving Kraus decomposition can only be
# "inconclusive"; it counts in no `decided_ratio`, which scores proven verdicts.
RIGHT = {"entangling": "entangling", "sne": SNE, "nonentangling_not_sne": "inconclusive"}


class Problem(NamedTuple):
    kind: str
    detail: str


class Outcome(NamedTuple):
    problems: list
    decided: int   # answers that match a known label
    labelled: int  # answers with a known label


def is_expected(channel: Channel | None, problems: list) -> bool:
    """True when every problem is the documented defect of this channel."""
    return (channel is not None and channel.defect is not None
            and all(p.kind in EXPECTED_KINDS for p in problems))


# -- scans ---------------------------------------------------------------


def grid(scenario: str, step: float) -> list[tuple[int, int]]:
    """Grid indices (i, j) of p = i * step, q = j * step in CSV row order."""
    n = int(round(1.0 / step))
    return [(i, j) for i in range(n + 1) for j in range(n + 1)
            if scenario == "measurement" or i + j <= n]


def measurement_min(p: float, q: float) -> float:
    """Product-state minimum of the dual swap witness (linear in <singlet>)."""
    return min(1.0 - 2.0 * q, (1.0 - 3.0 * p) / 4.0 + (1.0 - 2.0 * q) / 2.0)


class UnitaryMixReference:
    """Closed-form `unitary_mix` minima on the CLOSED_STEP grid, from the seed commit."""

    def __init__(self, path: Path = REFERENCE):
        values = np.load(path)
        n = int(round(1.0 / CLOSED_STEP))
        self.n = n
        self.table = np.full((n + 1, n + 1), np.nan)
        idx = grid("unitary_mix", CLOSED_STEP)
        if len(idx) != values.shape[0]:
            raise ValueError(f"{path}: {values.shape[0]} values for {len(idx)} grid points")
        rows, cols = zip(*idx)
        self.table[list(rows), list(cols)] = values

    def value(self, i: int, j: int, step: float) -> float:
        scale = int(round(step / CLOSED_STEP))
        return float(self.table[i * scale, j * scale])


def check_scan(text: str, scenario: str, step: float, engine: str,
               reference: UnitaryMixReference) -> Outcome:
    lines = text.splitlines()
    problems: list[Problem] = []
    if not lines or lines[0] != "p,q,min_value":
        return Outcome([Problem("format", f"bad CSV header {lines[:1]}")], 0, 0)
    rows = lines[1:]
    expected = grid(scenario, step)
    if len(rows) != len(expected):
        problems.append(Problem("rows", f"{len(rows)} rows, expected {len(expected)}"))
    tol = TOL_CLOSED if engine == "closed_form" else TOL_OPT
    decided = labelled = 0
    for (i, j), line in zip(expected, rows):
        try:
            p, q, v = (float(x) for x in line.split(","))
        except ValueError:
            problems.append(Problem("format", f"unparsable row {line!r}"))
            continue
        pe, qe = i * step, j * step
        if abs(p - pe) > 1e-9 or abs(q - qe) > 1e-9:
            problems.append(Problem("order", f"row ({p}, {q}) where ({pe}, {qe}) belongs"))
            continue
        ref = measurement_min(pe, qe) if scenario == "measurement" else reference.value(i, j, step)
        if not abs(v - ref) <= tol:
            problems.append(Problem("value", f"({pe:.4g}, {qe:.4g}): {v!r} vs {ref!r}"))
        if abs(ref) > TOL_SIGN:
            labelled += 1
            decided += (v < 0) == (ref < 0)
    return Outcome(problems, decided, labelled)


# -- certificates ----------------------------------------------------------


def _matrix(pairs, n: int) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    return (a[:, 0] + 1j * a[:, 1]).reshape(n, n)


def _witness(obj: dict, n: int) -> np.ndarray:
    if obj["kind"] == "matrix":
        return _matrix(obj["entries"], n)
    if obj["kind"] == "shifted":
        return obj["lambda"] * np.eye(n) - _matrix(obj["test_op"], n)
    raise ValueError(f"unexpected witness kind {obj['kind']!r}")


def _product(factors) -> np.ndarray:
    vec = np.ones(1, dtype=complex)
    for f in factors:
        a = np.asarray(f, dtype=float)
        vec = np.kron(vec, a[:, 0] + 1j * a[:, 1])
    return vec


def _replay(channel: Channel, v: dict) -> list[Problem]:
    """Recompute one violation from the channel's own construction."""
    d1, d2 = channel.dims
    n = d1 * d2
    chi = _product(v["input"])
    if abs(np.linalg.norm(chi) - 1.0) > 1e-9:
        return [Problem("replay", "input is not a unit product vector")]
    out = channel.apply(np.outer(chi, chi.conj()))
    w = _witness(v["witness"], n)
    problems = []
    if v["kind"] == "witness":
        value = float(np.real(np.trace(w @ out)))
    elif v["kind"] == "stochastic":
        # W = c0^2 I - |img><img|: img must be a conditional output of the
        # channel on chi, i.e. lie in the range of channel(chi), and c0^2 must
        # be its largest squared Schmidt coefficient, so W is a witness.
        evals, evecs = np.linalg.eigh(_matrix(v["witness"]["test_op"], n))
        img = evecs[:, -1]
        if abs(evals[-1] - 1.0) > 1e-6 or np.max(np.abs(evals[:-1])) > 1e-6:
            problems.append(Problem("replay", "test operator is not a pure projector"))
        top = np.linalg.svd(img.reshape(d1, d2), compute_uv=False)[0] ** 2
        if v["witness"]["lambda"] < top - 1e-9:
            problems.append(Problem("replay", "shift below the separable maximum"))
        o_vals, o_vecs = np.linalg.eigh((out + out.conj().T) / 2.0)
        basis = o_vecs[:, o_vals > 1e-10 * max(o_vals[-1], 1e-300)]
        if np.linalg.norm(img - basis @ (basis.conj().T @ img)) > 1e-6:
            problems.append(Problem("replay", "image is not an output branch on this input"))
        value = float(np.real(img.conj() @ w @ img))
    else:
        return [Problem("replay", f"unknown violation kind {v['kind']!r}")]
    if value > -TOL_WITNESS:
        problems.append(Problem("replay", f"{v['kind']} violation replays to {value:.3g}"))
    if abs(value - v["value"]) > 1e-6 * max(1.0, abs(v["value"])):
        problems.append(Problem("replay", f"reported {v['value']:.12g}, replayed {value:.12g}"))
    return problems


def check_classify(channel: Channel, blob: dict) -> Outcome:
    verdict = blob.get("verdict")
    problems: list[Problem] = []
    if verdict not in (SNE, "entangling", "inconclusive"):
        return Outcome([Problem("format", f"unknown verdict {verdict!r}")], 0, 0)
    label = channel.label
    if label in RIGHT and verdict != RIGHT[label] and verdict != "inconclusive":
        kind = "false_sne" if verdict == SNE else "false_entangling"
        problems.append(Problem(kind, f"{verdict} for a channel that is {label}"))
    for v in blob.get("violations", []):
        try:
            problems.extend(_replay(channel, v))
        except (KeyError, TypeError, ValueError, np.linalg.LinAlgError) as exc:
            problems.append(Problem("replay", f"malformed violation: {exc!r}"))
    if verdict == "entangling" and not blob.get("violations"):
        problems.append(Problem("replay", "entangling verdict without evidence"))
    labelled = label in ("entangling", "sne")
    return Outcome(problems, int(labelled and verdict == RIGHT[label]), int(labelled))


_RANK = re.compile(r"channel schmidt rank: (\d+)")
_BOUNDS = re.compile(r"channel schmidt number bounds: \((\d+), (\d+)\)")


def check_schmidt(channel: Channel, text: str) -> Outcome:
    m = _RANK.search(text)
    if m:
        lo = hi = int(m.group(1))  # one Kraus operator: reported as the exact rank
    else:
        m = _BOUNDS.search(text)
        if not m:
            return Outcome([Problem("format", "no Schmidt rank or bounds in output")], 0, 0)
        lo, hi = int(m.group(1)), int(m.group(2))
    problems = []
    if not 1 <= lo <= hi <= min(channel.dims):
        problems.append(Problem("range", f"bounds ({lo}, {hi}) outside 1..{min(channel.dims)}"))
    sn = channel.schmidt_number
    if sn is not None and lo > sn:
        problems.append(Problem("lower_bound", f"lower bound {lo} above Schmidt number {sn}"))
    if sn is not None and hi < sn:
        problems.append(Problem("upper_bound", f"upper bound {hi} below Schmidt number {sn}"))
    return Outcome(problems, 0, 0)
