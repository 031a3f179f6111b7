"""JSON wire formats for matrices, states, channels, witnesses, certificates.

Conventions: complex entries are [re, im] pairs; matrices are flat row-major
lists under "entries"; every object carries its "dims". Discriminators:
states use kind "pure" | "mixed"; channels use kind "kraus" | "measurement" |
"random_unitary" | "example1" | "mixing"; witnesses use kind "matrix" |
"shifted" | "swap" | "ppt_pure". Floats serialize at full precision, so a
round trip is exact.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from . import channels as ch_mod
from .errors import SpecError
from .power import Certificate
from .states import DensityMatrix, ProductStateParam, PureState
from .tensor import DimList
from .witnesses import Witness


def _pairs(arr: np.ndarray) -> list[list[float]]:
    flat = np.asarray(arr, dtype=complex).reshape(-1)
    return np.stack([flat.real, flat.imag], 1).tolist()


def _from_pairs(pairs, shape, field: str) -> np.ndarray:
    try:
        arr = np.asarray(pairs, dtype=float)
    except (TypeError, ValueError):
        raise SpecError(field, "entries must be [re, im] pairs") from None
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise SpecError(field, f"entries must be [re, im] pairs, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise SpecError(field, "entries must be finite")
    expected = int(np.prod(shape))
    if arr.shape[0] != expected:
        raise SpecError(field, f"expected {expected} entries, got {arr.shape[0]}")
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(shape)


def _get(obj: dict, key: str, field: str) -> Any:
    if key not in obj:
        raise SpecError(f"{field}.{key}" if field else key, "missing required field")
    return obj[key]


def _integer(value, field: str) -> int:
    """A JSON number of integer value: 2 or 2.0, not "2" or 2.7."""
    if isinstance(value, (int, np.integer)) or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise SpecError(field, f"expected an integer, got {value!r}")


def _number(value, field: str) -> float:
    """A JSON number: 0.3 or 1, not "0.3"."""
    if isinstance(value, (int, float)):
        return float(value)
    raise SpecError(field, f"expected a number, got {value!r}")


def _dims_of(obj: dict, field: str) -> DimList:
    label = f"{field}.dims" if field else "dims"
    raw = _get(obj, "dims", field)
    if not isinstance(raw, list):
        raise SpecError(label, f"expected a list of integers, got {raw!r}")
    dims = tuple(_integer(d, label) for d in raw)
    try:
        return DimList.of(dims)
    except ValueError as exc:
        raise SpecError(label, str(exc)) from None


def _square(obj, dims: DimList, key: str, field: str) -> np.ndarray:
    label = f"{field}.{key}" if field else key
    return _from_pairs(_get(obj, key, field), (dims.total, dims.total), label)


# -- matrices and states ----------------------------------------------


def matrix_to_json(m: np.ndarray, dims) -> dict:
    dims = DimList.of(dims)
    return {"dims": list(dims.dims), "entries": _pairs(m)}


def matrix_from_json(obj: dict, field: str = "matrix"):
    dims = _dims_of(obj, field)
    return _square(obj, dims, "entries", field), dims


def state_to_json(state: PureState | DensityMatrix) -> dict:
    if isinstance(state, PureState):
        return {
            "kind": "pure",
            "dims": list(state.dims.dims),
            "amplitudes": _pairs(state.amplitudes),
        }
    return {
        "kind": "mixed",
        "dims": list(state.dims.dims),
        "entries": _pairs(state.matrix),
    }


def state_from_json(obj: dict, field: str = "state") -> PureState | DensityMatrix:
    kind = _get(obj, "kind", field)
    dims = _dims_of(obj, field)
    try:
        if kind == "pure":
            amps = _from_pairs(
                _get(obj, "amplitudes", field), (dims.total,), f"{field}.amplitudes"
            )
            return PureState(amps, dims)
        if kind == "mixed":
            return DensityMatrix(_square(obj, dims, "entries", field), dims)
    except SpecError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecError(field, str(exc)) from None
    raise SpecError(f"{field}.kind", f"unknown state kind {kind!r}")


# -- channels ----------------------------------------------------------


def channel_to_json(ch: ch_mod.KrausChannel) -> dict:
    if isinstance(ch, ch_mod.RankBoostChannel):
        return {
            "kind": "example1",
            "dims": list(ch.dims.dims),
            "k": ch.k,
            "d": ch.d,
            "coefficients": list(ch.schmidt_coeffs),
        }
    if isinstance(ch, ch_mod.MixingChannel):
        return {
            "kind": "mixing",
            "dims": list(ch.dims.dims),
            "p": ch.p,
            "sigma": state_to_json(ch.sigma),
        }
    if isinstance(ch, ch_mod.RandomUnitaryChannel):
        return {
            "kind": "random_unitary",
            "dims": list(ch.dims.dims),
            "unitaries": [_pairs(u) for u in ch.unitaries],
            "probabilities": list(ch.probabilities),
        }
    if isinstance(ch, ch_mod.MeasurementChannel):
        return {
            "kind": "measurement",
            "dims": list(ch.dims.dims),
            "effects": [_pairs(e) for e in ch.effects],
            "outputs": [state_to_json(o) for o in ch.outputs],
        }
    return {
        "kind": "kraus",
        "dims": list(ch.dims.dims),
        "kraus": [_pairs(m) for m in ch.kraus],
        "label": ch.label,
    }


def channel_from_json(obj: dict, field: str = "channel") -> ch_mod.KrausChannel:
    kind = _get(obj, "kind", field)
    try:
        if kind == "kraus":
            dims = _dims_of(obj, field)
            raw = _get(obj, "kraus", field)
            if not isinstance(raw, list) or not raw:
                raise SpecError(f"{field}.kraus", "need a non-empty list of operators")
            ops = [
                _from_pairs(op, (dims.total, dims.total), f"{field}.kraus[{i}]")
                for i, op in enumerate(raw)
            ]
            return ch_mod.KrausChannel(ops, dims, label=str(obj.get("label", "")))
        if kind == "measurement":
            dims = _dims_of(obj, field)
            raw_e = _get(obj, "effects", field)
            raw_o = _get(obj, "outputs", field)
            effects = [
                _from_pairs(e, (dims.total, dims.total), f"{field}.effects[{i}]")
                for i, e in enumerate(raw_e)
            ]
            outputs = []
            for i, o in enumerate(raw_o):
                if isinstance(o, dict):
                    state = state_from_json(o, f"{field}.outputs[{i}]")
                    if isinstance(state, PureState):
                        state = state.density()
                    outputs.append(state)
                else:
                    outputs.append(
                        DensityMatrix(
                            _from_pairs(
                                o, (dims.total, dims.total), f"{field}.outputs[{i}]"
                            ),
                            dims,
                        )
                    )
            return ch_mod.measurement_channel(effects, outputs, dims)
        if kind == "random_unitary":
            dims = _dims_of(obj, field)
            raw_u = _get(obj, "unitaries", field)
            probs = _get(obj, "probabilities", field)
            unitaries = [
                _from_pairs(u, (dims.total, dims.total), f"{field}.unitaries[{i}]")
                for i, u in enumerate(raw_u)
            ]
            return ch_mod.random_unitary_channel(unitaries, probs, dims)
        if kind == "example1":
            k = _integer(_get(obj, "k", field), f"{field}.k")
            d = _integer(_get(obj, "d", field), f"{field}.d")
            coeffs = _get(obj, "coefficients", field)
            return ch_mod.rank_boost_channel(k, d, coeffs)
        if kind == "mixing":
            p = _number(_get(obj, "p", field), f"{field}.p")
            sigma = state_from_json(_get(obj, "sigma", field), f"{field}.sigma")
            if isinstance(sigma, PureState):
                sigma = sigma.density()
            return ch_mod.mixing_channel(p, sigma)
    except SpecError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecError(field, str(exc)) from None
    raise SpecError(f"{field}.kind", f"unknown channel kind {kind!r}")


# -- witnesses ---------------------------------------------------------


def witness_to_json(w: Witness) -> dict:
    if w.shifted is not None:
        lam, test = w.shifted
        return {
            "kind": "shifted",
            "dims": list(w.dims.dims),
            "lambda": lam,
            "test_op": _pairs(test),
            "label": w.label,
        }
    return {
        "kind": "matrix",
        "dims": list(w.dims.dims),
        "entries": _pairs(w.operator),
        "label": w.label,
    }


def witness_from_json(obj: dict, field: str = "witness") -> Witness:
    kind = _get(obj, "kind", field)
    try:
        if kind == "matrix":
            dims = _dims_of(obj, field)
            op = _square(obj, dims, "entries", field)
            return Witness(op, dims, label=str(obj.get("label", "")))
        if kind == "shifted":
            dims = _dims_of(obj, field)
            lam = _number(_get(obj, "lambda", field), f"{field}.lambda")
            test = _square(obj, dims, "test_op", field)
            return Witness.from_shift(lam, test, dims, label=str(obj.get("label", "")))
        if kind == "swap":
            dims = _dims_of(obj, field)
            dims.require_bipartite()
            if dims[0] != dims[1]:
                raise SpecError(f"{field}.dims", "swap witness needs equal local dims")
            from .witnesses import swap_witness

            return swap_witness(dims[0])
        if kind == "ppt_pure":
            dims = _dims_of(obj, field)
            amps = _from_pairs(
                _get(obj, "amplitudes", field), (dims.total,), f"{field}.amplitudes"
            )
            from .witnesses import ppt_witness_from_pure

            return ppt_witness_from_pure(PureState(amps, dims))
    except SpecError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecError(field, str(exc)) from None
    raise SpecError(f"{field}.kind", f"unknown witness kind {kind!r}")


# -- results and certificates -----------------------------------------


def product_state_to_json(param: ProductStateParam) -> list[list[list[float]]]:
    return [_pairs(f) for f in param.factors]


def certificate_to_json(cert: Certificate, version: str) -> dict:
    violations = []
    for v in cert.violations:
        violations.append(
            {
                "kind": v.kind,
                "value": v.value,
                "kraus_index": v.kraus_index,
                "witness": witness_to_json(v.witness),
                "input": product_state_to_json(v.input),
            }
        )
    out = {
        "verdict": cert.verdict,
        "note": cert.note,
        "violations": violations,
        "version": version,
    }
    if cert.structures is not None:
        out["kraus_forms"] = [s.form for s in cert.structures]
    return out


def load_spec(path: str) -> dict:
    """Read and parse a JSON spec file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SpecError(path, f"cannot read: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecError(path, f"malformed JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise SpecError(path, "top-level spec must be a JSON object")
    return obj
