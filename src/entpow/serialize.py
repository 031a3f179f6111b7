"""JSON wire formats for matrices, states, channels, witnesses, certificates.

Conventions: complex entries are [re, im] pairs; matrices are flat row-major
lists under "entries"; every object carries its "dims". Discriminators:
states use kind "pure" | "mixed"; channels use kind "kraus" | "measurement" |
"random_unitary" | "example1" | "mixing"; witnesses use kind "matrix" |
"shifted". Floats serialize at full precision, so a round trip is exact.
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
    except OverflowError:
        raise SpecError(field, "entries must fit in a float") from None
    except (TypeError, ValueError):
        raise SpecError(field, "entries must be [re, im] pairs") from None
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise SpecError(field, f"entries must be [re, im] pairs, got shape {arr.shape}")
    for i, pair in enumerate(pairs):
        if not all(map(_is_number, pair)):
            raise SpecError(field, f"entry {i} must be a pair of numbers, got {pair!r}")
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
    """A JSON number of integer value: 2 or 2.0, not "2", 2.7 or true, that numpy
    can index, decided without building anything or echoing a huge one."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if abs(int(value)) >= np.iinfo(np.intp).max:
            raise SpecError(field, "integer too large for numpy to index")
        return int(value)
    raise SpecError(field, f"expected an integer, got {value!r}")


def _is_number(value) -> bool:
    """A JSON number: 0.3 or 1, not "0.3" or true."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, field: str) -> float:
    if not _is_number(value):
        raise SpecError(field, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SpecError(field, "expected a number that fits in a float") from None


def _numbers(obj: dict, key: str, field: str):
    """The list `key` of `obj`, once every entry that is not itself a list
    passes `_number` as ``key[i]``; the channel constructors check the
    list's shape and values."""
    raw = _get(obj, key, field)
    for i, value in enumerate(raw if isinstance(raw, list) else ()):
        if not isinstance(value, list):
            _number(value, f"{field}.{key}[{i}]")
    return raw


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


def _list_of(obj: dict, key: str, field: str) -> list:
    raw = _get(obj, key, field)
    if not isinstance(raw, list) or not raw:
        raise SpecError(f"{field}.{key}", "need a non-empty list")
    return raw


def _squares(obj: dict, dims: DimList, key: str, field: str) -> list[np.ndarray]:
    """The non-empty list `key` of D x D matrices, each given as [re, im] pairs."""
    shape = (dims.total, dims.total)
    return [_from_pairs(m, shape, f"{field}.{key}[{i}]")
            for i, m in enumerate(_list_of(obj, key, field))]


# -- states ------------------------------------------------------------


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
    except (TypeError, ValueError, OverflowError) as exc:
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


def channel_from_json(obj: dict) -> ch_mod.KrausChannel:
    field = "channel"
    kind = _get(obj, "kind", field)
    try:
        if kind == "kraus":
            dims = _dims_of(obj, field)
            ops = _squares(obj, dims, "kraus", field)
            return ch_mod.KrausChannel(ops, dims, label=str(obj.get("label", "")))
        if kind == "measurement":
            dims = _dims_of(obj, field)
            effects = _squares(obj, dims, "effects", field)
            raw_o = _list_of(obj, "outputs", field)
            outputs = [state_from_json(o, f"{field}.outputs[{i}]") for i, o in enumerate(raw_o)]
            for i, o in enumerate(outputs):
                if o.dims != dims:
                    raise SpecError(f"{field}.outputs[{i}]",
                                    f"dims {list(o.dims)} differ from the channel's {list(dims)}")
            outputs = [o.density() if isinstance(o, PureState) else o for o in outputs]
            return ch_mod.measurement_channel(effects, outputs, dims)
        if kind == "random_unitary":
            dims = _dims_of(obj, field)
            unitaries = _squares(obj, dims, "unitaries", field)
            probs = _numbers(obj, "probabilities", field)
            return ch_mod.random_unitary_channel(unitaries, probs, dims)
        if kind == "example1":
            k = _integer(_get(obj, "k", field), f"{field}.k")
            d = _integer(_get(obj, "d", field), f"{field}.d")
            coeffs = _numbers(obj, "coefficients", field)
            return ch_mod.rank_boost_channel(k, d, coeffs)
        if kind == "mixing":
            p = _number(_get(obj, "p", field), f"{field}.p")
            sigma = state_from_json(_get(obj, "sigma", field), f"{field}.sigma")
            if isinstance(sigma, PureState):
                sigma = sigma.density()
            return ch_mod.mixing_channel(p, sigma)
    except SpecError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
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
    except SpecError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
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
    return {
        "verdict": cert.verdict,
        "note": cert.note,
        "violations": violations,
        "version": version,
        "kraus_forms": [s.form for s in cert.structures],
    }


def load_spec(path: str) -> dict:
    """Read and parse a JSON spec file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(path, f"cannot read: {exc}") from None
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise SpecError(path, f"malformed JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise SpecError(path, "top-level spec must be a JSON object")
    return obj
