import json

import numpy as np
import pytest

from entpow.channels import (
    KrausChannel,
    MeasurementChannel,
    MixingChannel,
    RandomUnitaryChannel,
    RankBoostChannel,
    mixing_channel,
    rank_boost_channel,
    swap_channel,
    unitary_channel,
)
from entpow.errors import SpecError
from entpow.power import certify_kraus_channel
from entpow.serialize import (
    certificate_to_json,
    channel_from_json,
    channel_to_json,
    load_spec,
    state_from_json,
    state_to_json,
    witness_from_json,
    witness_to_json,
)
from entpow.states import DensityMatrix, PureState, max_entangled
from entpow.tensor import dagger
from entpow.witnesses import Witness, swap_witness

CNOT = np.eye(4)[[0, 1, 3, 2]]


def rand_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ dagger(g)
    return m / np.trace(m).real


def dumps_loads(obj):
    """Force an actual trip through JSON text."""
    return json.loads(json.dumps(obj))


def test_state_roundtrip():
    psi = max_entangled(3, 3)
    back = state_from_json(dumps_loads(state_to_json(psi)))
    assert isinstance(back, PureState)
    assert np.array_equal(back.amplitudes, psi.amplitudes)

    rng = np.random.default_rng(1)
    rho = DensityMatrix(rand_density(rng, 4), (2, 2))
    back = state_from_json(dumps_loads(state_to_json(rho)))
    assert isinstance(back, DensityMatrix)
    assert np.array_equal(back.matrix, rho.matrix)


def test_channel_roundtrip_kraus():
    ch = unitary_channel(CNOT, (2, 2), label="cx")
    back = channel_from_json(dumps_loads(channel_to_json(ch)))
    # a unitary channel serializes as random_unitary and comes back as one
    assert isinstance(back, RandomUnitaryChannel)
    assert np.allclose(back.kraus[0], CNOT, atol=1e-15)

    raw = KrausChannel([CNOT / np.sqrt(2), np.eye(4) / np.sqrt(2)], (2, 2), label="mix")
    back = channel_from_json(dumps_loads(channel_to_json(raw)))
    assert type(back) is KrausChannel
    assert back.label == "mix"
    for a, b in zip(back.kraus, raw.kraus):
        assert np.array_equal(a, b)


def test_channel_roundtrip_measurement():
    proj = max_entangled(2, 2).projector()
    rng = np.random.default_rng(2)
    effects = [proj, np.eye(4) - proj]
    outputs = [
        DensityMatrix(np.eye(4) / 4, (2, 2)),
        DensityMatrix(rand_density(rng, 4), (2, 2)),
    ]
    ch = MeasurementChannel(effects, outputs, (2, 2))
    back = channel_from_json(dumps_loads(channel_to_json(ch)))
    assert isinstance(back, MeasurementChannel)
    rho = rand_density(rng, 4)
    assert np.max(np.abs(back.apply_matrix(rho) - ch.apply_matrix(rho))) < 1e-12


def test_channel_roundtrip_example1_and_mixing():
    coeffs = np.sqrt([0.5, 0.3, 0.2])
    ch = rank_boost_channel(2, 3, coeffs)
    back = channel_from_json(dumps_loads(channel_to_json(ch)))
    assert isinstance(back, RankBoostChannel)
    assert back.k == 2 and back.d == 3
    assert np.allclose(back.schmidt_coeffs, coeffs, atol=1e-15)

    rng = np.random.default_rng(3)
    sigma = DensityMatrix(rand_density(rng, 4), (2, 2))
    mix = mixing_channel(0.25, sigma)
    back = channel_from_json(dumps_loads(channel_to_json(mix)))
    assert isinstance(back, MixingChannel)
    assert back.p == 0.25
    assert np.array_equal(back.sigma.matrix, sigma.matrix)

    # sigma may be given as a pure-state spec: it stands for its projector
    psi = max_entangled(2, 2)
    spec = {**channel_to_json(mix), "sigma": state_to_json(psi)}
    back = channel_from_json(dumps_loads(spec))
    assert isinstance(back, MixingChannel)
    assert np.array_equal(back.sigma.matrix, psi.density().matrix)


def test_witness_roundtrip():
    w = swap_witness(2)
    back = witness_from_json(dumps_loads(witness_to_json(w)))
    assert np.array_equal(back.operator, w.operator)

    shifted = Witness.from_shift(0.8, max_entangled(2, 2).projector(), (2, 2), label="b")
    back = witness_from_json(dumps_loads(witness_to_json(shifted)))
    assert back.shifted is not None
    assert back.shifted[0] == 0.8
    assert np.array_equal(back.operator, shifted.operator)
    assert back.label == "b"


def test_witness_constructor_kinds():
    with pytest.raises(SpecError) as exc:
        witness_from_json({"kind": "swap", "dims": [2, 2]})
    assert exc.value.field == "witness.kind"


def test_certificate_serialization_replayable():
    ch = unitary_channel(CNOT, (2, 2))
    cert = certify_kraus_channel(ch)
    blob = dumps_loads(certificate_to_json(cert, "0.0-test"))
    assert blob["verdict"] == "entangling"
    assert blob["version"] == "0.0-test"
    assert blob["violations"]
    for v_in, v_out in zip(cert.violations, blob["violations"]):
        w = witness_from_json(v_out["witness"])
        factors = [
            np.array([complex(re, im) for re, im in party]) for party in v_out["input"]
        ]
        chi = factors[0]
        for f in factors[1:]:
            chi = np.kron(chi, f)
        if v_out["kind"] == "witness":
            val = np.real(np.conj(chi) @ ch.dual_apply(w.operator) @ chi)
        else:
            img = ch.kraus[v_out["kraus_index"]] @ chi
            img = img / np.linalg.norm(img)
            val = np.real(np.conj(img) @ w.operator @ img)
        assert abs(val - v_out["value"]) < 1e-9


def test_spec_error_paths():
    with pytest.raises(SpecError) as exc:
        channel_from_json({"kind": "kraus", "dims": [2, 2], "kraus": [[[1, 0]] * 6]})
    assert "kraus[0]" in exc.value.field
    with pytest.raises(SpecError):
        channel_from_json({"kind": "nope", "dims": [2, 2]})
    with pytest.raises(SpecError):
        state_from_json({"kind": "pure", "dims": [2, 2]})  # missing amplitudes
    with pytest.raises(SpecError):
        channel_from_json({"kind": "kraus", "dims": [2, 2], "kraus": []})
    # dims that are not positive integers
    with pytest.raises(SpecError):
        state_from_json({"kind": "pure", "dims": [2, -2], "amplitudes": [[1, 0]]})
    # a number given as a string
    shifted = witness_to_json(Witness.from_shift(0.8, max_entangled(2, 2).projector(), (2, 2)))
    with pytest.raises(SpecError) as exc:
        witness_from_json({**shifted, "lambda": "0.8"})
    assert exc.value.field == "witness.lambda"
    with pytest.raises(SpecError) as exc:
        witness_from_json({**shifted, "lambda": True})  # JSON true is not the number 1
    assert exc.value.field == "witness.lambda"
    # a matrix that `Witness` itself refuses: not Hermitian
    skew = witness_to_json(swap_witness(2))
    skew["entries"][1] = [0.0, 1.0]
    with pytest.raises(SpecError, match="Hermitian") as exc:
        witness_from_json(skew)
    assert exc.value.field == "witness"


def test_load_spec_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecError):
        load_spec(str(bad))
    listy = tmp_path / "list.json"
    listy.write_text("[1,2]")
    with pytest.raises(SpecError):
        load_spec(str(listy))
    with pytest.raises(SpecError):
        load_spec(str(tmp_path / "missing.json"))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(channel_to_json(swap_channel(2))))
    obj = load_spec(str(good))
    assert obj["kind"] == "random_unitary"
