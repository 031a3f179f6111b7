import json
import subprocess
import sys
from contextlib import ExitStack
from pathlib import Path
from unittest.mock import call, patch

import numpy as np
import pytest

from entpow import __version__, power, witnesses
from entpow.channels import (
    KrausChannel,
    identity_channel,
    mixing_channel,
    random_unitary_channel,
    rank_boost_channel,
    replacement_channel,
    swap_channel,
    unitary_channel,
)
from entpow.cli import build_parser, main
from entpow.power import certify_kraus_channel
from entpow.serialize import certificate_to_json, channel_from_json, channel_to_json, state_to_json
from entpow.states import DensityMatrix, max_entangled
from entpow.witnesses import DEFAULT_CONFIG, OptimizerConfig

CNOT = np.eye(4)[[0, 1, 3, 2]]


def write_spec(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_classify_swap_channel(tmp_path, capsys):
    spec = write_spec(tmp_path, "swap.json", channel_to_json(swap_channel(2)))
    assert main(["classify", spec]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["verdict"] == "stochastically_nonentangling"
    assert set(blob["kraus_forms"]) == {"permutation_local"}


def test_classify_cnot_reports_violation(tmp_path, capsys):
    spec = write_spec(
        tmp_path, "cx.json", channel_to_json(unitary_channel(CNOT, (2, 2), label="cx"))
    )
    assert main(["classify", spec, "--seed", "1", "--restarts", "32"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["verdict"] == "entangling"
    assert [(v["kind"], v["witness"]["label"]) for v in blob["violations"]] == [
        ("witness", "image_shift[0]"), ("stochastic", "image_shift[0]")]
    # one Kraus operator: the probe hit is the channel's own output, replayed here in numpy
    (hit,) = [v for v in blob["violations"] if v["kind"] == "witness"]
    a, b = (np.asarray(f)[:, 0] + 1j * np.asarray(f)[:, 1] for f in hit["input"])
    out = CNOT @ np.kron(a, b)
    test_op = (np.asarray(hit["witness"]["test_op"]) @ [1, 1j]).reshape(4, 4)
    assert np.allclose(test_op, np.outer(out, out.conj()))
    lam = hit["witness"]["lambda"]
    assert abs(lam - np.linalg.svd(out.reshape(2, 2), compute_uv=False)[0] ** 2) < 1e-12
    assert abs(hit["value"] - np.real(out.conj() @ (lam * out - test_op @ out))) < 1e-12
    assert abs(hit["value"] - (-0.0886993236356)) < 1e-9


def certificate_of(spec, restarts=64, seed=0):
    """`certificate_to_json` of the certificate `classify SPEC` prints."""
    with open(spec, encoding="utf-8") as fh:
        ch = channel_from_json(json.load(fh))
    cert = certify_kraus_channel(ch, OptimizerConfig(restarts=restarts, seed=seed))
    return certificate_to_json(cert, __version__)


SHIFT3 = np.roll(np.eye(3), 1, axis=0)
CSHIFT3 = sum(np.kron(np.diag(np.eye(3)[j]), np.linalg.matrix_power(SHIFT3, j)) for j in range(3))


@pytest.mark.parametrize("ch", [unitary_channel(CNOT, (2, 2), label="cx"),
                                unitary_channel(CSHIFT3, (3, 3), label="cshift3")])
def test_classify_prints_the_certificate_on_one_line(tmp_path, capsys, ch):
    spec = write_spec(tmp_path, "ch.json", channel_to_json(ch))
    assert main(["classify", spec, "--seed", "1", "--restarts", "32"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("\n")
    assert json.loads(out) == certificate_of(spec, restarts=32, seed=1)


def test_classify_bad_spec_exits_2(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        "bad.json",
        {"kind": "kraus", "dims": [2, 2], "kraus": [[[1.0, 0.0]] * 6]},
    )
    assert main(["classify", spec]) == 2
    err = capsys.readouterr().err
    assert "spec error" in err
    assert "kraus[0]" in err


def edited(ch, **fields):
    """`channel_to_json(ch)` with `fields` replaced."""
    return {**channel_to_json(ch), **fields}


def with_entry(ch, value):
    """`channel_to_json(ch)` with the first entry of its first Kraus operator set to `value`."""
    spec = channel_to_json(ch)
    spec["kraus"][0][0] = value
    return spec


IDENTITY = identity_channel((2, 2))
CX_MIX = random_unitary_channel([np.eye(4), CNOT], [0.5, 0.5], (2, 2))
REPLACE = replacement_channel(max_entangled(2, 2))
REPLACE_23 = replacement_channel(DensityMatrix(np.eye(6) / 6, (2, 3)))
MALFORMED = {
    "effects_not_a_list": ("channel.effects", edited(REPLACE, effects=5)),
    "effects_dict": ("channel.effects", edited(REPLACE, effects={"a": 1})),
    "outputs_not_a_list": ("channel.outputs", edited(REPLACE, outputs=3)),
    "unitaries_not_a_list": ("channel.unitaries", edited(CX_MIX, unitaries=7)),
    # an output given as bare [re, im] pairs instead of a state spec
    "outputs_raw_pairs": ("channel.outputs[0].kind",
                          edited(REPLACE, outputs=[channel_to_json(REPLACE)["outputs"][0]["entries"]])),
    "probabilities_dict": ("channel", edited(CX_MIX, probabilities={"a": 1})),
    "probabilities_nan": ("channel", edited(CX_MIX, probabilities=[float("nan"), 1.0])),
    "k_list": ("channel.k", edited(rank_boost_channel(2, 2, [0.8, 0.6]), k=[2])),
    "entry_nan": ("channel.kraus[0]", with_entry(IDENTITY, [float("nan"), 0.0])),
    "entry_inf": ("channel.kraus[0]", with_entry(IDENTITY, [float("inf"), 0.0])),
    "dims_string": ("channel.dims", edited(IDENTITY, dims="22")),
    "dims_strings": ("channel.dims", edited(IDENTITY, dims=["2", "2"])),
    "dims_fraction": ("channel.dims", edited(IDENTITY, dims=[2.7, 2])),
    "dims_inf": ("channel.dims", edited(IDENTITY, dims=[float("inf"), 2])),
    "probabilities_scalar": ("channel", edited(random_unitary_channel([CNOT], [1.0], (2, 2)),
                                               probabilities=1.0)),
    "probabilities_nested": ("channel", edited(random_unitary_channel([CNOT], [1.0], (2, 2)),
                                               probabilities=[[1.0]])),
    "coefficient_nan": ("channel", edited(rank_boost_channel(2, 2, [0.8, 0.6]),
                                          coefficients=[0.8, float("nan")])),
    "p_string": ("channel.p", edited(mixing_channel(0.3, max_entangled(2, 2).density()), p="0.3")),
    # JSON true is not the number 1
    "p_bool": ("channel.p", edited(mixing_channel(0.3, max_entangled(2, 2).density()), p=True)),
    "dims_bool": ("channel.dims", edited(IDENTITY, dims=[True, 2])),
    "entry_string": ("channel.kraus[0]", with_entry(IDENTITY, ["a", 0.0])),
    # numpy would read these as 1.0 and 0.0
    "entry_numeric_string": ("channel.kraus[0]", with_entry(IDENTITY, ["1", 0])),
    "entry_bools": ("channel.kraus[0]", with_entry(IDENTITY, [True, False])),
    "probabilities_bools": ("channel.probabilities[0]",
                            edited(CX_MIX, probabilities=[True, False])),
    "probabilities_strings": ("channel.probabilities[1]",
                              edited(CX_MIX, probabilities=[0.5, "0.5"])),
    "coefficients_strings": ("channel.coefficients[0]",
                             edited(rank_boost_channel(2, 3, [0.96, 0.224, 0.168]),
                                    coefficients=["0.96", "0.224", "0.168"])),
    "entries_flat": ("channel.kraus[0]", edited(IDENTITY, kraus=[[1.0, 0.0] * 16])),
    # an output on dims [3, 2] of a channel on [2, 3] would be read on the channel's split
    "output_dims": ("channel.outputs[0]", edited(
        REPLACE_23, outputs=[{**channel_to_json(REPLACE_23)["outputs"][0], "dims": [3, 2]}])),
    "output_kind": ("channel.outputs[0].kind", edited(
        REPLACE, outputs=[{**channel_to_json(REPLACE)["outputs"][0], "kind": "bogus"}])),
    # JSON integers too large for a float
    "entry_huge": ("channel.kraus[0]", with_entry(IDENTITY, [10**400, 0])),
    "p_huge": ("channel.p", edited(mixing_channel(0.3, max_entangled(2, 2).density()),
                                   p=10**400)),
    "probabilities_huge": ("channel.probabilities[0]", edited(CX_MIX, probabilities=[10**400, 0])),
    "coefficients_huge": ("channel.coefficients[1]",
                          edited(rank_boost_channel(2, 2, [0.8, 0.6]), coefficients=[0.8, 10**400])),
    "probabilities_nested_huge": ("channel", edited(random_unitary_channel([CNOT], [1.0], (2, 2)),
                                                    probabilities=[[10**400]])),
    # integers too large for numpy to index
    "dims_huge": ("channel.dims", edited(IDENTITY, dims=[10**400, 2])),
    "k_huge": ("channel.k", edited(rank_boost_channel(2, 2, [0.8, 0.6]), k=10**400)),
    # a mixed state that `DensityMatrix` refuses: a negative eigenvalue
    "sigma_not_psd": ("channel.sigma", edited(
        mixing_channel(0.3, max_entangled(2, 2).density()),
        sigma={"kind": "mixed", "dims": [2, 2],
               "entries": [[x, 0.0] for x in np.diag([1.5, -0.5, 0.0, 0.0]).ravel()]})),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_spec_exits_2_naming_its_field(tmp_path, capsys, case):
    field, spec = MALFORMED[case]
    assert main(["classify", write_spec(tmp_path, "bad.json", spec)]) == 2
    assert f"spec error [{field}]:" in capsys.readouterr().err


@pytest.mark.parametrize("case, words", [("probabilities_nested", "must be a list of numbers"),
                                         ("coefficient_nan", "must be finite"),
                                         ("dims_bool", "expected an integer, got True"),
                                         ("entry_bools", "entry 0 must be a pair of numbers"),
                                         ("probabilities_bools", "expected a number, got True")])
def test_malformed_spec_error_says_what_is_wrong(tmp_path, capsys, case, words):
    assert main(["classify", write_spec(tmp_path, "bad.json", MALFORMED[case][1])]) == 2
    assert words in capsys.readouterr().err


@pytest.mark.parametrize("case", ["dims_huge", "k_huge"])
def test_huge_integer_error_does_not_echo_its_digits(tmp_path, capsys, case):
    assert main(["classify", write_spec(tmp_path, "bad.json", MALFORMED[case][1])]) == 2
    err = capsys.readouterr().err
    assert "too large for numpy to index" in err and len(err) < 200


def test_readme_example1_spec_classifies(tmp_path, capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    spec = json.loads(next(s for s in lines if s.startswith('{"kind": "example1"')))
    assert main(["classify", write_spec(tmp_path, "example1.json", spec)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "entangling"


def test_integral_float_dims_still_parse(tmp_path, capsys):
    assert main(["classify", write_spec(tmp_path, "id.json", edited(IDENTITY, dims=[2.0, 2]))]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "stochastically_nonentangling"


@pytest.mark.parametrize("argv", [["classify", "ch.json"], ["schmidt", "ch.json"],
                                  ["scan", "--scenario", "fig3", "--out", "out.csv"]])
def test_search_flags_default_to_the_default_config(argv):
    args = build_parser().parse_args(argv)
    assert OptimizerConfig(restarts=args.restarts, seed=args.seed) == DEFAULT_CONFIG


def test_classify_missing_file_exits_2(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "nope.json")]) == 2
    assert "spec error" in capsys.readouterr().err


def test_classify_zero_restarts_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, "swap.json", channel_to_json(swap_channel(2)))
    assert main(["classify", spec, "--restarts", "0"]) == 2
    assert "restarts >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["classify", "SPEC", "--seed", "-1"],
    ["scan", "--scenario", "unitary_mix", "--step", "0.25", "--engine", "optimizer",
     "--seed", "-1", "--out", "OUT"],
])
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    spec = write_spec(tmp_path, "swap.json", channel_to_json(swap_channel(2)))
    out = tmp_path / "x.csv"
    argv = [spec if a == "SPEC" else str(out) if a == "OUT" else a for a in argv]
    assert main(argv) == 2
    assert "seed >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_scan_writes_deterministic_csv(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["scan", "--scenario", "fig3", "--step", "0.25", "--out"]
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    captured = capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "p,q,min_value"
    assert len(lines) == 26
    # the measurement scenario's zero-contour kink advisory goes to stderr
    assert "transposed" in captured.err


def test_scan_optimizer_engine(tmp_path):
    out = tmp_path / "opt.csv"
    rc = main(
        [
            "scan",
            "--scenario",
            "unitary_mix",
            "--step",
            "0.25",
            "--engine",
            "optimizer",
            "--restarts",
            "24",
            "--seed",
            "5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 16
    row = dict()
    for ln in lines[1:]:
        p, q, v = ln.split(",")
        row[(p, q)] = float(v)
    assert abs(row[("1", "0")] - (-0.2)) < 1e-6
    assert abs(row[("0", "0")] - 0.3) < 1e-6


def test_scan_optimizer_exits_3_when_a_point_does_not_converge(tmp_path, capsys):
    out = tmp_path / "opt.csv"
    argv = ["scan", "--scenario", "unitary_mix", "--step", "0.25", "--engine", "optimizer",
            "--out", str(out)]
    # every two-qubit certificate fails its replay, so the duals fall back to a 1-sweep descent
    with patch.object(witnesses, "CERT_PSD_RTOL", -np.inf), patch.object(witnesses, "MAX_SWEEPS", 1):
        assert main(argv) == 3
    assert "failed to converge" in capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 16  # the CSV is still written


@pytest.mark.parametrize("step", ["0.4", "1e-300", "5e-324"])
def test_scan_rejects_bad_step(tmp_path, capsys, step):
    # 1e-300 and 5e-324 are in range, but their axes have more points than numpy can index
    out = tmp_path / "x.csv"
    rc = main(["scan", "--scenario", "fig3", "--step", step, "--out", str(out)])
    assert rc == 2
    assert "spec error [step]" in capsys.readouterr().err
    assert not out.exists()


def test_schmidt_pure_state_report(tmp_path, capsys):
    spec = write_spec(tmp_path, "phi3.json", state_to_json(max_entangled(3, 3)))
    assert main(["schmidt", spec]) == 0
    out = capsys.readouterr().out
    assert "pure state on dims (3, 3)" in out
    assert "schmidt rank 3" in out


def test_schmidt_mixed_state_ppt_report(tmp_path, capsys):
    rho = DensityMatrix(np.eye(4) / 4, (2, 2))
    spec = write_spec(tmp_path, "mixed.json", state_to_json(rho))
    assert main(["schmidt", spec]) == 0
    out = capsys.readouterr().out
    assert "partial transpose across (0)|(1): positive" in out

    ent = max_entangled(2, 2).projector()
    spec = write_spec(
        tmp_path, "bell.json", state_to_json(DensityMatrix(ent, (2, 2)))
    )
    assert main(["schmidt", spec]) == 0
    out = capsys.readouterr().out
    # a pure density matrix falls back to the pure-state report
    assert "schmidt rank 2" in out


def test_schmidt_channel_report_and_cut(tmp_path, capsys):
    spec = write_spec(tmp_path, "swap.json", channel_to_json(swap_channel(2)))
    assert main(["schmidt", spec]) == 0
    captured = capsys.readouterr()
    assert "channel schmidt number bounds: (1, 1) [Choi rank 1: " in captured.out

    assert main(["schmidt", spec, "--cut", "0,2"]) == 0
    captured = capsys.readouterr()
    assert "choi cut (0,2)|(1,3): schmidt rank 4" in captured.out
    assert "rank d^2" in captured.err  # swap-cut advisory


def test_schmidt_swap_cut_note_needs_equal_dims(tmp_path, capsys):
    # M (x (x) y) = A y (x) B x on (2, 3) is `permutation_local`, but the
    # note's d^2 speaks of one dimension d, so it stays silent
    rng = np.random.default_rng(1)
    v = np.eye(6).reshape(2, 3, 6).transpose(1, 0, 2).reshape(6, 6)
    m = np.kron(rng.normal(size=(2, 3)), rng.normal(size=(3, 2))) @ v
    spec = write_spec(tmp_path, "rect.json", channel_to_json(KrausChannel([m], (2, 3))))
    assert power.classify_kraus(m, (2, 3)).form == "permutation_local"
    assert main(["schmidt", spec, "--cut", "0,2"]) == 0
    captured = capsys.readouterr()
    assert "choi cut (0,2)|(1,3): schmidt rank 4" in captured.out
    assert captured.err == ""


def test_schmidt_cut_of_a_mixed_choi_matrix(tmp_path, capsys):
    mix = mixing_channel(0.3, max_entangled(2, 2).density())
    spec = write_spec(tmp_path, "mix.json", channel_to_json(mix))
    assert main(["schmidt", spec, "--cut", "0,2"]) == 0
    out = capsys.readouterr().out
    assert "choi cut (0,2)|(1,3): choi matrix is mixed" in out
    assert "brute-force SVD" not in out


def test_schmidt_single_operator_classifies_once(tmp_path, capsys):
    spec = write_spec(tmp_path, "cx.json", channel_to_json(unitary_channel(CNOT, (2, 2))))
    names = ("_structures", "_image_rank_search", "certify_kraus_channel", "product_minima")
    with ExitStack() as stack:
        spies = [stack.enter_context(patch.object(power, n, wraps=getattr(power, n)))
                 for n in names]
        assert main(["schmidt", spec]) == 0
    out = capsys.readouterr().out
    assert "channel schmidt number bounds: (2, 2) [Choi rank 1: " in out
    assert "kraus form" not in out and "channel schmidt rank" not in out
    assert [spy.call_count for spy in spies] == [1, 1, 1, 0]


def test_consecutive_mains_share_no_parsed_state(tmp_path, capsys):
    # the parser is built once per process; each call must parse from scratch
    spec = write_spec(tmp_path, "cx.json", channel_to_json(unitary_channel(CNOT, (2, 2))))
    assert build_parser() is build_parser()
    with patch("entpow.cli.OptimizerConfig", wraps=OptimizerConfig) as config:
        assert main(["classify", spec]) == 0
        first = capsys.readouterr().out
        assert config.call_args == call(restarts=64, seed=0)
        assert main(["schmidt", spec, "--cut", "0,2", "--seed", "5", "--restarts", "3"]) == 0
        assert "choi cut (0,2)|(1,3)" in capsys.readouterr().out
        assert config.call_args == call(restarts=3, seed=5)
        assert main(["classify", spec]) == 0
        assert capsys.readouterr().out == first
        assert config.call_args == call(restarts=64, seed=0)
        assert main(["schmidt", spec]) == 0
        assert "choi cut" not in capsys.readouterr().out
        assert config.call_args == call(restarts=64, seed=0)
    args = vars(build_parser().parse_args(["classify", spec]))
    assert "cut" not in args and (args["seed"], args["restarts"]) == (0, 64)


def test_schmidt_rank_boost_channel(tmp_path, capsys):
    ch = rank_boost_channel(2, 3, np.sqrt([0.5, 0.3, 0.2]))
    spec = write_spec(tmp_path, "boost.json", channel_to_json(ch))
    assert main(["schmidt", spec]) == 0
    out = capsys.readouterr().out
    assert "3" in out


def test_schmidt_bad_cut_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, "swap.json", channel_to_json(swap_channel(2)))
    assert main(["schmidt", spec, "--cut", "0,9"]) == 2
    assert "spec error" in capsys.readouterr().err


@pytest.mark.parametrize("spec, cut, field", [
    (state_to_json(max_entangled(2, 2)), "", "cut"),
    (channel_to_json(swap_channel(2)), "", "cut"),
    (channel_to_json(swap_channel(2)), "0,a", "cut"),
    (channel_to_json(swap_channel(2)), "0,0", "cut"),
    (state_to_json(max_entangled(2, 2)), "1,1", "cut"),
    ({"kind": "pure", "dims": [3], "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
     None, "dims"),
    # a JSON integer too large for a float
    ({"kind": "pure", "dims": [2, 2], "amplitudes": [[10**400, 0], [0, 0], [0, 0], [0, 0]]},
     None, "state.amplitudes"),
], ids=["state_empty", "channel_empty", "not_integer", "repeated", "state_repeated",
        "one_party", "huge_amplitude"])
def test_schmidt_bad_cut_exits_2_before_any_report(tmp_path, capsys, spec, cut, field):
    argv = ["schmidt", write_spec(tmp_path, "spec.json", spec)]
    assert main(argv + ([] if cut is None else ["--cut", cut])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"spec error [{field}]:" in captured.err


def test_scan_to_a_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["scan", "--scenario", "fig3", "--step", "0.25", "--out", str(out)]) == 2
    assert "spec error [out]: cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["missing/x.csv", "."], ids=["missing_directory", "directory"])
def test_scan_checks_its_out_path_before_the_grid_runs(tmp_path, capsys, out):
    argv = ["scan", "--scenario", "fig3", "--step", "0.005", "--out", str(tmp_path / out)]
    with patch("entpow.cli.run_scan", side_effect=AssertionError("the grid ran")) as scan:
        assert main(argv) == 2
    assert scan.call_count == 0
    assert "spec error [out]: cannot write" in capsys.readouterr().err


def test_scan_keeps_an_existing_out_file_until_it_writes(tmp_path, capsys):
    out = tmp_path / "x.csv"
    out.write_text("old\n")
    assert main(["scan", "--scenario", "fig3", "--step", "0.4", "--out", str(out)]) == 2
    assert out.read_text() == "old\n"
    assert main(["scan", "--scenario", "fig3", "--step", "0.25", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "p,q,min_value"


def test_classify_non_utf8_spec_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"label": "caf\u00e9"}'.encode("latin-1"))
    assert main(["classify", str(path)]) == 2
    assert f"spec error [{path}]: cannot read" in capsys.readouterr().err


def test_classify_integer_of_5000_digits_exits_2(tmp_path, capsys):
    # past the interpreter's digit limit, which json.dumps would refuse to write
    text = json.dumps(edited(IDENTITY, dims=[0, 2])).replace("[0, 2]", f"[1{'0' * 4999}, 2]")
    path = tmp_path / "long.json"
    path.write_text(text)
    assert main(["classify", str(path)]) == 2
    assert "spec error [" in capsys.readouterr().err


def test_installed_entry_point(tmp_path):
    spec = write_spec(tmp_path, "swap.json", channel_to_json(swap_channel(2)))
    proc = subprocess.run(
        [sys.executable, "-m", "entpow.cli", "classify", spec],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.count("\n") == 1 and proc.stdout.endswith("\n")
    blob = json.loads(proc.stdout)
    assert blob["verdict"] == "stochastically_nonentangling"
    assert blob == certificate_of(spec)
