"""Self-tests of the benchmark. Run with ``python3 -m pytest bench -q``.

The verifier must reject corrupted outputs, the tracer must attribute and
repeat its counts, and the runner must refuse to run without the program.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import entpow.cli  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, _union_length  # noqa: E402


def cli(argv, capsys) -> str:
    capsys.readouterr()
    assert entpow.cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.fixture(scope="module")
def reference():
    return verify.UnitaryMixReference()


@pytest.fixture(scope="module")
def channels():
    return {ch.name: ch for ch in workloads.certify_channels(7)}


@pytest.mark.parametrize("scenario", workloads.SCENARIOS)
def test_scan_verifier_catches_corrupted_and_dropped_rows(scenario, tmp_path, capsys, reference):
    out = tmp_path / "scan.csv"
    cli(["scan", "--scenario", scenario, "--step", "0.05", "--out", str(out)], capsys)
    text = out.read_text()
    good = verify.check_scan(text, scenario, 0.05, "closed_form", reference)
    assert good.problems == [] and good.decided == good.labelled > 0

    lines = text.splitlines()
    p, q, v = lines[9].split(",")
    lines[9] = f"{p},{q},{float(v) + 1e-6:.12g}"
    bad = verify.check_scan("\n".join(lines) + "\n", scenario, 0.05, "closed_form", reference)
    assert [pr.kind for pr in bad.problems] == ["value"]

    dropped = text.splitlines()
    del dropped[9]
    kinds = {pr.kind for pr in verify.check_scan(
        "\n".join(dropped) + "\n", scenario, 0.05, "closed_form", reference).problems}
    assert {"rows", "order"} <= kinds


def _classify(ch, tmp_path, capsys) -> dict:
    spec = tmp_path / f"{ch.name}.json"
    spec.write_text(json.dumps(ch.spec))
    return json.loads(cli(["classify", str(spec)], capsys))


@pytest.mark.parametrize("name", ["cnot", "mixing"])
def test_certificate_verifier_catches_flipped_verdict_and_tampered_input(
    name, channels, tmp_path, capsys
):
    ch = channels[name]
    blob = _classify(ch, tmp_path, capsys)
    assert verify.check_classify(ch, blob) == verify.Outcome([], 1, 1)
    assert {v["kind"] for v in blob["violations"]} == {"witness", "stochastic"}

    flipped = copy.deepcopy(blob)
    flipped["verdict"] = verify.SNE
    outcome = verify.check_classify(ch, flipped)
    assert [p.kind for p in outcome.problems] == ["false_sne"] and outcome.decided == 0
    assert not verify.is_expected(ch, outcome.problems)

    for i, v in enumerate(blob["violations"]):
        if name == "mixing" and v["kind"] == "stochastic":
            continue  # its entangled branch exists for every input: a moved input is still valid
        tampered = copy.deepcopy(blob)
        factor = tampered["violations"][i]["input"][0]
        factor[0], factor[1] = factor[1], factor[0]
        problems = verify.check_classify(ch, tampered).problems
        assert problems and {p.kind for p in problems} == {"replay"}, (v["kind"], problems)


def test_rank_boost_verdict_sne_is_caught_and_only_inconclusive_is_right(
    channels, tmp_path, capsys
):
    ch = channels["example1_sub"]
    blob = _classify(ch, tmp_path, capsys)
    outcome = verify.check_classify(ch, blob)
    assert outcome.labelled == 0
    if blob["verdict"] == "entangling":  # the known defect, with replayable evidence
        assert [p.kind for p in outcome.problems] == ["false_entangling"]
        assert verify.is_expected(ch, outcome.problems)
    else:
        assert blob["verdict"] == "inconclusive" and outcome.problems == []

    flipped = dict(blob, verdict=verify.SNE, violations=[])
    problems = verify.check_classify(ch, flipped).problems
    assert [p.kind for p in problems] == ["false_sne"]
    assert not verify.is_expected(ch, problems)


def test_schmidt_verifier_separates_known_defect_from_new_failure(channels):
    hidden = channels["hidden2_qubit"]
    known = verify.check_schmidt(hidden, "channel schmidt number bounds: (2, 2) [x]").problems
    assert [p.kind for p in known] == ["lower_bound"] and verify.is_expected(hidden, known)

    cnot = channels["cnot"]
    assert verify.check_schmidt(cnot, "channel schmidt rank: 2 (probes)").problems == []
    wrong = verify.check_schmidt(cnot, "channel schmidt rank: 1 (probes)").problems
    assert [p.kind for p in wrong] == ["upper_bound"] and not verify.is_expected(cnot, wrong)


def test_workload_inputs_repeat_for_a_seed():
    a, b, c = (workloads.certify_channels(s) for s in (5, 5, 6))
    assert [x.spec for x in a] == [x.spec for x in b]
    assert [x.spec for x in a] != [x.spec for x in c]
    assert [x.label for x in a] == [x.label for x in c]


def _traced(ops):
    tracer = Tracer()
    tracer.install()
    try:
        it = run.run_iteration(ops)
    finally:
        tracer.uninstall()
    return tracer, it


def test_traced_counts_repeat_for_a_seed_and_uninstall_restores(tmp_path):
    ops = [op for op in run.build_ops("certify-mix", 3, tmp_path)
           if op.channel.name in ("cnot", "swap3", "measure_prepare")]
    seen = []
    for _ in range(2):
        tracer, it = _traced(ops)
        assert it.unexpected == []
        seen.append((dict(tracer.calls), dict(tracer.counts), len(tracer.spans)))
    assert seen[0] == seen[1]
    assert seen[0][0]["power.certify_kraus_channel"] >= 3
    assert not hasattr(entpow.cli.main, "__wrapped__")
    assert not hasattr(entpow.cli.run_scan, "__wrapped__")


def test_pool_worker_spans_attach_to_run_scan(tmp_path, monkeypatch):
    monkeypatch.setenv("ENTPOW_THREADS", "2")
    out = tmp_path / "opt.csv"
    tracer = Tracer()
    tracer.install()
    try:
        code = entpow.cli.main(["scan", "--scenario", "measurement", "--step", "0.25",
                                "--engine", "optimizer", "--out", str(out)])
    finally:
        tracer.uninstall()
    assert code == 0
    (scan,) = [s for s in tracer.spans if s[1] == "scans.run_scan"]
    workers = [s for s in tracer.spans if s[1] == "witnesses.min_over_products"]
    assert len(workers) == 25 and all(s[2] == scan[0] for s in workers)
    assert any(s[3] != threading.main_thread().ident for s in workers)
    assert 0.0 <= tracer.self_time["scans.run_scan"] < tracer.total["scans.run_scan"]
    assert tracer.counts["scans.points"] == 25


def test_cpu_sums_each_operations_median_time():
    its = [run.Iteration(op_s=[1.0, 5.0]), run.Iteration(op_s=[2.0, 3.0]),
           run.Iteration(op_s=[1.5, 4.0])]
    assert run.median_time(its) == 5.5


def test_union_of_child_intervals():
    assert _union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert _union_length([(0, 2), (1, 3), (5, 6)], 1, 5.5) == 2.5


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
