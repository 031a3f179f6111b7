import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entpow
from entpow import scans, witnesses
from entpow.errors import EntpowError, SpecError
from entpow.scans import (
    CSV_HEADER,
    SCENARIO_ALIASES,
    SCENARIOS,
    format_csv,
    get_scenario,
    run_scan,
    write_csv,
    zero_contour_residual,
)
from entpow.witnesses import measurement_scan_min, unitary_mix_scan_min
from entpow.witnesses import OptimizerConfig


def test_scenario_lookup_and_aliases():
    for name in SCENARIOS:
        assert get_scenario(name).name == name
    for alias, target in SCENARIO_ALIASES.items():
        assert get_scenario(alias).name == target
    with pytest.raises(SpecError):
        get_scenario("unknown")


def test_step_validation():
    for bad in (0.0, -0.1, 0.3, 1.0, 1e-300):
        with pytest.raises(SpecError):
            run_scan("measurement", step=bad, engine="closed_form")
    with pytest.raises(SpecError):
        run_scan("measurement", step=0.25, engine="bogus")


def test_grid_shape_and_domain():
    meas = run_scan("measurement", step=0.25, engine="closed_form")
    # full unit square including both edges: 5x5 points
    assert len(meas.rows) == 25
    ps = [r[0] for r in meas.rows]
    assert ps == sorted(ps)  # row-major, p outermost
    assert meas.rows[0][:2] == (0.0, 0.0)
    assert meas.rows[-1][:2] == (1.0, 1.0)

    mix = run_scan("unitary_mix", step=0.25, engine="closed_form")
    # triangular domain p + q <= 1: 15 of the 25 points
    assert len(mix.rows) == 15
    assert all(p + q <= 1 + 1e-12 for p, q, _ in mix.rows)


def test_closed_form_matches_direct_evaluation():
    res = run_scan("measurement", step=0.25, engine="closed_form")
    for p, q, v in res.rows:
        assert abs(v - measurement_scan_min(p, q)) < 1e-15
    res = run_scan("unitary_mix", step=0.25, engine="closed_form")
    for p, q, v in res.rows:
        assert abs(v - unitary_mix_scan_min(p, q)) < 1e-15


def test_optimizer_engine_agrees_with_closed_form():
    cfg = OptimizerConfig(restarts=24, seed=7)
    for name, tol in (("measurement", 1e-8), ("unitary_mix", 1e-8)):
        res = run_scan(name, step=0.25, engine="optimizer", optimizer=cfg)
        assert res.all_converged
        assert zero_contour_residual(res) < tol


@pytest.mark.parametrize("name", ["measurement", "unitary_mix"])
def test_optimizer_scan_values_do_not_depend_on_the_batch(name):
    # the measurement duals are all shifted pure, and the other 12 of the 15
    # unitary_mix duals are solved by their two-qubit dual certificates, so none
    # is descended
    cfg = OptimizerConfig(restarts=16, seed=3)
    scenario = get_scenario(name)
    scan = run_scan(name, step=0.25, engine="optimizer", optimizer=cfg)
    p, q, _ = np.array(scan.rows).T
    duals = scans._duals(scenario, p, q)
    batched = witnesses.product_minima(duals, scenario.dims, cfg)
    assert not batched.restarts_used.any()
    for (_, _, v), dual, value, conv in zip(scan.rows, duals, batched.values, batched.converged):
        alone = witnesses.min_over_products(dual, scenario.dims, cfg)
        assert (v, value, conv) == (alone.value, alone.value, alone.converged)
    assert scan.all_converged == batched.converged.all()
    again = run_scan(name, step=0.25, engine="optimizer", optimizer=cfg)
    assert format_csv(again) == format_csv(scan)


def test_unitary_mix_optimizer_scan_is_exact_and_seed_free(tmp_path):
    # every dual is shifted pure or proved by its two-qubit certificate, so the
    # scan matches the closed form and no restart seed reaches it
    texts = []
    for seed in (0, 1, 7):
        scan = run_scan("unitary_mix", step=0.05, engine="optimizer",
                        optimizer=OptimizerConfig(seed=seed))
        p, q, values = np.array(scan.rows).T
        assert np.max(np.abs(values - unitary_mix_scan_min(p, q))) <= 1e-14
        path = tmp_path / f"mix-{seed}.csv"
        write_csv(scan, str(path))
        texts.append(path.read_bytes())
    assert texts[0] == texts[1] == texts[2]


def test_measurement_duals_are_solved_exactly():
    # each dual is b I + (a - b) P for the singlet projector P, so c I -+ |psi><psi|
    cfg = OptimizerConfig(seed=7)
    scenario = get_scenario("measurement")
    scan = run_scan("measurement", step=0.05, engine="optimizer", optimizer=cfg)
    p, q, values = np.array(scan.rows).T
    results = witnesses.product_minima(scans._duals(scenario, p, q), scenario.dims, cfg)
    assert len(results.values) == 441 and not results.restarts_used.any()
    assert values.tobytes() == results.values.tobytes()  # bitwise


def test_csv_format_and_determinism(tmp_path):
    res = run_scan("measurement", step=0.25, engine="closed_form")
    text = format_csv(res)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER == "p,q,min_value"
    assert len(lines) == 1 + len(res.rows)
    # grid coordinates print clean (no float dust like 0.30000000000000004)
    assert lines[7].startswith("0.25,0.25,")
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(res, str(p1))
    write_csv(run_scan("measurement", step=0.25, engine="closed_form"), str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")


def test_measurement_zero_contour_on_grid():
    # the closed form vanishes on q = 1/2 for p <= 1/3 and on 3p + 4q = 3
    # for q <= 1/2; check the grid rows pick these zeros up exactly
    res = run_scan("measurement", step=0.05, engine="closed_form")
    by_pq = {(round(p, 10), round(q, 10)): v for p, q, v in res.rows}
    for p in np.arange(0.0, 1.0 / 3 + 1e-12, 0.05):
        assert abs(by_pq[(round(p, 10), 0.5)]) < 1e-12
    for q in (0.0, 0.25):
        p = (3 - 4 * q) / 3
        if abs(p / 0.05 - round(p / 0.05)) < 1e-9:
            assert abs(by_pq[(round(p, 10), q)]) < 1e-12


REPO = Path(__file__).resolve().parent.parent
REFERENCE = REPO / "bench" / "reference" / "unitary_mix_closed_form.npy"


def test_unitary_mix_scan_matches_the_stored_reference():
    # values stored from the first benchmarked version, which maximized with scipy
    reference = np.load(REFERENCE)
    values = np.array([v for _, _, v in run_scan("unitary_mix", step=0.005).rows])
    assert values.shape == reference.shape == (20301,)
    assert np.max(np.abs(values - reference)) < 1e-12


@pytest.mark.parametrize("closed_form, name", [
    (measurement_scan_min, "measurement"),
    (unitary_mix_scan_min, "unitary_mix"),
])
def test_closed_forms_on_arrays_equal_scalar_calls(closed_form, name, monkeypatch):
    # blocks of 7 points split the grid at many places
    monkeypatch.setattr(witnesses, "CLOSED_FORM_BLOCK", 7)
    p, q, _ = np.array(run_scan(name, step=0.05).rows).T
    values = closed_form(p, q)
    assert isinstance(closed_form(p[7], q[7]), float)
    assert values.shape == p.shape
    assert values.tolist() == [closed_form(a, b) for a, b in zip(p.tolist(), q.tolist())]
    grid = closed_form(p.reshape(1, -1), q.reshape(1, -1))
    assert grid.shape == (1, p.size) and grid[0].tolist() == values.tolist()


@pytest.mark.parametrize("closed_form, bad", [
    (measurement_scan_min, (1.5, 0.0)),
    (measurement_scan_min, (0.0, -0.1)),
    (unitary_mix_scan_min, (0.8, 0.8)),
    (unitary_mix_scan_min, (np.nan, 0.0)),
])
def test_closed_forms_reject_one_bad_entry(closed_form, bad):
    p, q = np.full(10, 0.25), np.full(10, 0.5)
    p[6], q[6] = bad
    with pytest.raises(EntpowError, match=r"\(p, q\)"):
        closed_form(p, q)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_affine_duals_match_per_point_channels(name):
    scenario = SCENARIOS[name]
    witness = scenario.build_witness()
    p, q, _ = np.array(run_scan(name, step=0.1).rows).T
    duals = scans._duals(scenario, p, q)
    for a, b, dual in zip(p, q, duals):
        direct = scenario.build_channel(a, b).dual_apply(witness.operator)
        assert np.max(np.abs(dual - direct)) < 1e-14


def test_optimizer_scan_builds_three_channels(monkeypatch):
    built = []
    scenario = SCENARIOS["unitary_mix"]

    def build(p, q):
        built.append((p, q))
        return scenario.build_channel(p, q)

    counted = dataclasses.replace(scenario, build_channel=build)
    monkeypatch.setitem(SCENARIOS, "unitary_mix", counted)
    cfg = OptimizerConfig(restarts=4, seed=0)
    res = run_scan("unitary_mix", step=0.25, engine="optimizer", optimizer=cfg)
    assert len(res.rows) == 15
    assert built == [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]


def test_import_does_not_load_scipy():
    code = ("import sys, entpow, entpow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(entpow.__file__).resolve().parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"
