import numpy as np
import pytest

from entpow import witnesses
from entpow.errors import SpecError
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
    for bad in (0.0, -0.1, 0.3, 1.0):
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


def test_optimizer_scan_values_do_not_depend_on_the_batch(monkeypatch):
    # blocks of 7 rows split each point's 16 restarts across blocks
    monkeypatch.setattr(witnesses, "BLOCK_ROWS", 7)
    cfg = OptimizerConfig(restarts=16, seed=3)
    scenario = get_scenario("measurement")
    witness = scenario.build_witness()
    scan = run_scan("measurement", step=0.25, engine="optimizer", optimizer=cfg)
    duals = [scenario.build_channel(p, q).dual_apply(witness.operator) for p, q, _ in scan.rows]
    batched = witnesses.min_over_products_many(duals, scenario.dims, cfg)
    for (_, _, v), dual, res in zip(scan.rows, duals, batched):
        alone = witnesses.min_over_products(dual, scenario.dims, cfg)
        assert (v, res.value, res.converged) == (alone.value, alone.value, alone.converged)
    assert scan.all_converged == all(r.converged for r in batched)
    again = run_scan("measurement", step=0.25, engine="optimizer", optimizer=cfg)
    assert format_csv(again) == format_csv(scan)


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
