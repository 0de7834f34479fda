"""Pipeline and CLI tests: artifact schemas, determinism, sweeps, exit codes."""

import csv
import dataclasses
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

import artifact_reference
import validate_reference
import mbsplan
from mbsplan import cli, dimensioning, pipeline, qosmodel
from mbsplan.allocation import (TIE_BREAK_EPSILON, CostModel, DeploymentPlan, SavingsReport,
                                Violation, optimal_plan, savings)
from mbsplan.dimensioning import demand_matrix
from mbsplan.qosmodel import NonFinite, evaluate_qos
from mbsplan.pipeline import (run_pipeline, sweep_cost_ratio, sweep_density_ratio,
                              write_sweep_csv)
from mbsplan.scenario import (M2_PER_KM2, default_config, default_scenario, load_scenario,
                              slot_midpoints_h, user_density_matrix)

SERIES_HEADER = ("slot,time_h,region_id,baseline_per_km2,static_only_per_km2,"
                 "static_per_km2,mbs_per_km2,total_per_km2,excess_per_km2,mbs_fraction")
DEMAND_HEADER = ("slot,time_h,region_id,user_density_per_km2,"
                 "min_bs_density_per_km2,achieved_delay_s_per_bit")

# Two regions with mirrored peaks: the cheapest deployment keeps 2/km^2
# static in each region and shuttles 8 mobile stations back and forth.
HAND_DEMAND = np.array([[10.0, 2.0], [2.0, 10.0]]) / M2_PER_KM2
HAND_AREAS = np.array([M2_PER_KM2, M2_PER_KM2])


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("default_run")
    run_pipeline(None, out)
    return out


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _manifest(out):
    return json.loads((out / "manifest.json").read_text())


def test_run_emits_complete_artifact_set(default_run):
    assert sorted(p.name for p in default_run.iterdir()) == [
        "demand.csv", "manifest.json", "plan.json", "savings.json", "series.csv"]
    manifest = _manifest(default_run)
    assert set(manifest) == {"config_sha256", "dimensioning", "numpy_version",
                             "scipy_version", "tool_version", "wall_time_s"}
    expected = hashlib.sha256(
        json.dumps(default_config(), sort_keys=True).encode()).hexdigest()
    assert manifest["config_sha256"] == expected
    # default_config() builds its radio block from RadioParams' fields: pin its bytes
    assert expected == "b2911cb002f8eef400448858ba271ac0564db375371300d886cb3334ec41f637"
    assert manifest["tool_version"] == mbsplan.__version__
    assert manifest["wall_time_s"] > 0.0
    assert manifest["numpy_version"] == np.__version__
    assert manifest["scipy_version"] == scipy.__version__
    users = user_density_matrix(default_scenario())
    counters = manifest["dimensioning"]
    assert set(counters) == {"cells", "distinct_loads", "fixed_point_iterations"}
    assert counters["cells"] == users.size
    assert counters["distinct_loads"] == np.unique(users).size
    # one fixed point per positive cell, each at least one iteration
    cells = np.count_nonzero(users)
    assert counters["fixed_point_iterations"] >= cells
    # and, with the secant step, at most three (plain iteration took 17)
    assert counters["fixed_point_iterations"] <= 3 * cells


def test_demand_csv_schema(default_run):
    header, rows = _read_csv(default_run / "demand.csv")
    assert ",".join(header) == DEMAND_HEADER
    assert len(rows) == 60 * 2
    users = user_density_matrix(default_scenario())
    for row in rows:
        j = int(row[0])
        z = ["office", "residential"].index(row[2])
        # repr round trip: the parsed cell equals the source value exactly
        assert float(row[1]) == slot_midpoints_h(60)[j]
        assert float(row[3]) == users[j, z] * 1e6
        assert float(row[4]) > 0.0
        assert 0.0 < float(row[5]) <= default_scenario().radio.target_delay_s_per_bit


def test_demand_csv_round_trip(default_run):
    scenario = default_scenario()
    users = user_density_matrix(scenario)
    demand, achieved, _ = demand_matrix(users, scenario.radio)
    lines = (default_run / "demand.csv").read_text().strip().split("\n")
    assert lines[0] == DEMAND_HEADER
    assert len(lines) == 1 + demand.size
    for line in lines[1:]:
        slot, time_h, rid, lam_u, lam_b, delay = line.split(",")
        j = int(slot)
        z = scenario.region_ids.index(rid)
        # repr round trip: parsing the cell recovers the exact float
        assert float(time_h) == slot_midpoints_h(scenario.num_slots)[j]
        assert float(lam_u) == users[j, z] * M2_PER_KM2
        assert float(lam_b) == demand[j, z] * M2_PER_KM2
        assert float(delay) == achieved[j, z]


@pytest.fixture
def hand_run(tmp_path, monkeypatch):
    """The directory ``run`` writes for a two-slot scenario whose solve is
    the hand instance."""
    config = default_config()
    config["num_slots"] = 2
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    plan = optimal_plan(HAND_DEMAND, HAND_AREAS)
    zeros = np.zeros((2, 2))
    monkeypatch.setattr(pipeline, "_solve_scenario", lambda scenario: pipeline._Solved(
        scenario, zeros, HAND_DEMAND, zeros, zeros.astype(int), plan,
        savings(plan, HAND_DEMAND, HAND_AREAS)))
    run_pipeline(path, tmp_path / "out")
    return tmp_path / "out"


def test_plan_json_schema(hand_run):
    out = json.loads((hand_run / "plan.json").read_text())
    assert set(out) == {"fleet_size", "fleet_size_ceil", "static_density_per_km2",
                        "mbs_schedule_per_km2", "objective_value", "cost_model",
                        "tie_break_epsilon"}
    assert out["fleet_size"] == pytest.approx(8.0, rel=1e-9)
    assert out["fleet_size_ceil"] == 8
    assert out["static_density_per_km2"]["office"] == pytest.approx(2.0, rel=1e-9)
    np.testing.assert_allclose(out["mbs_schedule_per_km2"], [[8.0, 0.0], [0.0, 8.0]],
                               rtol=1e-9, atol=1e-9)
    assert out["cost_model"] == {"static_unit_cost": 1.0, "mobile_unit_cost": 1.0}
    assert out["tie_break_epsilon"] == TIE_BREAK_EPSILON


def test_savings_json_schema(hand_run):
    out = json.loads((hand_run / "savings.json").read_text())
    assert set(out) == {"static_only_total", "hybrid_total", "total_saving_fraction",
                        "per_region_static_saving_fraction", "peak_aggregate_demand",
                        "excess_capacity_per_km2", "mbs_fraction"}
    assert out["per_region_static_saving_fraction"]["residential"] == \
        pytest.approx(0.8, rel=1e-9)
    # every cell is covered exactly, and the whole fleet sits where demand peaks
    np.testing.assert_allclose(out["excess_capacity_per_km2"], np.zeros((2, 2)), atol=1e-9)
    np.testing.assert_allclose(out["mbs_fraction"], [[1.0, 0.0], [0.0, 1.0]], atol=1e-9)


def test_run_returns_the_written_savings_report(tmp_path):
    report = run_pipeline(None, tmp_path)
    written = json.loads((tmp_path / "savings.json").read_text())
    for key in ("static_only_total", "hybrid_total", "total_saving_fraction",
                "peak_aggregate_demand"):
        assert written[key] == getattr(report, key), key
    assert written["per_region_static_saving_fraction"] == dict(
        zip(("office", "residential"), report.per_region_static_saving_fraction.tolist()))
    assert written["mbs_fraction"] == report.mbs_fraction_series.tolist()
    # the report holds no excess: the written one is series.csv's
    _, rows = _read_csv(tmp_path / "series.csv")
    assert sum(written["excess_capacity_per_km2"], []) == [float(row[8]) for row in rows]


def test_series_csv_identities(default_run):
    header, rows = _read_csv(default_run / "series.csv")
    assert ",".join(header) == SERIES_HEADER
    assert len(rows) == 60 * 2
    static_only = {}
    baseline_max = {}
    for row in rows:
        rid = row[2]
        baseline, static_col = float(row[3]), float(row[5])
        mbs, total, excess = float(row[6]), float(row[7]), float(row[8])
        # identities hold bit-exactly on the parsed per-km^2 values
        assert total == static_col + mbs
        assert excess == total - baseline
        assert excess >= -1e-8
        assert 0.0 <= float(row[9]) <= 1.0 + 1e-9
        static_only[rid] = float(row[4])
        baseline_max[rid] = max(baseline_max.get(rid, 0.0), baseline)
    for rid, cap in static_only.items():
        assert cap == baseline_max[rid]


def test_plan_and_savings_json_consistency(default_run):
    plan = json.loads((default_run / "plan.json").read_text())
    report = json.loads((default_run / "savings.json").read_text())
    areas = {"office": 1.0, "residential": 10.0}
    hybrid = plan["fleet_size"] + sum(
        plan["static_density_per_km2"][rid] * areas[rid] for rid in areas)
    assert report["hybrid_total"] == pytest.approx(hybrid, rel=1e-12)
    assert report["total_saving_fraction"] == pytest.approx(
        1.0 - report["hybrid_total"] / report["static_only_total"], rel=1e-12)
    assert report["total_saving_fraction"] > 0.0
    assert plan["fleet_size_ceil"] >= plan["fleet_size"] - 1e-9
    assert len(plan["mbs_schedule_per_km2"]) == 60
    assert len(report["excess_capacity_per_km2"]) == 60
    # the office district runs on far fewer static stations than its peak
    assert report["per_region_static_saving_fraction"]["office"] > 0.0


def test_rerun_is_byte_identical(default_run, tmp_path):
    run_pipeline(None, tmp_path)
    for name in ("demand.csv", "plan.json", "savings.json", "series.csv"):
        assert (tmp_path / name).read_bytes() == (default_run / name).read_bytes()
    # wall time differs; everything else in the manifest must not
    first_manifest = dict(_manifest(default_run), wall_time_s=None)
    assert dict(_manifest(tmp_path), wall_time_s=None) == first_manifest
    # Three regions at equal cost take the HiGHS path, in the run and at
    # the sweep's ratio-1 point; CI runs the same comparison through the CLI.
    config = str(Path(__file__).parent / "data" / "three_regions.json")
    runs = [tmp_path / "three_first", tmp_path / "three_second"]
    for out in runs:
        assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
        assert cli.main(["sweep-cost", "--config", config, "--ratios", "1:3:3",
                         "--out", str(out)]) == 0
    for name in ("demand.csv", "plan.json", "savings.json", "series.csv", "sweep_cost.csv"):
        assert (runs[1] / name).read_bytes() == (runs[0] / name).read_bytes()
    first, second = (dict(_manifest(out), wall_time_s=None) for out in runs)
    assert second == first


def test_explicit_default_config_file_reproduces_builtin_run(default_run, tmp_path):
    config = tmp_path / "config.json"
    config.write_bytes(json.dumps(default_config(), sort_keys=True).encode())
    out = tmp_path / "out"
    run_pipeline(config, out)
    assert _manifest(out)["config_sha256"] == _manifest(default_run)["config_sha256"]
    for name in ("plan.json", "savings.json"):
        assert (out / name).read_bytes() == (default_run / name).read_bytes()


@pytest.mark.parametrize("case", ["office_table_csv", "committed_percent_csvs"])
def test_csv_profiles_reproduce_builtin_run(default_run, tmp_path, case):
    if case == "office_table_csv":
        rows = "".join(f"{t!r},{v!r}\n" for t, v in default_scenario().regions[0].profile)
        (tmp_path / "office.csv").write_text("time_h,normalized_load\n" + rows)
        config = default_config()
        config["regions"][0]["profile"] = "office.csv"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
    else:
        # both builtin tables in percent: each v / 100 rounds to the table's float
        path = Path(__file__).parent / "data" / "csv_profiles" / "config.json"
    users = user_density_matrix(load_scenario(path.read_text(), base_dir=path.parent))
    assert users.tobytes() == user_density_matrix(default_scenario()).tobytes()
    out = tmp_path / "out"
    run_pipeline(path, out)
    for name in ("demand.csv", "plan.json", "savings.json", "series.csv"):
        assert (out / name).read_bytes() == (default_run / name).read_bytes()
    assert _manifest(out)["dimensioning"] == _manifest(default_run)["dimensioning"]


def _failing_series_writer(staged_before, error=RuntimeError):
    """A series writer that records the names of the files already staged
    beside it, hidden in its directory as ``.<name>.<token>``, then fails."""
    def boom(path, solved):
        entries = Path(path).parent.iterdir()
        hidden = (re.fullmatch(r"\.(.+)\.[0-9a-f]{16}", p.name) for p in entries)
        staged_before.extend(sorted(match[1] for match in hidden if match))
        raise error("disk full, allegedly")
    return boom


def test_failed_run_cleans_up_partial_outputs(tmp_path, monkeypatch):
    staged = []
    monkeypatch.setattr(pipeline, "_write_series_csv", _failing_series_writer(staged))
    out = tmp_path / "partial"
    with pytest.raises(RuntimeError, match="disk full"):
        run_pipeline(None, out)
    # demand/plan/savings were written before the failure and must be gone
    assert staged == ["demand.csv", "plan.json", "savings.json"]
    assert list(out.iterdir()) == []


def test_failed_rerun_leaves_previous_artifacts_untouched(tmp_path, monkeypatch):
    out = tmp_path / "out"
    run_pipeline(None, out)
    names = ("demand.csv", "plan.json", "savings.json", "series.csv", "manifest.json")
    before = {name: (out / name).read_bytes() for name in names}

    for error in (RuntimeError, KeyboardInterrupt):
        staged = []
        monkeypatch.setattr(pipeline, "_write_series_csv", _failing_series_writer(staged, error))
        with pytest.raises(error, match="disk full"):
            run_pipeline(None, out)
        assert staged == ["demand.csv", "plan.json", "savings.json"]
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        assert {name: (out / name).read_bytes() for name in names} == before


def test_run_and_sweep_create_no_directory_but_out(tmp_path, monkeypatch, capsys):
    # Staging beside the targets needs no directory of its own: a run into a
    # fresh directory makes that directory only, a sweep into it none. A
    # temporary directory goes through os.mkdir on every Python; Path.mkdir
    # does so only from 3.11, so calls for `out` itself may or may not show.
    made = []
    mkdir = os.mkdir

    def recording(path, *args, **kwargs):
        made.append(Path(path))
        return mkdir(path, *args, **kwargs)

    monkeypatch.setattr(os, "mkdir", recording)
    out = tmp_path / "fresh"
    assert cli.main(["run", "--out", str(out)]) == 0
    assert set(made) <= {out}
    assert sorted(p.name for p in out.iterdir()) == sorted(RUN_FILES)
    made.clear()
    assert cli.main(["sweep-cost", "--ratios", "1:3:3", "--out", str(out)]) == 0
    assert set(made) <= {out}
    assert sorted(p.name for p in out.iterdir()) == sorted(RUN_FILES + ("sweep_cost.csv",))
    assert [p.name for p in tmp_path.iterdir()] == ["fresh"]


DATA = Path(__file__).parent / "data"


RUN_FILES = ("demand.csv", "plan.json", "savings.json", "series.csv", "manifest.json")


@pytest.mark.parametrize("name", RUN_FILES)
def test_rerun_onto_a_directory_in_an_artifacts_place_replaces_nothing(tmp_path, name):
    # The files were once moved one by one, so a directory named savings.json
    # left demand.csv and plan.json new beside an old series.csv.
    out = tmp_path / "out"
    run_pipeline(DATA / "three_regions.json", out)
    (out / name).unlink()
    (out / name).mkdir()
    (out / name / "kept").write_text("x")
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    with pytest.raises(IsADirectoryError,
                       match=re.escape(f"cannot write {out / name}: it is a directory")):
        run_pipeline(None, out)
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
    assert sorted(p.name for p in out.iterdir()) == sorted(RUN_FILES)  # no staged directory
    assert [p.name for p in (out / name).iterdir()] == ["kept"]


def _assert_run_matches_reference_writers(out, reference, config, solved):
    """The five files ``run_pipeline(config, out)`` wrote for ``solved`` are
    the bytes the reference writers write for it into ``reference``."""
    raw = pipeline._load(config)[1]
    reference.mkdir()
    artifact_reference.write_run(reference, solved, {
        "config_sha256": hashlib.sha256(raw).hexdigest(),
        "dimensioning": {"cells": int(solved.users.size),
                         "distinct_loads": int(np.unique(solved.users).size),
                         "fixed_point_iterations": int(solved.iterations.sum())},
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "tool_version": mbsplan.__version__,
        "wall_time_s": _manifest(out)["wall_time_s"],
    })
    for name in RUN_FILES:
        assert (out / name).read_bytes() == (reference / name).read_bytes(), name


def _assert_sweep_csv_matches_reference_writer(tmp_path, result):
    write_sweep_csv(tmp_path / "sweep.csv", result)
    artifact_reference.write_sweep_csv(tmp_path / "reference_sweep.csv", result)
    assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "reference_sweep.csv").read_bytes()


BYTE_EQUAL_CONFIGS = pytest.mark.parametrize(
    "config", [None, DATA / "three_regions.json", DATA / "csv_profiles" / "config.json"],
    ids=["builtin", "three_regions", "csv_profiles"])


@BYTE_EQUAL_CONFIGS
def test_artifacts_are_byte_equal_to_the_reference_writers(tmp_path, config):
    # test_golden compares floats to 1e-12 only: this pins every byte,
    # repr form and JSON layout included, against the per-file writers.
    run_pipeline(config, tmp_path / "out")
    scenario = pipeline._load(config)[0]
    solved = pipeline._solve_scenario(scenario)
    _assert_run_matches_reference_writers(tmp_path / "out", tmp_path / "reference", config,
                                          solved)
    _assert_sweep_csv_matches_reference_writer(tmp_path, sweep_cost_ratio(config, [1.0, 2.0, 3.0]))
    if len(scenario.regions) == 2:
        _assert_sweep_csv_matches_reference_writer(
            tmp_path, sweep_density_ratio(config, [1.0, 4.0, 10.0]))


@BYTE_EQUAL_CONFIGS
def test_savings_excess_is_the_series_strings(tmp_path, config):
    # One derivation: savings.json's excess matrix holds series.csv's
    # excess_per_km2 strings, slot-major, not a second computation of them.
    run_pipeline(config, tmp_path)
    text = (tmp_path / "savings.json").read_text()
    matrix = text.split('\n  "excess_capacity_per_km2": [')[1].split("\n  ]")[0]
    _, rows = _read_csv(tmp_path / "series.csv")
    assert re.findall(r"[^\s\[\],]+", matrix) == [row[8] for row in rows]


def _odd_floats(rng, shape):
    """Floats over the whole double range in every repr form, with zeros of
    both signs and non-finite values mixed in."""
    values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-320.0, 308.0, shape)
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e16, 1e-5, 0.1, 5e-324])
    mask = rng.random(shape) < 0.3
    values[mask] = rng.choice(specials, int(mask.sum()))
    return values


def test_synthetic_artifacts_are_byte_equal_to_the_reference_writers(tmp_path, monkeypatch):
    # A four-region, seven-slot solve with a zero fleet and no static build
    # in two regions (-0.0 among the zeros), and non-finite values in every
    # array that may hold them.
    config = json.loads((DATA / "three_regions.json").read_text())
    config["regions"].append(dict(config["regions"][0], id="harbour"))
    config["num_slots"] = 7
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rng = np.random.default_rng(11)
    shape = (7, 4)
    schedule = np.zeros(shape)
    schedule[::2, 1] = -0.0
    plan = DeploymentPlan(static_density=[0.0, -0.0, 3e-5, 1.0 / 3.0], mbs_schedule=schedule,
                          fleet_size=0.0, objective_value=-0.0, cost_model=CostModel(2.0, 1.0))
    # A dropped draw keeps the arrays below as seed 11 has always given them:
    # other draws may hold user or demand densities past 1.8e302 per m^2,
    # whose per-km^2 values overflow.
    _odd_floats(rng, shape)
    report = SavingsReport(static_only_total=0.0, hybrid_total=-0.0,
                           total_saving_fraction=np.nan,
                           per_region_static_saving_fraction=[np.inf, -0.0, 0.5, np.nan],
                           peak_aggregate_demand=np.inf,
                           mbs_fraction_series=_odd_floats(rng, shape))
    solved = []

    def synthetic(scenario):
        solved.append(pipeline._Solved(
            scenario, np.abs(_odd_floats(rng, shape)), np.abs(_odd_floats(rng, shape)),
            _odd_floats(rng, shape), np.zeros(shape, dtype=int), plan, report))
        return solved[0]

    monkeypatch.setattr(pipeline, "_solve_scenario", synthetic)
    run_pipeline(path, tmp_path / "out")
    _assert_run_matches_reference_writers(tmp_path / "out", tmp_path / "reference", path,
                                          solved[0])
    assert "-Infinity" in (tmp_path / "out" / "savings.json").read_text()

    fleet = np.array([1.0, np.nan, 2.0, 0.0, np.inf])  # the NaN is a failed point
    _assert_sweep_csv_matches_reference_writer(tmp_path, pipeline.SweepResult(
        parameter_values=np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        total_saving_fraction=np.array([-0.0, 0.25, np.nan, 1e-300, -np.inf]),
        per_region_static_saving=_odd_floats(rng, (5, 4)), fleet_size=fleet,
        objective=-fleet, region_ids=solved[0].scenario.region_ids, failures=[]))


def test_density_sweep_identity_point_matches_run(default_run):
    result = sweep_density_ratio(None, [10.0])
    assert result.failures == []
    plan = json.loads((default_run / "plan.json").read_text())
    report = json.loads((default_run / "savings.json").read_text())
    assert float(result.total_saving_fraction[0]) == report["total_saving_fraction"]
    assert float(result.fleet_size[0]) == plan["fleet_size"]
    assert float(result.objective[0]) == plan["objective_value"]
    assert result.region_ids == ("office", "residential")
    per_region = report["per_region_static_saving_fraction"]
    assert float(result.per_region_static_saving[0][0]) == per_region["office"]
    assert float(result.per_region_static_saving[0][1]) == per_region["residential"]


def test_cost_sweep_unit_ratio_matches_equal_cost_run(tmp_path):
    # At unit costs the sweep's saving, 1 - objective / static-only total,
    # is the run's bit for bit: in closed form with two regions, and through
    # HiGHS with three.
    for config in (None, DATA / "three_regions.json"):
        out = tmp_path / ("builtin" if config is None else config.stem)
        run_pipeline(config, out)
        result = sweep_cost_ratio(config, [1.0])
        assert result.failures == []
        plan = json.loads((out / "plan.json").read_text())
        report = json.loads((out / "savings.json").read_text())
        assert float(result.total_saving_fraction[0]) == report["total_saving_fraction"]
        assert float(result.fleet_size[0]) == plan["fleet_size"]
        assert float(result.objective[0]) == plan["objective_value"]
        per_region = report["per_region_static_saving_fraction"]
        assert result.per_region_static_saving[0].tolist() == \
            [per_region[rid] for rid in result.region_ids]


def test_cost_sweep_computes_user_densities_once(monkeypatch):
    calls = []

    def counted(scenario):
        calls.append(scenario)
        return user_density_matrix(scenario)

    monkeypatch.setattr(pipeline, "user_density_matrix", counted)
    result = sweep_cost_ratio(None, [1.0, 2.0, 3.0])
    assert result.failures == []
    assert len(calls) == 1


def test_sweep_input_validation(tmp_path):
    with pytest.raises(ValueError):
        sweep_density_ratio(None, [0.5, 2.0])
    with pytest.raises(ValueError):
        sweep_cost_ratio(None, [0.9])
    config = dict(default_config())
    config["regions"] = config["regions"][:1]
    path = tmp_path / "one_region.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ValueError, match="2 regions"):
        sweep_density_ratio(path, [1.0, 2.0])


def test_sweep_tolerates_failed_points(monkeypatch, tmp_path):
    real_solve = pipeline._solve_scenario

    def flaky(scenario, *args, **kwargs):
        if scenario.regions[1].area_km2 == 2.0:
            raise RuntimeError("solver exploded")
        return real_solve(scenario, *args, **kwargs)

    monkeypatch.setattr(pipeline, "_solve_scenario", flaky)
    result = sweep_density_ratio(None, [1.0, 2.0, 3.0])
    assert len(result.failures) == 1
    assert result.failures[0][0] == 2.0
    assert "RuntimeError: solver exploded" in result.failures[0][1]
    assert np.isnan(result.fleet_size[1])
    assert np.isfinite(result.fleet_size[0]) and np.isfinite(result.fleet_size[2])

    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, result)
    header, rows = _read_csv(path)
    assert len(rows) == 2  # the failed point is skipped, not written as NaN
    assert [float(r[0]) for r in rows] == [1.0, 3.0]


def test_cost_sweep_collects_a_ratio_the_cost_model_rejects():
    # A point's costs are built inside its own try: a NaN ratio fails alone.
    result = sweep_cost_ratio(None, [1.0, np.nan, 2.0])
    [(value, message)] = result.failures
    assert np.isnan(value)
    assert message == "ValidationError: static_unit_cost must be a finite number, got nan"
    assert np.isnan(result.fleet_size[1])
    assert np.all(np.isfinite(result.fleet_size[[0, 2]]))


def test_sweep_keeps_region_columns_when_every_point_fails(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise RuntimeError("solver exploded")

    monkeypatch.setattr(pipeline, "_solve_scenario", broken)
    result = sweep_cost_ratio(None, [1.0, 2.0])
    assert len(result.failures) == 2
    assert result.region_ids == ("office", "residential")
    path = tmp_path / "sweep_cost.csv"
    write_sweep_csv(path, result)
    header, rows = _read_csv(path)
    assert header[-2:] == ["static_saving_office", "static_saving_residential"]
    assert rows == []


def test_failed_sweep_csv_write_keeps_the_previous_file(monkeypatch, tmp_path):
    # The CSV is staged beside its path and moved into place once written:
    # a write that fails part-way, by an error or an interrupt, leaves the
    # previous bytes and no stray file.
    path = tmp_path / "sweep_cost.csv"
    write_sweep_csv(path, sweep_cost_ratio(None, [1.0, 2.0]))
    before = path.read_bytes()
    # the CSV gets the mode of any new file
    fresh = tmp_path / "fresh"
    fresh.write_text("")
    assert path.stat().st_mode == fresh.stat().st_mode
    fresh.unlink()
    result = sweep_cost_ratio(None, [3.0])
    for error in (OSError("disk full"), KeyboardInterrupt("disk full")):
        def failing(staged, columns):
            Path(staged).write_text("parameter,total")
            raise error

        monkeypatch.setattr(pipeline, "_write_csv", failing)
        with pytest.raises(type(error), match="disk full"):
            write_sweep_csv(path, result)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["sweep_cost.csv"]


def test_sweep_csv_schema(tmp_path):
    result = sweep_cost_ratio(None, np.linspace(1.0, 2.0, 3))
    path = tmp_path / "sweep_cost.csv"
    write_sweep_csv(path, result)
    header, rows = _read_csv(path)
    assert header == ["parameter", "total_saving_fraction", "fleet_size",
                      "objective", "static_saving_office", "static_saving_residential"]
    assert len(rows) == 3
    for row in rows:
        for cell in row:
            float(cell)  # every cell must re-parse
    assert [float(r[0]) for r in rows] == [1.0, 1.5, 2.0]


def test_cli_run(tmp_path, capsys):
    out = tmp_path / "artifacts"
    assert cli.main(["run", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert f"wrote {out}" in captured.out
    assert "total saving" in captured.out
    assert (out / "plan.json").exists()


def test_cli_sweep_density(tmp_path):
    assert cli.main(["sweep-density", "--ratios", "1:2:2", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "sweep_density.csv")
    assert len(rows) == 2


def test_cli_sweep_cost(tmp_path):
    assert cli.main(["sweep-cost", "--ratios", "1:3:3", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "sweep_cost.csv")
    assert len(rows) == 3


def test_cli_sweep_onto_a_directory_in_the_csvs_place_replaces_nothing(tmp_path, capsys):
    target = tmp_path / "sweep_cost.csv"
    target.mkdir()
    (target / "kept").write_text("x")
    assert cli.main(["sweep-cost", "--ratios", "1:3:3", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"error: cannot write {target}: it is a directory; "
                                       "no artifact was replaced\n")
    assert [p.name for p in tmp_path.iterdir()] == ["sweep_cost.csv"]  # no staged file
    assert [p.name for p in target.iterdir()] == ["kept"]


def test_cli_sweep_reports_failed_points(monkeypatch, tmp_path, capsys):
    real_solve = pipeline._solve_scenario

    def flaky(scenario, *args, **kwargs):
        if scenario.regions[1].area_km2 == 2.0:
            raise RuntimeError("solver exploded")
        return real_solve(scenario, *args, **kwargs)

    monkeypatch.setattr(pipeline, "_solve_scenario", flaky)
    code = cli.main(["sweep-density", "--ratios", "1:3:3", "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "point 2 failed" in captured.err
    assert (tmp_path / "sweep_density.csv").exists()


@pytest.mark.parametrize("density, noise", [(1e-200, None), (1e-300, None), (1e-312, 0.0)],
                         ids=["1e-200", "1e-300", "noiseless-1e-312"])
def test_cli_tiny_load_names_its_cell(tmp_path, capsys, density, noise):
    # On the default radio these loads' roots lie far above the densities
    # where the rate underflows to 0, a miss, and the run succeeds. On a
    # noiseless radio a peak of 1e-312 per km^2 puts every root of its
    # region below the density lattice, and the error names the first
    # cell of the smallest load. Neither prints a NumPy warning.
    config = default_config()
    config["regions"][0]["peak_user_density_per_km2"] = density
    if noise is not None:
        config["radio"]["noise_psd_w_per_hz"] = noise
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert caught == []
    err = capsys.readouterr().err
    if noise is None:
        assert (code, err) == (0, "")
    else:
        assert code == 1
        assert re.fullmatch(r"error: dimensioning: slot \d+, region office: inversion: "
                            r"lambda_u=\S+ meets the "
                            r"target at the lattice's lowest density \S+, so its root is not "
                            r"resolved\n", err)


def test_cli_dimensioning_failure_names_stage_slot_and_region(monkeypatch, tmp_path, capsys):
    # These once named the region by its index and no stage.
    config = default_config()
    config["regions"][1]["peak_user_density_per_km2"] = 1e9
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: dimensioning: slot 0, region residential: delay target 1.000e-05 s/bit unmet "
        "at the density cap 100000 per km^2 (user density 4.02e+08 per km^2)\n")
    assert not any(out.iterdir())

    def office_diverges(lambda_b, lambda_u, params, **kwargs):
        result = evaluate_qos(lambda_b, lambda_u, params, **kwargs)
        return dataclasses.replace(result, converged=result.converged & (lambda_u < 5e-3))

    monkeypatch.setattr(dimensioning, "evaluate_qos", office_diverges)
    assert cli.main(["sweep-cost", "--ratios", "1:2:2", "--out", str(out)]) == 1
    assert re.fullmatch(r"error: dimensioning: slot 19, region office: utilization fixed point "
                        r"did not converge at lambda_b=\S+, lambda_u=5\.680000e-03\n",
                        capsys.readouterr().err)


@pytest.mark.parametrize("violations,message", [
    ([Violation("coverage", 3, 1, 1.5e-9), Violation("static_cap", None, 0, 1e-9)],
     "coverage at slot 3, region residential is off by 0.0015 stations/km^2 (and 1 more)"),
    ([Violation("closed_system", 2, None, 0.25)],
     "closed_system at slot 2 is off by 0.25 stations (and 0 more)"),
], ids=["coverage", "closed_system"])
def test_cli_infeasible_plan_names_stage_slot_and_region(monkeypatch, tmp_path, capsys,
                                                         violations, message):
    # This once printed the Violation list: a region index and a per-m^2
    # magnitude, naming no stage.
    monkeypatch.setattr(pipeline, "verify_plan", lambda *args: violations)
    out = tmp_path / "out"
    assert cli.main(["run", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: allocation: infeasible plan: {message}\n"
    assert not any(out.iterdir())


def test_cli_bad_inputs_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli.main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err

    malformed = tmp_path / "broken.json"
    malformed.write_text("{not json")
    assert cli.main(["run", "--config", str(malformed), "--out", str(tmp_path / "o")]) == 2

    config = dict(default_config())
    config["surprise"] = 1
    bad_schema = tmp_path / "bad_schema.json"
    bad_schema.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(bad_schema), "--out", str(tmp_path / "o")]) == 2

    assert cli.main(["validate", "--trials", "999"]) == 2

    with pytest.raises(SystemExit) as excinfo:
        cli.main(["sweep-density", "--ratios", "bogus", "--out", str(tmp_path)])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["sweep-density", "--ratios", "5:1:3", "--out", str(tmp_path)])
    assert excinfo.value.code == 2
    capsys.readouterr()

    for ratios, message in (("1:x:3", "expected numeric start:stop:count, got '1:x:3'"),
                            ("1:3:0", "count must be at least 1, got 0")):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep-cost", "--ratios", ratios, "--out", str(tmp_path)])
        assert excinfo.value.code == 2
        assert f"argument --ratios: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command,ratios", [("sweep-cost", "nan:3:3"),
                                            ("sweep-cost", "1:inf:2"),
                                            ("sweep-density", "nan:nan:1")])
def test_cli_non_finite_ratios_exit_2(tmp_path, capsys, command, ratios):
    # These once exited 1, after writing a one-point CSV or failing in the model.
    with pytest.raises(SystemExit) as excinfo:
        cli.main([command, "--ratios", ratios, "--out", str(tmp_path)])
    assert excinfo.value.code == 2
    assert "argument --ratios: start and stop must be finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_out_of_range_density_ratio_exits_2_before_solving(monkeypatch, tmp_path, capsys):
    # This once exited 1 after solving ratio 1 and writing a one-point CSV.
    solved = []
    monkeypatch.setattr(pipeline, "_solve_scenario", lambda *args: solved.append(args))
    assert cli.main(["sweep-density", "--ratios", "1:1e9:2", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("error: density ratio 1e+09: area_km2 must be "
                                       "<= 510000000.0, got 1000000000.0\n")
    assert solved == []
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("field,token", [("target_delay_s_per_bit", "Infinity"),
                                         ("bandwidth_hz", "NaN")])
def test_cli_non_finite_config_number_exits_2(tmp_path, capsys, field, token):
    # An infinite delay target once yielded a 0.1-station plan with exit 0,
    # a NaN bandwidth a model failure with exit 1.
    config = default_config()
    config["radio"][field] = "@"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config).replace('"@"', token))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert f"radio: {field} must be a number, got {token}" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("edit,value,message", [
    # an id with a CSV delimiter once shifted the demand.csv and series.csv columns
    pytest.param("id", "off,ice", "regions[0]: id must be", id="id-comma"),
    pytest.param("id", 'off"ice', "regions[0]: id must be", id="id-quote"),
    pytest.param("id", "off\nice", "regions[0]: id must be", id="id-newline"),
    pytest.param("id", "office\r", "regions[0]: id must be", id="id-carriage-return"),
    # these once failed later, naming no file, region or field
    pytest.param("profile", "12,nan", "profile.csv, line 3: values must be finite",
                 id="profile-nan"),
    pytest.param("profile", "inf,0.5", "profile.csv, line 3: values must be finite",
                 id="profile-inf"),
    pytest.param("profile", "12,1e400", "profile.csv, line 3: values must be finite",
                 id="profile-1e400"),
    # the last value once won: a 7-slot plan with exit 0
    pytest.param("json", ('"num_slots": 60', '"num_slots": 60, "num_slots": 7'),
                 "config: duplicate key 'num_slots'", id="duplicate-key"),
    # the area in m^2 overflowed to inf, and the message named no region or field
    pytest.param("json", ('"area_km2": 1.0', '"area_km2": 1e303'),
                 "regions[0]: area_km2 must be <= 510000000.0, got 1e+303",
                 id="area-overflows-in-m2"),
    # HiGHS rejected the LP's m^2 coefficients: exit 1, naming no region or field
    pytest.param("json", ('"area_km2": 1.0', '"area_km2": 1e9'),
                 "regions[0]: area_km2 must be <= 510000000.0, got 1000000000.0",
                 id="area-beyond-earth"),
    pytest.param("profile", "0,0.5,1", "profile.csv, line 3: expected 2 fields, got 3",
                 id="profile-three-fields"),
    pytest.param("profile", "0,abc", "profile.csv, line 3: could not convert string to float",
                 id="profile-not-a-number"),
    pytest.param("json", ('"builtin:residential"', '"missing.csv"'),
                 "regions[1]: profile: cannot read ", id="profile-missing"),
    pytest.param("json", ('"builtin:residential"', "3"),
                 "regions[1]: profile must be a builtin name or a path, got 3",
                 id="profile-number"),
    pytest.param("text", json.dumps(dict(default_config(), regions=[])),
                 "error: regions must be a non-empty array", id="no-regions"),
    pytest.param("text", json.dumps(dict(default_config(), radio=[])),
                 "error: radio: expected an object, got list", id="radio-list"),
    # Python refuses to convert an integer literal this long: this once
    # exited 2 naming neither the config nor the key
    pytest.param("json", ('"num_slots": 60', '"num_slots": 1' + "0" * 5000),
                 "error: num_slots must be a number, got an integer literal of 5001 digits",
                 id="num-slots-5001-digits"),
    pytest.param("json", ('"area_km2": 1.0', '"area_km2": -' + "9" * 4301),
                 "error: regions[0]: area_km2 must be a number, got an integer literal of "
                 "4301 digits", id="area-4301-digits"),
    # the parser's RecursionError is a RuntimeError, so this once exited 1
    pytest.param("text", "[" * 100_000 + "]" * 100_000,
                 "error: config is nested too deeply to parse", id="deeply-nested"),
    # bytes that are not UTF-8 (written from surrogate escapes) once exited 2
    # naming neither the file nor the region
    pytest.param("profile", "\udcff\udcfe bad",
                 "error: regions[1]: profile: cannot read profile.csv: 'utf-8' codec can't "
                 "decode byte 0xff in position 27: invalid start byte", id="profile-not-utf-8"),
    pytest.param("text", "\udcff\udcfe bad",
                 "error: config: cannot read config.json: 'utf-8' codec can't decode byte 0xff "
                 "in position 0: invalid start byte", id="config-not-utf-8"),
])
def test_cli_meaningless_config_exits_2(tmp_path, monkeypatch, capsys, edit, value, message):
    # run from tmp_path, so that messages name the files as the config does
    monkeypatch.chdir(tmp_path)
    config = default_config()
    if edit == "id":
        config["regions"][0]["id"] = value
    elif edit == "profile":
        Path("profile.csv").write_bytes(
            f"time_h,normalized_load\n0,1\n{value}\n".encode("utf-8", "surrogateescape"))
        config["regions"][1]["profile"] = "profile.csv"
    text = json.dumps(config)
    if edit == "json":
        text = text.replace(*value)
    elif edit == "text":
        text = value
    Path("config.json").write_bytes(text.encode("utf-8", "surrogateescape"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", "config.json", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_cli_tiny_areas_save_what_unit_areas_save(tmp_path):
    # Three regions reach the allocation LP. At 1e-16 km^2 each, HiGHS once
    # saw coefficients below its tolerances and returned an all-static plan
    # that saved 0.0, with exit 0; the saving cannot depend on the units.
    (tmp_path / "campus.csv").write_text("time_h,normalized_load\n0,0.3\n6,0.2\n15,1\n20,0.5\n")
    saved = []
    for area in (1.0, 1e-16):
        config = default_config()
        config["regions"][1]["peak_user_density_per_km2"] = 3000.0
        config["regions"].append({"id": "campus", "area_km2": 1.0,
                                  "peak_user_density_per_km2": 5000.0,
                                  "profile": "campus.csv"})
        for region in config["regions"]:
            region["area_km2"] = area
        path = tmp_path / f"config_{area:g}.json"
        path.write_text(json.dumps(config))
        out = tmp_path / f"out_{area:g}"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        saved.append(json.loads((out / "savings.json").read_text())["total_saving_fraction"])
    assert saved[0] == pytest.approx(0.137630, abs=1e-6)
    assert saved[1] == pytest.approx(saved[0], rel=1e-12)


@pytest.mark.parametrize("gain", [0, -5.0])
def test_cli_non_positive_antenna_gain_exits_2(tmp_path, capsys, gain):
    # Gains of 0 and -5 once exited 0 with the unchanged 27.40% plan.
    config = default_config()
    config["radio"]["antenna_gain"] = gain
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert f"radio: antenna_gain must be > 0, got {gain}" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_cli_quadrature_block_exits_2(tmp_path, capsys):
    # The block was a config key once; even the fixed rule spelled out is not.
    config = dict(default_config(), quadrature={"nodes_r": 64, "nodes_x": 64, "nodes_theta": 16,
                                                "tail_mass_epsilon": 1e-12})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: config: unknown keys ['quadrature']\n"
    assert not out.exists() or not any(out.iterdir())


def test_cli_antenna_gain_with_reference_gain_exits_2(tmp_path, capsys):
    # reference_gain was a config key once, exclusive of antenna_gain; it
    # is always derived from antenna_gain and carrier_freq_hz now.
    config = default_config()
    config["radio"]["antenna_gain"] = 4.0
    config["radio"]["reference_gain"] = 1e-3
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: radio: unknown keys ['reference_gain']\n"


_RUN = ["run", "--config", "{tmp}/config.json", "--out", "{tmp}/out"]


@pytest.mark.parametrize("argv,config_edit,message", [
    (_RUN, {"num_slots": 10 ** 13}, "error: num_slots must be <= 1440, got 10000000000000\n"),
    (_RUN, {"radio": dict(default_config()["radio"], carrier_freq_hz=1e300)},
     "error: radio: antenna_gain 1.0 and carrier_freq_hz 1e+300 give a received-power gain "
     "G (c / 4 pi f)^2 of 0.0; it must be finite and > 0\n"),
    (["validate", "--trials", str(10 ** 13)], {},
     "error: mc_trials (--trials) must be in [1000, 1000000], got 10000000000000\n"),
    (["sweep-cost", "--ratios", f"1:2:{10 ** 13}", "--out", "{tmp}/out"], {},
     "argument --ratios: count must be at most 10000, got 10000000000000\n"),
], ids=["num_slots", "carrier_freq_hz", "trials", "ratios"])
def test_cli_input_past_its_bound_exits_2_naming_it(tmp_path, capsys, argv, config_edit, message):
    # The three 10**13 inputs once exited 1 with numpy's _ArrayMemoryError;
    # their bounds are checked before anything is allocated. A carrier of
    # 1e300 Hz once failed naming reference_gain, a key the config lacked.
    (tmp_path / "config.json").write_text(json.dumps({**default_config(), **config_edit}))
    try:
        code = cli.main([arg.format(tmp=tmp_path) for arg in argv])
    except SystemExit as exc:  # argparse rejects a bad flag value itself
        code = exc.code
    assert code == 2
    assert capsys.readouterr().err.endswith(message)
    assert not (tmp_path / "out").exists()


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--version"])
    assert excinfo.value.code == 0
    assert f"mbsplan {mbsplan.__version__}" in capsys.readouterr().out


def test_cli_commands_share_one_parser_and_leak_no_state(monkeypatch, tmp_path, capsys):
    # The parser is built once per process. Each command still gets only
    # its own arguments and defaults, whatever ran before it, and a bad
    # command still exits 2 with argparse's message.
    cli._build_parser()
    built = cli._build_parser.cache_info()
    seen = []
    monkeypatch.setattr(cli, "_cmd_run", lambda args: seen.append(vars(args)) or 0)
    monkeypatch.setattr(cli, "_cmd_sweep", lambda args, *rest: seen.append(vars(args)) or 0)
    out = str(tmp_path)
    assert cli.main(["sweep-cost", "--config", "x.json", "--ratios", "1:2:2", "--out", out]) == 0
    assert cli.main(["run", "--out", out]) == 0
    assert seen[1] == {"command": "run", "config": None, "out": out}
    for argv, message in (
            (["run", "--out", out, "--ratios", "1:2:2"],
             "mbsplan: error: unrecognized arguments: --ratios 1:2:2"),
            (["sweep-cost", "--ratios", "1:3:0"],
             "mbsplan sweep-cost: error: argument --ratios: count must be at least 1, got 0"),
            (["sweep-density"],
             "mbsplan sweep-density: error: the following arguments are required: --ratios")):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(f"\n{message}\n")
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == f"mbsplan {mbsplan.__version__}\n"
    assert cli.main(["sweep-density", "--ratios", "2:4:3"]) == 0
    assert seen[2].pop("ratios").tolist() == [2.0, 3.0, 4.0]
    assert seen[2] == {"command": "sweep-density", "config": None, "out": "."}
    assert len(seen) == 3
    after = cli._build_parser.cache_info()
    assert (after.misses, after.hits) == (built.misses, built.hits + 7)


# Only the LP solve needs scipy.optimize and scipy.sparse, and nothing needs
# scipy.spatial; each would add a share of a second to every start.
_HEAVY_SCIPY = ("scipy.spatial", "scipy.optimize", "scipy.sparse")


def _fresh_python(script, cwd=None) -> str:
    """Run ``script`` in a fresh interpreter; return its last printed line."""
    src = str(Path(mbsplan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script], env=env, check=True, cwd=cwd,
                          capture_output=True, text=True)
    return done.stdout.strip().splitlines()[-1]


def _heavy_scipy_loaded_after(script, cwd=None, modules=_HEAVY_SCIPY) -> str:
    """Run ``script`` in a fresh interpreter and return the printed list of
    the ``modules`` loaded by then, the heavy scipy modules by default."""
    return _fresh_python(
        f"{script}\nimport sys; print([m for m in {modules!r} if m in sys.modules])", cwd)


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    assert _heavy_scipy_loaded_after("import mbsplan.cli") == "[]"


def test_quick_start_and_validate_leave_heavy_scipy_modules_unloaded(tmp_path):
    # The built-in scenario has two regions and every README quick-start
    # point that is not all-mobile prices both station types equally, so
    # no command here solves an LP.
    commands = [["run", "--out", "out"],
                ["sweep-density", "--ratios", "1:10:10", "--out", "out"],
                ["sweep-cost", "--ratios", "1:3:9", "--out", "out"],
                ["validate", "--trials", "1000", "--seed", "5"]]
    script = ("import contextlib, io\n"
              "from mbsplan import cli\n"
              f"for argv in {commands!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert cli.main(argv) == 0, argv")
    assert _heavy_scipy_loaded_after(script, cwd=tmp_path) == "[]"


def test_cli_import_and_validate_leave_scipy_unloaded(tmp_path):
    # pipeline imports scipy only for the version that run's manifest
    # records, which a fresh run still writes.
    assert _heavy_scipy_loaded_after("import mbsplan.cli", modules=("scipy",)) == "[]"
    script = ("import contextlib, io\n"
              "from mbsplan import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert cli.main({!r}) == 0")
    validate = ["validate", "--trials", "1000"]
    assert _heavy_scipy_loaded_after(script.format(validate), modules=("scipy",)) == "[]"
    run = ["run", "--out", "out"]
    assert _heavy_scipy_loaded_after(script.format(run), tmp_path, ("scipy",)) == "['scipy']"
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["scipy_version"] == scipy.__version__


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_cli_repeats_commands_without_fresh_page_faults():
    # With glibc's own moving thresholds a repeated validate took 4400 to
    # 6800 minor faults on some seeds and none on others, depending on
    # what had been freed before; the fixed thresholds reuse the heap.
    script = ("import contextlib, io, resource\n"
              "from mbsplan import cli\n"
              "def faults(argv):\n"
              "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert cli.main(argv) == 0, argv\n"
              "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
              "repeats = []\n"
              "for seed in (1, 2, 3):\n"
              "    argv = ['validate', '--trials', '1000', '--seed', str(seed)]\n"
              "    faults(argv)\n"
              "    repeats.append(faults(argv))\n"
              "print(repeats)")
    repeats = json.loads(_fresh_python(script))
    assert max(repeats) < 200, repeats


def test_cli_validate_quick_pass(capsys):
    # 2000 trials keeps the Monte Carlo spot checks fast yet comfortably
    # inside the 5% gate (worst observed error 2.4% at these seeds).
    assert cli.main(["validate", "--trials", "2000", "--seed", "1234"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.strip().split("\n") if line]
    assert len(lines) == 7
    assert all(line.startswith("PASS ") for line in lines)


def test_cli_validate_negative_seed_exits_2(capsys):
    # This once exited 2 with only "expected non-negative integer" from numpy.
    assert cli.main(["validate", "--trials", "1000", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


def test_cli_validate_fails_on_unreachable_target(tmp_path, capsys):
    config = json.loads(json.dumps(default_config()))
    config["radio"]["target_delay_s_per_bit"] = 1e-12
    path = tmp_path / "impossible.json"
    path.write_text(json.dumps(config))
    assert cli.main(["validate", "--config", str(path), "--trials", "1000"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "no feasible grid point" in out


NON_FINITE_SPOTS = ["FAIL zero-traffic identity: analytic delay failed: delay: non-finite "
                    "result at lambda_b=1e-05, lambda_u=0.0"] + [
    f"FAIL mc-delay bs={bs:g}/km2 users={users:g}/km2: analytic delay failed: delay: "
    f"non-finite result at lambda_b={bs / M2_PER_KM2!r}, lambda_u={users / M2_PER_KM2!r}"
    for bs, users in pipeline.MC_SPOT_DENSITIES_PER_KM2] + [
    f"FAIL grid-scan users={users:g}/km2: grid scan failed: delay: non-finite result at "
    f"lambda_b=1e-08, lambda_u={users / M2_PER_KM2!r}"
    for users in pipeline.GRID_SPOT_USER_DENSITIES_PER_KM2]


@pytest.mark.parametrize("command, field, value, code, expected", [
    ("run", "path_loss_exponent", 150, 2, ["error: radio: path_loss_exponent must be <= 8, "
                                           "got 150.0"]),
    # this once ran to exit 0 with a 1.29% saving
    ("run", "path_loss_exponent", 20, 2, ["error: radio: path_loss_exponent must be <= 8, "
                                          "got 20.0"]),
    ("run", "bandwidth_hz", 1e-320, 1, ["error: dimensioning: slot 0, region office: delay "
                                        "target 1.000e-05 s/bit unmet at the density cap"]),
    ("validate", "bandwidth_hz", 1e-300, 1, [
        # zero traffic once read 0 * inf = nan here
        "PASS zero-traffic identity: analytic 0.0, simulated 0.0 (both must be 0.0)",
        "FAIL mc-delay bs=10/km2 users=100/km2: analytic 1.769644e+301 s/bit, simulated inf "
        "s/bit, rel err inf% (limit 5%)"]),
    ("validate", "tx_power_w", 1e-320, 1, NON_FINITE_SPOTS),
    ("validate", "antenna_gain", 1e-320, 1, NON_FINITE_SPOTS),
    ("validate", "noise_psd_w_per_hz", 1e300, 1, NON_FINITE_SPOTS),
    ("validate", "target_delay_s_per_bit", 1e-320, 1, [
        f"FAIL grid-scan users={users:g}/km2: no feasible grid point up to the density cap"
        for users in pipeline.GRID_SPOT_USER_DENSITIES_PER_KM2]),
])
def test_cli_extreme_radio_fails_naming_why_without_numpy_warnings(
        tmp_path, capsys, command, field, value, code, expected):
    # Each of these radios once ended in a NumPy RuntimeWarning, a traceback
    # where warnings are errors, as CI runs validate. A delay that is not
    # finite fails the checks that read it, naming the density.
    config = default_config()
    config["radio"][field] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = [command, "--config", str(path)]
    argv += ["--out", str(tmp_path / "out")] if command == "run" else ["--trials", "1000"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == code
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    for line in expected:
        assert any(got.startswith(line) for got in lines), (line, lines)


def _validate_config(name, tmp_path):
    """A config path for ``validate``: a data file, or the built-in config
    (None) with no receiver noise."""
    if name == "builtin":
        return None
    if name == "noiseless":
        config = default_config()
        config["radio"]["noise_psd_w_per_hz"] = 0.0
        path = tmp_path / "noiseless.json"
        path.write_text(json.dumps(config))
        return path
    return {"three_regions": DATA / "three_regions.json",
            "csv_profiles": DATA / "csv_profiles" / "config.json"}[name]


VALIDATE_CONFIGS = ["builtin", "three_regions", "csv_profiles", "noiseless"]


@pytest.mark.parametrize("config", VALIDATE_CONFIGS)
def test_validate_matches_its_unbatched_reference(config, tmp_path):
    # One oracle call per spot and the fixed point over the whole grid give
    # the same report, line for line.
    path = _validate_config(config, tmp_path)
    for seed in (1, 2, 3):
        assert (pipeline.validate(path, mc_trials=1000, seed=seed).lines()
                == validate_reference.lines(path, 1000, seed))


@pytest.mark.parametrize("config", VALIDATE_CONFIGS)
def test_grid_scan_finds_the_full_grids_first_feasible_point(config, tmp_path):
    # At the config's own target the rows stop at different points; at
    # 1e-12 s/bit no point is feasible and every row scans the whole grid;
    # at 1000 s/bit every row stops at index 0.
    scenario, _ = pipeline._load(_validate_config(config, tmp_path))
    grid = validate_reference.grid()
    lam_u = np.array(pipeline.GRID_SPOT_USER_DENSITIES_PER_KM2) / M2_PER_KM2
    for target in (None, 1e-12, 1e3):
        params = scenario.radio if target is None else dataclasses.replace(
            scenario.radio, target_delay_s_per_bit=target)
        full = validate_reference.first_feasible(grid, lam_u, params)
        assert pipeline._first_feasible(grid, lam_u, params) == full
        if target is None:
            assert len(set(full)) == 3, full
        else:
            assert full == ([0, 0, 0] if target == 1e3 else [None, None, None])


def test_grid_scan_goes_past_a_candidate_whose_fixed_point_misses(monkeypatch):
    # The u = 1 delay only says where each row stops. Where the fixed point
    # misses at that point, 1000/km^2 goes on to its next point, which meets,
    # and a load that meets at the grid's last point alone finds none.
    params = default_scenario().radio
    target = params.target_delay_s_per_bit
    grid = validate_reference.grid()
    unit_sum = qosmodel._unit_sums(grid, 1.0, params)
    last = target * grid[-1] / unit_sum[-1]
    if (last / grid[-1]) * unit_sum[-1] > target:
        last = np.nextafter(last, 0.0)
    lam_u = np.array([1000.0 / M2_PER_KM2, last])
    candidates = np.argmax((lam_u[:, None] / grid) * unit_sum <= target, axis=1)
    assert candidates[1] == grid.size - 1
    real = evaluate_qos

    def missing(lambda_b, lambda_u, params, **kwargs):
        result = real(lambda_b, lambda_u, params, **kwargs)
        at_b, at_u = np.broadcast_arrays(lambda_b, lambda_u)
        hit = np.any([(at_b == grid[k]) & (at_u == u) for k, u in zip(candidates, lam_u)],
                     axis=0)
        return dataclasses.replace(result, delay_s_per_bit=np.where(
            hit, 2.0 * target, result.delay_s_per_bit))

    monkeypatch.setattr(pipeline, "evaluate_qos", missing)
    monkeypatch.setattr(validate_reference, "evaluate_qos", missing)
    full = validate_reference.first_feasible(grid, lam_u, params)
    assert full == [candidates[0] + 1, None]
    assert pipeline._first_feasible(grid, lam_u, params) == full


def test_grid_scan_sums_each_grid_point_once(monkeypatch):
    # One u = 1 node sum per grid point serves all three loads, and only the
    # fixed point at each load's first feasible point sums again: 2009 rows
    # on the built-in radio, where the fixed point over 256-point chunks
    # summed 4307.
    params = default_scenario().radio
    grid = validate_reference.grid()
    lam_u = np.array(pipeline.GRID_SPOT_USER_DENSITIES_PER_KM2) / M2_PER_KM2
    full = validate_reference.first_feasible(grid, lam_u, params)
    iterations = evaluate_qos(grid[full], lam_u, params).fixed_point_iterations
    rows = []
    real = qosmodel._unit_sums

    def counting(lambda_b, utilization, params):
        rows.append(np.broadcast(lambda_b, utilization).size)
        return real(lambda_b, utilization, params)

    monkeypatch.setattr(qosmodel, "_unit_sums", counting)
    monkeypatch.setattr(pipeline, "_unit_sums", counting)
    assert pipeline._first_feasible(grid, lam_u, params) == full
    assert sum(rows) <= grid.size + iterations.sum(), rows


@pytest.mark.parametrize("config", VALIDATE_CONFIGS)
def test_validate_inverts_its_grid_loads_in_one_call_bit_equal_to_one_load_calls(
        config, monkeypatch, tmp_path):
    # _min_densities promises that a load's answer does not depend on the
    # other loads in its array; validate leans on it to invert its three
    # grid-scan loads at once.
    path = _validate_config(config, tmp_path)
    scenario, _ = pipeline._load(path)
    real = pipeline._min_densities
    calls = []

    def recording(loads, params):
        density, delay = real(loads, params)
        calls.append((np.array(loads), density, delay, params))
        return density, delay

    monkeypatch.setattr(pipeline, "_min_densities", recording)
    pipeline.validate(path, mc_trials=1000, seed=5)
    assert len(calls) == 1
    loads, density, delay, params = calls[0]
    assert np.array_equal(loads,
                          np.array(pipeline.GRID_SPOT_USER_DENSITIES_PER_KM2) / M2_PER_KM2)
    assert params == scenario.radio
    for i in range(loads.size):
        one_density, one_delay = real(loads[i:i + 1], params)
        assert np.array_equal(one_density, density[i:i + 1])
        assert np.array_equal(one_delay, delay[i:i + 1])


def test_validate_non_finite_inversion_fails_only_its_spot(monkeypatch):
    # A probe that is not finite fails its own spot with the message; the
    # other spots are inverted on their own and pass as before.
    fine = pipeline.validate(None, mc_trials=1000, seed=5).lines()
    real = pipeline._min_densities
    bad = pipeline.GRID_SPOT_USER_DENSITIES_PER_KM2[1] / M2_PER_KM2

    def failing(loads, params):
        hit = np.flatnonzero(np.asarray(loads) == bad)
        if hit.size:
            raise NonFinite("delay: non-finite result at lambda_b=0.0", int(hit[0]))
        return real(loads, params)

    monkeypatch.setattr(pipeline, "_min_densities", failing)
    lines = pipeline.validate(None, mc_trials=1000, seed=5).lines()
    assert lines[-2] == ("FAIL grid-scan users=1000/km2: inversion failed where the grid scan "
                         "succeeded: delay: non-finite result at lambda_b=0.0")
    assert lines[:-2] + lines[-1:] == fine[:-2] + fine[-1:]


def _fails_where(real, position, value):
    """``real``, but raising ``NonFinite`` where its argument at
    ``position`` holds ``value``."""
    def failing(*args):
        hit = np.flatnonzero(np.asarray(args[position]) == value)
        if hit.size:
            raise NonFinite(f"delay: non-finite result at lambda_u={value!r}", int(hit[0]))
        return real(*args)
    return failing


@pytest.mark.parametrize("k", range(4))
def test_validate_non_finite_analytic_delay_fails_only_its_check(monkeypatch, k):
    # Zero traffic, then the three Monte Carlo spots: the one whose delay is
    # not finite fails naming it, and every other line is the normal report.
    fine = pipeline.validate(None, mc_trials=1000, seed=5).lines()
    bad = ([0.0] + [u for _, u in pipeline.MC_SPOT_DENSITIES_PER_KM2])[k] / M2_PER_KM2
    monkeypatch.setattr(pipeline, "delay_given_utilization",
                        _fails_where(pipeline.delay_given_utilization, 1, bad))
    lines = pipeline.validate(None, mc_trials=1000, seed=5).lines()
    name = fine[k][5:fine[k].index(": ")]
    assert lines[k] == (f"FAIL {name}: analytic delay failed: delay: non-finite result at "
                        f"lambda_u={bad!r}")
    assert lines[:k] + lines[k + 1:] == fine[:k] + fine[k + 1:]


@pytest.mark.parametrize("k", range(3))
def test_validate_non_finite_grid_scan_fails_only_its_check(monkeypatch, k):
    fine = pipeline.validate(None, mc_trials=1000, seed=5).lines()
    bad = pipeline.GRID_SPOT_USER_DENSITIES_PER_KM2[k] / M2_PER_KM2
    monkeypatch.setattr(pipeline, "_first_feasible",
                        _fails_where(pipeline._first_feasible, 1, bad))
    lines = pipeline.validate(None, mc_trials=1000, seed=5).lines()
    at = 4 + k
    users = pipeline.GRID_SPOT_USER_DENSITIES_PER_KM2[k]
    assert lines[at] == (f"FAIL grid-scan users={users:g}/km2: grid scan failed: delay: "
                         f"non-finite result at lambda_u={bad!r}")
    assert lines[:at] + lines[at + 1:] == fine[:at] + fine[at + 1:]


def test_validate_inversion_errors_other_than_non_finite_propagate(monkeypatch):
    # Only a delay that is not finite fails a check; an inversion error of
    # any other kind is a bug, and was once reported as a failed check.
    def broken(loads, params):
        raise ZeroDivisionError("not a NonFinite")

    monkeypatch.setattr(pipeline, "_min_densities", broken)
    with pytest.raises(ZeroDivisionError, match="not a NonFinite"):
        pipeline.validate(None, mc_trials=1000, seed=5)
