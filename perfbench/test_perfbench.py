"""Tests of the benchmark itself: smoke runs and the output checkers.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import bench_checks
import bench_trace
import run
from bench_scenario import write_scenario

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(run.SRC))
import mbsplan.cli as cli  # noqa: E402


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 + trace
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (run.ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_tracer_reports_a_deleted_layer_as_absent(monkeypatch, tmp_path, capsys):
    import mbsplan.allocation
    import mbsplan.pipeline
    monkeypatch.delattr(mbsplan.allocation, "solve_lp")
    monkeypatch.delattr(mbsplan.pipeline, "demand_matrix")
    tracer = bench_trace.Tracer()
    tracer.install(0)
    try:
        assert _quiet_cli(["validate", "--trials", "1000"], capsys) in (0, 1)
    finally:
        tracer.uninstall()
    assert tracer.absent == {"mbsplan.allocation.solve_lp", "mbsplan.pipeline.demand_matrix"}
    layers = bench_trace.op_layers(tracer.spans, 1.0, 1.0)
    assert layers["lpsolve.rows"] == 0 and layers["qosmodel.evaluate_qos.calls"] > 6000


def _quiet_cli(argv, capsys):
    code = cli.main(argv)
    capsys.readouterr()
    return code


def _rewrite_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def test_run_default_check_rejects_coverage_shortfall_and_wrong_saving(tmp_path, capsys):
    assert _quiet_cli(["run", "--out", str(tmp_path)], capsys) == 0
    assert bench_checks.check_run_default(tmp_path) == []

    def short(doc):
        doc["mbs_schedule_per_km2"][5][0] *= 0.5
        doc["static_density_per_km2"]["office"] = 0.0
    plan = tmp_path / "plan.json"
    original = plan.read_text()
    _rewrite_json(plan, short)
    assert any("coverage" in p for p in bench_checks.check_run_default(tmp_path))

    plan.write_text(original)
    _rewrite_json(tmp_path / "savings.json",
                  lambda doc: doc.update(total_saving_fraction=0.2))
    problems = bench_checks.check_run_default(tmp_path)
    assert any("0.27402" in p for p in problems)


def test_run_default_rejects_an_artifact_that_changes_between_ops(tmp_path, capsys):
    workload = run.RunDefault(0, tmp_path)
    for k in range(2):
        assert _quiet_cli(workload.argv(k), capsys) == 0
        if k == 1:
            series = tmp_path / "op2" / "series.csv"
            series.write_text(series.read_text().replace("0", "1", 1))
        problems = workload.check_op(k, "", 0)
    assert problems == ["artifacts differ from the first op: ['series.csv']"]


def test_sweep_check_rejects_a_perturbed_objective(tmp_path, capsys):
    config, _ = write_scenario(3, 0, tmp_path)
    assert _quiet_cli(["sweep-cost", "--config", str(config), "--ratios", "1:3:3",
                       "--out", str(tmp_path / "out")], capsys) == 0
    assert _quiet_cli(["run", "--config", str(config), "--out", str(tmp_path / "run")],
                      capsys) == 0
    areas = {r["id"]: r["area_km2"] for r in json.loads(config.read_text())["regions"]}
    sweep = tmp_path / "out" / "sweep_cost.csv"
    demand = tmp_path / "run" / "demand.csv"
    assert bench_checks.check_sweep_lp(sweep, demand, areas, run.SWEEP_RATIOS) == []

    lines = sweep.read_text().splitlines()
    cells = lines[-1].split(",")  # the last point, so the objective stays monotone
    cells[3] = repr(float(cells[3]) * (1.0 + 1e-5))
    lines[-1] = ",".join(cells)
    sweep.write_text("\n".join(lines) + "\n")
    problems = bench_checks.check_sweep_lp(sweep, demand, areas, run.SWEEP_RATIOS)
    assert any("HiGHS" in p for p in problems)


REPORT = """\
PASS zero-traffic identity: analytic 0.0, simulated 0.0 (both must be 0.0)
PASS mc-delay bs=10/km2 users=100/km2: analytic 1.78e-06 s/bit, simulated 1.74e-06 s/bit, rel err 2.44% (limit 5%)
FAIL mc-delay bs=30/km2 users=1000/km2: analytic 5.90e-06 s/bit, simulated 6.27e-06 s/bit, rel err 6.27% (limit 5%)
PASS mc-delay bs=100/km2 users=10000/km2: analytic 1.77e-05 s/bit, simulated 1.74e-05 s/bit, rel err 1.56% (limit 5%)
PASS grid-scan users=100/km2: bisection 1.94305/km2, grid first-feasible 1.9505/km2 (cell width 0.81%)
PASS grid-scan users=1000/km2: bisection 17.7338/km2, grid first-feasible 17.7674/km2 (cell width 0.81%)
PASS grid-scan users=10000/km2: bisection 176.971/km2, grid first-feasible 178.289/km2 (cell width 0.81%)
"""


def test_validate_check_tolerates_monte_carlo_spots_only():
    problems, worst = bench_checks.check_validate(REPORT, 1)
    assert problems == [] and worst == pytest.approx(0.0627)
    assert bench_checks.check_validate(REPORT, 0)[0] == [
        "exit code 0 disagrees with the report"]
    grid_fail = REPORT.replace("PASS grid-scan users=1000", "FAIL grid-scan users=1000")
    assert any("deterministic" in p for p in bench_checks.check_validate(grid_fail, 1)[0])
    truncated = "\n".join(REPORT.splitlines()[:6])
    assert any("6 report lines" in p for p in bench_checks.check_validate(truncated, 1)[0])
