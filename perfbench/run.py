"""Benchmark of the mbsplan command line, end to end and layer by layer.

    python3 perfbench/run.py --workload run-default --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``. One process drives ``mbsplan.cli.main(argv)`` in-process in a
closed loop (one caller, the next operation starts when the previous one
returns) for about ``--seconds`` seconds, after an untimed warm-up that
builds the unit kernel. ``MBSPLAN_THREADS`` is removed from the
environment, so sweeps run at the program's default width.

Workloads (why each one is here is in ``BENCHMARK.json``):

* ``run-default``: ``run --out DIR`` on the built-in 60x2 scenario; no
  random input, the seed is unused.
* ``sweep-cost-z4``: ``sweep-cost --ratios 1:3:3`` on a fresh seeded 4x36
  scenario per operation (``bench_scenario``).
* ``validate-mc``: ``validate --trials 1000 --seed SEED``.

Every operation's output is checked (``bench_checks``); an operation fails
when it raises, exits with an unexpected code or fails a check.

End-to-end metrics:

* ``setup_s``: in a fresh interpreter, ``import mbsplan.cli`` plus the
  first QoS evaluation, which builds the unit kernel; every CLI call pays
  it. Median of ``SETUP_REPEATS`` probes (``setup_probe.py``).
* ``wall_s_p50`` / ``cpu_s_p50``: median wall time and process CPU time
  (user + system, all threads) of one warm operation.
* ``peak_rss_mib``: peak resident memory of the benchmark process, read
  before the post-run reference checks.
* ``ok_frac``: share of operations that did not fail.

``wall_s_p50`` and ``cpu_s_p50`` are medians of op times scaled to a
reference host speed (``bench_calibrate``), except on ``validate-mc``
(see ``ValidateMc.calibrated``). ``setup_s`` is unscaled: probe times did
not follow the calibration kernel. The unscaled medians and the median
scale are printed on the ``meta`` line.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced operations and reports per-layer metrics from the
spans of the traced ones (``bench_trace``), plus the tracing overhead;
the spans are written to ``.perfbench/spans-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. To print every
end-to-end metric of every workload::

    for w in run-default sweep-cost-z4 validate-mc; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 0
    done
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import bench_calibrate
import bench_checks
import bench_trace
from bench_scenario import write_scenario

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
SWEEP_RATIOS = (1.0, 2.0, 3.0)
VALIDATE_TRIALS = 1000

# Share of op time the traced run expects each workload's chosen layers to
# take; see ``stress_share``.
STRESS_TARGETS = {"run-default": 0.90, "sweep-cost-z4": 0.75, "validate-mc": 0.90}

END_TO_END_UNITS = {"setup_s": "s", "wall_s_p50": "s", "cpu_s_p50": "s",
                    "peak_rss_mib": "MiB", "ok_frac": "fraction"}


def _digest(out_dir: Path) -> dict:
    """sha256 of every artifact except the manifest, which holds a timing."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"}


class RunDefault:
    """``run`` on the built-in scenario; artifacts must repeat byte for byte."""

    expected_codes = (0,)
    calibrated = True

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.ops = 0
        self.reference: dict | None = None

    def argv(self, k: int) -> list[str]:
        self.ops += 1
        return ["run", "--out", str(self.work / f"op{self.ops}")]

    def check_op(self, k: int, stdout: str, exit_code: int) -> list[str]:
        out = self.work / f"op{self.ops}"
        digest = _digest(out)
        if self.reference is None:
            self.reference = digest
            return bench_checks.check_run_default(out)
        shutil.rmtree(out)
        if digest != self.reference:
            changed = sorted(n for n in digest.keys() | self.reference.keys()
                             if digest.get(n) != self.reference.get(n))
            return [f"artifacts differ from the first op: {changed}"]
        return []

    def check_run(self, cli) -> list[str]:
        return []

    def meta(self) -> dict:
        return {}


class SweepCost:
    """``sweep-cost`` over three cost ratios, one fresh scenario per op.

    Every op's CSV is checked for shape and monotonicity; the first op's
    scenario is also dimensioned with ``run`` after the timed loop, and
    each point's objective is compared with a HiGHS solve of the same LP.
    """

    expected_codes = (0,)
    calibrated = True

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.config_sha256: list[str] = []

    def argv(self, k: int) -> list[str]:
        config, sha = write_scenario(self.seed, k, self.work / f"scn{k}")
        if k == len(self.config_sha256):
            self.config_sha256.append(sha)
        ratios = f"{SWEEP_RATIOS[0]:g}:{SWEEP_RATIOS[-1]:g}:{len(SWEEP_RATIOS)}"
        return ["sweep-cost", "--config", str(config), "--ratios", ratios,
                "--out", str(self.work / f"scn{k}" / "out")]

    def _region_areas(self, k: int) -> dict:
        doc = json.loads((self.work / f"scn{k}" / "config.json").read_text())
        return {r["id"]: r["area_km2"] for r in doc["regions"]}

    def check_op(self, k: int, stdout: str, exit_code: int) -> list[str]:
        scn = self.work / f"scn{k}"
        problems = bench_checks.check_sweep_csv(scn / "out" / "sweep_cost.csv",
                                                SWEEP_RATIOS, list(self._region_areas(k)))
        if k > 0:
            shutil.rmtree(scn)
        return problems

    def check_run(self, cli) -> list[str]:
        scn = self.work / "scn0"
        code = _quiet(cli.main, ["run", "--config", str(scn / "config.json"),
                                 "--out", str(scn / "run")])
        if code != 0:
            return [f"reference run on the first scenario exited {code}"]
        return bench_checks.check_sweep_lp(scn / "out" / "sweep_cost.csv",
                                           scn / "run" / "demand.csv",
                                           self._region_areas(0), SWEEP_RATIOS)

    def meta(self) -> dict:
        return {"config_sha256": self.config_sha256}


class ValidateMc:
    """``validate`` with the run's seed; the report must repeat exactly."""

    expected_codes = (0, 1)
    # An op lasts about 12 s, longer than the host's speed swings, so kernel
    # timings at its two ends do not track the speed during it: scaling by
    # them doubled this workload's run-to-run spread. Its times are raw.
    calibrated = False

    def __init__(self, seed: int, work: Path):
        self.seed = seed % 2**32
        self.first: str | None = None
        self.mc_max_rel_err: list[float] = []

    def argv(self, k: int) -> list[str]:
        return ["validate", "--trials", str(VALIDATE_TRIALS), "--seed", str(self.seed)]

    def check_op(self, k: int, stdout: str, exit_code: int) -> list[str]:
        problems, worst = bench_checks.check_validate(stdout, exit_code)
        self.mc_max_rel_err.append(worst)
        if self.first is None:
            self.first = stdout
        elif stdout != self.first:
            problems.append("report differs from the first op with the same seed")
        return problems

    def check_run(self, cli) -> list[str]:
        return []

    def meta(self) -> dict:
        return {"mc_max_rel_err": self.mc_max_rel_err}


WORKLOADS = {"run-default": RunDefault, "sweep-cost-z4": SweepCost,
             "validate-mc": ValidateMc}


def _quiet(fn, argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(argv)


def run_op(cli, argv: list[str]) -> dict:
    """One timed CLI call; output captured, exceptions turned into results."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code
    except Exception:  # an op that raises is a failed op, not a failed run
        error = traceback.format_exc(limit=3)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return {"wall": wall, "cpu": cpu, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "error": error}


def _importtime_s(stderr: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``-X importtime`` output."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    return 0.0


def measure_setup(importtime: bool) -> list[dict]:
    """Set-up probes in fresh interpreters; each is waited for."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd.append(str(Path(__file__).with_name("setup_probe.py")))
    probes = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        probe = json.loads(proc.stdout.splitlines()[-1])
        if not Path(probe["module"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up probe imported {probe['module']}, not {SRC}")
        probe["scipy_spatial_s"] = _importtime_s(proc.stderr, "scipy.spatial")
        probes.append(probe)
    return probes


def _proc_cpu() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def _loadavg() -> float:
    with open("/proc/loadavg") as fh:
        return float(fh.read().split()[0])


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def machine_meta() -> dict:
    import scipy
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "git_commit": _git_commit(),
            "src_lines": src_lines}


def stress_share(workload: str, layers: dict) -> float:
    """Share of an op spent in the layer the workload is chosen to stress."""
    if workload == "run-default":
        return ((layers["dimensioning.demand_matrix.time_s"]
                 + layers["allocation.optimal_plan.time_s"]) / layers["op.wall_s"])
    if workload == "sweep-cost-z4":
        return layers["allocation.optimal_plan.time_s"] / layers["op.cpu_s"]
    return layers["qosmodel.mc_delay_oracle.time_s"] / layers["op.wall_s"]


PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.import.scipy_spatial_s": "s", "qosmodel.kernel_build_s": "s",
    "qosmodel.evaluate_qos.calls": "count", "qosmodel.evaluate_qos.time_s": "s",
    "qosmodel.fixed_point_iterations": "count", "qosmodel.not_converged": "count",
    "qosmodel.mc_delay_oracle.time_s": "s", "qosmodel.mc_trials_per_s": "1/s",
    "qosmodel.mc_max_rel_err": "fraction",
    "dimensioning.demand_matrix.time_s": "s", "dimensioning.demand_matrix.self_s": "s",
    "dimensioning.cells": "count", "dimensioning.distinct_loads": "count",
    "dimensioning.probes_per_distinct_load": "probes/load",
    "dimensioning.min_bs_density.calls": "count", "dimensioning.min_bs_density.time_s": "s",
    "allocation.optimal_plan.time_s": "s", "lpsolve.solve_lp.time_s": "s",
    "allocation.build_allocation_lp.time_s": "s", "lpsolve.rows": "count",
    "lpsolve.cols": "count", "lpsolve.nonzeros": "count", "allocation.binding_slots": "count",
    "allocation.canonicalize_schedule.time_s": "s", "allocation.verify_plan.time_s": "s",
    "allocation.savings.time_s": "s", "scenario.load_s": "s",
    "scenario.user_density_matrix.time_s": "s", "pipeline.run_pipeline.self_s": "s",
    "pipeline.sweep.points": "count", "pipeline.sweep.busy_s": "s",
    "pipeline.sweep.concurrency": "ratio", "stress.share": "fraction",
    "trace.wall_s_p50": "s", "trace.overhead_s": "s", "trace.absent": "count",
    "host.steal_frac": "fraction", "host.loadavg_1m": "load", "host.speed_scale": "ratio",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mbsplan" / "cli.py").is_file():
        print(f"error: no mbsplan sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("MBSPLAN_THREADS", None)
    sys.path.insert(0, str(SRC))
    steal0, total0 = _proc_cpu()
    load0 = _loadavg()

    probes = measure_setup(importtime=bool(args.trace))
    import mbsplan
    import mbsplan.cli as cli
    if not Path(mbsplan.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {mbsplan.__file__}, not the checkout's", file=sys.stderr)
        return 2
    mbsplan.evaluate_qos(20e-6, 1000e-6, mbsplan.RadioParams())  # warm-up: unit kernel

    work = WORK / f"tmp-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    tracer = bench_trace.Tracer() if args.trace else None
    ops, problems_of = [], {}
    try:
        started = time.perf_counter()
        kernel_before = bench_calibrate.kernel_s()
        while True:
            k = len(ops)
            min_ops = 2 if args.trace else 1
            if k >= min_ops:
                # Start another op only if its expected midpoint is in time.
                estimate = statistics.median(op["wall"] for op in ops)
                if time.perf_counter() - started + estimate / 2 >= args.seconds:
                    break
            # A traced op repeats the input of the untraced op before it, so
            # the overhead is measured on equal work.
            index = k // 2 if tracer is not None else k
            op_argv = workload.argv(index)
            traced = tracer is not None and k % 2 == 1
            if traced:
                tracer.install(k)
            try:
                op = run_op(cli, op_argv)
            finally:
                if traced:
                    tracer.uninstall()
            kernel_after = bench_calibrate.kernel_s()
            op["speed"] = bench_calibrate.scale(kernel_before, kernel_after)
            op["scale"] = op["speed"] if workload.calibrated else 1.0
            kernel_before = kernel_after
            op["traced"] = traced
            ops.append(op)
            problems = []
            if op["error"] is not None:
                problems.append(op["error"])
            elif op["code"] not in workload.expected_codes:
                problems.append(f"exit code {op['code']}: {op['stderr'].strip()[-500:]}")
            else:
                problems += workload.check_op(index, op["stdout"], op["code"])
            problems_of[k] = problems
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        try:
            problems_of[0] += workload.check_run(cli)
        except Exception:  # a crash in the reference check fails the op it checks
            problems_of[0].append(traceback.format_exc(limit=3))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    steal1, total1 = _proc_cpu()
    host = {"steal_frac": (steal1 - steal0) / max(total1 - total0, 1),
            "loadavg_1m_start": load0, "loadavg_1m_end": _loadavg()}

    failed = sum(1 for p in problems_of.values() if p)
    for k, problems in sorted(problems_of.items()):
        for problem in problems[:5]:
            print(f"op {k} failed: {problem}", file=sys.stderr)
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "ops": len(ops), "host": host, **machine_meta(),
            **workload.meta()}

    plain = [op for op in ops if not op["traced"]]
    meta["raw_s_p50"] = {"setup": statistics.median(p["setup_s"] for p in probes),
                         "wall": statistics.median(op["wall"] for op in plain),
                         "cpu": statistics.median(op["cpu"] for op in plain)}
    meta["speed_scale_p50"] = statistics.median(op["speed"] for op in ops)
    if not args.trace:
        values = {
            "setup_s": meta["raw_s_p50"]["setup"],
            "wall_s_p50": statistics.median(op["wall"] * op["scale"] for op in plain),
            "cpu_s_p50": statistics.median(op["cpu"] * op["scale"] for op in plain),
            "peak_rss_mib": peak_rss_mib,
            "ok_frac": 1.0 - failed / len(ops),
        }
        units = END_TO_END_UNITS
    else:
        traced = [op for op in ops if op["traced"]]
        per_op = [bench_trace.op_layers([s for s in tracer.spans if s.op == k],
                                        op["wall"], op["cpu"])
                  for k, op in enumerate(ops) if op["traced"]]
        values = {name: statistics.median(layers[name] for layers in per_op)
                  for name in per_op[0] if name in PER_LAYER_UNITS}
        # Op 2i+1 repeats op 2i's input with tracing on.
        pairs = [(ops[k - 1], op) for k, op in enumerate(ops) if op["traced"]]
        overhead = statistics.median(t["wall"] * t["scale"] - p["wall"] * p["scale"]
                                     for p, t in pairs)
        values.update({
            "cli.import_s": statistics.median(p["import_s"] for p in probes),
            "cli.import.scipy_spatial_s": statistics.median(p["scipy_spatial_s"]
                                                            for p in probes),
            "qosmodel.kernel_build_s": statistics.median(p["kernel_build_s"] for p in probes),
            "qosmodel.mc_max_rel_err": max(getattr(workload, "mc_max_rel_err", [0.0])),
            "stress.share": statistics.median(stress_share(args.workload, layers)
                                              for layers in per_op),
            "trace.wall_s_p50": statistics.median(op["wall"] * op["scale"] for op in traced),
            "trace.overhead_s": overhead,
            "trace.absent": len(tracer.absent),
            "host.steal_frac": host["steal_frac"],
            "host.loadavg_1m": host["loadavg_1m_end"],
            "host.speed_scale": meta["speed_scale_p50"],
        })
        units = PER_LAYER_UNITS
        meta["absent"] = sorted(tracer.absent)
        spans_path = WORK / f"spans-{args.workload}.jsonl"
        tracer.write(spans_path)
        target = STRESS_TARGETS[args.workload]
        print(f"stress share {values['stress.share']:.3f} (target >= {target}): "
              f"{'met' if values['stress.share'] >= target else 'NOT met'}")
        print(f"spans written to {spans_path.relative_to(ROOT)}")

    print("meta " + json.dumps(meta, sort_keys=True))
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
