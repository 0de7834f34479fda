"""End-to-end orchestration: scenario in, figure-ready artifacts out.

``run_pipeline`` chains the stages (traffic profiles -> user densities ->
minimum station densities -> deployment LP -> savings report) and writes
CSV/JSON artifacts suitable for plotting. This module alone knows the
artifact formats; the stages only compute. The two parameter sweeps rerun
that chain while varying either the office/residential user-density ratio
or the static/mobile unit-cost ratio. ``validate`` replays the analytic
model against its Monte Carlo and grid-scan oracles.

All outputs are deterministic for a fixed config: floats are written with
``repr`` (shortest round-trip form), JSON keys are sorted, and nothing on
the optimization path draws random numbers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .allocation import (TIE_BREAK_EPSILON, CostModel, DeploymentPlan, SavingsReport,
                         optimal_plan, savings, verify_plan)
from .dimensioning import _min_densities, demand_matrix
from .qosmodel import NonFinite, delay_given_utilization, evaluate_qos, mc_delay_oracle
from .scenario import (M2_PER_KM2, Scenario, ValidationError, default_config, load_scenario,
                       slot_midpoints_h, user_density_matrix)

# Spot checks used by ``validate``: (station density, user density) pairs in
# per-km^2 units for the Monte Carlo oracle, and user densities for the
# grid-scan cross-check of the dimensioning stage.
MC_SPOT_DENSITIES_PER_KM2 = ((10.0, 100.0), (30.0, 1000.0), (100.0, 10000.0))
GRID_SPOT_USER_DENSITIES_PER_KM2 = (100.0, 1000.0, 10000.0)
_GRID_POINTS = 2000
_GRID_LO_PER_KM2 = 1e-2
_GRID_HI_PER_KM2 = 1e5
_MC_REL_TOL = 0.05


@dataclass(frozen=True)
class SweepResult:
    """One row per parameter value; failed points are collected, not fatal."""

    parameter_values: np.ndarray
    total_saving_fraction: np.ndarray
    per_region_static_saving: np.ndarray
    fleet_size: np.ndarray
    objective: np.ndarray
    region_ids: tuple
    failures: list


def _load(config_path) -> tuple[Scenario, bytes]:
    """Scenario parsed from the exact bytes that define it, and those bytes
    (for the manifest hash). With no path they are ``default_config()``'s
    JSON with sorted keys."""
    if config_path is None:
        raw, base_dir = json.dumps(default_config(), sort_keys=True).encode(), None
    else:
        path = Path(config_path)
        raw, base_dir = path.read_bytes(), path.parent
    return load_scenario(raw.decode("utf-8"), base_dir=base_dir), raw


@dataclass(frozen=True)
class _Solved:
    """A solved scenario; users, demand, delay and iterations are J x Z."""

    scenario: Scenario
    users: np.ndarray
    demand: np.ndarray
    delay: np.ndarray
    iterations: np.ndarray
    plan: DeploymentPlan
    report: SavingsReport


def _solve_scenario(scenario: Scenario, costs: CostModel = CostModel(),
                    dimensioned: tuple | None = None) -> _Solved:
    """The shared run/sweep path; sweeps reuse it so that identical inputs
    give bit-identical outputs either way. A sweep that holds the scenario
    fixed passes ``dimensioned`` in, computed once by ``_dimension``."""
    users, demand, delay, iterations = dimensioned or _dimension(scenario)
    areas = scenario.areas_m2()
    plan = optimal_plan(demand, areas, costs)
    violations = verify_plan(plan, demand, areas)
    if violations:
        raise RuntimeError(f"optimizer emitted an infeasible plan: {violations[:3]}")
    report = savings(plan, demand, areas)
    return _Solved(scenario, users, demand, delay, iterations, plan, report)


def _dimension(scenario: Scenario) -> tuple:
    """User densities, then demand_matrix's (density, delay, iterations)."""
    users = user_density_matrix(scenario)
    return (users, *demand_matrix(users, scenario.radio, scenario.quadrature))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path, columns: dict) -> None:
    """The column names, then one comma-joined line per row, each line
    ending in a newline. A column is a list of ints or strings, written as
    they are, or an array of floats, each written as ``repr(float(v))``:
    the shortest form that parses back to the same float."""
    cells = [map(str, c) if isinstance(c, list)
             else map(repr, np.asarray(c, dtype=float).tolist()) for c in columns.values()]
    lines = [",".join(columns), *map(",".join, zip(*cells))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_cell_csv(path: Path, solved: _Solved, columns: dict) -> None:
    """One row per (slot, region), slot-major: ``slot,time_h,region_id``
    and then ``columns``, each a J x Z array or one that broadcasts to it."""
    num_slots, num_regions = shape = solved.demand.shape
    _write_csv(path, {
        "slot": [j for j in range(num_slots) for _ in range(num_regions)],
        "time_h": np.repeat(slot_midpoints_h(num_slots), num_regions),
        "region_id": list(solved.scenario.region_ids) * num_slots,
        **{name: np.broadcast_to(a, shape).ravel() for name, a in columns.items()},
    })


def _write_demand_csv(path: Path, solved: _Solved) -> None:
    """The dimensioning result: user density, required station density and
    the delay achieved at it."""
    _write_cell_csv(path, solved, {
        "user_density_per_km2": solved.users * M2_PER_KM2,
        "min_bs_density_per_km2": solved.demand * M2_PER_KM2,
        "achieved_delay_s_per_bit": solved.delay,
    })


def _write_series_csv(path: Path, solved: _Solved) -> None:
    """Wide per-(slot, region) series used for the daily-profile figures.

    Derived columns are computed on the already-converted per-km^2 values,
    so total = static + mbs and excess = total - baseline hold bit-exactly
    on re-parse.
    """
    baseline = solved.demand * M2_PER_KM2
    static = solved.plan.static_density * M2_PER_KM2
    mbs = solved.plan.mbs_schedule * M2_PER_KM2
    total = static + mbs
    _write_cell_csv(path, solved, {
        "baseline_per_km2": baseline,
        "static_only_per_km2": baseline.max(axis=0),
        "static_per_km2": static,
        "mbs_per_km2": mbs,
        "total_per_km2": total,
        "excess_per_km2": total - baseline,
        "mbs_fraction": solved.report.mbs_fraction_series,
    })


def _plan_dict(plan: DeploymentPlan, region_ids) -> dict:
    """``plan.json``: the plan with densities in stations/km^2."""
    return {
        "fleet_size": plan.fleet_size,
        "fleet_size_ceil": plan.fleet_size_ceil,
        "static_density_per_km2": dict(zip(region_ids,
                                           (plan.static_density * M2_PER_KM2).tolist())),
        "mbs_schedule_per_km2": (plan.mbs_schedule * M2_PER_KM2).tolist(),
        "objective_value": plan.objective_value,
        "cost_model": dataclasses.asdict(plan.cost_model),
        "tie_break_epsilon": TIE_BREAK_EPSILON,
    }


def _savings_dict(report: SavingsReport, region_ids) -> dict:
    """``savings.json``: the report with the excess series in stations/km^2."""
    return {
        "static_only_total": report.static_only_total,
        "hybrid_total": report.hybrid_total,
        "total_saving_fraction": report.total_saving_fraction,
        "per_region_static_saving_fraction": dict(
            zip(region_ids, report.per_region_static_saving_fraction.tolist())),
        "peak_aggregate_demand": report.peak_aggregate_demand,
        "excess_capacity_per_km2": (report.excess_capacity_series * M2_PER_KM2).tolist(),
        "mbs_fraction": report.mbs_fraction_series.tolist(),
    }


def _dimensioning_counters(solved: _Solved) -> dict:
    """Cells, distinct loads, and the fixed-point iterations spent reporting
    the achieved delays (summed over the distinct loads)."""
    _, first = np.unique(solved.users, return_index=True)
    iterations = solved.iterations.ravel()
    return {"cells": int(iterations.size), "distinct_loads": int(first.size),
            "fixed_point_iterations": int(iterations[first].sum())}


def run_pipeline(config_path, out_dir) -> SavingsReport:
    """Run the full chain on one scenario, write ``demand.csv``,
    ``plan.json``, ``savings.json``, ``series.csv`` and ``manifest.json``
    into ``out_dir``, and return the report that ``savings.json`` holds.

    ``config_path`` may be None to use the built-in two-district scenario.
    The files are written into a temporary directory inside ``out_dir`` and
    moved into place only once all of them exist, so a failed run leaves
    the previous artifacts untouched.
    """
    started = time.perf_counter()
    scenario, raw = _load(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        staged = Path(tmp)
        solved = _solve_scenario(scenario)
        ids = scenario.region_ids
        _write_demand_csv(staged / "demand.csv", solved)
        _write_json(staged / "plan.json", _plan_dict(solved.plan, ids))
        _write_json(staged / "savings.json", _savings_dict(solved.report, ids))
        _write_series_csv(staged / "series.csv", solved)
        _write_json(staged / "manifest.json", {
            "config_sha256": hashlib.sha256(raw).hexdigest(),
            "dimensioning": _dimensioning_counters(solved),
            "numpy_version": np.__version__,
            "scipy_version": scipy.__version__,
            "tool_version": __version__,
            "wall_time_s": time.perf_counter() - started,
        })
        for path in staged.iterdir():
            os.replace(path, out / path.name)
    return solved.report


def _sweep_collect(values, solve_one, region_ids) -> SweepResult:
    """Run one solver callable per parameter value, in order, tolerating
    per-point failures."""
    values = np.asarray(values, dtype=float)
    n = values.size
    saving = np.full(n, np.nan)
    per_region = np.full((n, len(region_ids)), np.nan)
    fleet = np.full(n, np.nan)
    objective = np.full(n, np.nan)
    failures: list = []

    for i, value in enumerate(values):
        try:
            saving_i, solved = solve_one(float(value))
        except Exception as exc:
            failures.append((float(value), f"{type(exc).__name__}: {exc}"))
            continue
        saving[i] = saving_i
        per_region[i] = solved.report.per_region_static_saving_fraction
        fleet[i] = solved.plan.fleet_size
        objective[i] = solved.plan.objective_value
    return SweepResult(parameter_values=values, total_saving_fraction=saving,
                       per_region_static_saving=per_region, fleet_size=fleet,
                       objective=objective, region_ids=tuple(region_ids), failures=failures)


def sweep_density_ratio(config_path, ratios) -> SweepResult:
    """Vary the office/residential peak-density ratio at constant total users.

    The office district is pinned at 1 km^2 and 1e4 users/km^2; for ratio
    rho the residential district gets peak density 1e4/rho over rho km^2,
    holding its peak-hour user count at 1e4. Ratio 10 reproduces the
    built-in default scenario. Every point's regions are built before any
    point is solved, so a ratio whose region is out of bounds raises a
    ``ValidationError`` naming it and solves nothing.
    """
    base, _ = _load(config_path)
    if len(base.regions) != 2:
        raise ValueError(f"the density-ratio sweep needs exactly 2 regions, "
                         f"got {len(base.regions)}")
    ratios = np.asarray(ratios, dtype=float)
    if np.any(ratios < 1.0):
        raise ValueError("density ratios must be >= 1")

    office = dataclasses.replace(base.regions[0], area_km2=1.0, peak_user_density_per_km2=1e4)
    scenarios = {}
    for rho in ratios.tolist():
        try:
            residential = dataclasses.replace(base.regions[1], area_km2=rho,
                                              peak_user_density_per_km2=1e4 / rho)
        except ValidationError as exc:
            raise ValidationError(f"density ratio {rho:g}: {exc}") from None
        scenarios[rho] = dataclasses.replace(base, regions=(office, residential))

    def solve_one(rho):
        solved = _solve_scenario(scenarios[rho])
        return solved.report.total_saving_fraction, solved

    return _sweep_collect(ratios, solve_one, base.region_ids)


def sweep_cost_ratio(config_path, cost_ratios) -> SweepResult:
    """Vary the static/mobile unit-cost ratio on a fixed demand matrix.

    The user densities and the dimensioning are computed once; each point
    prices static stations at the ratio (mobile cost 1) and reports the cost
    saving against an all-static build priced at the same static cost. A
    ratio above 1 makes static strictly dearer, so its optimum is the
    all-mobile fleet at the peak aggregate demand in closed form. Ratio 1
    prices both station types equally, which is closed form too with one
    or two regions; only ratio 1 with three or more regions solves the
    deployment LP with HiGHS.
    """
    scenario, _ = _load(config_path)
    ratios = np.asarray(cost_ratios, dtype=float)
    if np.any(ratios < 1.0):
        raise ValueError("cost ratios must be >= 1")
    dimensioned = _dimension(scenario)

    def solve_one(ratio):
        costs = CostModel(static_unit_cost=ratio, mobile_unit_cost=1.0)
        solved = _solve_scenario(scenario, costs=costs, dimensioned=dimensioned)
        static_only_cost = ratio * solved.report.static_only_total
        saving = 0.0 if static_only_cost <= 0.0 else \
            1.0 - solved.plan.objective_value / static_only_cost
        return saving, solved

    return _sweep_collect(ratios, solve_one, scenario.region_ids)


def write_sweep_csv(path, result: SweepResult) -> None:
    """``parameter,total_saving_fraction,fleet_size,objective`` plus one
    ``static_saving_<region>`` column per region; failed points are skipped."""
    ok = np.isfinite(result.fleet_size)  # failed points are in result.failures
    _write_csv(path, {
        "parameter": result.parameter_values[ok],
        "total_saving_fraction": result.total_saving_fraction[ok],
        "fleet_size": result.fleet_size[ok],
        "objective": result.objective[ok],
        **{f"static_saving_{rid}": result.per_region_static_saving[ok, z]
           for z, rid in enumerate(result.region_ids)},
    })


# ---------------------------------------------------------------------------
# model validation against oracles

@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        return [f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in self.checks]


def validate(config_path, mc_trials: int = 10000, seed: int = 1234) -> ValidationReport:
    """Replay the analytic model against its independent oracles.

    Three Monte Carlo delay spot checks (pass below 5% relative error), a
    zero-traffic identity, and a grid-scan cross-check of the dimensioning
    inversion (pass when the answers land within one cell of a 2000-point
    log grid of fixed-point delays). Deterministic for a fixed seed.
    """
    if mc_trials < 1000:
        raise ValueError(f"mc_trials must be at least 1000, got {mc_trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    scenario, _ = _load(config_path)
    params = scenario.radio
    quad = scenario.quadrature
    checks: list[ValidationCheck] = []

    # Each spot's draws score its load and zero traffic: the estimate is
    # linear in the user density, so the second costs no extra draws.
    simulated = [mc_delay_oracle(bs_km2 / M2_PER_KM2, (users_km2 / M2_PER_KM2, 0.0), 1.0,
                                 params, trials=mc_trials, rng_seed=seed + i).tolist()
                 for i, (bs_km2, users_km2) in enumerate(MC_SPOT_DENSITIES_PER_KM2)]

    # Zero traffic: the analytic delay and the simulated delay (on the first
    # spot's draws) are both exactly zero (no users, nothing to transmit).
    analytic_zero = delay_given_utilization(MC_SPOT_DENSITIES_PER_KM2[0][0] / M2_PER_KM2,
                                            0.0, 1.0, params, quad)
    mc_zero = simulated[0][1]
    ok = analytic_zero == 0.0 and mc_zero == 0.0
    checks.append(ValidationCheck(
        "zero-traffic identity", ok,
        f"analytic {analytic_zero!r}, simulated {mc_zero!r} (both must be 0.0)"))

    for (bs_km2, users_km2), (mc, _) in zip(MC_SPOT_DENSITIES_PER_KM2, simulated):
        analytic = delay_given_utilization(bs_km2 / M2_PER_KM2, users_km2 / M2_PER_KM2, 1.0,
                                           params, quad)
        rel = abs(mc - analytic) / analytic
        checks.append(ValidationCheck(
            f"mc-delay bs={bs_km2:g}/km2 users={users_km2:g}/km2", rel < _MC_REL_TOL,
            f"analytic {analytic:.6e} s/bit, simulated {mc:.6e} s/bit, "
            f"rel err {100 * rel:.2f}% (limit {100 * _MC_REL_TOL:.0f}%)"))

    grid = np.logspace(np.log10(_GRID_LO_PER_KM2), np.log10(_GRID_HI_PER_KM2),
                       _GRID_POINTS) / M2_PER_KM2
    tau0 = params.target_delay_s_per_bit
    lam_u = np.array(GRID_SPOT_USER_DENSITIES_PER_KM2) / M2_PER_KM2
    feasible = evaluate_qos(grid, lam_u[:, None], params, quad).delay_s_per_bit <= tau0
    # One inversion for every spot the scan found feasible: a load's answer
    # does not depend on the other loads, and a non-finite probe names the
    # load whose spot it fails, so the others are inverted again without it.
    pending = np.flatnonzero(feasible.any(axis=1)).tolist()
    solved = {}  # spot -> density (inf past the cap) or the exception it raised
    while pending:
        try:
            solved.update(zip(pending, _min_densities(lam_u[pending], params, quad).tolist()))
            break
        except NonFinite as exc:
            solved[pending.pop(exc.index)] = exc
        except Exception as exc:
            solved.update(dict.fromkeys(pending, exc))
            break
    for i, users_km2 in enumerate(GRID_SPOT_USER_DENSITIES_PER_KM2):
        name = f"grid-scan users={users_km2:g}/km2"
        if i not in solved:
            checks.append(ValidationCheck(name, False,
                                          "no feasible grid point up to the density cap"))
            continue
        if isinstance(solved[i], Exception):
            checks.append(ValidationCheck(
                name, False, f"inversion failed where the grid scan succeeded: {solved[i]}"))
            continue
        k = int(np.argmax(feasible[i]))
        lo = grid[max(k - 1, 0)] * (1.0 - 1e-9)
        hi = grid[min(k + 1, grid.size - 1)] * (1.0 + 1e-9)
        checks.append(ValidationCheck(
            name, lo <= solved[i] <= hi,
            f"inversion {solved[i] * M2_PER_KM2:.6g}/km2, grid first-feasible "
            f"{grid[k] * M2_PER_KM2:.6g}/km2 "
            f"(cell width {100 * (grid[1] / grid[0] - 1):.2f}%)"))

    return ValidationReport(checks=tuple(checks))
