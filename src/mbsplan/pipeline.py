"""End-to-end orchestration: scenario in, figure-ready artifacts out.

``run_pipeline`` chains the stages (traffic profiles -> user densities ->
minimum station densities -> deployment LP -> savings report) and writes
CSV/JSON artifacts suitable for plotting. This module alone knows the
artifact formats and derives their per-cell values; the stages only
compute. The two parameter sweeps rerun that chain through one loop while
varying the office/residential user-density ratio or the static/mobile
unit-cost ratio. ``validate`` replays the analytic model against its Monte
Carlo and grid-scan oracles.

All outputs are deterministic for a fixed config: floats are written with
``repr`` (shortest round-trip form), JSON keys are sorted, and nothing on
the optimization path draws random numbers. Each array of a run is derived
and formatted once, and the CSV columns and JSON matrices that hold it are
its strings: ``savings.json``'s excess capacity is ``series.csv``'s.
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

from . import __version__
from .allocation import (TIE_BREAK_EPSILON, CostModel, DeploymentPlan, SavingsReport,
                         optimal_plan, savings, verify_plan)
from .dimensioning import InfeasibleDemand, _min_densities, demand_matrix
from .qosmodel import (FixedPointDiverged, NonFinite, _unit_sums, delay_given_utilization,
                       evaluate_qos, mc_delay_oracle)
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
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config: cannot read {config_path}: {exc}") from exc
    return load_scenario(text, base_dir=base_dir), raw


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
        v = violations[0]
        where = [f"slot {v.slot}"] if v.slot is not None else []
        if v.region is None:  # a fleet row, off by stations
            size = f"{v.magnitude:.6g} stations"
        else:
            where.append(f"region {scenario.region_ids[v.region]}")
            size = f"{v.magnitude * M2_PER_KM2:.6g} stations/km^2"
        raise RuntimeError(f"allocation: infeasible plan: {v.constraint} at {', '.join(where)} "
                           f"is off by {size} (and {len(violations) - 1} more)")
    report = savings(plan, demand, areas)
    return _Solved(scenario, users, demand, delay, iterations, plan, report)


def _dimension(scenario: Scenario) -> tuple:
    """User densities, then demand_matrix's (density, delay, iterations).
    A failure names its stage and its cell by slot and region id."""
    users = user_density_matrix(scenario)
    try:
        return (users, *demand_matrix(users, scenario.radio))
    except (InfeasibleDemand, FixedPointDiverged, NonFinite) as exc:
        slot, region = divmod(exc.index, users.shape[1])
        raise type(exc)(f"dimensioning: slot {slot}, region {scenario.region_ids[region]}: "
                        f"{exc.reason}", exc.index) from None


def _reprs(values) -> list:
    """The floats of ``values``, flattened in C order, each as ``repr``
    writes it: the shortest string that parses back to the same float."""
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def _write_json(path: Path, payload: dict, matrices: dict | None = None) -> None:
    """``payload`` as ``json.dumps(payload, sort_keys=True, indent=2)``
    writes it, and a newline.

    ``matrices`` maps top-level keys to a row-major matrix of ``_reprs``
    strings and its column count; each replaces its key's value. Their text
    is laid out here as ``indent=2`` lays out a list of lists at that depth:
    ``indent`` makes ``json`` use its pure-Python encoder, which is slow on
    large arrays.
    """
    matrices = matrices or {}
    text = json.dumps({**payload, **dict.fromkeys(matrices)}, sort_keys=True, indent=2)
    for key, (cells, columns) in matrices.items():
        rows = ",\n    ".join("[\n      " + ",\n      ".join(cells[i:i + columns]) + "\n    ]"
                               for i in range(0, len(cells), columns))
        # no finite float's repr holds an "n": respell nan, inf, -inf as json does
        rows = rows.replace("nan", "NaN").replace("inf", "Infinity")
        text = text.replace(f'\n  "{key}": null', f'\n  "{key}": [\n    {rows}\n  ]', 1)
    path.write_text(text + "\n")


def _write_csv(path, columns: dict) -> None:
    """The column names, then one comma-joined line per row, each line
    ending in a newline. Every column is a list of strings."""
    lines = [",".join(columns), *map(",".join, zip(*columns.values()))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# The first three columns of both per-cell CSVs, as one column of strings.
_CELL_KEY = "slot,time_h,region_id"


def _cell_strings(solved: _Solved) -> dict:
    """Every float column of ``demand.csv`` and ``series.csv`` as ``_reprs``
    strings, one per (slot, region), slot-major, and under ``_CELL_KEY``
    each row's leading columns. Each distinct array is formatted once: the
    baseline is the required station density, the slot times and the two
    static columns are formatted per slot or per region and repeated, and
    ``plan.json`` and ``savings.json`` take their matrices from here.

    Derived columns are computed on the already-converted per-km^2 values,
    so total = static + mbs and excess = total - baseline hold bit-exactly
    on re-parse.
    """
    num_slots, _ = solved.demand.shape
    ids = solved.scenario.region_ids
    baseline = solved.demand * M2_PER_KM2
    static = solved.plan.static_density * M2_PER_KM2
    mbs = solved.plan.mbs_schedule * M2_PER_KM2
    total = static + mbs
    return {
        _CELL_KEY: [f"{j},{t},{rid}" for j, t in enumerate(_reprs(slot_midpoints_h(num_slots)))
                    for rid in ids],
        "user_density_per_km2": _reprs(solved.users * M2_PER_KM2),
        "baseline_per_km2": _reprs(baseline),
        "achieved_delay_s_per_bit": _reprs(solved.delay),
        "static_only_per_km2": _reprs(baseline.max(axis=0)) * num_slots,
        "static_per_km2": _reprs(static) * num_slots,
        "mbs_per_km2": _reprs(mbs),
        "total_per_km2": _reprs(total),
        "excess_per_km2": _reprs(total - baseline),
        "mbs_fraction": _reprs(solved.report.mbs_fraction_series),
    }


def _write_demand_csv(path: Path, cells: dict) -> None:
    """The dimensioning result: user density, required station density and
    the delay achieved at it."""
    _write_csv(path, {
        _CELL_KEY: cells[_CELL_KEY],
        "user_density_per_km2": cells["user_density_per_km2"],
        "min_bs_density_per_km2": cells["baseline_per_km2"],
        "achieved_delay_s_per_bit": cells["achieved_delay_s_per_bit"],
    })


def _write_series_csv(path: Path, cells: dict) -> None:
    """Wide per-(slot, region) series used for the daily-profile figures."""
    _write_csv(path, {name: cells[name] for name in (
        _CELL_KEY, "baseline_per_km2", "static_only_per_km2", "static_per_km2", "mbs_per_km2",
        "total_per_km2", "excess_per_km2", "mbs_fraction")})


def _dimensioning_counters(solved: _Solved) -> dict:
    """Cells, distinct loads, and the fixed-point iterations summed over the cells."""
    return {"cells": int(solved.users.size), "distinct_loads": int(np.unique(solved.users).size),
            "fixed_point_iterations": int(solved.iterations.sum())}


def run_pipeline(config_path, out_dir) -> SavingsReport:
    """Run the full chain on one scenario, write ``demand.csv``,
    ``plan.json``, ``savings.json``, ``series.csv`` and ``manifest.json``
    into ``out_dir``, and return the report that ``savings.json`` holds
    beside the excess matrix.

    ``config_path`` may be None to use the built-in two-district scenario.
    The files are written into a temporary directory inside ``out_dir`` and
    moved into place only once all of them exist and no target name is a
    directory, so a failed run leaves the previous artifacts untouched.
    """
    started = time.perf_counter()
    scenario, raw = _load(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        staged = Path(tmp)
        solved = _solve_scenario(scenario)
        plan, report, ids = solved.plan, solved.report, scenario.region_ids
        cells = _cell_strings(solved)
        _write_demand_csv(staged / "demand.csv", cells)
        # densities in stations/km^2; every J x Z matrix is series.csv's strings
        _write_json(staged / "plan.json", {
            "fleet_size": plan.fleet_size,
            "fleet_size_ceil": plan.fleet_size_ceil,
            "static_density_per_km2": dict(zip(ids, (plan.static_density * M2_PER_KM2).tolist())),
            "objective_value": plan.objective_value,
            "cost_model": dataclasses.asdict(plan.cost_model),
            "tie_break_epsilon": TIE_BREAK_EPSILON,
        }, {"mbs_schedule_per_km2": (cells["mbs_per_km2"], len(ids))})
        _write_json(staged / "savings.json", {
            "static_only_total": report.static_only_total,
            "hybrid_total": report.hybrid_total,
            "total_saving_fraction": report.total_saving_fraction,
            "per_region_static_saving_fraction": dict(
                zip(ids, report.per_region_static_saving_fraction.tolist())),
            "peak_aggregate_demand": report.peak_aggregate_demand,
        }, {
            "excess_capacity_per_km2": (cells["excess_per_km2"], len(ids)),
            "mbs_fraction": (cells["mbs_fraction"], len(ids)),
        })
        _write_series_csv(staged / "series.csv", cells)
        import scipy  # for its version only; importing the CLI and validate never load it
        _write_json(staged / "manifest.json", {
            "config_sha256": hashlib.sha256(raw).hexdigest(),
            "dimensioning": _dimensioning_counters(solved),
            "numpy_version": np.__version__,
            "scipy_version": scipy.__version__,
            "tool_version": __version__,
            "wall_time_s": time.perf_counter() - started,
        })
        files = sorted(staged.iterdir())
        # a directory in a target's place would stop the moves partway
        for target in (out / path.name for path in files):
            if target.is_dir() and not target.is_symlink():
                raise IsADirectoryError(f"cannot write {target}: it is a directory; "
                                        "no artifact was replaced")
        for path in files:
            os.replace(path, out / path.name)
    return report


def _sweep(values, point, region_ids) -> SweepResult:
    """Solve ``_solve_scenario(*point(value))`` for each parameter value, in
    order. A point that fails, building its costs included, is collected.

    Each saving is against an all-static build at the point's static unit
    cost c_s: 1 - objective / (c_s * static-only total), or 0 when that
    cost is <= 0. At unit costs it is the report's total saving bit for bit.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    saving = np.full(n, np.nan)
    per_region = np.full((n, len(region_ids)), np.nan)
    fleet = np.full(n, np.nan)
    objective = np.full(n, np.nan)
    failures: list = []

    for i, value in enumerate(values):
        try:
            scenario, costs, dimensioned = point(float(value))
            solved = _solve_scenario(scenario, costs, dimensioned)
        except Exception as exc:
            failures.append((float(value), f"{type(exc).__name__}: {exc}"))
            continue
        static_only_cost = costs.static_unit_cost * solved.report.static_only_total
        saving[i] = 0.0 if static_only_cost <= 0.0 else \
            1.0 - solved.plan.objective_value / static_only_cost
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
    return _sweep(ratios, lambda rho: (scenarios[rho], CostModel(), None), base.region_ids)


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
    return _sweep(ratios, lambda ratio: (scenario, CostModel(ratio, 1.0), dimensioned),
                  scenario.region_ids)


def write_sweep_csv(path, result: SweepResult) -> None:
    """``parameter,total_saving_fraction,fleet_size,objective`` plus one
    ``static_saving_<region>`` column per region; failed points are skipped.
    The file is staged beside ``path`` under a random name and moved into
    place once written, so a failed write leaves the previous file untouched
    and no staged file behind."""
    ok = np.isfinite(result.fleet_size)  # failed points are in result.failures
    path = Path(path)
    staged = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
    try:
        _write_csv(staged, {
            "parameter": _reprs(result.parameter_values[ok]),
            "total_saving_fraction": _reprs(result.total_saving_fraction[ok]),
            "fleet_size": _reprs(result.fleet_size[ok]),
            "objective": _reprs(result.objective[ok]),
            **{f"static_saving_{rid}": _reprs(result.per_region_static_saving[ok, z])
               for z, rid in enumerate(result.region_ids)},
        })
        os.replace(staged, path)
    except BaseException:
        staged.unlink(missing_ok=True)
        raise


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


def _first_feasible(grid, lambda_u, params):
    """Per user density, the index of the first density of the ascending
    ``grid`` whose fixed-point delay meets the target, or None.

    The u = 1 delay is (lambda_u / lambda_b) S(lambda_b), so one node sum
    S per grid point gives every row's u = 1 delays, bit-equal to
    ``delay_given_utilization``'s. Each row runs the fixed point from its
    low end up to and including its next point whose u = 1 delay meets the
    target, starting from those delays as ``demand_matrix`` does: a point
    whose u = 1 delay misses stops at the first iteration. Only where the
    fixed point misses there too does the row go on to its next such
    point, so the answer rests on fixed-point delays alone. A non-finite
    u = 1 delay among the points a row visits raises the ``NonFinite``
    that ``delay_given_utilization`` raises on it.
    """
    target = params.target_delay_s_per_bit
    with np.errstate(all="ignore"):  # a non-finite delay is raised below where it is visited
        busy = (lambda_u[:, None] / grid) * _unit_sums(grid, 1.0, params)
    point = np.arange(grid.size)
    first = [None] * len(lambda_u)
    start = np.zeros(len(lambda_u), dtype=int)
    rows = np.arange(len(lambda_u))
    while rows.size:
        # each row's next point at or past its start whose u = 1 delay
        # meets the target, or the grid's last point
        ahead = point >= start[rows, None]
        meets = ahead & (busy[rows] <= target)
        stop = np.where(meets.any(axis=1), np.argmax(meets, axis=1), grid.size - 1)
        row, k = np.nonzero(ahead & (point <= stop[:, None]))
        row = rows[row]
        visited = busy[row, k]
        bad = ~np.isfinite(visited)
        if bad.any():  # raises NonFinite naming the first of them
            delay_given_utilization(grid[k[bad]], lambda_u[row[bad]], 1.0, params)
        delay = evaluate_qos(grid[k], lambda_u[row], params, _busy_delay=visited).delay_s_per_bit
        hit = delay <= target
        found, at = np.unique(row[hit], return_index=True)
        for i, kk in zip(found.tolist(), k[hit][at].tolist()):
            first[i] = kk
        start[rows] = stop + 1
        rows = rows[~np.isin(rows, found) & (stop + 1 < grid.size)]
    return first


def _each(call, n, part=slice(None)):
    """``call(part)``, a list with one entry per element that ``part``
    selects of n. Where ``call(slice(None))`` raises ``NonFinite``, each
    element i gets its own ``call(slice(i, i + 1))`` instead, and where that
    raises too, the ``NonFinite`` in place of its value, so a check fails
    naming its own element."""
    try:
        return call(part)
    except NonFinite as exc:
        if part.stop is not None:
            return [exc]
        return [v for i in range(n) for v in _each(call, n, slice(i, i + 1))]


def validate(config_path, mc_trials: int = 10000, seed: int = 1234) -> ValidationReport:
    """Replay the analytic model against its independent oracles.

    Three Monte Carlo delay spot checks (pass below 5% relative error), a
    zero-traffic identity, and a grid-scan cross-check of the dimensioning
    inversion (pass when the answers land within one cell of a 2000-point
    log grid of fixed-point delays). Deterministic for a fixed seed.

    One ``mc_delay_oracle`` call simulates the three spots in one clipping
    loop, spot i from seed + i, each bit-equal to its own call. One
    ``delay_given_utilization`` call gives the zero-traffic and the three
    spot delays, and one ``_min_densities`` call inverts the three grid
    loads; both are elementwise, so each value equals its own call. The
    grid scan sums the u = 1 delay's nodes once per grid point for all
    three user densities and runs the fixed point only up to each one's
    first feasible point (``_first_feasible``), since the report reads
    nothing past it. Where one of these three calls raises ``NonFinite``
    (a delay that is not finite), ``_each`` repeats it for each of its
    elements, and a check whose own element raised reports FAIL with the
    message. Any other error propagates.
    """
    # 100 000 trials per spot peak at 120 MiB and 300 000 at 284 MiB, so the
    # most take about 0.85 GiB
    if not 1000 <= mc_trials <= 1_000_000:
        raise ValueError(f"mc_trials (--trials) must be in [1000, 1000000], got {mc_trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    scenario, _ = _load(config_path)
    params = scenario.radio
    checks: list[ValidationCheck] = []

    # Each spot's draws score its load and zero traffic: the estimate is
    # linear in the user density, so the second costs no extra draws.
    spots = np.array(MC_SPOT_DENSITIES_PER_KM2) / M2_PER_KM2
    simulated = mc_delay_oracle(spots[:, 0], np.stack((spots[:, 1], np.zeros(len(spots))), 1),
                                1.0, params, trials=mc_trials,
                                rng_seed=[seed + i for i in range(len(spots))]).tolist()

    # Zero traffic: the analytic delay and the simulated delay (on the first
    # spot's draws) are both exactly zero (no users, nothing to transmit).
    at_b, at_u = np.append(spots[0, 0], spots[:, 0]), np.append(0.0, spots[:, 1])
    analytic_zero, *analytic_spots = _each(
        lambda s: delay_given_utilization(at_b[s], at_u[s], 1.0, params).tolist(),
        at_b.size)
    mc_zero = simulated[0][1]
    checks.append(ValidationCheck(
        "zero-traffic identity", analytic_zero == 0.0 and mc_zero == 0.0,
        f"analytic delay failed: {analytic_zero}" if isinstance(analytic_zero, NonFinite)
        else f"analytic {analytic_zero!r}, simulated {mc_zero!r} (both must be 0.0)"))

    for (bs_km2, users_km2), (mc, _), analytic in zip(MC_SPOT_DENSITIES_PER_KM2, simulated,
                                                      analytic_spots):
        name = f"mc-delay bs={bs_km2:g}/km2 users={users_km2:g}/km2"
        if isinstance(analytic, NonFinite):
            checks.append(ValidationCheck(name, False, f"analytic delay failed: {analytic}"))
            continue
        rel = abs(mc - analytic) / analytic
        checks.append(ValidationCheck(
            name, rel < _MC_REL_TOL,
            f"analytic {analytic:.6e} s/bit, simulated {mc:.6e} s/bit, "
            f"rel err {100 * rel:.2f}% (limit {100 * _MC_REL_TOL:.0f}%)"))

    grid = np.logspace(np.log10(_GRID_LO_PER_KM2), np.log10(_GRID_HI_PER_KM2),
                       _GRID_POINTS) / M2_PER_KM2
    lam_u = np.array(GRID_SPOT_USER_DENSITIES_PER_KM2) / M2_PER_KM2
    # an inverted density is inf past the cap
    inverted = _each(lambda s: _min_densities(lam_u[s], params)[0].tolist(), lam_u.size)
    first = _each(lambda s: _first_feasible(grid, lam_u[s], params), lam_u.size)
    for users_km2, k, solved in zip(GRID_SPOT_USER_DENSITIES_PER_KM2, first, inverted):
        name = f"grid-scan users={users_km2:g}/km2"
        if isinstance(k, NonFinite):
            checks.append(ValidationCheck(name, False, f"grid scan failed: {k}"))
            continue
        if k is None:
            checks.append(ValidationCheck(name, False,
                                          "no feasible grid point up to the density cap"))
            continue
        if isinstance(solved, NonFinite):
            checks.append(ValidationCheck(
                name, False, f"inversion failed where the grid scan succeeded: {solved}"))
            continue
        lo = grid[max(k - 1, 0)] * (1.0 - 1e-9)
        hi = grid[min(k + 1, grid.size - 1)] * (1.0 + 1e-9)
        checks.append(ValidationCheck(
            name, lo <= solved <= hi,
            f"inversion {solved * M2_PER_KM2:.6g}/km2, grid first-feasible "
            f"{grid[k] * M2_PER_KM2:.6g}/km2 "
            f"(cell width {100 * (grid[1] / grid[0] - 1):.2f}%)"))

    return ValidationReport(checks=tuple(checks))
