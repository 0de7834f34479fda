"""Output checks that share no code with mbsplan.

Each check reads the artifacts a CLI operation wrote and returns a list of
problems; an empty list means the output is correct. The reference values
come from the README (the built-in scenario, the 1e-6 tie-break premium on
the fleet cost) and from an independent solver, never from the package.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np

# Built-in two-district scenario, as documented in the README.
DEFAULT_AREAS_KM2 = {"office": 1.0, "residential": 10.0}
DEFAULT_SLOTS = 60
TARGET_DELAY_S_PER_BIT = 1e-5
DEFAULT_SAVING = 0.27402
DEFAULT_SAVING_TOL = 0.005

TIE_BREAK_EPSILON = 1e-6
OBJECTIVE_REL_TOL = 1e-6

# Same slack the plan invariants are stated with, relative to the values.
_REL_TOL = 1e-9


def read_demand_csv(path: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Region ids, minimum station densities (slots x regions, per km^2) and
    achieved delays from a ``demand.csv``."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    ids: list[str] = []
    for row in rows:
        if row["region_id"] not in ids:
            ids.append(row["region_id"])
    n_slots = len(rows) // len(ids)
    demand = np.zeros((n_slots, len(ids)))
    delay = np.zeros((n_slots, len(ids)))
    for row in rows:
        j, z = int(row["slot"]), ids.index(row["region_id"])
        demand[j, z] = float(row["min_bs_density_per_km2"])
        delay[j, z] = float(row["achieved_delay_s_per_bit"])
    return ids, demand, delay


def plan_problems(demand: np.ndarray, areas: np.ndarray, static: np.ndarray,
                  schedule: np.ndarray, fleet: float) -> list[str]:
    """Closed fleet, coverage and caps for a plan in per-km^2 units."""
    problems = []
    caps = demand.max(axis=0)
    closed_err = np.abs(schedule @ areas - fleet)
    for j in np.flatnonzero(closed_err > 1e-8 * (1.0 + fleet)):
        problems.append(f"slot {j}: fleet placed {schedule[j] @ areas!r} != fleet {fleet!r}")
    shortfall = demand - (static[None, :] + schedule) - _REL_TOL * (1.0 + demand)
    for j, z in zip(*np.nonzero(shortfall > 0.0)):
        problems.append(f"slot {j}, region {z}: coverage short by {shortfall[j, z]!r}/km2")
    cap_slack = _REL_TOL * (1.0 + caps)
    for j, z in zip(*np.nonzero((schedule < -cap_slack) | (schedule > caps + cap_slack))):
        problems.append(f"slot {j}, region {z}: mobile density {schedule[j, z]!r} "
                        f"outside [0, {caps[z]!r}]")
    for z in np.flatnonzero((static < -cap_slack) | (static > caps + cap_slack)):
        problems.append(f"region {z}: static density {static[z]!r} outside [0, {caps[z]!r}]")
    return problems


def check_run_default(out_dir: Path) -> list[str]:
    """Re-derive the built-in scenario's plan feasibility and saving."""
    ids, demand, delay = read_demand_csv(out_dir / "demand.csv")
    if ids != list(DEFAULT_AREAS_KM2) or demand.shape[0] != DEFAULT_SLOTS:
        return [f"demand.csv covers regions {ids} x {demand.shape[0]} slots, expected "
                f"{list(DEFAULT_AREAS_KM2)} x {DEFAULT_SLOTS}"]
    problems = []
    late = delay > TARGET_DELAY_S_PER_BIT * (1.0 + _REL_TOL)
    for j, z in zip(*np.nonzero(late)):
        problems.append(f"slot {j}, region {ids[z]}: achieved delay {delay[j, z]!r} "
                        f"exceeds the target")
    plan = json.loads((out_dir / "plan.json").read_text())
    areas = np.array([DEFAULT_AREAS_KM2[i] for i in ids])
    static = np.array([plan["static_density_per_km2"][i] for i in ids])
    schedule = np.array(plan["mbs_schedule_per_km2"], dtype=float)
    fleet = float(plan["fleet_size"])
    if schedule.shape != demand.shape:
        return problems + [f"plan schedule has shape {schedule.shape}, demand {demand.shape}"]
    problems += plan_problems(demand, areas, static, schedule, fleet)

    report = json.loads((out_dir / "savings.json").read_text())
    static_only = float(demand.max(axis=0) @ areas)
    saving = 1.0 - (fleet + float(static @ areas)) / static_only
    reported = report["total_saving_fraction"]
    if abs(saving - reported) > 1e-9:
        problems.append(f"total_saving_fraction {reported!r} disagrees with the plan "
                        f"({saving!r})")
    if abs(reported - DEFAULT_SAVING) > DEFAULT_SAVING_TOL:
        problems.append(f"total_saving_fraction {reported!r} is not within "
                        f"{DEFAULT_SAVING_TOL} of {DEFAULT_SAVING}")
    return problems


def read_sweep_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and numeric rows of a sweep CSV."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows.reshape(-1, len(header))


def check_sweep_csv(path: Path, ratios, region_ids) -> list[str]:
    """Shape and monotonicity of one ``sweep_cost.csv``."""
    header, rows = read_sweep_csv(path)
    expected = ["parameter", "total_saving_fraction", "fleet_size", "objective"]
    expected += [f"static_saving_{rid}" for rid in region_ids]
    if header != expected:
        return [f"sweep header {header} != {expected}"]
    if rows.shape[0] != len(ratios) or not np.array_equal(rows[:, 0], ratios):
        return [f"sweep parameters {rows[:, 0].tolist()} != {list(ratios)}"]
    problems = []
    if not np.all(np.isfinite(rows)):
        problems.append("sweep has non-finite values")
    saving, fleet, objective = rows[:, 1], rows[:, 2], rows[:, 3]
    if np.any(objective <= 0.0) or np.any(fleet < 0.0):
        problems.append("sweep has a non-positive objective or a negative fleet")
    if np.any((saving < 0.0) | (saving >= 1.0)):
        problems.append(f"sweep savings {saving.tolist()} outside [0, 1)")
    # Raising the static price cannot make the cheapest plan cheaper.
    if np.any(np.diff(objective) < -OBJECTIVE_REL_TOL * objective[1:]):
        problems.append(f"sweep objective {objective.tolist()} decreases with the cost ratio")
    return problems


def allocation_lp_objective(demand: np.ndarray, areas: np.ndarray,
                            static_cost: float) -> float:
    """Optimal CAPEX of the deployment LP in the README, solved with HiGHS.

    Variables are [M, static_z, mobile_jz] with densities per km^2 and a
    mobile unit cost of 1, as in the cost sweep. The fleet carries the
    README's tie-break premium inside the solver; the value returned is
    priced at the true costs.
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_array, hstack

    n_slots, n_regions = demand.shape
    n_cells = n_slots * n_regions
    caps = demand.max(axis=0)
    slot_of_cell = np.repeat(np.arange(n_slots), n_regions)
    region_of_cell = np.tile(np.arange(n_regions), n_slots)
    # sum_z A_z mobile_jz - M = 0 for every slot j.
    a_eq = hstack([
        coo_array(-np.ones((n_slots, 1))),
        coo_array((n_slots, n_regions)),
        coo_array((areas[region_of_cell], (slot_of_cell, np.arange(n_cells))),
                  shape=(n_slots, n_cells)),
    ])
    # -static_z - mobile_jz <= -demand_jz for every cell.
    cells = np.arange(n_cells)
    a_ub = hstack([
        coo_array((n_cells, 1)),
        coo_array((-np.ones(n_cells), (cells, region_of_cell)), shape=(n_cells, n_regions)),
        coo_array((-np.ones(n_cells), (cells, cells)), shape=(n_cells, n_cells)),
    ])
    cost = np.concatenate(([1.0 + TIE_BREAK_EPSILON],
                           static_cost * areas, np.zeros(n_cells)))
    bounds = np.column_stack((np.zeros(1 + n_regions + n_cells),
                              np.concatenate(([np.inf], caps, np.tile(caps, n_slots)))))
    res = linprog(cost, A_ub=a_ub.tocsr(), b_ub=-demand.ravel(),
                  A_eq=a_eq.tocsr(), b_eq=np.zeros(n_slots), bounds=bounds,
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    fleet, static = res.x[0], res.x[1:1 + n_regions]
    return float(fleet + static_cost * (static @ areas))


def check_sweep_lp(sweep_csv: Path, demand_csv: Path, areas_km2: dict,
                   ratios) -> list[str]:
    """Every sweep point's objective against a HiGHS solve of the same LP."""
    ids, demand, _ = read_demand_csv(demand_csv)
    areas = np.array([areas_km2[i] for i in ids])
    problems = check_sweep_csv(sweep_csv, ratios, ids)
    if problems:
        return problems
    _, rows = read_sweep_csv(sweep_csv)
    static_only = float(demand.max(axis=0) @ areas)
    for ratio, saving, _, objective in rows[:, :4]:
        reference = allocation_lp_objective(demand, areas, float(ratio))
        if abs(objective - reference) > OBJECTIVE_REL_TOL * abs(reference):
            problems.append(f"ratio {ratio!r}: objective {objective!r}, HiGHS {reference!r}")
        expected_saving = 1.0 - objective / (ratio * static_only)
        if abs(saving - expected_saving) > 1e-9:
            problems.append(f"ratio {ratio!r}: saving {saving!r} != {expected_saving!r}")
    return problems


_REL_ERR = re.compile(r"rel err ([0-9.]+)%")


def check_validate(stdout: str, exit_code: int) -> tuple[list[str], float]:
    """Problems in a ``validate`` report, and the worst Monte Carlo error.

    The Monte Carlo spots are statistical at 1 000 trials and may fail on
    some seeds, so their verdicts are not problems; the deterministic
    checks must pass and the exit code must agree with the report.
    """
    lines = [line for line in stdout.splitlines() if line.strip()]
    problems = []
    if len(lines) != 7:
        problems.append(f"validate printed {len(lines)} report lines, expected 7")
    exact = [line for line in lines if "zero-traffic" in line or "grid-scan" in line]
    if len(exact) != 4:
        problems.append(f"found {len(exact)} zero-traffic/grid-scan lines, expected 4")
    problems += [f"deterministic check failed: {line}" for line in exact
                 if not line.startswith("PASS ")]
    spots = [line for line in lines if "mc-delay" in line]
    errors = [float(m.group(1)) / 100.0 for m in map(_REL_ERR.search, spots) if m]
    if len(errors) != 3:
        problems.append(f"found {len(errors)} Monte Carlo spot errors, expected 3")
    all_pass = bool(lines) and all(line.startswith("PASS ") for line in lines)
    if exit_code != (0 if all_pass else 1):
        problems.append(f"exit code {exit_code} disagrees with the report")
    return problems, max(errors, default=0.0)
