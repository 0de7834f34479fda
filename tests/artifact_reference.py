"""Reference writers for the artifacts of ``run`` and the sweeps.

These are the writers that ``pipeline`` replaces: every float column is
formatted on its own with ``repr``, each CSV column that two files share is
formatted again for the second, and each JSON file goes through
``json.dumps(..., indent=2)`` whole. ``pipeline`` formats each distinct
array once and lays out the JSON matrices itself, so its files must be
byte-equal to the ones written here.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from mbsplan.allocation import TIE_BREAK_EPSILON, DeploymentPlan, SavingsReport
from mbsplan.scenario import M2_PER_KM2, slot_midpoints_h


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_csv(path, columns: dict) -> None:
    """The column names, then one comma-joined line per row, each line
    ending in a newline. A column is a list of ints or strings, written as
    they are, or an array of floats, each written as ``repr(float(v))``:
    the shortest form that parses back to the same float."""
    cells = [map(str, c) if isinstance(c, list)
             else map(repr, np.asarray(c, dtype=float).tolist()) for c in columns.values()]
    lines = [",".join(columns), *map(",".join, zip(*cells))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_cell_csv(path: Path, solved, columns: dict) -> None:
    """One row per (slot, region), slot-major: ``slot,time_h,region_id``
    and then ``columns``, each a J x Z array or one that broadcasts to it."""
    num_slots, num_regions = shape = solved.demand.shape
    write_csv(path, {
        "slot": [j for j in range(num_slots) for _ in range(num_regions)],
        "time_h": np.repeat(slot_midpoints_h(num_slots), num_regions),
        "region_id": list(solved.scenario.region_ids) * num_slots,
        **{name: np.broadcast_to(a, shape).ravel() for name, a in columns.items()},
    })


def write_demand_csv(path: Path, solved) -> None:
    """The dimensioning result: user density, required station density and
    the delay achieved at it."""
    write_cell_csv(path, solved, {
        "user_density_per_km2": solved.users * M2_PER_KM2,
        "min_bs_density_per_km2": solved.demand * M2_PER_KM2,
        "achieved_delay_s_per_bit": solved.delay,
    })


def write_series_csv(path: Path, solved) -> None:
    """Wide per-(slot, region) series used for the daily-profile figures.

    Derived columns are computed on the already-converted per-km^2 values,
    so total = static + mbs and excess = total - baseline hold bit-exactly
    on re-parse.
    """
    baseline = solved.demand * M2_PER_KM2
    static = solved.plan.static_density * M2_PER_KM2
    mbs = solved.plan.mbs_schedule * M2_PER_KM2
    total = static + mbs
    write_cell_csv(path, solved, {
        "baseline_per_km2": baseline,
        "static_only_per_km2": baseline.max(axis=0),
        "static_per_km2": static,
        "mbs_per_km2": mbs,
        "total_per_km2": total,
        "excess_per_km2": total - baseline,
        "mbs_fraction": solved.report.mbs_fraction_series,
    })


def plan_dict(plan: DeploymentPlan, region_ids) -> dict:
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


def savings_dict(report: SavingsReport, region_ids) -> dict:
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


def write_run(out: Path, solved, manifest: dict) -> None:
    """The five files of ``run``, in the order it writes them."""
    ids = solved.scenario.region_ids
    write_demand_csv(out / "demand.csv", solved)
    write_json(out / "plan.json", plan_dict(solved.plan, ids))
    write_json(out / "savings.json", savings_dict(solved.report, ids))
    write_series_csv(out / "series.csv", solved)
    write_json(out / "manifest.json", manifest)


def write_sweep_csv(path, result) -> None:
    """``parameter,total_saving_fraction,fleet_size,objective`` plus one
    ``static_saving_<region>`` column per region; failed points are skipped.
    The file is staged beside ``path`` and moved into place once written, so
    a failed write leaves the previous file untouched."""
    ok = np.isfinite(result.fleet_size)  # failed points are in result.failures
    with tempfile.TemporaryDirectory(dir=Path(path).parent) as tmp:
        staged = Path(tmp) / "sweep.csv"
        write_csv(staged, {
            "parameter": result.parameter_values[ok],
            "total_saving_fraction": result.total_saving_fraction[ok],
            "fleet_size": result.fleet_size[ok],
            "objective": result.objective[ok],
            **{f"static_saving_{rid}": result.per_region_static_saving[ok, z]
               for z, rid in enumerate(result.region_ids)},
        })
        os.replace(staged, path)
