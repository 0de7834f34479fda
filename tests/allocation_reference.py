"""Loop references for ``allocation._canonical_schedule`` and
``allocation.verify_plan``.

These are the slot-by-slot and cell-by-cell loops the array code replaces.
The arithmetic is the same per element and per row (each row's dot product
is the per-row ``@``), so the array code must give a bit-equal schedule and
the same violations, in the same order, with equal magnitudes.
"""

from __future__ import annotations

import numpy as np

from mbsplan.allocation import _CAP_TOL, _CLOSED_TOL, _COVERAGE_TOL


def canonical_schedule(static, fleet, values, areas) -> np.ndarray:
    caps = values.max(axis=0)
    schedule = np.empty(values.shape)
    for j in range(values.shape[0]):
        required = np.maximum(0.0, values[j] - static)
        leftover = fleet - float(required @ areas)
        headroom = np.maximum(0.0, caps - required)
        weights = headroom * areas
        total = float(weights.sum())
        if leftover > 0.0 and total > 0.0:
            schedule[j] = required + leftover * headroom / total
        else:
            schedule[j] = required
    return schedule


def violations(plan, values, areas) -> list[tuple]:
    """(constraint, slot, region, magnitude) per failed check."""
    n_slots, n_regions = values.shape
    caps = values.max(axis=0)
    out = []
    closed_tol = _CLOSED_TOL * (1.0 + plan.fleet_size)
    for j in range(n_slots):
        err = abs(float(plan.mbs_schedule[j] @ areas) - plan.fleet_size)
        if err > closed_tol:
            out.append(("closed_system", j, None, err))
    total = plan.static_density[np.newaxis, :] + plan.mbs_schedule
    for j in range(n_slots):
        for z in range(n_regions):
            shortfall = values[j, z] - total[j, z] - _COVERAGE_TOL * (1.0 + values[j, z])
            if shortfall > 0.0:
                out.append(("coverage", j, z, shortfall))
            over = max(-plan.mbs_schedule[j, z], plan.mbs_schedule[j, z] - caps[z]) - _CAP_TOL
            if over > 0.0:
                out.append(("mbs_cap", j, z, over))
    for z in range(n_regions):
        over = max(-plan.static_density[z], plan.static_density[z] - caps[z]) - _CAP_TOL
        if over > 0.0:
            out.append(("static_cap", None, z, over))
    return out
