"""Loop references for ``allocation._canonical_schedule`` and
``allocation.verify_plan``.

These are the slot-by-slot and cell-by-cell loops the array code replaces.
The arithmetic is the same per element and per row (each row's dot product
is the per-row ``@``), so the array code must give a bit-equal schedule and
the same violations, in the same order, with equal magnitudes.
"""

from __future__ import annotations

import math

import numpy as np

from mbsplan.allocation import _REL_TOL, _TINY


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
            # scaled by 2**-exponent, the product cannot underflow
            exponent = math.frexp(total)[1]
            schedule[j] = (required + math.ldexp(leftover, -exponent) * headroom
                           / math.ldexp(total, -exponent))
        else:
            schedule[j] = required
    return schedule


def violations(plan, values, areas) -> list[tuple]:
    """(constraint, slot, region, magnitude) per failed check. Each check
    forgives ``_REL_TOL`` of the peak aggregate demand in station counts,
    and never less than ``_TINY``."""
    n_slots, n_regions = values.shape
    caps = values.max(axis=0)
    peak = max(float(values[j] @ areas) for j in range(n_slots))
    tol = [max(_REL_TOL * peak / area, _TINY) for area in areas]
    closed_tol = max(_REL_TOL * peak, _TINY)
    out = []
    for j in range(n_slots):
        err = abs(float(plan.mbs_schedule[j] @ areas) - plan.fleet_size)
        if err > closed_tol:
            out.append(("closed_system", j, None, err))
    total = plan.static_density[np.newaxis, :] + plan.mbs_schedule
    for j in range(n_slots):
        for z in range(n_regions):
            shortfall = values[j, z] - total[j, z] - tol[z]
            if shortfall > 0.0:
                out.append(("coverage", j, z, shortfall))
            over = max(-plan.mbs_schedule[j, z], plan.mbs_schedule[j, z] - caps[z]) - tol[z]
            if over > 0.0:
                out.append(("mbs_cap", j, z, over))
    for z in range(n_regions):
        over = max(-plan.static_density[z], plan.static_density[z] - caps[z]) - tol[z]
        if over > 0.0:
            out.append(("static_cap", None, z, over))
    return out
