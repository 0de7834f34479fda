"""``scipy.optimize.linprog`` reference for ``allocation._solve_static``.

This is the body ``_solve_static`` would have if it handed the reduced LP,
in station counts as shares of the peak, to ``linprog(..., method="highs")``.
The program gives HiGHS the same model through ``scipy.optimize.milp``: the
same variables, rows, costs and bounds, with no integrality. Both wrappers
pass the model on unchanged, so the static shares must be bit-equal, and
the same status must raise the same error.
"""

from __future__ import annotations

import math

import numpy as np

from mbsplan.allocation import TIE_BREAK_EPSILON, CostModel


def solve_static(shares, costs: CostModel) -> np.ndarray:
    from scipy import sparse
    from scipy.optimize import linprog

    n_slots, n_regions = shares.shape
    caps = shares.max(axis=0)
    n_cells = n_slots * n_regions

    objective = np.concatenate(([costs.mobile_unit_cost * (1.0 + TIE_BREAK_EPSILON)],
                                np.full(n_regions, costs.static_unit_cost), np.zeros(n_cells)))
    # Fleet row j: sum_z t[j, z] - M <= 0. Coverage row of cell (j, z):
    # -static[z] - t[j, z] <= -shares[j, z].
    cells = np.arange(n_cells)
    slot, region = np.divmod(cells, n_regions)
    t_col = 1 + n_regions + cells
    rows = np.concatenate((np.arange(n_slots), slot, n_slots + cells, n_slots + cells))
    cols = np.concatenate((np.zeros(n_slots, dtype=int), t_col, 1 + region, t_col))
    data = np.concatenate((-np.ones(n_slots), np.ones(n_cells), -np.ones(2 * n_cells)))
    a_ub = sparse.csr_array((data, (rows, cols)), shape=(n_slots + n_cells, objective.size))
    b_ub = np.concatenate((np.zeros(n_slots), -shares.ravel()))
    upper = np.concatenate(([math.inf], caps, np.tile(caps, n_slots)))
    bounds = np.column_stack((np.zeros(upper.size), upper))
    result = linprog(objective, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if result.status != 0:
        # A fleet of zero with static shares at each region's peak is
        # always feasible, so any other status means the solver broke.
        raise RuntimeError(f"allocation LP failed on a feasible-by-construction "
                           f"instance: {result.message}")
    return result.x[1:1 + n_regions]
