"""Brute-force LP reference used by the allocation tests.

:func:`allocation_lp` writes the deployment problem out in its full
equality form, over [M, static per region, mobile schedule slot-major],
and puts a finite box around every variable, so the feasible set is a
polytope: its optimum sits at a vertex, and a vertex is any nonsingular
choice of n active constraints. Enumerating every such choice is
exponential but fine at the test sizes (n <= 9), and shares no code with
the reduced LP and solver under test.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb

import numpy as np

FEAS_TOL = 1e-9


def enumerate_optimum(c, a_eq, b_eq, a_ub, b_ub, bounds):
    """Return ("optimal", best objective) or ("infeasible", None).

    Requires finite lower and upper bounds on every variable so that
    unbounded problems cannot arise.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))

    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)

    # Optional active-constraint pool: inequality rows plus both box faces.
    pool_rows = [a_ub]
    pool_rhs = [b_ub]
    eye = np.eye(n)
    pool_rows += [eye, eye]
    pool_rhs += [lo, hi]
    pool_a = np.vstack(pool_rows)
    pool_b = np.concatenate(pool_rhs)

    m_eq = a_eq.shape[0]
    need = n - m_eq
    if need < 0:
        # Over-determined equality system; solve by least squares and check.
        x, *_ = np.linalg.lstsq(a_eq, b_eq, rcond=None)
        if _feasible(x[np.newaxis], a_eq, b_eq, a_ub, b_ub, lo, hi)[0]:
            return "optimal", float(c @ x)
        return "infeasible", None

    # One system per choice of `need` active rows from the pool.
    count = comb(pool_a.shape[0], need)
    combos = chain.from_iterable(combinations(range(pool_a.shape[0]), need))
    idx = np.fromiter(combos, dtype=np.intp, count=count * need).reshape(count, need)
    mats = np.empty((idx.shape[0], n, n))
    rhs = np.empty((idx.shape[0], n))
    mats[:, :m_eq] = a_eq
    rhs[:, :m_eq] = b_eq
    mats[:, m_eq:] = pool_a[idx]
    rhs[:, m_eq:] = pool_b[idx]

    dets = np.abs(np.linalg.det(mats))
    # largest |entry| of each system, from per-row maxima
    eq_max = np.abs(a_eq).max(initial=0.0)
    row_max = np.abs(pool_a).max(axis=1)[idx].max(axis=1, initial=eq_max)
    scale = np.maximum(1.0, row_max ** n)
    usable = dets > 1e-9 * scale
    if not usable.any():
        return "infeasible", None
    solutions = np.linalg.solve(mats[usable], rhs[usable][..., np.newaxis])[..., 0]
    feasible = solutions[_feasible(solutions, a_eq, b_eq, a_ub, b_ub, lo, hi)]
    if not feasible.size:
        return "infeasible", None
    return "optimal", float(np.min(feasible @ c))


def _feasible(xs, a_eq, b_eq, a_ub, b_ub, lo, hi):
    """Which rows of xs satisfy every constraint to FEAS_TOL."""
    ok = np.all((xs >= lo - FEAS_TOL) & (xs <= hi + FEAS_TOL), axis=1)
    if a_eq.size:
        ok &= np.max(np.abs(xs @ a_eq.T - b_eq), axis=1) <= FEAS_TOL * (1.0 + np.abs(b_eq).max())
    if a_ub.size:
        ok &= np.max(xs @ a_ub.T - b_ub, axis=1) <= FEAS_TOL * (1.0 + np.abs(b_ub).max())
    return ok


def allocation_lp(demand, areas, static_cost, mobile_cost):
    """The deployment LP as ``enumerate_optimum`` arguments:

        minimize  c_m M + c_s sum_z A_z s_z
        s.t.      sum_z A_z mbs[j, z] - M = 0                (closed fleet)
                  -s_z - mbs[j, z] <= -demand[j, z]          (coverage)
                  0 <= s_z, mbs[j, z] <= cap_z,  0 <= M <= sum_z A_z cap_z

    The bound on M is implied (no slot can hold more than every region at
    its peak) and keeps the box finite.
    """
    demand = np.asarray(demand, dtype=float)
    areas = np.asarray(areas, dtype=float)
    n_slots, n_regions = demand.shape
    caps = demand.max(axis=0)
    n = 1 + n_regions + n_slots * n_regions
    c = np.zeros(n)
    c[0] = mobile_cost
    c[1:1 + n_regions] = static_cost * areas
    a_eq = np.zeros((n_slots, n))
    a_ub = np.zeros((n_slots * n_regions, n))
    b_ub = np.zeros(n_slots * n_regions)
    for j in range(n_slots):
        a_eq[j, 0] = -1.0
        for z in range(n_regions):
            mbs = 1 + n_regions + j * n_regions + z
            a_eq[j, mbs] = areas[z]
            row = j * n_regions + z
            a_ub[row, 1 + z] = -1.0
            a_ub[row, mbs] = -1.0
            b_ub[row] = -demand[j, z]
    bounds = [(0.0, float(areas @ caps))]
    bounds += [(0.0, float(caps[z])) for z in range(n_regions)] * (1 + n_slots)
    return c, a_eq, np.zeros(n_slots), a_ub, b_ub, bounds


def random_allocation(rng, max_slots=3, max_regions=2):
    """Small random deployment instance: (demand, areas, static, mobile cost).

    Demand and areas are O(1) numbers (per km^2 and km^2) so that the
    oracle's singularity test sees well-scaled matrices. About one demand
    cell in five is zero; the unit costs are drawn independently, so the
    mobile station is sometimes the dearer one, and a quarter of the
    instances price both equally.
    """
    n_slots = int(rng.integers(1, max_slots + 1))
    n_regions = int(rng.integers(1, max_regions + 1))
    demand = rng.uniform(0.0, 20.0, size=(n_slots, n_regions))
    demand[rng.random((n_slots, n_regions)) < 0.2] = 0.0
    areas = rng.uniform(0.5, 5.0, size=n_regions)
    static_cost = float(rng.uniform(0.5, 3.0))
    mobile_cost = static_cost if rng.random() < 0.25 else float(rng.uniform(0.5, 3.0))
    return demand, areas, static_cost, mobile_cost
