"""Minimum station density meeting the delay target, per slot and region.

The utilization fixed point starts at the busy end u = 1, the delay rises
with u and no later iterate rises above the first one (``evaluate_qos``
clips each secant step below the map's image), so the self-consistent
delay meets the target T exactly when
tau(lambda_b, lambda_u, 1) = (lambda_u / lambda_b) * S(lambda_b) <= T, with
S the unit-kernel sum of kernel / rate at u = 1. That reads lambda_u / T <=
h(lambda_b) = lambda_b / S(lambda_b), and h is strictly increasing: the SIR
at the scaled radius does not depend on lambda_b and the SNR grows with it.
All cells of a scenario are inverted at once. S comes from
``qosmodel._unit_sums``, which the fixed point's own first step uses too, so
the achieved delay never exceeds T; one array fixed point over the positive
cells reports that delay, in at most three iterations per cell on the
default scenario (358 over its 120 cells). The first iteration of each cell
takes the u = 1 delay the inversion ended on, bit-equal to evaluating it
again, so the fixed point evaluates the delay 238 times there.

h does not depend on the load, so S is tabulated once per radio on a fixed
lattice, and ``_min_densities`` brackets every load in that table and
closes each bracket with a secant: 2.43 delay evaluations per cell and call
on the default scenario (292 in 2 calls over 120 cells), where bisection
from lambda_u / 10 took 17. The tests check the
computed u = 1 delay to be non-increasing in lambda_b bit for bit on a
20 001-point grid for a range of radios.

Cells are independent: the objective sums per-cell densities and every
constraint touches exactly one (slot, region) pair, so the cell-wise
minimum is the global one.
"""

from __future__ import annotations

import functools

import numpy as np

from .scenario import M2_PER_KM2, RadioParams
from .qosmodel import (BadElement, FixedPointDiverged, NonFinite, _AtElement, _check_elements,
                       _unit_sums, evaluate_qos)

DEFAULT_DENSITY_CAP_PER_M2 = 1e5 / M2_PER_KM2  # 1e5 stations per km^2
BISECTION_REL_TOL = 1e-4


class InfeasibleDemand(_AtElement, RuntimeError):
    """No density up to the cap meets the delay target."""


@functools.lru_cache(maxsize=64)
def _lattice(params: RadioParams):
    """The fixed lattice cap * 2^(-k/8), ascending, and the u = 1 node sums
    S on it, built on the first inversion per radio. It runs
    from the cap down to the lowest density at which floats still resolve a
    relative step of ``BISECTION_REL_TOL`` / 4: 8444 points, down to about
    2e-319 per m^2."""
    cap = DEFAULT_DENSITY_CAP_PER_M2  # 2^-1074 is the smallest float
    steps = np.floor(8.0 * (np.log2(0.25 * BISECTION_REL_TOL * cap) + 1074.0))
    grid = cap * np.exp2(np.arange(-steps, 1.0) / 8.0)
    unit_sum = _unit_sums(grid, 1.0, params)
    for v in (grid, unit_sum):
        v.setflags(write=False)
    return grid, unit_sum


def _min_densities(loads, params):
    """Smallest feasible station density for every user density in the 1-D
    array ``loads``: 0 for a zero load, inf where even the cap misses; and
    the u = 1 delay at each density: 0 for a zero load, NaN past the cap.

    A load meets the target at lambda_b when its exact u = 1 delay
    (lambda_u / lambda_b) S(lambda_b) is at most T; a delay of +inf, where
    the rate underflows to 0, is a miss. A bisection over the indices of
    ``_lattice``, all loads at once, finds each load's first lattice point
    that meets the target; the point below it misses. A load that misses
    at the cap, the lattice's top, is past it. A load that meets at the
    lattice's lowest point raises ``NonFinite`` carrying its index in
    ``loads``, the smallest such load's: its root lies below the lattice,
    where floats cannot resolve the tolerance.

    Each open bracket then takes the secant of log tau against log
    lambda_b across it (the geometric midpoint where its low end's delay is
    +inf) and probes ``BISECTION_REL_TOL`` / 4 either side of the secant's
    root, clipped into the bracket. The last probe or end that misses and
    the first that meets are the new bracket, until hi - lo <=
    ``BISECTION_REL_TOL`` * hi. hi is returned: it meets the target, and
    hi * (1 - ``BISECTION_REL_TOL``) misses it, h being strictly increasing.
    Its delay is the one the last step compared, the same expression
    ``delay_given_utilization`` evaluates. Every step is elementwise over
    the loads, so a load's answer does not depend on the other loads in the
    array.
    """
    loads = np.asarray(loads, dtype=float)
    _check_elements("user density", loads, np.isfinite(loads) & (loads >= 0), "finite and >= 0")
    target, tol = params.target_delay_s_per_bit, BISECTION_REL_TOL
    where = np.flatnonzero(loads > 0)
    density, delay = np.zeros(loads.shape), np.zeros(loads.shape)
    lam_u = loads[where]
    if not lam_u.size:
        return density, delay
    grid, unit_sum = _lattice(params)

    def still_open(k):
        return k[bracket[k, 1] - bracket[k, 0] > tol * bracket[k, 1]]

    with np.errstate(all="ignore"):  # +inf delays, and brackets past the cap
        # each load's first lattice point that meets, by bisection over the
        # indices: grid.size where even the cap misses
        first = np.zeros(lam_u.size, dtype=int)
        for bit in range(grid.size.bit_length() - 1, -1, -1):
            ahead = np.minimum(first + (1 << bit), grid.size)
            meets = (lam_u / grid[ahead - 1]) * unit_sum[ahead - 1] <= target
            first = np.where(meets, first, ahead)
        k = np.argmin(lam_u)  # if any load meets at grid[0], the smallest does
        if first[k] == 0:
            raise NonFinite(f"inversion: lambda_u={float(lam_u[k])!r} meets the target at the "
                            f"lattice's lowest density {float(grid[0])!r}, so its root is not "
                            "resolved", int(where[k]))
        pick = first[:, None] + [-1, 0]  # past the cap: hi = inf, never open
        bracket = np.append(grid, np.inf)[pick]
        taus = (lam_u[:, None] / bracket) * np.append(unit_sum, np.inf)[pick]
        idx = still_open(np.arange(lam_u.size))
        while idx.size:
            (lo, hi), (tau_lo, tau_hi) = bracket[idx].T, taus[idx].T
            # the secant's root, or the geometric midpoint where tau_lo is +inf
            share = np.nan_to_num(np.log(target / tau_lo) / np.log(tau_hi / tau_lo), nan=0.5)
            root = lo * (hi / lo) ** share
            probes = np.clip(root[:, None] * [1.0 - 0.25 * tol, 1.0 + 0.25 * tol],
                             lo[:, None], hi[:, None])
            tau = (lam_u[idx, None] / probes) * _unit_sums(probes, 1.0, params)
            # the points ascend and their delays descend: the new bracket is
            # the last point that misses and the first that meets
            points = np.column_stack([lo, probes, hi])
            delays = np.column_stack([tau_lo, tau, tau_hi])
            pick = np.count_nonzero(delays > target, axis=1)[:, None] + [-1, 0]
            bracket[idx] = np.take_along_axis(points, pick, axis=1)
            taus[idx] = np.take_along_axis(delays, pick, axis=1)
            idx = still_open(idx)
    density[where], delay[where] = bracket[:, 1], taus[:, 1]
    return density, delay


def demand_matrix(users, params: RadioParams):
    """Cell-wise minimum station densities for a J x Z array of user
    densities (per m^2), as three J x Z arrays: the density (per m^2), the
    delay achieved at it and the fixed-point iterations spent finding that
    delay (0 for a zero load). Each density is the smallest one whose
    self-consistent delay meets the target, to relative tolerance
    ``BISECTION_REL_TOL``; ``demand_matrix([[lambda_u]], ...)`` inverts one load.

    A failure names its cell as ``slot j, region index z: `` before the
    reason; the exception keeps the cell's flat index as ``index`` and the
    reason alone as ``reason``.

    Densities come from one inversion over all cells and the achieved
    delays from one array fixed point over the positive cells; both are
    elementwise, so equal loads get equal entries.
    """
    users = np.asarray(users, dtype=float)
    if users.ndim != 2:
        raise ValueError(f"user densities must be a J x Z array, got shape {users.shape}")
    loads = users.ravel()

    def at_cell(error, k, reason):
        k = int(k)
        exc = error("slot {}, region index {}: {}".format(*divmod(k, users.shape[1]), reason), k)
        exc.reason = reason
        return exc

    try:
        densities, busy_delays = _min_densities(loads, params)
    except (BadElement, NonFinite) as exc:
        raise at_cell(type(exc), exc.index, str(exc)) from None
    unmet = np.flatnonzero(densities == np.inf)
    if unmet.size:
        k = unmet[0]
        raise at_cell(InfeasibleDemand, k,
                      f"delay target {params.target_delay_s_per_bit:.3e} s/bit unmet at the "
                      f"density cap {DEFAULT_DENSITY_CAP_PER_M2 * M2_PER_KM2:.6g} per km^2 (user "
                      f"density {loads[k] * M2_PER_KM2:.6g} per km^2)")
    positive = np.flatnonzero(loads > 0)
    result = evaluate_qos(densities[positive], loads[positive], params,
                          _busy_delay=busy_delays[positive])
    diverged = positive[~result.converged]
    if diverged.size:
        k = diverged[0]
        raise at_cell(FixedPointDiverged, k,
                      "utilization fixed point did not converge at "
                      f"lambda_b={densities[k]:.6e}, lambda_u={loads[k]:.6e}")
    delay = np.zeros(loads.shape)
    delay[positive] = result.delay_s_per_bit
    iterations = np.zeros(loads.shape, dtype=int)
    iterations[positive] = result.fixed_point_iterations
    return tuple(v.reshape(users.shape) for v in (densities, delay, iterations))
