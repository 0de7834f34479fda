"""Minimum station density meeting the delay target, per slot and region.

The utilization fixed point starts at the busy end u = 1, the delay rises
with u and no later iterate rises above the first one (``evaluate_qos``
clips each secant step below the map's image), so the self-consistent
delay meets the target T exactly when
tau(lambda_b, lambda_u, 1) = (lambda_u / lambda_b) * S(lambda_b) <= T, with
S the unit-kernel sum of kernel / rate at u = 1. That reads lambda_u / T <=
h(lambda_b) = lambda_b / S(lambda_b), and h is strictly increasing: the SIR
at the scaled radius does not depend on lambda_b and the SNR grows with it.
All loads of a scenario are inverted at once. S comes from
``delay_given_utilization`` at u = 1, the fixed point's own first step, so
the achieved delay never exceeds T; one array fixed point over the distinct
loads reports that delay, in about three delay evaluations per load. Each
evaluation is S(lambda_b) = sum_i w_i / log1p(a_i / (N0 B_eff
lambda_b^(-alpha/2) + b_i)) over cached unit vectors, one power per
density, so a probe costs little more than its log1p per node.

h does not depend on the load, and one ``delay_given_utilization`` call
returns exact u = 1 delays for every (load, density) pair of a grid at the
cost of one node sum per density. So one table on the fixed lattice cap *
2^(-k/8) brackets every load exactly between two neighbouring lattice
points, and a secant of log tau against log lambda_b, with probes
``BISECTION_REL_TOL`` / 4 either side of its root, closes each bracket to
``BISECTION_REL_TOL``, usually in one round. That is 3.6 delay evaluations
per load on the default scenario, counting each lattice point once, where
bisection from lambda_u / 10 took 17. The result meets the target and
misses it at (1 - ``BISECTION_REL_TOL``) times itself, by exact delays; the
tests check the computed u = 1 delay to be non-increasing in lambda_b bit
for bit on a 20 001-point grid for a range of radios.

Cells are independent: the objective sums per-cell densities and every
constraint touches exactly one (slot, region) pair, so the cell-wise
minimum is the global one.
"""

from __future__ import annotations

import numpy as np

from .scenario import M2_PER_KM2, QuadratureSpec, RadioParams
from .qosmodel import (_BLOCK_ELEMENTS, FixedPointDiverged, NonFinite, delay_given_utilization,
                       evaluate_qos)

DEFAULT_DENSITY_CAP_PER_M2 = 1e5 / M2_PER_KM2  # 1e5 stations per km^2
BISECTION_REL_TOL = 1e-4


class InfeasibleDemand(RuntimeError):
    """No density up to the cap meets the delay target."""


def _min_densities(loads, params, quad) -> np.ndarray:
    """Smallest feasible station density for every user density in the 1-D
    array ``loads``: 0 for a zero load, inf where even the cap misses.

    S is non-increasing in lambda_b, so a load's root below the cap lies
    above lambda_u S(cap) / T, twice the load's floor: every density up to
    the floor misses the target. A table of exact u = 1 delays on the fixed
    lattice cap * 2^(-k/8), k = 0..K, which reaches down to the smallest
    floor, brackets every load between its first lattice point that meets
    the target and the point below it; a load that misses at the cap, the
    lattice's top, is past it. Each load is evaluated only on its own part
    of the lattice: from the last point at or below its floor up to the
    first point that met for the smallest of the larger loads, where its
    own root, no larger, has met too. So the table runs in blocks from the
    largest loads down, each block of at most ``_BLOCK_ELEMENTS`` (load,
    point) pairs.

    Each open bracket then takes the secant of log tau against log
    lambda_b across it and probes ``BISECTION_REL_TOL`` / 4 either side of
    the secant's root, clipped into the bracket. The last probe or end that
    misses and the first that meets are the new bracket, until hi - lo <=
    ``BISECTION_REL_TOL`` * hi. hi is returned: it meets the target, and
    hi * (1 - ``BISECTION_REL_TOL``) misses it, h being strictly increasing.

    The lattice points do not depend on the loads, the other loads only
    narrow the part of the lattice a load is evaluated on, and every later
    step is elementwise, so a load's answer does not depend on the other
    loads in the array. A non-finite delay on a load's own part of the
    lattice, or in a probe, raises ``NonFinite`` carrying the index of its
    load in ``loads``; within a block the smallest load comes first, so a
    density at which every delay is non-finite names the smallest load of
    the first block that reaches it. So does a smallest load whose lattice
    would need a density that underflows to 0.
    """
    loads = np.asarray(loads, dtype=float)
    if not np.all(np.isfinite(loads)) or np.any(loads < 0):
        raise ValueError(f"user densities must be finite and >= 0, got {loads}")
    target, tol, cap = params.target_delay_s_per_bit, BISECTION_REL_TOL, DEFAULT_DENSITY_CAP_PER_M2
    where = np.flatnonzero(loads > 0)
    density = np.zeros(loads.shape)
    lam_u = loads[where]
    if not lam_u.size:
        return density

    def delay(k, lam_b, needed=True):
        """u = 1 delays of loads k at densities lam_b, which broadcast
        against each other, and 0 where not ``needed``; a non-finite one
        names its load."""
        try:
            return delay_given_utilization(lam_b, np.where(needed, lam_u[k], 0.0), 1.0, params,
                                           quad)
        except NonFinite as exc:
            k = np.broadcast_to(k, np.broadcast_shapes(np.shape(k), np.shape(lam_b)))
            raise NonFinite(str(exc), int(where[k.flat[exc.index]])) from None

    def still_open(k):
        return k[bracket[k, 1] - bracket[k, 0] > tol * bracket[k, 1]]

    floor = 0.5 * cap * delay(np.arange(lam_u.size), cap) / target
    order = np.argsort(lam_u, kind="stable")
    with np.errstate(divide="ignore"):  # a floor of 0 needs infinitely many steps
        steps = max(np.ceil(8.0 * (np.log2(cap) - np.log2(floor[order[0]]))), 1.0)
    if not cap * np.exp2(-steps / 8.0) > 0.0:
        raise NonFinite(f"inversion: lambda_u={float(lam_u[order[0]])!r} is so small that its "
                        "density lattice would underflow to 0", int(where[order[0]]))
    grid = cap * np.exp2(np.arange(-steps, 1.0) / 8.0)
    start = np.maximum(np.searchsorted(grid, floor, side="right") - 1, 0)
    bracket, taus = np.empty((lam_u.size, 2)), np.empty((lam_u.size, 2))
    rows, top = max(1, _BLOCK_ELEMENTS // grid.size), grid.size - 1
    for last in range(lam_u.size, 0, -rows):  # from the largest loads down
        k = order[max(last - rows, 0):last]
        low = start[k[0]]
        needed = np.arange(low, top + 1) >= start[k, None]
        tau = delay(k[:, None], grid[low:top + 1], needed)
        pick = low + np.count_nonzero(~needed | (tau > target), axis=1)[:, None] + [-1, 0]
        bracket[k] = np.append(grid, np.inf)[pick]  # past the cap: hi = inf, never open
        taus[k] = np.take_along_axis(tau, np.minimum(pick - low, top - low), axis=1)
        top = min(top, pick[0, 1])  # smaller loads meet from here up
    idx = still_open(np.arange(lam_u.size))
    while idx.size:
        (lo, hi), (tau_lo, tau_hi) = bracket[idx].T, taus[idx].T
        root = lo * (hi / lo) ** (np.log(target / tau_lo) / np.log(tau_hi / tau_lo))
        probes = np.clip(root[:, None] * [1.0 - 0.25 * tol, 1.0 + 0.25 * tol],
                         lo[:, None], hi[:, None])
        # the points ascend and their delays descend: the new bracket is
        # the last point that misses and the first that meets
        points = np.column_stack([lo, probes, hi])
        delays = np.column_stack([tau_lo, delay(idx[:, None], probes), tau_hi])
        pick = np.count_nonzero(delays > target, axis=1)[:, None] + [-1, 0]
        bracket[idx] = np.take_along_axis(points, pick, axis=1)
        taus[idx] = np.take_along_axis(delays, pick, axis=1)
        idx = still_open(idx)
    density[where] = bracket[:, 1]
    return density


def demand_matrix(users, params: RadioParams, quad: QuadratureSpec = QuadratureSpec()):
    """Cell-wise minimum station densities for a J x Z array of user
    densities (per m^2), as three J x Z arrays: the density (per m^2), the
    delay achieved at it and the fixed-point iterations spent finding that
    delay (0 for a zero load). Each density is the smallest one whose
    self-consistent delay meets the target, to relative tolerance
    ``BISECTION_REL_TOL``; ``demand_matrix([[lambda_u]], ...)`` inverts one load.

    Densities come from one inversion over the distinct loads, and the
    achieved delays from one array fixed point over the distinct positive
    loads, so cells with equal loads share their density and diagnostics.
    """
    users = np.asarray(users, dtype=float)
    if users.ndim != 2:
        raise ValueError(f"user densities must be a J x Z array, got shape {users.shape}")
    loads, first, inverse = np.unique(users, return_index=True, return_inverse=True)

    def first_cell(ks):
        k = ks[np.argmin(first[ks])]
        j, z = divmod(int(first[k]), users.shape[1])
        return k, f"slot {j}, region index {z}"

    try:
        densities = _min_densities(loads, params, quad)
    except NonFinite as exc:
        raise NonFinite(f"{first_cell([exc.index])[1]}: {exc}") from None
    unmet = np.flatnonzero(densities == np.inf)
    if unmet.size:
        k, cell = first_cell(unmet)
        raise InfeasibleDemand(
            f"{cell}: delay target {params.target_delay_s_per_bit:.3e} s/bit unmet at the "
            f"density cap {DEFAULT_DENSITY_CAP_PER_M2 * M2_PER_KM2:.6g} per km^2 (user "
            f"density {loads[k] * M2_PER_KM2:.6g} per km^2)")
    positive = np.flatnonzero(loads > 0)
    result = evaluate_qos(densities[positive], loads[positive], params, quad)
    diverged = positive[~result.converged]
    if diverged.size:
        k, cell = first_cell(diverged)
        raise FixedPointDiverged(
            f"{cell}: utilization fixed point did not converge at "
            f"lambda_b={densities[k]:.6e}, lambda_u={loads[k]:.6e}")
    delay = np.zeros(loads.shape)
    delay[positive] = result.delay_s_per_bit
    iterations = np.zeros(loads.shape, dtype=int)
    iterations[positive] = result.fixed_point_iterations
    inverse = inverse.reshape(users.shape)
    return densities[inverse], delay[inverse], iterations[inverse]
