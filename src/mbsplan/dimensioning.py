"""Minimum station density meeting the delay target, per slot and region.

The utilization fixed point starts at the busy end u = 1, the delay rises
with u and no later iterate rises above the first one (``evaluate_qos``
clips each secant step below the map's image), so the self-consistent
delay meets the target T exactly when
tau(lambda_b, lambda_u, 1) = (lambda_u / lambda_b) * S(lambda_b) <= T, with
S the unit-kernel sum of kernel / rate at u = 1. That reads lambda_u / T <=
h(lambda_b) = lambda_b / S(lambda_b), and h is strictly increasing: the SIR
at the scaled radius does not depend on lambda_b and the SNR grows with it.
All loads of a scenario are inverted at once: bracket from lambda_u / 10 by
halving or doubling up to ``DEFAULT_DENSITY_CAP_PER_M2``, bisect in log
space to ``BISECTION_REL_TOL`` and return the feasible end. S comes from
``delay_given_utilization`` at u = 1, the fixed point's own first step, so
the achieved delay never exceeds T; one array fixed point over the distinct
loads reports that delay, in about three delay evaluations per load.

Cells are independent: the objective sums per-cell densities and every
constraint touches exactly one (slot, region) pair, so the cell-wise
minimum is the global one.
"""

from __future__ import annotations

import numpy as np

from .scenario import M2_PER_KM2, QuadratureSpec, RadioParams
from .qosmodel import FixedPointDiverged, NonFinite, delay_given_utilization, evaluate_qos

DEFAULT_DENSITY_CAP_PER_M2 = 1e5 / M2_PER_KM2  # 1e5 stations per km^2
BISECTION_REL_TOL = 1e-4


class InfeasibleDemand(RuntimeError):
    """No density up to the cap meets the delay target."""


def _min_densities(loads, params, quad) -> np.ndarray:
    """Smallest feasible station density for every user density in the 1-D
    array ``loads``: 0 for a zero load, inf where even the cap misses.

    Every step is elementwise and stops on the load's own bracket, so a
    load's answer does not depend on the other loads in the array. A
    ``NonFinite`` probe carries the index of its load in ``loads``.
    """
    loads = np.asarray(loads, dtype=float)
    if not np.all(np.isfinite(loads)) or np.any(loads < 0):
        raise ValueError(f"user densities must be finite and >= 0, got {loads}")
    target = params.target_delay_s_per_bit
    positive = loads > 0
    lam_u = loads[positive]
    # hi: smallest density known to meet the target (inf: none yet);
    # lo: largest density known to miss it (0: none yet).
    hi = np.full(lam_u.shape, np.inf)
    lo = np.zeros(lam_u.shape)
    cand = np.minimum(lam_u / 10.0, DEFAULT_DENSITY_CAP_PER_M2)
    idx = np.arange(lam_u.size)
    while idx.size:
        try:
            ok = delay_given_utilization(cand[idx], lam_u[idx], 1.0, params, quad) <= target
        except NonFinite as exc:
            raise NonFinite(str(exc), int(np.flatnonzero(positive)[idx[exc.index]])) from None
        hi[idx[ok]] = cand[idx[ok]]
        lo[idx[~ok]] = cand[idx[~ok]]
        halve = lo == 0.0
        double = (hi == np.inf) & (lo < DEFAULT_DENSITY_CAP_PER_M2)
        bisect = (lo > 0.0) & (hi < np.inf) & (hi - lo > BISECTION_REL_TOL * hi)
        cand[halve] = 0.5 * hi[halve]
        cand[double] = np.minimum(2.0 * lo[double], DEFAULT_DENSITY_CAP_PER_M2)
        cand[bisect] = lo[bisect] * np.sqrt(hi[bisect] / lo[bisect])
        idx = np.flatnonzero(halve | double | bisect)
    density = np.zeros(loads.shape)
    density[positive] = hi
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
