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
loads reports that delay, in about three delay evaluations per load. Each
evaluation is S(lambda_b) = sum_i w_i / log1p(a_i / (N0 B_eff
lambda_b^(-alpha/2) + b_i)) over cached unit vectors, one power per
density, so a probe costs little more than its log1p per node.

h does not depend on the load, so one table of h on a log grid seeds every
load: it predicts the root, and three exact probes around the prediction
usually leave a load a bracket about 2e-6 wide. The bracket-and-bisect
sequence is then replayed unchanged, probing only the candidates inside the
load's known bracket; every other candidate lies on a known side of the
root, and h is strictly increasing, so its probe would decide it the same
way. The densities are bit-equal to probing every candidate, from 4.6
delay evaluations per load on the default scenario instead of 17 (0.6 of
them the table's). That needs the computed u = 1 delay, not only the
exact one, to be non-increasing in lambda_b bit for bit; the tests check
it on a 20 001-point grid for a range of radios.

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
_TABLE_POINTS = 64  # log grid of h that seeds every load's bracket
_SEED_OFFSET = 1e-6  # relative offset of the two probes around a Newton root


class InfeasibleDemand(RuntimeError):
    """No density up to the cap meets the delay target."""


def _h_table(lo, hi, params, quad):
    """log lambda_b on a ``_TABLE_POINTS``-point log grid from lo to hi, and
    log h there: with lambda_u = lambda_b the u = 1 delay is S itself."""
    grid = np.geomspace(lo, hi, _TABLE_POINTS)
    s = delay_given_utilization(grid, grid, 1.0, params, quad)
    with np.errstate(all="ignore"):
        return np.log(grid), np.log(grid / s)


def _seed_probes(lam_u, c0, tau0, delay, params, quad):
    """Exact probes near every load's root, as (points, delays), two lists
    of arrays shaped like ``lam_u``. Both are empty when the loads' brackets
    span no interval, when the table of h over them is not finite and
    strictly increasing, or when a seeding probe is not finite.

    Each root lies between the first probe c0 and c0 * tau0 / T: S falls as
    lambda_b rises and the root r solves r = (lambda_u / T) * S(r). One
    table over the union of those brackets predicts every root by
    interpolating log lambda_b against log h. A probe at the prediction,
    one Newton step from it with the table's slope, and two probes
    ``_SEED_OFFSET`` either side of the step's result follow.
    """
    target = params.target_delay_s_per_bit
    with np.errstate(all="ignore"):
        ends = np.concatenate([c0, c0 * tau0 / target])
    lo, hi = ends.min(), min(ends.max(), DEFAULT_DENSITY_CAP_PER_M2)
    if not 0.0 < lo < hi:
        return [], []
    n = lam_u.size
    every = np.arange(n)
    try:
        log_g, log_h = _h_table(lo, hi, params, quad)
        if not (np.all(np.isfinite(log_h)) and np.all(np.diff(log_h) > 0.0)):
            return [], []
        log_y = np.log(lam_u) - np.log(target)  # the root solves log h = log y
        log_p = np.interp(log_y, log_h, log_g)
        slope = np.interp(log_p, log_g, np.gradient(log_h, log_g))
        p = np.exp(log_p)
        tau_p = delay(every, p)
        # log h(p) = log(lambda_u / tau_p), so the step is (log tau_p - log T) / slope.
        r = np.exp(np.clip(log_p + (np.log(tau_p) - np.log(target)) / slope,
                           log_g[0], log_g[-1]))
        pair = np.concatenate([r * (1.0 - _SEED_OFFSET), r * (1.0 + _SEED_OFFSET)])
        tau_pair = delay(np.concatenate([every, every]), pair)
    except NonFinite:  # seeding only saves probes; the replay then makes them all
        return [], []
    return [p, pair[:n], pair[n:]], [tau_p, tau_pair[:n], tau_pair[n:]]


def _min_densities(loads, params, quad) -> np.ndarray:
    """Smallest feasible station density for every user density in the 1-D
    array ``loads``: 0 for a zero load, inf where even the cap misses.

    The result is bit-equal to bracketing from lambda_u / 10 and bisecting
    with one exact u = 1 probe per candidate, but most candidates are
    decided without one. After the first probe, three seeding probes per
    load (``_seed_probes``) leave it a bracket: the largest density known
    to miss the target and the smallest known to meet it. The bracket is
    about 2e-6 wide for every load of the default scenario and of synthetic
    days with peaks of 1e3 to 1e4 users per km^2. Where the Newton step
    misses the root by more than ``_SEED_OFFSET``, both offset probes land
    on one side of it, the bracket stays wide and the replay probes about
    six more candidates for that load; on loads spread over eight decades
    that is roughly three loads in ten. The candidate sequence is then
    replayed unchanged. A candidate at or above the known meet is
    feasible, one at or below the known miss is not, and only one strictly
    inside is probed. h is strictly increasing, so every decision equals
    the probe's. Without a usable table every candidate is probed.

    Every step of the replay is elementwise and stops on the load's own
    bracket, so a load's answer does not depend on the other loads in the
    array; they only move the seeding probes, which decide nothing a probe
    would decide otherwise. A ``NonFinite`` probe carries the index of its
    load in ``loads``.
    """
    loads = np.asarray(loads, dtype=float)
    if not np.all(np.isfinite(loads)) or np.any(loads < 0):
        raise ValueError(f"user densities must be finite and >= 0, got {loads}")
    target = params.target_delay_s_per_bit
    positive = loads > 0
    density = np.zeros(loads.shape)
    lam_u = loads[positive]
    if not lam_u.size:
        return density

    def delay(k, lam_b):
        """u = 1 delay of loads k at densities lam_b; a non-finite one names its load."""
        try:
            return delay_given_utilization(lam_b, lam_u[k], 1.0, params, quad)
        except NonFinite as exc:
            raise NonFinite(str(exc), int(np.flatnonzero(positive)[k[exc.index]])) from None

    cand = np.minimum(lam_u / 10.0, DEFAULT_DENSITY_CAP_PER_M2)
    tau0 = delay(np.arange(lam_u.size), cand)
    seeds, taus = _seed_probes(lam_u, cand, tau0, delay, params, quad)
    points = np.array([cand] + seeds)
    ok = np.array([tau0] + taus) <= target
    known_meet = np.min(np.where(ok, points, np.inf), axis=0)
    known_miss = np.max(np.where(ok, 0.0, points), axis=0)
    # hi: smallest candidate found to meet the target (inf: none yet);
    # lo: largest candidate found to miss it (0: none yet).
    hi = np.full(lam_u.shape, np.inf)
    lo = np.zeros(lam_u.shape)
    idx = np.arange(lam_u.size)
    while idx.size:
        c = cand[idx]
        ok = c >= known_meet[idx]
        inside = ~ok & (c > known_miss[idx])
        if inside.any():
            ok[inside] = delay(idx[inside], c[inside]) <= target
        hi[idx[ok]] = c[ok]
        lo[idx[~ok]] = c[~ok]
        halve = lo == 0.0
        double = (hi == np.inf) & (lo < DEFAULT_DENSITY_CAP_PER_M2)
        bisect = (lo > 0.0) & (hi < np.inf) & (hi - lo > BISECTION_REL_TOL * hi)
        cand[halve] = 0.5 * hi[halve]
        cand[double] = np.minimum(2.0 * lo[double], DEFAULT_DENSITY_CAP_PER_M2)
        cand[bisect] = lo[bisect] * np.sqrt(hi[bisect] / lo[bisect])
        idx = np.flatnonzero(halve | double | bisect)
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
