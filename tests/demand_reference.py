"""``demand_matrix`` as it was before its fixed point took the inversion's
u = 1 delays as its first iterate.

The densities come from ``dimensioning._min_densities``; the achieved
delays from the secant fixed point of ``qosmodel.evaluate_qos`` as it stood
then, which evaluates every delay itself, the one at u = 1 included. The
package's ``demand_matrix`` must return the same three arrays bit for bit:
the reuse saves delay evaluations and changes nothing else. Only the happy
path is kept; a cell that does not converge fails an assertion.
"""

from __future__ import annotations

import numpy as np

from mbsplan.dimensioning import _min_densities
from mbsplan.qosmodel import FIXED_POINT_MAX_ITERATIONS, FIXED_POINT_TOL, delay_given_utilization


def _fixed_point(lambda_b, lambda_u, params):
    """Delays and iteration counts over 1-D arrays, every delay evaluated."""
    tau = np.zeros(lambda_b.shape)
    u = np.ones(lambda_b.shape)
    u_prev = np.full(lambda_b.shape, np.nan)
    f_prev = np.full(lambda_b.shape, np.nan)
    iterations = np.zeros(lambda_b.shape, dtype=int)
    converged = np.zeros(lambda_b.shape, dtype=bool)
    idx = np.arange(lambda_b.size)
    while idx.size:
        u_now = u[idx]
        tau[idx] = delay_given_utilization(lambda_b[idx], lambda_u[idx], u_now, params)
        iterations[idx] += 1
        target = np.clip(tau[idx] / params.target_delay_s_per_bit, 0.0, 1.0)
        f = target - u_now
        done = np.abs(f) <= FIXED_POINT_TOL
        converged[idx] = done
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (f - f_prev[idx]) / (u_now - u_prev[idx])
            secant = np.isfinite(slope) & (slope < 0.0)
            step = np.clip(u_now - f / slope, 0.0, target)
        u[idx] = np.where(secant & ~done, step, target)
        u_prev[idx], f_prev[idx] = u_now, f
        idx = idx[~done & (iterations[idx] < FIXED_POINT_MAX_ITERATIONS)]
    assert converged.all()
    return tau, iterations


def demand_matrix(users, params):
    users = np.asarray(users, dtype=float)
    loads = users.ravel()
    densities = _min_densities(loads, params)[0]
    assert np.all(np.isfinite(densities))
    positive = np.flatnonzero(loads > 0)
    delay = np.zeros(loads.shape)
    iterations = np.zeros(loads.shape, dtype=int)
    delay[positive], iterations[positive] = _fixed_point(densities[positive], loads[positive],
                                                         params)
    return tuple(v.reshape(users.shape) for v in (densities, delay, iterations))
