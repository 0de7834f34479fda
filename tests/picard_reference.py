"""Plain Picard reference for the utilization fixed point.

This is the iteration that ``qosmodel.evaluate_qos`` replaces: u -> g(u) =
clamp(tau(u)/target, 0, 1) from u = 1, elementwise over arrays, stopping
when successive utilizations differ by at most ``FIXED_POINT_TOL``. Its
iterates only fall, so it finds the largest fixed point below 1. The
secant-accelerated code must agree with it on convergence and on
feasibility, and land within a few tolerances of its utilization.
"""

from __future__ import annotations

import numpy as np

from mbsplan.qosmodel import (FIXED_POINT_MAX_ITERATIONS, FIXED_POINT_TOL, QosEvaluation,
                              delay_given_utilization)


def evaluate_qos(lambda_b, lambda_u, params) -> QosEvaluation:
    lambda_b, lambda_u = np.broadcast_arrays(np.asarray(lambda_b, dtype=float),
                                             np.asarray(lambda_u, dtype=float))
    shape = lambda_b.shape
    lambda_b, lambda_u = lambda_b.ravel(), lambda_u.ravel()
    tau = np.zeros(lambda_b.shape)
    u = np.ones(lambda_b.shape)
    iterations = np.zeros(lambda_b.shape, dtype=int)
    converged = np.zeros(lambda_b.shape, dtype=bool)
    idx = np.arange(lambda_b.size)
    while idx.size:
        tau[idx] = delay_given_utilization(lambda_b[idx], lambda_u[idx], u[idx], params)
        iterations[idx] += 1
        target = np.clip(tau[idx] / params.target_delay_s_per_bit, 0.0, 1.0)
        converged[idx] = np.abs(target - u[idx]) <= FIXED_POINT_TOL
        u[idx] = target
        idx = idx[~converged[idx] & (iterations[idx] < FIXED_POINT_MAX_ITERATIONS)]
    if not shape:
        return QosEvaluation(float(tau[0]), float(u[0]), int(iterations[0]), bool(converged[0]))
    return QosEvaluation(tau.reshape(shape), u.reshape(shape), iterations.reshape(shape),
                         converged.reshape(shape))
