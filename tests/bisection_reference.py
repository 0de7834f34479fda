"""Plain bracket-and-bisect reference for the dimensioning inversion.

This is the loop that ``dimensioning._min_densities`` replays: bracket
every load from lambda_u / 10 by halving or doubling up to the density
cap, bisect in log space to ``BISECTION_REL_TOL`` and return the feasible
end, probing every candidate with one exact u = 1 delay evaluation. The
seeded code decides some candidates from a bracket it already knows and
must return bit-identical densities, or raise the same exception with the
same message.
"""

from __future__ import annotations

import numpy as np

from mbsplan.dimensioning import BISECTION_REL_TOL, DEFAULT_DENSITY_CAP_PER_M2
from mbsplan.qosmodel import NonFinite, delay_given_utilization


def min_densities(loads, params, quad) -> np.ndarray:
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
