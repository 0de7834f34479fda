"""Plain bracket-and-bisect reference for the dimensioning inversion.

Bracket every load from lambda_u / 10 by halving or doubling up to the
density cap, bisect in log space to ``BISECTION_REL_TOL`` and return the
feasible end, probing every candidate with one exact u = 1 delay,
(lambda_u / lambda_b) S with S from ``qosmodel._unit_sums``. A delay of
+inf, where the rate underflows to 0, is a miss. A load that still meets
the target below ``LOWEST``, where floats stop resolving a relative step
of ``BISECTION_REL_TOL`` / 4, raises ``NonFinite``.

``dimensioning._min_densities`` inverts the same function another way,
from a table on a fixed lattice and a secant; both results lie within
``BISECTION_REL_TOL`` of the same root, so they differ by at most that
factor. Both give 0 and inf for the same loads, and ``NonFinite`` too,
except for roots between ``LOWEST`` and the lattice's lowest point, less
than one lattice step 2^(1/8) above it, which no test draws.
"""

from __future__ import annotations

import numpy as np

from mbsplan.dimensioning import BISECTION_REL_TOL, DEFAULT_DENSITY_CAP_PER_M2
from mbsplan.qosmodel import NonFinite, _unit_sums

LOWEST = np.nextafter(0.0, 1.0) / (0.25 * BISECTION_REL_TOL)


def min_densities(loads, params) -> np.ndarray:
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
        with np.errstate(all="ignore"):
            tau = (lam_u[idx] / cand[idx]) * _unit_sums(cand[idx], 1.0, params)
        ok = tau <= target
        hi[idx[ok]] = cand[idx[ok]]
        lo[idx[~ok]] = cand[idx[~ok]]
        unresolved = np.flatnonzero(hi < LOWEST)
        if unresolved.size:
            k = unresolved[0]
            raise NonFinite(f"reference: lambda_u={float(lam_u[k])!r} meets the target at "
                            f"lambda_b={float(hi[k])!r}", int(np.flatnonzero(positive)[k]))
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
