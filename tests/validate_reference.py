"""Unbatched reference for ``pipeline.validate``.

``validate`` simulates its three Monte Carlo spots in one ``mc_delay_oracle``
call, and its grid scan shares one u = 1 node sum per grid point between the
user densities and runs the fixed point only up to each one's first feasible
point. This module takes the plain route: one oracle call per spot, then the
fixed point over the whole 2000-point grid for every user density, each
delay evaluated on its own, and the first feasible index read off the full
grid. Its report lines must equal ``validate``'s.
"""

from __future__ import annotations

import numpy as np

from mbsplan.pipeline import (_GRID_HI_PER_KM2, _GRID_LO_PER_KM2, _GRID_POINTS, _MC_REL_TOL,
                              GRID_SPOT_USER_DENSITIES_PER_KM2, MC_SPOT_DENSITIES_PER_KM2,
                              _load, _min_densities)
from mbsplan.qosmodel import delay_given_utilization, evaluate_qos, mc_delay_oracle
from mbsplan.scenario import M2_PER_KM2


def grid():
    """The grid scan's station densities per m^2, ascending."""
    return np.logspace(np.log10(_GRID_LO_PER_KM2), np.log10(_GRID_HI_PER_KM2),
                       _GRID_POINTS) / M2_PER_KM2


def first_feasible(densities, lambda_u, params):
    """Per user density, the first feasible index of the full grid, or None."""
    feasible = (evaluate_qos(densities, np.asarray(lambda_u)[:, None], params)
                .delay_s_per_bit <= params.target_delay_s_per_bit)
    return [int(np.argmax(row)) if row.any() else None for row in feasible]


def lines(config_path, mc_trials: int, seed: int) -> list[str]:
    scenario, _ = _load(config_path)
    params = scenario.radio
    out = []

    simulated = [mc_delay_oracle([bs_km2 / M2_PER_KM2], [(users_km2 / M2_PER_KM2, 0.0)], 1.0,
                                 params, trials=mc_trials, rng_seed=[seed + i])[0].tolist()
                 for i, (bs_km2, users_km2) in enumerate(MC_SPOT_DENSITIES_PER_KM2)]

    analytic_zero = delay_given_utilization(MC_SPOT_DENSITIES_PER_KM2[0][0] / M2_PER_KM2,
                                            0.0, 1.0, params)
    mc_zero = simulated[0][1]
    ok = analytic_zero == 0.0 and mc_zero == 0.0
    out.append(f"{'PASS' if ok else 'FAIL'} zero-traffic identity: analytic {analytic_zero!r}, "
               f"simulated {mc_zero!r} (both must be 0.0)")

    for (bs_km2, users_km2), (mc, _) in zip(MC_SPOT_DENSITIES_PER_KM2, simulated):
        analytic = delay_given_utilization(bs_km2 / M2_PER_KM2, users_km2 / M2_PER_KM2, 1.0,
                                           params)
        rel = abs(mc - analytic) / analytic
        out.append(f"{'PASS' if rel < _MC_REL_TOL else 'FAIL'} mc-delay bs={bs_km2:g}/km2 "
                   f"users={users_km2:g}/km2: analytic {analytic:.6e} s/bit, simulated "
                   f"{mc:.6e} s/bit, rel err {100 * rel:.2f}% (limit {100 * _MC_REL_TOL:.0f}%)")

    densities = grid()
    lam_u = np.array(GRID_SPOT_USER_DENSITIES_PER_KM2) / M2_PER_KM2
    for i, (users_km2, k) in enumerate(zip(GRID_SPOT_USER_DENSITIES_PER_KM2,
                                           first_feasible(densities, lam_u, params))):
        name = f"grid-scan users={users_km2:g}/km2"
        if k is None:
            out.append(f"FAIL {name}: no feasible grid point up to the density cap")
            continue
        try:
            solved = float(_min_densities(lam_u[i:i + 1], params)[0][0])
        except Exception as exc:
            out.append(f"FAIL {name}: inversion failed where the grid scan succeeded: {exc}")
            continue
        lo = densities[max(k - 1, 0)] * (1.0 - 1e-9)
        hi = densities[min(k + 1, densities.size - 1)] * (1.0 + 1e-9)
        out.append(f"{'PASS' if lo <= solved <= hi else 'FAIL'} {name}: inversion "
                   f"{solved * M2_PER_KM2:.6g}/km2, grid first-feasible "
                   f"{densities[k] * M2_PER_KM2:.6g}/km2 "
                   f"(cell width {100 * (densities[1] / densities[0] - 1):.2f}%)")
    return out
