"""Cost-optimal split of capacity between static stations and a shared
mobile fleet.

Every function takes the demand as a plain slots x regions array of
minimum station densities (stations/m^2; a ``DemandMatrix`` from the
dimensioning stage is passed as its ``.values``) and the region areas in
m^2. The deployment problem is

    minimize  c_m * M  +  c_s * sum_z lambda_s[z] * A[z]
    s.t.      sum_z mbs[j, z] * A[z] == M                  (closed fleet)
              lambda_s[z] + mbs[j, z] >= demand[j, z]      (coverage)
              0 <= mbs[j, z] <= cap[z],  0 <= lambda_s[z] <= cap[z]

where cap[z] is the worst-slot demand of region z (deploying more than the
peak is never useful). M is the fleet size: the same pool of mobile
stations serves every slot, redistributed between regions as traffic moves.

Only the static densities are real decisions. The solver sees a reduced
LP over [M, lambda_s, t] with t[j, z] >= demand[j, z] - lambda_s[z] the
mobile density slot j needs in region z and sum_z A[z] t[j, z] <= M; the
fleet then follows in closed form from lambda_s, and the schedule is
rebuilt in a solver-independent, reproducible way that meets the equality
above.

When static stations are strictly dearer, c_s > c_m, no solver runs: the
peak slot forces M >= P - sum_z A_z lambda_s[z], P the peak aggregate
demand, so the cost is at least c_m P + (c_s - c_m) sum_z A_z lambda_s[z],
uniquely smallest at lambda_s = 0 with M = P. HiGHS runs only when static
is not dearer. With equal unit costs the optimum value is pinned but the
static/mobile split is not; inside the solver a tiny surcharge on the
fleet, c_m (1 + TIE_BREAK_EPSILON), makes it prefer static capacity
deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .scenario import _check_numbers

# Relative surcharge on the fleet's unit cost used only inside the solver,
# so that ties between equally priced configurations resolve toward static
# stations. Reported objectives always use the caller's true costs.
TIE_BREAK_EPSILON = 1e-6

_CLOSED_TOL = 1e-8
_COVERAGE_TOL = 1e-8
_CAP_TOL = 1e-10


@dataclass(frozen=True)
class CostModel:
    """Unit CAPEX of a static station and of a mobile station."""

    static_unit_cost: float = field(default=1.0, metadata={">": 0})
    mobile_unit_cost: float = field(default=1.0, metadata={">": 0})

    def __post_init__(self):
        _check_numbers(self)


@dataclass(frozen=True)
class DeploymentPlan:
    """Solved deployment: per-region static densities plus the fleet schedule.

    ``static_density`` has one entry per region (stations/m^2);
    ``mbs_schedule`` is slots x regions (stations/m^2); ``fleet_size`` is the
    absolute number of mobile stations, identical in every slot.
    """

    static_density: np.ndarray
    mbs_schedule: np.ndarray
    fleet_size: float
    objective_value: float
    cost_model: CostModel

    def __post_init__(self):
        static = np.array(self.static_density, dtype=float)
        schedule = np.array(self.mbs_schedule, dtype=float)
        if static.ndim != 1:
            raise ValueError(f"static_density must be 1-D, got shape {static.shape}")
        if schedule.ndim != 2 or schedule.shape[1] != static.size:
            raise ValueError(
                f"mbs_schedule must be (slots, {static.size}), got {schedule.shape}"
            )
        if not (np.all(np.isfinite(static)) and np.all(np.isfinite(schedule))):
            raise ValueError("plan densities must be finite")
        if not math.isfinite(self.fleet_size) or self.fleet_size < 0.0:
            raise ValueError(f"fleet_size must be finite and >= 0, got {self.fleet_size}")
        static.setflags(write=False)
        schedule.setflags(write=False)
        object.__setattr__(self, "static_density", static)
        object.__setattr__(self, "mbs_schedule", schedule)
        object.__setattr__(self, "fleet_size", float(self.fleet_size))
        object.__setattr__(self, "objective_value", float(self.objective_value))

    @property
    def num_slots(self) -> int:
        return self.mbs_schedule.shape[0]

    @property
    def num_regions(self) -> int:
        return self.static_density.size

    @property
    def fleet_size_ceil(self) -> int:
        """Fleet size rounded up to whole vehicles, forgiving float dust."""
        return int(math.ceil(self.fleet_size - 1e-9 * (1.0 + abs(self.fleet_size))))


@dataclass(frozen=True)
class SavingsReport:
    """Comparison of the hybrid optimum against a static-only deployment.

    Totals are absolute station counts; the series are slots x regions with
    excess capacity in stations/m^2 and the fleet fraction dimensionless.
    """

    static_only_total: float
    hybrid_total: float
    total_saving_fraction: float
    per_region_static_saving_fraction: np.ndarray
    peak_aggregate_demand: float
    excess_capacity_series: np.ndarray
    mbs_fraction_series: np.ndarray

    def __post_init__(self):
        per_region = np.array(self.per_region_static_saving_fraction, dtype=float)
        excess = np.array(self.excess_capacity_series, dtype=float)
        fraction = np.array(self.mbs_fraction_series, dtype=float)
        for arr in (per_region, excess, fraction):
            arr.setflags(write=False)
        object.__setattr__(self, "per_region_static_saving_fraction", per_region)
        object.__setattr__(self, "excess_capacity_series", excess)
        object.__setattr__(self, "mbs_fraction_series", fraction)


@dataclass(frozen=True)
class Violation:
    """One failed feasibility check: which constraint, where, by how much."""

    constraint: str
    slot: int | None
    region: int | None
    magnitude: float


def _demand_values(demand) -> np.ndarray:
    values = np.asarray(demand, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"demand must be a slots x regions matrix, got shape {values.shape}")
    if values.size == 0 or np.any(values < 0.0) or not np.all(np.isfinite(values)):
        raise ValueError("demand must be non-empty, finite and non-negative")
    return values


def _areas(areas_m2, num_regions) -> np.ndarray:
    areas = np.atleast_1d(np.asarray(areas_m2, dtype=float))
    if areas.shape != (num_regions,):
        raise ValueError(f"areas must have shape ({num_regions},), got {areas.shape}")
    if np.any(areas <= 0.0) or not np.all(np.isfinite(areas)):
        raise ValueError("region areas must be positive and finite")
    return areas


def _row_dots(matrix, weights) -> np.ndarray:
    """``matrix[j] @ weights`` for every row j, bit for bit: a stack of
    1 x Z by Z x 1 products takes numpy's vector dot per row, where
    ``matrix @ weights`` may sum each row in another order."""
    return (matrix[:, None, :] @ weights[:, None])[:, 0, 0]


def _canonical_schedule(values, areas, static, fleet) -> np.ndarray:
    """The fleet schedule, rebuilt in a solver-independent way.

    The LP pins the fleet size but usually not how it is split between
    regions slot by slot. The canonical split first parks in each region
    exactly what coverage requires beyond its static stations, then spreads
    the leftover fleet proportionally to each region's remaining headroom
    (peak demand minus the required density). Objective and feasibility are
    unchanged.
    """
    caps = values.max(axis=0)
    required = np.maximum(0.0, values - static)
    leftover = fleet - _row_dots(required, areas)
    headroom = np.maximum(0.0, caps - required)
    total = (headroom * areas).sum(axis=1)
    spread = (leftover > 0.0) & (total > 0.0)
    schedule = required.copy()
    # share_z / A_z <= headroom_z because leftover <= total.
    schedule[spread] += leftover[spread, None] * headroom[spread] / total[spread, None]
    return schedule


def optimal_plan(demand, areas_m2, costs: CostModel = CostModel()) -> DeploymentPlan:
    """Return the canonicalized optimum: all-mobile in closed form when
    static stations are strictly dearer, otherwise solved by HiGHS."""
    values = _demand_values(demand)
    areas = _areas(areas_m2, values.shape[1])

    if costs.static_unit_cost > costs.mobile_unit_cost:
        # M >= P - sum_z A_z s_z (the peak slot), so the cost is at least
        # c_m P + (c_s - c_m) sum_z A_z s_z: uniquely smallest at s = 0.
        static = np.zeros(values.shape[1])
    else:
        biased = CostModel(static_unit_cost=costs.static_unit_cost,
                           mobile_unit_cost=costs.mobile_unit_cost * (1.0 + TIE_BREAK_EPSILON))
        static = _solve_static(values, areas, biased)
    # The smallest fleet that tops the static densities up to every slot's
    # demand follows in closed form.
    fleet = float((np.maximum(0.0, values - static) @ areas).max())
    objective = costs.mobile_unit_cost * fleet + costs.static_unit_cost * float(static @ areas)
    return DeploymentPlan(static_density=static,
                          mbs_schedule=_canonical_schedule(values, areas, static, fleet),
                          fleet_size=fleet, objective_value=objective, cost_model=costs)


def _solve_static(values, areas, biased: CostModel) -> np.ndarray:
    """Static densities of the reduced LP's optimum under the biased costs.

    The LP goes to ``scipy.optimize.linprog`` as

        minimize  objective @ x  s.t.  a_ub @ x <= b_ub,  bounds[:, 0] <= x <= bounds[:, 1]

    Variable order: [M, static per region, t slot-major], i.e. index
    1 + Z + j*Z + z holds the slot-j mobile density region z needs. Rows:
    one fleet row per slot, then one coverage row per cell, slot-major.
    """
    # Imported on first use: scipy.optimize adds ~0.2 s to every start-up.
    from scipy import sparse
    from scipy.optimize import linprog

    n_slots, n_regions = values.shape
    caps = values.max(axis=0)
    n_cells = n_slots * n_regions

    objective = np.concatenate(([biased.mobile_unit_cost], biased.static_unit_cost * areas,
                                np.zeros(n_cells)))
    # Fleet row j: sum_z A_z * t[j, z] - M <= 0. Coverage row of cell (j, z):
    # -static[z] - t[j, z] <= -demand[j, z].
    cells = np.arange(n_cells)
    slot, region = np.divmod(cells, n_regions)
    t_col = 1 + n_regions + cells
    rows = np.concatenate((np.arange(n_slots), slot, n_slots + cells, n_slots + cells))
    cols = np.concatenate((np.zeros(n_slots, dtype=int), t_col, 1 + region, t_col))
    data = np.concatenate((-np.ones(n_slots), np.tile(areas, n_slots), -np.ones(2 * n_cells)))
    a_ub = sparse.csr_array((data, (rows, cols)), shape=(n_slots + n_cells, objective.size))
    b_ub = np.concatenate((np.zeros(n_slots), -values.ravel()))
    upper = np.concatenate(([math.inf], caps, np.tile(caps, n_slots)))
    bounds = np.column_stack((np.zeros(upper.size), upper))
    result = linprog(objective, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if result.status != 0:
        # A fleet of zero with static densities at each region's peak is
        # always feasible, so any other status means the solver broke.
        raise RuntimeError(f"allocation LP failed on a feasible-by-construction "
                           f"instance: {result.message}")
    # Keep only the static densities, clipped into their box against solver
    # dust.
    return np.clip(result.x[1:1 + n_regions], 0.0, caps)


def peak_aggregate_demand(demand, areas_m2) -> float:
    """Largest single-slot station count summed over all regions."""
    values = _demand_values(demand)
    areas = _areas(areas_m2, values.shape[1])
    return float((values @ areas).max())


def savings(plan: DeploymentPlan, demand, areas_m2) -> SavingsReport:
    """Compare the plan's station counts against a per-region static-only build."""
    values = _demand_values(demand)
    areas = _areas(areas_m2, values.shape[1])
    caps = values.max(axis=0)

    static_only_total = float(caps @ areas)
    hybrid_total = plan.fleet_size + float(plan.static_density @ areas)
    if static_only_total > 0.0:
        total_saving = 1.0 - hybrid_total / static_only_total
    else:
        total_saving = 0.0  # empty network saves nothing by convention

    per_region = np.where(caps > 0.0, 1.0 - plan.static_density / np.where(caps > 0.0, caps, 1.0), 0.0)
    excess = plan.static_density[np.newaxis, :] + plan.mbs_schedule - values
    if plan.fleet_size > 0.0:
        fraction = plan.mbs_schedule * areas[np.newaxis, :] / plan.fleet_size
    else:
        fraction = np.zeros_like(plan.mbs_schedule)
    return SavingsReport(static_only_total=static_only_total,
                         hybrid_total=hybrid_total,
                         total_saving_fraction=float(total_saving),
                         per_region_static_saving_fraction=per_region,
                         peak_aggregate_demand=peak_aggregate_demand(values, areas),
                         excess_capacity_series=excess,
                         mbs_fraction_series=fraction)


def verify_plan(plan: DeploymentPlan, demand, areas_m2) -> list[Violation]:
    """Check every plan invariant; an empty list means the plan is feasible."""
    values = _demand_values(demand)
    areas = _areas(areas_m2, values.shape[1])
    caps = values.max(axis=0)
    out: list[Violation] = []

    closed_tol = _CLOSED_TOL * (1.0 + plan.fleet_size)
    err = np.abs(_row_dots(plan.mbs_schedule, areas) - plan.fleet_size)
    for j in np.flatnonzero(err > closed_tol):
        out.append(Violation("closed_system", slot=int(j), region=None, magnitude=float(err[j])))

    # Per cell in row-major order, coverage before mbs_cap.
    schedule = plan.mbs_schedule
    found = np.stack((
        values - (plan.static_density + schedule) - _COVERAGE_TOL * (1.0 + values),
        np.maximum(-schedule, schedule - caps) - _CAP_TOL,
    ), axis=-1)
    for j, z, kind in zip(*np.nonzero(found > 0.0)):
        out.append(Violation(("coverage", "mbs_cap")[kind], slot=int(j), region=int(z),
                             magnitude=float(found[j, z, kind])))

    over = np.maximum(-plan.static_density, plan.static_density - caps) - _CAP_TOL
    for z in np.flatnonzero(over > 0.0):
        out.append(Violation("static_cap", slot=None, region=int(z), magnitude=float(over[z])))
    return out

