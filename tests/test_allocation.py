"""Deployment-allocation tests: LP assembly, optima, canonical schedules,
savings accounting and feasibility audits."""

import json
import math
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import allocation_reference

from mbsplan.allocation import (TIE_BREAK_EPSILON, CostModel, DeploymentPlan,
                                _canonical_schedule, optimal_plan,
                                peak_aggregate_demand, savings, verify_plan)

KM2 = 1e6  # m^2 per km^2; densities below are written per km^2 and scaled

# Two regions with mirrored peaks: region 0 busy in slot 0, region 1 in
# slot 1. The cheapest deployment keeps 2/km^2 static in each region and
# shuttles 8 mobile stations back and forth.
HAND_DEMAND = np.array([[10.0, 2.0], [2.0, 10.0]]) / KM2
HAND_AREAS = np.array([KM2, KM2])


def test_lp_assembly_shapes_and_entries(monkeypatch):
    # The reduced LP as optimal_plan hands it to milp.
    real = scipy.optimize.milp
    seen = []

    def spy(objective, **kwargs):
        constraints = kwargs["constraints"]
        seen.append(SimpleNamespace(objective=objective, a_ub=constraints.A,
                                    b_lb=constraints.lb, b_ub=constraints.ub,
                                    bounds=kwargs["bounds"],
                                    integrality=kwargs.get("integrality")))
        return real(objective, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", spy)
    demand = np.array([[3.0, 1.0], [2.0, 5.0]]) / KM2
    areas = np.array([2.0 * KM2, 0.5 * KM2])
    optimal_plan(demand, areas, CostModel(2.0, 3.0))
    [lp] = seen
    # A plain LP: no integer variables, and every row is one-sided.
    assert lp.integrality is None
    assert np.all(lp.b_lb == -math.inf)

    # Variables: [M, static per region, t slot-major], all in station
    # counts as shares of the peak aggregate demand.
    counts = demand * areas
    peak = counts.sum(axis=1).max()
    assert lp.objective.shape == (7,)
    assert lp.objective[0] == 3.0 * (1.0 + TIE_BREAK_EPSILON)  # the surcharged fleet
    np.testing.assert_array_equal(lp.objective[1:3], [2.0, 2.0])  # no area terms
    assert np.all(lp.objective[3:] == 0.0)

    a_ub = lp.a_ub.toarray()
    assert a_ub.shape == (6, 7)
    # Every entry is +-1: no units or scale in the matrix.
    assert set(np.unique(a_ub)) == {-1.0, 0.0, 1.0}
    # One fleet row per slot: every region's share in, fleet out.
    np.testing.assert_array_equal(a_ub[0], [-1.0, 0, 0, 1.0, 1.0, 0, 0])
    np.testing.assert_array_equal(a_ub[1], [-1.0, 0, 0, 0, 0, 1.0, 1.0])
    assert np.all(lp.b_ub[:2] == 0.0)

    # Coverage rows follow, slot-major; row 4 is (slot 1, region 0).
    np.testing.assert_array_equal(a_ub[4], [0, -1.0, 0, 0, 0, -1.0, 0])
    np.testing.assert_array_equal(lp.b_ub[2:], -(counts / peak).ravel())
    # Every row has its two or three structural entries and nothing else.
    assert lp.a_ub.nnz == 2 * 3 + 4 * 2

    caps = counts.max(axis=0) / peak
    assert lp.bounds.lb.shape == lp.bounds.ub.shape == (7,)
    assert np.all(lp.bounds.lb == 0.0)
    assert lp.bounds.ub[0] == math.inf
    np.testing.assert_array_equal(lp.bounds.ub[1:3], caps)
    # Mobile needs inherit the same per-region caps in every slot.
    np.testing.assert_array_equal(lp.bounds.ub[3:], np.tile(lp.bounds.ub[1:3], 2))


def test_hand_instance_optimum():
    plan = optimal_plan(HAND_DEMAND, HAND_AREAS)
    np.testing.assert_allclose(plan.static_density, [2.0 / KM2, 2.0 / KM2], rtol=1e-9)
    assert plan.fleet_size == pytest.approx(8.0, rel=1e-9)
    assert plan.fleet_size_ceil == 8
    assert plan.objective_value == pytest.approx(12.0, rel=1e-9)
    np.testing.assert_allclose(plan.mbs_schedule[0], [8.0 / KM2, 0.0], atol=1e-15)
    np.testing.assert_allclose(plan.mbs_schedule[1], [0.0, 8.0 / KM2], atol=1e-15)
    assert verify_plan(plan, HAND_DEMAND, HAND_AREAS) == []


def test_hand_instance_savings():
    plan = optimal_plan(HAND_DEMAND, HAND_AREAS)
    report = savings(plan, HAND_DEMAND, HAND_AREAS)
    assert report.static_only_total == pytest.approx(20.0, rel=1e-12)
    assert report.hybrid_total == pytest.approx(12.0, rel=1e-9)
    assert report.total_saving_fraction == pytest.approx(0.4, rel=1e-9)
    np.testing.assert_allclose(report.per_region_static_saving_fraction,
                               [0.8, 0.8], rtol=1e-9)
    assert report.peak_aggregate_demand == pytest.approx(12.0, rel=1e-12)
    # Every cell is covered exactly, so no excess capacity anywhere...
    excess = plan.static_density + plan.mbs_schedule - HAND_DEMAND
    assert np.all(excess >= -1e-15)
    assert np.all(excess <= 1e-12 / KM2)
    # ...and the whole fleet sits in whichever region is peaking.
    np.testing.assert_allclose(report.mbs_fraction_series, [[1.0, 0.0], [0.0, 1.0]],
                               atol=1e-9)
    np.testing.assert_allclose(report.mbs_fraction_series.sum(axis=1), 1.0, rtol=1e-9)


def test_zero_demand_yields_empty_plan():
    demand = np.zeros((3, 2))
    areas = np.array([KM2, 2.0 * KM2])
    plan = optimal_plan(demand, areas)
    assert plan.fleet_size == 0.0
    assert np.all(plan.static_density == 0.0)
    assert plan.objective_value == 0.0
    report = savings(plan, demand, areas)
    assert report.total_saving_fraction == 0.0  # 0/0 convention
    assert np.all(report.per_region_static_saving_fraction == 0.0)
    assert np.all(report.mbs_fraction_series == 0.0)


@pytest.mark.parametrize("static_cost", [1.0, 0.5])
def test_zero_demand_with_three_regions_needs_no_solver(monkeypatch, static_cost):
    # The LP is posed in shares of the peak, which is 0 here: the empty plan
    # comes in closed form, with no division by zero and no milp call.
    def milp(*args, **kwargs):
        raise AssertionError("milp called on zero demand")

    monkeypatch.setattr(scipy.optimize, "milp", milp)
    demand = np.zeros((4, 3))
    areas = np.array([KM2, 2.0 * KM2, 0.5 * KM2])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        plan = optimal_plan(demand, areas, CostModel(static_cost, 1.0))
    assert plan.fleet_size == 0.0
    assert np.all(plan.static_density == 0.0)
    assert np.all(plan.mbs_schedule == 0.0)
    assert plan.objective_value == 0.0
    assert verify_plan(plan, demand, areas) == []


def test_constant_demand_needs_no_fleet():
    demand = np.tile(np.array([[5.0, 3.0]]) / KM2, (4, 1))
    plan = optimal_plan(demand, HAND_AREAS)
    assert plan.fleet_size == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(plan.static_density, [5.0 / KM2, 3.0 / KM2], rtol=1e-9)
    report = savings(plan, demand, HAND_AREAS)
    assert abs(report.total_saving_fraction) < 1e-9


def test_single_region_prefers_static():
    # With one region a mobile station can never relocate anywhere useful,
    # so the tie-break settles on a purely static build at the peak.
    demand = np.array([[5.0], [2.0], [4.0]]) / KM2
    areas = np.array([KM2])
    plan = optimal_plan(demand, areas)
    assert plan.fleet_size == pytest.approx(0.0, abs=1e-9)
    assert plan.objective_value == pytest.approx(5.0, rel=1e-9)


def test_equal_cost_objective_equals_peak_aggregate_demand():
    rng = np.random.default_rng(90210)
    for _ in range(25):
        n_slots = int(rng.integers(2, 7))
        n_regions = int(rng.integers(1, 5))
        demand = rng.uniform(0.0, 20.0, size=(n_slots, n_regions)) / KM2
        areas = rng.uniform(0.5, 5.0, size=n_regions) * KM2
        plan = optimal_plan(demand, areas)
        expected = peak_aggregate_demand(demand, areas)
        assert plan.objective_value == pytest.approx(expected, rel=1e-9)
        assert verify_plan(plan, demand, areas) == []
        report = savings(plan, demand, areas)
        assert -1e-12 <= report.total_saving_fraction <= 1.0
        assert np.all(plan.static_density + plan.mbs_schedule - demand >= -1e-13)


def test_bench_scenario_204_7_optimum_is_peak_aggregate_demand():
    # A four-region, 36-slot scenario; on an older dimensioning of it a
    # generic simplex once returned an infeasible "optimum" at cost ratio 1
    # and feasible plans 1.98x and 2.79x too dear at ratios 2 and 3. For
    # any static:mobile cost ratio >= 1 an all-mobile fleet sized for the
    # peak slot is optimal, so the objective is the peak aggregate demand.
    doc = json.loads((Path(__file__).parent / "data" / "bench_scenario_204_7.json").read_text())
    demand = np.array(doc["min_bs_density_per_m2"])
    areas = np.array(doc["areas_m2"])
    peak = peak_aggregate_demand(demand, areas)
    for ratio in (1.0, 2.0, 3.0):
        plan = optimal_plan(demand, areas, CostModel(static_unit_cost=ratio,
                                                     mobile_unit_cost=1.0))
        assert plan.objective_value == pytest.approx(peak, rel=1e-7)
        assert verify_plan(plan, demand, areas) == []


def test_dearer_static_is_all_mobile_without_a_solver(monkeypatch):
    # Static strictly dearer than mobile: the optimum is s = 0, M = P in
    # closed form, and no LP may be solved to get it.
    def milp(*args, **kwargs):
        raise AssertionError("milp called where the optimum is closed-form")

    monkeypatch.setattr(scipy.optimize, "milp", milp)
    rng = np.random.default_rng(2718)
    demand = rng.uniform(0.0, 15.0, size=(6, 3)) / KM2
    areas = rng.uniform(1.0, 3.0, size=3) * KM2
    costs = CostModel(static_unit_cost=2.0, mobile_unit_cost=1.0)
    plan = optimal_plan(demand, areas, costs)
    peak = peak_aggregate_demand(demand, areas)
    assert np.all(plan.static_density == 0.0)
    assert plan.fleet_size == peak
    assert plan.objective_value == costs.mobile_unit_cost * peak
    assert verify_plan(plan, demand, areas) == []


# Three regions, each busy in its own slot: at equal costs the closed form
# does not apply, so HiGHS still solves this instance.
THREE_DEMAND = np.array([[10.0, 2.0, 1.0], [2.0, 10.0, 1.0], [1.0, 2.0, 10.0]]) / KM2
THREE_AREAS = np.full(3, KM2)
_SOLVER_CASES = [
    (2.0, HAND_DEMAND, HAND_AREAS, 0),
    (np.nextafter(1.0 + TIE_BREAK_EPSILON, math.inf), HAND_DEMAND, HAND_AREAS, 0),
    # Exact tie with the surcharged fleet: all-static and all-mobile cost
    # the same to the solver, but mobile is cheaper at the true costs.
    (1.0 + TIE_BREAK_EPSILON, HAND_DEMAND, HAND_AREAS, 0),
    (np.nextafter(1.0, math.inf), HAND_DEMAND, HAND_AREAS, 0),
    # Equal costs: closed form with two regions, HiGHS with three.
    (1.0, HAND_DEMAND, HAND_AREAS, 0),
    (1.0, THREE_DEMAND, THREE_AREAS, 1),
    (0.5, HAND_DEMAND, HAND_AREAS, 1),
]


@pytest.mark.parametrize("static_cost, demand, areas, calls", _SOLVER_CASES,
                         ids=[f"{case[0]}-{case[-1]}" for case in _SOLVER_CASES])
def test_milp_runs_only_when_static_is_not_dearer(monkeypatch, static_cost, demand, areas,
                                                  calls):
    # Despite its name, equal costs with at most two regions skip the LP too.
    real = scipy.optimize.milp
    seen = []

    def spy(*args, **kwargs):
        seen.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", spy)
    plan = optimal_plan(demand, areas, CostModel(static_unit_cost=static_cost,
                                                 mobile_unit_cost=1.0))
    assert len(seen) == calls
    assert verify_plan(plan, demand, areas) == []


def test_fleet_grows_as_static_stations_get_pricier():
    rng = np.random.default_rng(5150)
    demand = rng.uniform(0.0, 15.0, size=(5, 3)) / KM2
    areas = rng.uniform(1.0, 3.0, size=3) * KM2
    fleets, static_totals = [], []
    for ratio in (1.0, 1.5, 2.0, 3.0):
        plan = optimal_plan(demand, areas, CostModel(static_unit_cost=ratio,
                                                     mobile_unit_cost=1.0))
        fleets.append(plan.fleet_size)
        static_totals.append(float(plan.static_density @ areas))
    scale = 1e-6 * (1.0 + max(fleets))
    assert all(b >= a - scale for a, b in zip(fleets, fleets[1:]))
    assert all(b <= a + scale for a, b in zip(static_totals, static_totals[1:]))


def test_canonical_schedule_spreads_leftover_by_headroom():
    demand = np.array([[4.0, 2.0], [1.0, 1.0]]) / KM2
    schedule = _canonical_schedule(demand, HAND_AREAS, np.zeros(2), 6.0)
    plan = DeploymentPlan(static_density=np.zeros(2), mbs_schedule=schedule,
                          fleet_size=6.0, objective_value=6.0, cost_model=CostModel())
    # Slot 0 consumes the whole fleet on bare requirements.
    np.testing.assert_allclose(plan.mbs_schedule[0], [4.0 / KM2, 2.0 / KM2], rtol=1e-12)
    # Slot 1 requires only 2 stations; the 4 leftover split 3:1 by headroom,
    # which parks both regions exactly at their caps.
    np.testing.assert_allclose(plan.mbs_schedule[1], [4.0 / KM2, 2.0 / KM2], rtol=1e-12)
    assert verify_plan(plan, demand, HAND_AREAS) == []


def test_verify_plan_flags_broken_invariants():
    good = optimal_plan(HAND_DEMAND, HAND_AREAS)

    # Pad one slot of the schedule: breaks the closed system and the cap.
    bumped = np.array(good.mbs_schedule)
    bumped[0, 0] += 3.0 / KM2
    plan = DeploymentPlan(static_density=good.static_density, mbs_schedule=bumped,
                          fleet_size=good.fleet_size,
                          objective_value=good.objective_value,
                          cost_model=good.cost_model)
    kinds = {(v.constraint, v.slot, v.region) for v in verify_plan(plan, HAND_DEMAND, HAND_AREAS)}
    assert ("closed_system", 0, None) in kinds
    assert ("mbs_cap", 0, 0) in kinds

    # Static density above the per-region peak is flagged even though
    # coverage is more than satisfied.
    plan = DeploymentPlan(static_density=np.array([11.0, 2.0]) / KM2,
                          mbs_schedule=good.mbs_schedule,
                          fleet_size=good.fleet_size,
                          objective_value=good.objective_value,
                          cost_model=good.cost_model)
    kinds = {(v.constraint, v.region) for v in verify_plan(plan, HAND_DEMAND, HAND_AREAS)}
    assert ("static_cap", 0) in kinds

    # An empty deployment misses demand in every cell.
    plan = DeploymentPlan(static_density=np.zeros(2), mbs_schedule=np.zeros((2, 2)),
                          fleet_size=0.0, objective_value=0.0, cost_model=CostModel())
    violations = verify_plan(plan, HAND_DEMAND, HAND_AREAS)
    coverage = [v for v in violations if v.constraint == "coverage"]
    assert len(coverage) == 4
    assert all(v.magnitude > 0.0 for v in coverage)


def _replan(plan, static=None, schedule=None, scale=1.0):
    """``plan`` with its densities replaced and then scaled by ``scale``."""
    static = plan.static_density if static is None else static
    schedule = plan.mbs_schedule if schedule is None else schedule
    return DeploymentPlan(static_density=static * scale, mbs_schedule=schedule * scale,
                          fleet_size=plan.fleet_size, objective_value=plan.objective_value,
                          cost_model=plan.cost_model)


def test_verify_plan_slack_is_relative_to_the_demand():
    # Both plans once passed under absolute slack of 1e-8 stations per m^2:
    # static densities 0.1 % short on the hand instance, and no stations
    # at all on demand of 1e-3 to 2e-3 stations/km^2.
    every_cell = [("coverage", j, z) for j in range(2) for z in range(2)]
    good = optimal_plan(HAND_DEMAND, HAND_AREAS)
    short = _replan(good, static=good.static_density * 0.999)
    assert [(v.constraint, v.slot, v.region)
            for v in verify_plan(short, HAND_DEMAND, HAND_AREAS)] == every_cell
    faint = np.array([[1e-3, 2e-3], [2e-3, 1e-3]]) / KM2
    empty = DeploymentPlan(static_density=np.zeros(2), mbs_schedule=np.zeros((2, 2)),
                           fleet_size=0.0, objective_value=0.0, cost_model=CostModel())
    assert [(v.constraint, v.slot, v.region)
            for v in verify_plan(empty, faint, HAND_AREAS)] == every_cell


@pytest.mark.parametrize("k", [1e-6, 1e6])
def test_verify_plan_verdict_does_not_depend_on_the_units(k):
    # Densities times k over areas divided by k are the same station counts.
    good = optimal_plan(HAND_DEMAND, HAND_AREAS)
    demand = np.array([[10.0, 2.0], [2.0, 10.0], [5.0, 5.0]]) / KM2
    plans = [
        (HAND_DEMAND, good),
        (HAND_DEMAND, _replan(good, static=good.static_density * 0.999)),
        (demand, _replan(good, static=np.array([-1.0, 12.0]) / KM2,
                         schedule=np.array([[12.0, -1.0], [-2.0, 10.0], [6.0, 0.0]]) / KM2)),
    ]
    for values, plan in plans:
        found = verify_plan(plan, values, HAND_AREAS)
        scaled = verify_plan(_replan(plan, scale=k), values * k, HAND_AREAS / k)
        assert [(v.constraint, v.slot, v.region) for v in scaled] == \
            [(v.constraint, v.slot, v.region) for v in found]
        for a, b in zip(found, scaled):
            unit = 1.0 if a.constraint == "closed_system" else k
            assert b.magnitude == pytest.approx(a.magnitude * unit, rel=1e-9)


def test_fleet_size_ceil_forgives_float_dust():
    def plan_with_fleet(fleet):
        return DeploymentPlan(static_density=np.zeros(1),
                              mbs_schedule=np.full((1, 1), fleet / KM2),
                              fleet_size=fleet, objective_value=fleet,
                              cost_model=CostModel())

    assert plan_with_fleet(8.0 + 1e-10).fleet_size_ceil == 8
    assert plan_with_fleet(8.5).fleet_size_ceil == 9
    assert plan_with_fleet(0.0).fleet_size_ceil == 0


def test_input_validation():
    with pytest.raises(ValueError):
        CostModel(static_unit_cost=0.0)
    with pytest.raises(ValueError):
        CostModel(mobile_unit_cost=-1.0)
    with pytest.raises(ValueError):
        CostModel(static_unit_cost=math.inf)
    with pytest.raises(ValueError):
        optimal_plan(np.array([[1.0, -2.0]]), HAND_AREAS)
    with pytest.raises(ValueError):
        optimal_plan(HAND_DEMAND, np.array([KM2]))
    with pytest.raises(ValueError):
        optimal_plan(HAND_DEMAND, np.array([KM2, -KM2]))
    with pytest.raises(ValueError):
        DeploymentPlan(static_density=np.zeros((2, 2)), mbs_schedule=np.zeros((2, 2)),
                       fleet_size=1.0, objective_value=1.0, cost_model=CostModel())
    with pytest.raises(ValueError):
        DeploymentPlan(static_density=np.zeros(2), mbs_schedule=np.zeros((2, 2)),
                       fleet_size=-1.0, objective_value=1.0, cost_model=CostModel())


def test_verify_plan_reports_violations_in_a_fixed_order():
    # Slot by slot closed-system rows first, then each cell in row-major
    # order (coverage before mbs_cap), then static caps region by region.
    demand = np.array([[10.0, 2.0], [2.0, 10.0], [5.0, 5.0]]) / KM2
    plan = DeploymentPlan(static_density=np.array([-1.0, 12.0]) / KM2,
                          mbs_schedule=np.array([[12.0, -1.0], [-2.0, 10.0], [6.0, 0.0]]) / KM2,
                          fleet_size=8.0, objective_value=0.0, cost_model=CostModel())
    violations = verify_plan(plan, demand, HAND_AREAS)
    assert [(v.constraint, v.slot, v.region) for v in violations] == [
        ("closed_system", 0, None),
        ("closed_system", 2, None),
        ("mbs_cap", 0, 0),
        ("mbs_cap", 0, 1),
        ("coverage", 1, 0),
        ("mbs_cap", 1, 0),
        ("static_cap", None, 0),
        ("static_cap", None, 1),
    ]
    np.testing.assert_allclose([v.magnitude for v in violations],
                               [3.0, 2.0, 2.0 / KM2, 1.0 / KM2, 5.0 / KM2, 2.0 / KM2,
                                1.0 / KM2, 2.0 / KM2], rtol=0.0, atol=2e-8)
    assert all(type(v.magnitude) is float for v in violations)


@st.composite
def _plans(draw):
    """A demand matrix, areas and a plan around its canonical optimum, with
    some entries pushed out of their boxes and the fleet off balance."""
    n_slots, n_regions = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    size = n_slots * n_regions
    cell = st.one_of(st.just(0.0), st.floats(0.0, 50.0))
    demand = np.array(draw(st.lists(cell, min_size=size, max_size=size))).reshape(
        n_slots, n_regions) / KM2
    areas = np.array(draw(st.lists(st.floats(0.1, 20.0), min_size=n_regions,
                                   max_size=n_regions))) * KM2
    unit = st.floats(0.0, 1.0)
    static = demand.max(axis=0) * np.array(draw(st.lists(unit, min_size=n_regions,
                                                         max_size=n_regions)))
    # optimal_plan returns the need; any fleet up to sum_z (cap_z - static_z) A_z
    # keeps every slot's leftover within its headroom, as _canonical_schedule assumes.
    need = float((np.maximum(0.0, demand - static) @ areas).max())
    most = float((demand.max(axis=0) - static) @ areas)
    fleet = need + (most - need) * draw(st.floats(0.0, 1.0))
    push = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))
    schedule_push = np.array(draw(st.lists(push, min_size=size, max_size=size)))
    static_push = np.array(draw(st.lists(push, min_size=n_regions, max_size=n_regions)))
    fleet_push = draw(st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6)))
    return demand, areas, static, fleet, (schedule_push.reshape(n_slots, n_regions) / KM2,
                                          static_push / KM2, fleet_push)


@settings(max_examples=100, deadline=None)
@given(_plans())
def test_array_checks_match_the_loop_reference(instance):
    demand, areas, static, fleet, (schedule_push, static_push, fleet_push) = instance
    schedule = _canonical_schedule(demand, areas, static, fleet)
    reference = allocation_reference.canonical_schedule(static, fleet, demand, areas)
    assert np.array_equal(schedule, reference)
    broken = DeploymentPlan(static_density=static + static_push,
                            mbs_schedule=schedule + schedule_push,
                            fleet_size=fleet * (1.0 + fleet_push), objective_value=0.0,
                            cost_model=CostModel())
    found = [(v.constraint, v.slot, v.region, v.magnitude)
             for v in verify_plan(broken, demand, areas)]
    assert found == allocation_reference.violations(broken, demand, areas)
