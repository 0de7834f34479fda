"""Allocation LP solve tests: the reduced LP on HiGHS against hand cases,
solver failures, LP invariances, the brute-force vertex oracle and the
``linprog`` call it replaced, and the equal-cost closed form against both
HiGHS and the oracle."""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mbsplan.allocation import (TIE_BREAK_EPSILON, CostModel, _solve_static, optimal_plan,
                                verify_plan)
from mbsplan.dimensioning import demand_matrix
from mbsplan.scenario import M2_PER_KM2, default_scenario, user_density_matrix

import linprog_reference
from lp_oracle import allocation_lp, enumerate_optimum, random_allocation


def test_single_variable_box():
    # One slot, one region: the only decision is how much of the demand is
    # static, so the cheaper station type takes all of it.
    demand, areas = np.array([[3.0]]), np.array([2.0])
    plan = optimal_plan(demand, areas, CostModel(static_unit_cost=1.0, mobile_unit_cost=1.5))
    assert plan.static_density[0] == pytest.approx(3.0, abs=1e-12)
    assert plan.fleet_size == pytest.approx(0.0, abs=1e-12)
    assert plan.objective_value == pytest.approx(6.0, abs=1e-12)

    plan = optimal_plan(demand, areas, CostModel(static_unit_cost=2.0, mobile_unit_cost=1.0))
    assert plan.static_density[0] == pytest.approx(0.0, abs=1e-12)
    assert plan.fleet_size == pytest.approx(6.0, abs=1e-12)
    assert plan.objective_value == pytest.approx(6.0, abs=1e-12)


def test_degenerate_face_is_deterministic():
    # One slot at equal costs: every static/mobile split costs the same.
    # The fleet's tie-break premium settles the face on all-static, and
    # repeated solves agree bit for bit.
    demand, areas = np.array([[4.0, 1.0]]), np.array([1.0, 3.0])
    first = optimal_plan(demand, areas)
    second = optimal_plan(demand, areas)
    assert first.objective_value == pytest.approx(7.0, abs=1e-10)
    assert first.fleet_size == pytest.approx(0.0, abs=1e-10)
    assert np.array_equal(first.static_density, second.static_density)
    assert np.array_equal(first.mbs_schedule, second.mbs_schedule)
    assert first.fleet_size == second.fleet_size


def _failing_solver(status, message):
    def milp(*args, **kwargs):
        return scipy.optimize.OptimizeResult(status=status, message=message, x=None)
    return milp


def test_empty_feasible_set(monkeypatch):
    # The deployment LP is feasible by construction; a solver that says
    # otherwise is broken, and the plan must not be built from its output.
    # Three regions at equal costs still go to the solver.
    monkeypatch.setattr(scipy.optimize, "milp",
                        _failing_solver(2, "The problem is infeasible."))
    with pytest.raises(RuntimeError, match="infeasible"):
        optimal_plan(np.array([[1.0, 2.0, 3.0]]), np.array([1.0, 1.0, 1.0]))


def test_unbounded_ray(monkeypatch):
    # Every variable is boxed or priced positively, so "unbounded" is
    # likewise a solver fault. Cheaper static stations still go to the solver.
    monkeypatch.setattr(scipy.optimize, "milp",
                        _failing_solver(3, "The problem is unbounded."))
    with pytest.raises(RuntimeError, match="unbounded"):
        optimal_plan(np.array([[1.0, 2.0]]), np.array([1.0, 1.0]),
                     CostModel(static_unit_cost=0.5, mobile_unit_cost=1.0))


def test_equality_with_redundant_row():
    # A repeated slot adds only redundant rows: the plan is unchanged and
    # the repeated slot gets the same schedule.
    demand = np.array([[10.0, 2.0], [2.0, 10.0]])
    areas = np.array([1.0, 2.0])
    costs = CostModel(static_unit_cost=1.7, mobile_unit_cost=1.0)
    base = optimal_plan(demand, areas, costs)
    repeated = optimal_plan(demand[[0, 1, 1]], areas, costs)
    np.testing.assert_allclose(repeated.static_density, base.static_density, rtol=1e-9, atol=1e-12)
    assert repeated.fleet_size == pytest.approx(base.fleet_size, rel=1e-9)
    assert repeated.objective_value == pytest.approx(base.objective_value, rel=1e-9)
    np.testing.assert_array_equal(repeated.mbs_schedule[1], repeated.mbs_schedule[2])


def test_shifted_lower_bounds():
    # While static stations are no dearer than mobile ones, raising a
    # region's demand by the same floor in every slot costs exactly that
    # floor in static stations and leaves the fleet alone.
    rng = np.random.default_rng(31)
    for _ in range(20):
        demand, areas, cost_a, cost_b = random_allocation(rng, 4, 3)
        static_cost = min(cost_a, cost_b)
        costs = CostModel(static_unit_cost=static_cost, mobile_unit_cost=max(cost_a, cost_b))
        floor = rng.uniform(0.0, 5.0, size=demand.shape[1])
        base = optimal_plan(demand, areas, costs)
        shifted = optimal_plan(demand + floor, areas, costs)
        expected = base.objective_value + static_cost * float(floor @ areas)
        assert shifted.objective_value == pytest.approx(expected, rel=1e-9, abs=1e-9)
        assert shifted.fleet_size == pytest.approx(base.fleet_size, rel=1e-7, abs=1e-7)


def test_invalid_program_rejected():
    areas = np.array([1.0, 1.0])
    for demand in (np.array([[1.0, np.nan]]), np.array([[1.0, -2.0]]),
                   np.array([1.0, 2.0]), np.zeros((0, 2))):
        with pytest.raises(ValueError):
            optimal_plan(demand, areas)
    for bad_areas in (np.array([1.0]), np.array([1.0, 0.0]), np.array([1.0, np.inf])):
        with pytest.raises(ValueError):
            optimal_plan(np.ones((2, 2)), bad_areas)


def test_objective_scaling():
    # Scaling both unit costs scales the optimum and leaves the plan as is.
    rng = np.random.default_rng(7)
    for _ in range(20):
        demand, areas, static_cost, mobile_cost = random_allocation(rng, 4, 3)
        base = optimal_plan(demand, areas, CostModel(static_cost, mobile_cost))
        scaled = optimal_plan(demand, areas, CostModel(3.7 * static_cost, 3.7 * mobile_cost))
        assert scaled.objective_value == pytest.approx(3.7 * base.objective_value,
                                                       rel=1e-9, abs=1e-9)
        assert scaled.fleet_size == pytest.approx(base.fleet_size, rel=1e-7, abs=1e-7)


@pytest.mark.parametrize("scale", [1e-10, 1e-6, 1e6, 1e10])
def test_units_cannot_move_the_plan(scale):
    # The same network in other units, densities / s over areas * s: the LP
    # sees station counts as shares of the peak, so the static counts, the
    # fleet and the objective agree to 1e-12 of the peak, though the optimal
    # face is not unique.
    rng = np.random.default_rng(3)
    for _ in range(25):
        n_slots, n_regions = int(rng.integers(2, 30)), int(rng.integers(3, 7))
        demand = rng.uniform(0.0, 20.0, size=(n_slots, n_regions)) / M2_PER_KM2
        demand[rng.random(demand.shape) < 0.1] = 0.0
        areas = rng.uniform(0.5, 8.0, size=n_regions) * M2_PER_KM2
        tol = 1e-12 * (demand * areas).sum(axis=1).max()
        for static_cost in (1.0, 0.9, 0.5):
            costs = CostModel(static_cost, 1.0)
            plan = optimal_plan(demand, areas, costs)
            other = optimal_plan(demand / scale, areas * scale, costs)
            assert np.max(np.abs(other.static_density * (areas * scale)
                                 - plan.static_density * areas)) <= tol
            assert abs(other.fleet_size - plan.fleet_size) <= tol
            assert abs(other.objective_value - plan.objective_value) <= tol


def test_matches_vertex_enumeration():
    rng = np.random.default_rng(424242)
    for _ in range(200):
        # Up to 4 cells keeps each enumeration under ~0.1 s.
        demand, areas, static_cost, mobile_cost = random_allocation(rng, 2, 2)
        status, best = enumerate_optimum(*allocation_lp(demand, areas, static_cost,
                                                        mobile_cost))
        assert status == "optimal"  # all-static at each region's peak is feasible
        plan = optimal_plan(demand, areas, CostModel(static_cost, mobile_cost))
        assert plan.objective_value == pytest.approx(best, rel=1e-7, abs=1e-7)


@st.composite
def _cost_ratio_instances(draw):
    """Up to 2 x 2 cells (enumeration stays fast), some of them idle, with
    static stations strictly cheaper than mobile ones, exactly as dear (as
    in ``run`` and every ``sweep-density`` point), or dearer: by one ulp,
    by exactly the tie-break surcharge, or by up to a factor of 3."""
    n_slots = draw(st.integers(1, 2))
    n_regions = draw(st.integers(1, 2))
    cell = st.one_of(st.just(0.0), st.floats(0.0, 20.0))
    demand = np.array(draw(st.lists(cell, min_size=n_slots * n_regions,
                                    max_size=n_slots * n_regions))).reshape(n_slots, n_regions)
    areas = np.array(draw(st.lists(st.floats(0.5, 5.0), min_size=n_regions,
                                   max_size=n_regions)))
    mobile_cost = draw(st.floats(0.5, 3.0))
    static_cost = draw(st.one_of(
        st.floats(0.3 * mobile_cost, mobile_cost, exclude_max=True),
        st.just(mobile_cost),
        st.just(np.nextafter(mobile_cost, np.inf)),
        st.just(mobile_cost * (1.0 + TIE_BREAK_EPSILON)),
        st.floats(mobile_cost, 3.0 * mobile_cost, exclude_min=True)))
    return demand, areas, float(static_cost), mobile_cost


@settings(max_examples=60, deadline=None)
@given(_cost_ratio_instances())
# A demand of 2**-23 sits just above the oracle's old absolute 1e-7
# feasibility tolerance, which let an uncovered vertex through.
@example((np.array([[0.0, 0.0], [0.0, 2.0 ** -23]]), np.array([2.0, 1.0]),
          1.0000010000000001, 1.0))
# The leftover fleet times the headroom once underflowed to 0 here, leaving
# slot 0 without its fleet.
@example((np.array([[0.0], [2.1607111549074552e-274]]), np.array([1.0]),
          1.0000000000000002, 1.0))
# The fleet's rounding, of the order of the peak aggregate demand, is 1e-9
# relative in the first region, whose peak is 1e-7 of the aggregate.
@example((np.array([[5e-324, 1.9], [2.0 ** -23, 1.9]]),
          np.array([4.092844509758342, 4.25810186155829]), 2.0, 1.0))
# In subnormal floats the schedule is off by a step of 5e-324, which only
# the smallest-normal floor of the slack forgives.
@example((np.array([[5e-324], [1e-323]]), np.array([4.349]), 2.0, 1.0))
def test_dearer_static_matches_vertex_enumeration(instance):
    # Despite its name, this covers every cost ratio: static cheaper,
    # equal and dearer.
    demand, areas, static_cost, mobile_cost = instance
    status, best = enumerate_optimum(*allocation_lp(demand, areas, static_cost, mobile_cost))
    assert status == "optimal"
    plan = optimal_plan(demand, areas, CostModel(static_cost, mobile_cost))
    assert plan.objective_value == pytest.approx(best, rel=1e-7, abs=1e-7)
    assert verify_plan(plan, demand, areas) == []


@st.composite
def _solver_instances(draw):
    """Allocation LPs as ``optimal_plan`` hands them to the solver: 2-79
    slots, 3-7 regions, some cells idle, areas in km^2 or m^2 (densities
    scaled to match), static priced at 1, 0.9, 0.5 or 0.2 of the mobile
    station before the fleet surcharge."""
    n_slots = draw(st.integers(2, 79))
    n_regions = draw(st.integers(3, 7))
    cell = st.one_of(st.just(0.0), st.floats(0.02, 20.0))
    demand = draw(arrays(float, (n_slots, n_regions), elements=cell))
    areas = draw(arrays(float, n_regions, elements=st.floats(0.5, 8.0)))
    scale = draw(st.sampled_from((1.0, 1e6)))
    return demand / scale, areas * scale, draw(st.sampled_from((1.0, 0.9, 0.5, 0.2)))


def _bench_instance():
    doc = json.loads((Path(__file__).parent / "data" / "bench_scenario_204_7.json").read_text())
    return np.array(doc["min_bs_density_per_m2"]), np.array(doc["areas_m2"]), 1.0


@settings(max_examples=60, deadline=None)
@given(_solver_instances())
# At c_s = c_m (1 + eps) the solver sees static and mobile priced exactly
# alike, so any vertex of the face is optimal to it.
@example((np.array([[10.0, 2.0, 1.0], [2.0, 10.0, 1.0], [1.0, 2.0, 10.0]]), np.ones(3),
          1.0 + TIE_BREAK_EPSILON))
@example(_bench_instance())
def test_milp_solve_is_bit_equal_to_linprog(instance):
    # milp and linprog(method="highs") hand HiGHS the same share model, so
    # the static shares agree bit for bit.
    demand, areas, static_cost = instance
    counts = demand * areas
    peak = counts.sum(axis=1).max()
    assume(peak > 0.0)  # optimal_plan never poses an LP for an empty network
    shares, costs = counts / peak, CostModel(static_cost, 1.0)
    assert np.array_equal(_solve_static(shares, costs),
                          linprog_reference.solve_static(shares, costs))


def test_solution_feasibility_tolerances():
    # The plan contract, checked directly: closed fleet to 1e-8 * (1 + M),
    # coverage to 1e-8 * (1 + demand), boxes to 1e-10.
    rng = np.random.default_rng(11)
    for _ in range(50):
        demand, areas, static_cost, mobile_cost = random_allocation(rng, 24, 6)
        plan = optimal_plan(demand, areas, CostModel(static_cost, mobile_cost))
        caps = demand.max(axis=0)
        fleet = plan.fleet_size
        assert np.max(np.abs(plan.mbs_schedule @ areas - fleet)) <= 1e-8 * (1.0 + fleet)
        total = plan.static_density + plan.mbs_schedule
        assert np.all(total >= demand - 1e-8 * (1.0 + demand))
        for x in (plan.static_density, plan.mbs_schedule):
            assert np.all(x >= -1e-10) and np.all(x <= caps + 1e-10)
        assert verify_plan(plan, demand, areas) == []


def _built_in_instance():
    """The built-in scenario's demand (stations/m^2), areas (m^2) and mobile
    unit cost, as ``mbsplan run`` allocates them."""
    scenario = default_scenario()
    demand, _, _ = demand_matrix(user_density_matrix(scenario), scenario.radio)
    return demand, scenario.areas_m2(), 1.0


BUILT_IN = _built_in_instance()


@st.composite
def _equal_cost_instances(draw):
    """One or two regions at equal unit costs, some cells idle. Nonzero
    cells stay at or above 1e-3 of the largest possible one: HiGHS meets
    constraints only to an absolute 1e-7, so it would be no reference for
    a closed form held to 1e-12 of the peak."""
    n_slots = draw(st.integers(1, 6))
    n_regions = draw(st.integers(1, 2))
    cell = st.one_of(st.just(0.0), st.floats(0.02, 20.0))
    demand = np.array(draw(st.lists(cell, min_size=n_slots * n_regions,
                                    max_size=n_slots * n_regions))).reshape(n_slots, n_regions)
    areas = np.array(draw(st.lists(st.floats(0.5, 5.0), min_size=n_regions,
                                   max_size=n_regions)))
    return demand, areas, draw(st.floats(0.5, 3.0))


@settings(max_examples=60, deadline=None)
@given(_equal_cost_instances())
@example(BUILT_IN)
def test_equal_cost_closed_form_matches_highs_and_vertex_enumeration(instance):
    # With at most two regions at equal costs optimal_plan solves no LP; its
    # static stations must be the ones HiGHS picks under the fleet surcharge,
    # and the vertex oracle must find nothing cheaper under that surcharge.
    demand, areas, cost = instance
    plan = optimal_plan(demand, areas, CostModel(cost, cost))
    counts = demand * areas
    peak = counts.sum(axis=1).max()
    tol = 1e-12 * peak
    # HiGHS's static station counts; with no demand there is no LP to pose.
    highs = _solve_static(counts / peak, CostModel(cost, cost)) * peak if peak > 0.0 else 0.0
    assert np.max(np.abs(plan.static_density * areas - highs)) <= tol
    assert plan.objective_value == pytest.approx(cost * peak, rel=1e-12, abs=0.0)
    assert verify_plan(plan, demand, areas) == []
    if demand.size <= 4:  # enumeration stays fast
        surcharged_cost = cost * (1.0 + TIE_BREAK_EPSILON)
        status, best = enumerate_optimum(*allocation_lp(demand, areas, cost, surcharged_cost))
        assert status == "optimal"
        surcharged = (surcharged_cost * plan.fleet_size
                      + cost * float(plan.static_density @ areas))
        assert abs(surcharged - best) <= cost * tol


@settings(max_examples=60, deadline=None)
@given(_equal_cost_instances())
@example(BUILT_IN)
def test_equal_cost_closed_form_follows_the_regions_when_swapped(instance):
    demand, areas, cost = instance
    costs = CostModel(cost, cost)
    plan = optimal_plan(demand, areas, costs)
    swapped = optimal_plan(demand[:, ::-1], areas[::-1], costs)
    assert np.array_equal(swapped.static_density, plan.static_density[::-1])
