"""Allocation LP solve tests: the reduced LP on HiGHS against hand cases,
solver failures, LP invariances and the brute-force vertex oracle."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbsplan.allocation import TIE_BREAK_EPSILON, CostModel, optimal_plan, verify_plan

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
    def linprog(*args, **kwargs):
        return scipy.optimize.OptimizeResult(status=status, message=message, x=None)
    return linprog


def test_empty_feasible_set(monkeypatch):
    # The deployment LP is feasible by construction; a solver that says
    # otherwise is broken, and the plan must not be built from its output.
    monkeypatch.setattr(scipy.optimize, "linprog",
                        _failing_solver(2, "The problem is infeasible."))
    with pytest.raises(RuntimeError, match="infeasible"):
        optimal_plan(np.array([[1.0, 2.0]]), np.array([1.0, 1.0]))


def test_unbounded_ray(monkeypatch):
    # Every variable is boxed or priced positively, so "unbounded" is
    # likewise a solver fault.
    monkeypatch.setattr(scipy.optimize, "linprog",
                        _failing_solver(3, "The problem is unbounded."))
    with pytest.raises(RuntimeError, match="unbounded"):
        optimal_plan(np.array([[1.0, 2.0]]), np.array([1.0, 1.0]))


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
def test_dearer_static_matches_vertex_enumeration(instance):
    # Despite its name, this covers every cost ratio: static cheaper,
    # equal and dearer.
    demand, areas, static_cost, mobile_cost = instance
    status, best = enumerate_optimum(*allocation_lp(demand, areas, static_cost, mobile_cost))
    assert status == "optimal"
    plan = optimal_plan(demand, areas, CostModel(static_cost, mobile_cost))
    assert plan.objective_value == pytest.approx(best, rel=1e-7, abs=1e-7)
    assert verify_plan(plan, demand, areas) == []


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
