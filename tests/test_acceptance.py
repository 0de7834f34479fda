"""End-to-end acceptance suite: one test per shipped guarantee.

Each test states its tolerance inline; together they pin the geometry
closed form, the traffic-linearity and Monte Carlo agreement of the delay
model, quadrature stability, the dimensioning bisection, LP optimality,
the peak-aggregate identity, fleet bookkeeping, the qualitative savings
trends, the perfect-correlation null, runtime, and byte determinism.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from kernel_reference import doubled, pair_distance
from lp_oracle import allocation_lp, enumerate_optimum, random_allocation
from mbsplan.allocation import CostModel, optimal_plan, peak_aggregate_demand, savings, verify_plan
from mbsplan.dimensioning import demand_matrix
from mbsplan.pipeline import run_pipeline, sweep_cost_ratio
from mbsplan.qosmodel import (QuadratureSpec, delay_given_utilization, evaluate_qos,
                              mc_delay_oracle, overlap_area)
from mbsplan.scenario import RadioParams, default_scenario, user_density_matrix

PARAMS = RadioParams()
QUAD = QuadratureSpec()
PER_KM2 = 1e-6
SPOTS_PER_KM2 = ((10.0, 100.0), (30.0, 1000.0), (100.0, 10000.0))


@pytest.fixture(scope="module")
def default_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_run")
    started = time.perf_counter()
    run_pipeline(None, out)
    elapsed = time.perf_counter() - started
    return out, elapsed


def _solved_bundle(scenario):
    users = user_density_matrix(scenario)
    demand, _, _ = demand_matrix(users, scenario.radio)
    areas = scenario.areas_m2()
    plan = optimal_plan(demand, areas)
    return {
        "users": users,
        "demand": demand,
        "areas": areas,
        "plan": plan,
        "report": savings(plan, demand, areas),
    }


@pytest.fixture(scope="module")
def density_ratio_points():
    """Density-ratio sweep points 1..10 solved through the public chain.

    Ratio rho keeps the office district at 1 km^2 with 1e4 users/km^2 and
    gives the residential district rho km^2 at 1e4/rho users/km^2, exactly
    as the shipped sweep does; rho = 10 reproduces the default scenario.
    """
    base = default_scenario()
    points = {}
    for rho in range(1, 11):
        regions = (
            dataclasses.replace(base.regions[0], area_km2=1.0,
                                peak_user_density_per_km2=1e4),
            dataclasses.replace(base.regions[1], area_km2=float(rho),
                                peak_user_density_per_km2=1e4 / rho),
        )
        points[rho] = _solved_bundle(dataclasses.replace(base, regions=regions))
    return points


def test_criterion_01_overlap_area_matches_closed_form_lens():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    n = 10_000
    r = rng.uniform(1e-3, 10.0, n)
    x = rng.uniform(0.0, 10.0, n)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)

    def lens_area(r, x, d):
        # standard two-circle intersection area; clipping covers the
        # disjoint and fully-nested regimes in one expression
        d = np.maximum(d, 1e-300)
        a1 = np.clip((d * d + r * r - x * x) / (2.0 * d * r), -1.0, 1.0)
        a2 = np.clip((d * d + x * x - r * r) / (2.0 * d * x), -1.0, 1.0)
        t = np.maximum((-d + r + x) * (d + r - x) * (d - r + x) * (d + r + x), 0.0)
        return r * r * np.arccos(a1) + x * x * np.arccos(a2) - 0.5 * np.sqrt(t)

    reference = np.pi * x * x - lens_area(r, x, pair_distance(r, x, theta))
    worst = float(np.max(np.abs(overlap_area(r, x, theta) - reference)))
    assert worst < 1e-9
    assert time.perf_counter() - started < 5.0


def test_criterion_02_delay_linear_in_user_density():
    for bs_km2, users_km2 in SPOTS_PER_KM2:
        lam_b = bs_km2 * PER_KM2
        lam_u = users_km2 * PER_KM2
        assert delay_given_utilization(lam_b, 0.0, 1.0, PARAMS, QUAD) == 0.0
        base = delay_given_utilization(lam_b, lam_u, 1.0, PARAMS, QUAD)
        for c in (0.5, 2.0):
            scaled = delay_given_utilization(lam_b, c * lam_u, 1.0, PARAMS, QUAD)
            assert scaled == pytest.approx(c * base, rel=1e-12)


def test_criterion_03_delay_matches_monte_carlo_oracle():
    started = time.perf_counter()
    for i, (bs_km2, users_km2) in enumerate(SPOTS_PER_KM2):
        lam_b = bs_km2 * PER_KM2
        lam_u = users_km2 * PER_KM2
        analytic = delay_given_utilization(lam_b, lam_u, 1.0, PARAMS, QUAD)
        simulated = mc_delay_oracle(lam_b, lam_u, 1.0, PARAMS,
                                    trials=10_000, rng_seed=1234 + i)
        assert abs(simulated - analytic) / analytic < 0.05
    assert time.perf_counter() - started < 120.0


def test_criterion_04_delay_stable_under_node_doubling():
    fine_quad = doubled(QUAD)
    for bs_km2, users_km2 in SPOTS_PER_KM2:
        lam_b = bs_km2 * PER_KM2
        lam_u = users_km2 * PER_KM2
        coarse = evaluate_qos(lam_b, lam_u, PARAMS, QUAD).delay_s_per_bit
        fine = evaluate_qos(lam_b, lam_u, PARAMS, fine_quad).delay_s_per_bit
        assert abs(fine - coarse) / coarse < 1e-4


def test_criterion_05_bisection_matches_grid_search():
    grid = np.logspace(np.log10(1e-2), np.log10(1e5), 2000) * PER_KM2
    tau0 = PARAMS.target_delay_s_per_bit
    for users_km2 in (100.0, 1000.0, 10000.0):
        lam_u = users_km2 * PER_KM2
        feasible = np.array(
            [evaluate_qos(lam, lam_u, PARAMS, QUAD).delay_s_per_bit <= tau0
             for lam in grid])
        assert feasible.any()
        k = int(np.argmax(feasible))
        solved = demand_matrix([[lam_u]], PARAMS, QUAD)[0][0, 0]
        assert grid[max(k - 1, 0)] * (1.0 - 1e-9) <= solved
        assert solved <= grid[min(k + 1, grid.size - 1)] * (1.0 + 1e-9)

    # supporting property: the self-consistent delay never rises with the
    # station density on the 50-point check grid
    lam_u = 1000.0 * PER_KM2
    lams = np.logspace(np.log10(0.1), np.log10(1000.0), 50) * PER_KM2
    delays = np.array([evaluate_qos(lam, lam_u, PARAMS, QUAD).delay_s_per_bit
                       for lam in lams])
    assert np.all(np.diff(delays) <= 1e-9 * delays[:-1])


def test_criterion_06_lp_hand_instance_and_enumeration():
    demand = np.array([[10.0, 2.0], [2.0, 10.0]]) * PER_KM2
    areas = np.array([1e6, 1e6])
    plan = optimal_plan(demand, areas)
    report = savings(plan, demand, areas)
    assert abs(plan.objective_value - 12.0) <= 1e-7
    assert abs(plan.fleet_size - 8.0) <= 1e-7
    assert np.all(np.abs(plan.static_density / PER_KM2 - 2.0) <= 1e-7)
    assert abs(report.total_saving_fraction - 0.40) <= 1e-7
    assert np.all(np.abs(report.per_region_static_saving_fraction - 0.80) <= 1e-7)

    # Random small instances (up to 3 slots x 2 regions, mobile sometimes
    # dearer than static) against vertex enumeration of the full equality
    # formulation, which shares no code with the reduced LP.
    rng = np.random.default_rng(1729)
    optima = 0
    for _ in range(120):
        demand, areas, static_cost, mobile_cost = random_allocation(rng)
        status, best = enumerate_optimum(*allocation_lp(demand, areas, static_cost,
                                                        mobile_cost))
        assert status == "optimal"
        plan = optimal_plan(demand, areas, CostModel(static_cost, mobile_cost))
        assert abs(plan.objective_value - best) <= 1e-7 * (1.0 + abs(best))
        assert verify_plan(plan, demand, areas) == []
        optima += 1
    assert optima >= 100  # the instance family must actually exercise the solver


def test_criterion_07_equal_cost_objective_is_peak_aggregate_demand(density_ratio_points):
    bundles = [_solved_bundle(default_scenario())] + list(density_ratio_points.values())
    for bundle in bundles:
        expected = peak_aggregate_demand(bundle["demand"], bundle["areas"])
        got = bundle["plan"].objective_value
        assert abs(got - expected) <= 1e-7 * abs(expected)


def test_criterion_08_fleet_is_closed_and_plans_verify(default_artifacts, density_ratio_points):
    out, _ = default_artifacts
    plan_doc = json.loads((out / "plan.json").read_text())
    schedule = np.array(plan_doc["mbs_schedule_per_km2"])
    areas_km2 = np.array([1.0, 10.0])
    totals = schedule @ areas_km2
    fleet = plan_doc["fleet_size"]
    assert totals.shape == (60,)
    assert np.max(np.abs(totals - fleet)) <= 1e-8 * (1.0 + fleet)
    assert (totals.max() - totals.min()) <= 1e-8 * max(totals.max(), 1.0)

    for bundle in density_ratio_points.values():
        assert verify_plan(bundle["plan"], bundle["demand"], bundle["areas"]) == []


def test_criterion_09a_saving_positive_and_in_band(density_ratio_points):
    for rho, bundle in density_ratio_points.items():
        saving = bundle["report"].total_saving_fraction
        assert saving > 0.0, f"no saving at density ratio {rho}"
        assert 0.05 <= saving <= 0.35, f"saving {saving:.4f} out of band at ratio {rho}"


def test_criterion_09b_static_saving_non_increasing_in_density_ratio(density_ratio_points):
    series = np.array([density_ratio_points[rho]["report"].per_region_static_saving_fraction
                       for rho in range(1, 11)])
    # non-increasing per region, with a one-point tolerance: at most one
    # adjacent rise, and only counting rises beyond 5e-5 float slack
    for z in range(series.shape[1]):
        rises = int(np.sum(np.diff(series[:, z]) > 5e-5))
        assert rises <= 1, f"region {z} savings rise {rises} times: {series[:, z]}"


def test_criterion_09c_fleet_concentrates_at_residential_peak(default_artifacts):
    out, _ = default_artifacts
    report = json.loads((out / "savings.json").read_text())
    fraction = np.array(report["mbs_fraction"])[:, 1]
    residential_load = user_density_matrix(default_scenario())[:, 1]
    peak_slots = residential_load >= 0.98 * residential_load.max()
    assert peak_slots.any()
    assert fraction[peak_slots].max() > 0.8


def test_criterion_09d_fleet_grows_with_cost_ratio():
    result = sweep_cost_ratio(None, np.linspace(1.0, 3.0, 9))
    assert result.failures == []
    fleet = result.fleet_size
    tol = 1e-9 * (1.0 + fleet.max())
    assert np.all(np.diff(fleet) >= -tol), f"fleet not non-decreasing: {fleet}"


def test_criterion_10_identical_profiles_save_nothing():
    base = default_scenario()
    office, residential = base.regions
    office_shape_everywhere = dataclasses.replace(residential, profile=office.profile)
    scenario = dataclasses.replace(base, regions=(office, office_shape_everywhere))
    bundle = _solved_bundle(scenario)
    assert abs(bundle["report"].total_saving_fraction) <= 1e-7


def test_criterion_11_default_pipeline_under_two_minutes(default_artifacts):
    _, elapsed = default_artifacts
    assert elapsed < 120.0


def test_criterion_12_reruns_are_byte_identical(default_artifacts, tmp_path):
    out, _ = default_artifacts
    run_pipeline(None, tmp_path)
    for name in ("plan.json", "savings.json"):
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()
