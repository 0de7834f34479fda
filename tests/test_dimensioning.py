"""Demand dimensioning tests: the u = 1 inversion, equal loads, cell errors."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bisection_reference
import demand_reference
import mbsplan
from mbsplan import dimensioning, qosmodel
from mbsplan.dimensioning import (BISECTION_REL_TOL, DEFAULT_DENSITY_CAP_PER_M2,
                                  InfeasibleDemand, demand_matrix)
from mbsplan.qosmodel import (FixedPointDiverged, NonFinite, QuadratureSpec,
                              delay_given_utilization, evaluate_qos)
from mbsplan.pipeline import sweep_density_ratio
from mbsplan.scenario import (M2_PER_KM2, RadioParams, default_scenario, load_scenario,
                              user_density_matrix)

PARAMS = RadioParams()


def _min_density(lambda_u, params, quad=QuadratureSpec()):
    """The minimum station density of one load: its 1 x 1 demand matrix."""
    return float(demand_matrix([[lambda_u]], params, quad)[0][0, 0])


def _noiseless_threshold(params, lambda_u):
    """Without noise the SINR at the scaled radius does not depend on the
    station density, so tau(lambda_b) = (lambda_u / lambda_b) * S with a
    constant S and the minimum density is lambda_u * S / target."""
    unit_sum = delay_given_utilization(1.0, 1.0, 1.0, params)
    return lambda_u * unit_sum / params.target_delay_s_per_bit


def _threshold_radio(ratio):
    """Noiseless radio whose minimum station density is ``ratio * lambda_u``."""
    noiseless = dataclasses.replace(PARAMS, noise_psd_w_per_hz=0.0)
    unit_sum = delay_given_utilization(1.0, 1.0, 1.0, noiseless)
    return dataclasses.replace(noiseless, target_delay_s_per_bit=unit_sum / ratio)


def _beyond_cap(factor, params=PARAMS):
    """A user density ``factor`` (> 1) times the largest one the density cap
    serves: the delay is linear in the load, so the cap's delay then misses
    the target by that factor."""
    at_cap = delay_given_utilization(DEFAULT_DENSITY_CAP_PER_M2, 1.0, 1.0, params)
    return factor * params.target_delay_s_per_bit / at_cap


def test_zero_user_density_needs_no_stations():
    assert _min_density(0.0, PARAMS) == 0.0


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        _min_density(-1.0, PARAMS)


def test_bisection_matches_closed_form_threshold():
    # A tight target puts the threshold above the starting point lambda_u / 10.
    noiseless = dataclasses.replace(PARAMS, noise_psd_w_per_hz=0.0)
    lambda_u = 1e-4
    unit_sum = delay_given_utilization(1.0, 1.0, 1.0, noiseless)
    params = dataclasses.replace(noiseless, target_delay_s_per_bit=0.1 * unit_sum)
    lam_star = _noiseless_threshold(params, lambda_u)
    assert lam_star > 5.0 * lambda_u
    got = _min_density(lambda_u, params)
    assert lam_star * (1.0 - 1e-12) <= got <= lam_star * (1.0 + 2.0 * BISECTION_REL_TOL)


def test_bisection_halves_downward_when_start_is_feasible():
    # A lax target puts the threshold far below the starting point lambda_u / 10.
    noiseless = dataclasses.replace(PARAMS, noise_psd_w_per_hz=0.0)
    lambda_u = 1e-3
    unit_sum = delay_given_utilization(1.0, 1.0, 1.0, noiseless)
    params = dataclasses.replace(noiseless, target_delay_s_per_bit=1e3 * unit_sum)
    lam_star = _noiseless_threshold(params, lambda_u)
    got = _min_density(lambda_u, params)
    assert got < lambda_u / 100.0
    assert lam_star * (1.0 - 1e-12) <= got <= lam_star * (1.0 + 2.0 * BISECTION_REL_TOL)


def test_infeasible_at_cap_raises():
    # Loads just beyond the cap. On the default radio the first probe,
    # lambda_u / 10, is already clipped to the cap; on the 0.11 radio a
    # doubling step is, and unclipped it would meet the target.
    for params in (PARAMS, _threshold_radio(0.11)):
        lam_u = _beyond_cap(1.01, params)
        with pytest.raises(InfeasibleDemand) as excinfo:
            _min_density(lam_u, params)
        assert str(excinfo.value).startswith("slot 0, region index 0: ")
        assert (f"density cap 100000 per km^2 (user density {lam_u * M2_PER_KM2:.6g} "
                "per km^2)" in str(excinfo.value))


def test_busy_delay_test_agrees_with_fixed_point():
    # The fixed point starts at u = 1 and the delay rises with u, so the
    # busy delay meets the target exactly when the self-consistent one does.
    target = PARAMS.target_delay_s_per_bit
    lam_b = np.logspace(0.0, 4.0, 30) / M2_PER_KM2
    lam_u = np.logspace(1.0, 5.0, 30) / M2_PER_KM2
    bb, uu = np.meshgrid(lam_b, lam_u)
    busy_ok = delay_given_utilization(bb, uu, 1.0, PARAMS) <= target
    fixed_ok = np.array([[evaluate_qos(b, u, PARAMS).delay_s_per_bit <= target
                          for b, u in zip(row_b, row_u)] for row_b, row_u in zip(bb, uu)])
    assert 0 < busy_ok.sum() < busy_ok.size
    assert np.array_equal(busy_ok, fixed_ok)


@pytest.mark.parametrize("noise_scale", [1.0, 1e6])
def test_inverted_function_is_strictly_increasing(noise_scale):
    # h(lambda_b) = lambda_b / S(lambda_b) = 1 / tau(lambda_b, lambda_u=1, u=1).
    params = dataclasses.replace(PARAMS, noise_psd_w_per_hz=PARAMS.noise_psd_w_per_hz
                                 * noise_scale)
    lam_b = np.logspace(-3.0, 5.0, 400) / M2_PER_KM2
    h = 1.0 / delay_given_utilization(lam_b, np.ones_like(lam_b), 1.0, params)
    assert np.all(np.diff(h) > 0.0)


def test_min_density_is_bit_equal_to_its_matrix_cell():
    # A load's 1 x 1 demand matrix equals its cell in a larger one: the
    # inversion does not depend on the other loads. The lattice points are
    # fixed; smaller loads only extend the lattice downward, and larger ones
    # only narrow the part of it a load is evaluated on. On a noiseless
    # radio with threshold 0.11 * lambda_u, lam = cap / 0.12 has its root
    # within two lattice steps of the cap, the lattice's top.
    for params, lam in ((PARAMS, 1234.5 / M2_PER_KM2),
                        (_threshold_radio(0.11), DEFAULT_DENSITY_CAP_PER_M2 / 0.12)):
        alone = _min_density(lam, params)
        for others in ([0.0], [0.5], [0.2, 0.9], list(np.linspace(0.1, 1.0, 7))):
            loads = lam * np.array([1.0] + others)
            assert demand_matrix(loads[:, None], params)[0][0, 0] == alone
            assert demand_matrix(loads[::-1, None], params)[0][-1, 0] == alone


def test_min_density_increases_with_user_density():
    quad = QuadratureSpec()
    lams = np.array([50.0, 200.0, 1000.0, 5000.0]) / M2_PER_KM2
    got = [_min_density(lam, PARAMS, quad) for lam in lams]
    assert all(b > a for a, b in zip(got, got[1:]))


def test_solved_density_is_feasible_and_nearly_minimal():
    quad = QuadratureSpec()
    for lam_u_km2 in (100.0, 3000.0):
        lam_u = lam_u_km2 / M2_PER_KM2
        lam_b = _min_density(lam_u, PARAMS, quad)
        at = evaluate_qos(lam_b, lam_u, PARAMS, quad)
        below = evaluate_qos(lam_b * (1.0 - 10.0 * BISECTION_REL_TOL), lam_u, PARAMS, quad)
        assert at.delay_s_per_bit <= PARAMS.target_delay_s_per_bit
        assert below.delay_s_per_bit > PARAMS.target_delay_s_per_bit


def test_demand_matrix_gives_equal_loads_equal_cells():
    # Every cell is solved on its own, elementwise, so equal loads get
    # equal entries in every array; a load one bit larger is a cell of its
    # own, with its own fixed point. Its density may equal its
    # neighbour's, but at that density the neighbour's load gives another
    # delay.
    lam = 800.0 / M2_PER_KM2
    users = np.array([[lam], [np.nextafter(lam, 1.0)], [2.0 * lam], [lam]])
    demand, delay, iterations = demand_matrix(users, PARAMS)
    assert demand[3, 0] == demand[0, 0]
    assert delay[3, 0] == delay[0, 0]
    assert iterations[3, 0] == iterations[0, 0] > 0
    assert delay[1, 0] != evaluate_qos(float(demand[1, 0]), lam, PARAMS).delay_s_per_bit
    assert demand[2, 0] > demand[0, 0]
    assert delay[2, 0] != delay[0, 0]
    for j in range(4):
        alone = evaluate_qos(float(demand[j, 0]), float(users[j, 0]), PARAMS)
        assert delay[j, 0] == alone.delay_s_per_bit
        assert iterations[j, 0] == alone.fixed_point_iterations


def test_demand_matrix_on_default_scenario():
    scenario = default_scenario()
    users = user_density_matrix(scenario)
    demand, delay, iterations = demand_matrix(users, scenario.radio)
    assert demand.shape == (60, 2)
    assert np.all(demand >= 0.0)
    assert np.all(demand > 0.0)  # both profiles carry load all day
    target = scenario.radio.target_delay_s_per_bit
    assert delay.shape == (60, 2)
    assert np.all(delay <= target)
    assert np.all(iterations > 0)
    # The secant step needs at most 4 delay evaluations per load (plain
    # iteration from u = 1 took up to 22 here).
    assert iterations.max() <= 4
    # Busier slots never need fewer stations than the quietest one.
    quiet = demand.min(axis=0)
    assert np.all(demand.max(axis=0) > quiet)


def test_demand_matrix_error_names_the_cell():
    def users(light, heavy):
        return np.array([[light, light], [light, heavy]])

    # Both loads beyond the cap: every cell fails, and the first is named.
    with pytest.raises(InfeasibleDemand) as excinfo:
        demand_matrix(users(_beyond_cap(2.0), _beyond_cap(4.0)), PARAMS)
    assert str(excinfo.value).startswith("slot 0, region index 0: ")
    # Only the heavy load beyond the cap: only cell (1, 1) fails.
    heavy = _beyond_cap(2.0)
    with pytest.raises(InfeasibleDemand) as excinfo:
        demand_matrix(users(1e-4, heavy), PARAMS)
    message = str(excinfo.value)
    assert message.startswith("slot 1, region index 1: ")
    assert "density cap 100000 per km^2" in message
    assert f"user density {heavy * M2_PER_KM2:.6g} per km^2" in message
    # Two loads beyond the cap, each in two cells: the first failing cell
    # in row-major order is named, though it holds the larger load.
    heavier = _beyond_cap(4.0)
    with pytest.raises(InfeasibleDemand) as excinfo:
        demand_matrix(np.array([[1e-4, heavier], [heavy, heavier], [heavy, 1e-4]]), PARAMS)
    assert str(excinfo.value) == (
        "slot 0, region index 1: delay target 1.000e-05 s/bit unmet at the density cap "
        f"100000 per km^2 (user density {heavier * M2_PER_KM2:.6g} per km^2)")
    # the cell's flat index and the reason alone, for callers that name the region
    assert excinfo.value.index == 1
    assert str(excinfo.value) == "slot 0, region index 1: " + excinfo.value.reason


def test_demand_matrix_names_the_first_diverged_cell(monkeypatch):
    light, heavy, heavier = 1e-4, 5e-3, 1e-2
    users = np.array([[light, light], [heavy, light], [light, heavy]])
    lam_b = _min_density(heavier, PARAMS)

    def heavy_diverges(lambda_b, lambda_u, params, quad, **kwargs):
        result = evaluate_qos(lambda_b, lambda_u, params, quad, **kwargs)
        return dataclasses.replace(result, converged=result.converged & (lambda_u < heavy))

    monkeypatch.setattr(dimensioning, "evaluate_qos", heavy_diverges)
    with pytest.raises(FixedPointDiverged, match=r"^slot 1, region index 0: "):
        demand_matrix(users, PARAMS)
    # Two diverging loads, each in two cells: the first diverging cell in
    # row-major order is named, though it holds the larger load.
    users = np.array([[light, heavier], [heavy, heavier], [heavy, light]])
    with pytest.raises(FixedPointDiverged) as excinfo:
        demand_matrix(users, PARAMS)
    assert str(excinfo.value) == ("slot 0, region index 1: utilization fixed point did not "
                                  f"converge at lambda_b={lam_b:.6e}, lambda_u=1.000000e-02")
    assert excinfo.value.index == 1
    assert str(excinfo.value) == "slot 0, region index 1: " + excinfo.value.reason


def test_demand_matrix_rejects_bad_user_arrays():
    with pytest.raises(ValueError, match="J x Z"):
        demand_matrix(np.full(3, 1e-4), PARAMS)
    for bad in (-0.5e-4, np.nan):
        with pytest.raises(ValueError, match="finite and >= 0"):
            demand_matrix(np.array([[1e-4], [bad]]), PARAMS)


def test_demand_matrix_names_the_cell_of_a_bad_user_density():
    users = np.full((60, 2), 1e-4)
    users[7, 1] = np.nan
    users[9, 0] = -1.0
    with pytest.raises(ValueError) as excinfo:
        demand_matrix(users, PARAMS)
    assert str(excinfo.value) == ("slot 7, region index 1: user density must be finite and "
                                  ">= 0, got nan at index 15")
    assert excinfo.value.index == 15


def _exact_delay(lam_b, lam_u, params, quad=QuadratureSpec()):
    """The inversion's u = 1 delay (lambda_u / lambda_b) S, +inf where the
    rate underflows to 0."""
    with np.errstate(all="ignore"):
        return (lam_u / lam_b) * qosmodel._unit_sums(lam_b, 1.0, params, quad)


def _assert_certified(got, loads, params, quad=QuadratureSpec()):
    """Every density meets the target by its exact u = 1 delay and misses
    it at (1 - tol) times itself; a delay of +inf is a miss."""
    target = params.target_delay_s_per_bit
    assert np.all(_exact_delay(got, loads, params, quad) <= target)
    assert not np.any(_exact_delay(got * (1.0 - BISECTION_REL_TOL), loads, params, quad)
                      <= target)


def _within_tol(got, want):
    ratio = got / want
    return np.all((1.0 - BISECTION_REL_TOL <= ratio) & (ratio <= 1.0 / (1.0 - BISECTION_REL_TOL)))


NOISELESS = dataclasses.replace(PARAMS, noise_psd_w_per_hz=0.0)


def test_demand_matrix_names_the_cell_of_a_root_below_the_lattice():
    # On a noiseless radio the root of 1e-318 users per m^2 is about
    # 1.8e-320 per m^2, below the lattice's lowest point 1.9974e-319, where
    # floats cannot resolve the tolerance. The message names that load's
    # first cell; the zero load is never probed.
    users = np.array([[1e-4, 0.0], [1e-4, 1e-300], [1e-318, 1e-300], [1e-318, 1e-318]])
    with pytest.raises(NonFinite, match=r"^slot 2, region index 0: inversion: lambda_u=1e-318 "
                       r"meets the target at the lattice's lowest density 1\.9974e-319, so its "
                       r"root is not resolved$"):
        demand_matrix(users, NOISELESS)
    # Two loads below the lattice, each in two cells, the larger one first:
    # the smallest load is named, by its first cell in row-major order.
    users = np.array([[1e-4, 1e-318], [1e-319, 1e-318], [1e-319, 0.0]])
    with pytest.raises(NonFinite, match=r"^slot 1, region index 0: inversion: lambda_u=1e-319 "
                       r"meets the target at the lattice's lowest density 1\.9974e-319, so its "
                       r"root is not resolved$"):
        demand_matrix(users, NOISELESS)


def test_root_below_the_lattice_names_the_smallest_load_in_any_order():
    # Every load below the lattice fails; the smallest one is named,
    # wherever it sits in the array.
    loads = np.array([1e-4, 1e-318, 1e-319, 1e-318])
    for order in (np.arange(4), np.array([2, 3, 0, 1]), np.arange(4)[::-1]):
        with pytest.raises(NonFinite, match=r"lambda_u=1e-319 meets") as got:
            dimensioning._min_densities(loads[order], NOISELESS, QuadratureSpec())
        assert order[got.value.index] == 2


def test_tiny_loads_get_certified_densities():
    # Below about 7e-177 per m^2 the default radio's rate underflows to 0
    # and the delay is +inf, a miss. The lattice reaches far below that,
    # but these loads' roots lie far above it: each density is certified
    # by exact delays, also next to the larger loads of a demand matrix.
    # The first three loads raised NonFinite when the lattice began at
    # each load's floor, and a 1e-320 load could not form one.
    loads = np.array([7.2e-176, 1e-175, 8.5e-175, 1e-200, 1e-300, 1e-320])
    for lam in loads:
        got = dimensioning._min_densities(np.array([lam]), PARAMS, QuadratureSpec())[0]
        _assert_certified(got, lam, PARAMS)
        assert _within_tol(got, bisection_reference.min_densities([lam], PARAMS,
                                                                  QuadratureSpec()))
    assert np.isclose(dimensioning._min_densities(loads[:1], PARAMS, QuadratureSpec())[0][0],
                      4.694e-69, rtol=1e-3)
    users = np.array([[1e-4], [1e-320]])
    demand = demand_matrix(users, PARAMS)[0]
    assert demand[1, 0] == _min_density(1e-320, PARAMS)
    # A target so lax that the root sits where the rate underflows: the
    # bracket's low end has delay +inf, so its first probes straddle the
    # geometric midpoint instead of a secant's root.
    lax = dataclasses.replace(PARAMS, target_delay_s_per_bit=1e150)
    grid, unit_sum = dimensioning._lattice(lax, QuadratureSpec())
    got = dimensioning._min_densities(np.array([1e-322]), lax, QuadratureSpec())[0]
    below = np.searchsorted(grid, got[0]) - 1
    assert np.isinf(unit_sum[below])
    _assert_certified(got, 1e-322, lax)
    assert _within_tol(got, bisection_reference.min_densities([1e-322], lax, QuadratureSpec()))


def test_inversion_is_bit_equal_over_split_arrays():
    # A load's density does not depend on the other loads of its array.
    loads = np.geomspace(1e-5, 1e-2, 3000)
    got = dimensioning._min_densities(loads, PARAMS, QuadratureSpec())
    parts = [dimensioning._min_densities(part, PARAMS, QuadratureSpec())
             for part in np.array_split(loads, 7)]
    for k in range(2):  # the densities and their u = 1 delays
        assert np.array_equal(got[k], np.concatenate([part[k] for part in parts]))


def _counted(monkeypatch):
    """Record the element count of every node-sum call the inversion
    makes, the lattice table's included."""
    sizes = []
    unit_sums = dimensioning._unit_sums

    def counting(lambda_b, *args):
        sizes.append(np.size(lambda_b))
        return unit_sums(lambda_b, *args)

    monkeypatch.setattr(dimensioning, "_unit_sums", counting)
    return sizes


DATA = Path(__file__).parent / "data"
DEFAULT_USERS = user_density_matrix(default_scenario())
BENCH_USERS = np.array(json.loads((DATA / "bench_scenario_204_7.json")
                                  .read_text())["user_density_per_m2"])
DEFAULT_LOADS = np.unique(DEFAULT_USERS)
BENCH_LOADS = np.unique(BENCH_USERS)
_THREE_REGIONS = load_scenario((DATA / "three_regions.json").read_text(), base_dir=DATA)
# users, radio and quadrature; the bench scenario has the built-in radio
SCENARIOS = {
    "default": (DEFAULT_USERS, PARAMS, QuadratureSpec()),
    "bench_204_7": (BENCH_USERS, PARAMS, QuadratureSpec()),
    "three_regions": (user_density_matrix(_THREE_REGIONS), _THREE_REGIONS.radio,
                      QuadratureSpec()),
    "noiseless": (DEFAULT_USERS, NOISELESS, QuadratureSpec()),
}


@st.composite
def _inversions(draw):
    """Loads, radio and quadrature for one inversion: log-uniform loads with
    zeros, repeats, loads beyond the cap and, now and then, a load so small
    that its first probe underflows the rate; noise on or off, the target
    scaled by up to 1e3 either way and path-loss exponents 2.5 to 5."""
    nodes = draw(st.integers(8, 16))
    quad = QuadratureSpec(nodes_r=nodes, nodes_x=nodes, nodes_theta=nodes)
    params = dataclasses.replace(
        PARAMS,
        noise_psd_w_per_hz=draw(st.sampled_from((0.0, PARAMS.noise_psd_w_per_hz))),
        target_delay_s_per_bit=PARAMS.target_delay_s_per_bit * 10.0 ** draw(st.floats(-3.0, 3.0)),
        path_loss_exponent=draw(st.floats(2.5, 5.0)))
    at_cap = delay_given_utilization(DEFAULT_DENSITY_CAP_PER_M2, 1.0, 1.0, params, quad)
    loads = [10.0 ** e for e in draw(st.lists(st.floats(-9.0, -1.0), min_size=1, max_size=24))]
    loads += [0.0] * draw(st.integers(0, 2))
    loads += [f * params.target_delay_s_per_bit / at_cap
              for f in draw(st.lists(st.floats(1.001, 100.0), max_size=2))]
    if draw(st.integers(0, 9)) == 9:
        loads.append(10.0 ** draw(st.floats(-302.0, -298.0)))
    loads += draw(st.lists(st.sampled_from(loads), max_size=4))
    return np.array(draw(st.permutations(loads))), params, quad


@settings(max_examples=150, deadline=None)
@given(_inversions())
@example((DEFAULT_LOADS, PARAMS, QuadratureSpec()))
@example((BENCH_LOADS, PARAMS, QuadratureSpec()))
@example((np.unique(SCENARIOS["three_regions"][0]), *SCENARIOS["three_regions"][1:]))
@example((DEFAULT_LOADS, NOISELESS, QuadratureSpec()))
@example((np.array([7.2e-176, 1e-175, 8.5e-175]), PARAMS, QuadratureSpec()))
@example((np.array([0.1, 802.228853288561, 1e-302]),  # lambda_u / lambda_b overflows
          dataclasses.replace(PARAMS, noise_psd_w_per_hz=0.0, path_loss_exponent=3.0,
                              target_delay_s_per_bit=1e-3),
          QuadratureSpec(nodes_r=8, nodes_x=8, nodes_theta=8)))
def test_inversion_is_certified_and_agrees_with_plain_bisection(instance):
    # Every density d is certified by exact u = 1 delays: the target is met
    # at d and missed at d (1 - tol), a delay of +inf being a miss. Zero
    # loads, loads past the cap and roots below the resolved densities come
    # out as in plain bisection, and both results lie within tol of the
    # same root. Beside each density comes the u = 1 delay the inversion
    # ended on, which the fixed point takes as its first iterate instead of
    # evaluating it again: bit-equal to delay_given_utilization's at that
    # density, 0 for a zero load and NaN past the cap.
    loads, params, quad = instance
    try:
        want = bisection_reference.min_densities(loads, params, quad)
    except NonFinite:
        with pytest.raises(NonFinite):
            dimensioning._min_densities(loads, params, quad)
        return
    got, delay = dimensioning._min_densities(loads, params, quad)
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.array_equal(got == np.inf, want == np.inf)
    solved = (got > 0.0) & (got < np.inf)
    _assert_certified(got[solved], loads[solved], params, quad)
    assert _within_tol(got[solved], want[solved])
    assert np.array_equal(delay[solved], delay_given_utilization(got[solved], loads[solved], 1.0,
                                                                 params, quad))
    assert np.all(delay[got == 0.0] == 0.0) and np.all(np.isnan(delay[got == np.inf]))


def test_inversion_makes_few_delay_evaluations(monkeypatch):
    # Plain bisection spends 17 u = 1 delay evaluations per distinct load
    # here, in 17 calls. With the lattice table built, the inversion spends
    # 2.43 per positive cell and call, 292 in 2 calls over 120 cells: two
    # probes per open bracket and round. The bound counts distinct loads,
    # 3 * 111 = 333, and holds though every cell is inverted.
    scenario = default_scenario()
    users = user_density_matrix(scenario)
    demand_matrix(users, scenario.radio)
    sizes = _counted(monkeypatch)
    demand_matrix(users, scenario.radio)
    assert sum(sizes) <= 3 * np.count_nonzero(DEFAULT_LOADS)
    assert len(sizes) <= 6


@pytest.mark.parametrize("name", SCENARIOS)
def test_demand_matrix_equals_the_route_that_evaluates_every_delay(monkeypatch, name):
    # Reusing the inversion's u = 1 delays changes no density, delay or
    # iteration count; it saves the first delay evaluation of every
    # positive cell: 238 of 358 on the default scenario.
    users, params, quad = SCENARIOS[name]
    want = demand_reference.demand_matrix(users, params, quad)
    evaluated = []
    delay_at = qosmodel.delay_given_utilization

    def counting(lambda_b, *args):
        evaluated.append(np.size(lambda_b))
        return delay_at(lambda_b, *args)

    monkeypatch.setattr(qosmodel, "delay_given_utilization", counting)
    got = demand_matrix(users, params, quad)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert sum(evaluated) == got[2].sum() - np.count_nonzero(users)
    if name == "default":
        assert (got[2].sum(), sum(evaluated)) == (358, 238)


def test_lattice_table_is_built_once_per_radio_and_quadrature(monkeypatch):
    # The table is built neither at import nor by evaluate_qos, but on the
    # first inversion, and reused by later ones, by every point of a sweep
    # among them; another radio gets its own.
    fresh = subprocess.run([sys.executable, "-c", "import mbsplan.cli\n"
                            "print(mbsplan.dimensioning._lattice.cache_info().currsize)"],
                           check=True, capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=str(Path(mbsplan.__file__).parents[1])))
    assert fresh.stdout == "0\n"
    dimensioning._lattice.cache_clear()
    sizes = _counted(monkeypatch)
    evaluate_qos(1e-5, 1e-3, PARAMS)
    assert dimensioning._lattice.cache_info().currsize == 0
    lattice = dimensioning._lattice(PARAMS, QuadratureSpec())[0].size
    assert sizes == [lattice]
    scenario = default_scenario()
    demand_matrix(user_density_matrix(scenario), scenario.radio)
    sweep_density_ratio(None, [1.0, 4.0, 10.0])
    assert sizes[0] == lattice and max(sizes[1:]) < lattice
    _min_density(1e-3, NOISELESS)
    assert sizes.count(lattice) == 2
