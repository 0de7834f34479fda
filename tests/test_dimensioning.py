"""Demand dimensioning tests: the u = 1 inversion, shared loads, cell errors."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bisection_reference
from mbsplan import dimensioning
from mbsplan.dimensioning import (BISECTION_REL_TOL, DEFAULT_DENSITY_CAP_PER_M2,
                                  InfeasibleDemand, demand_matrix)
from mbsplan.qosmodel import (FixedPointDiverged, NonFinite, QuadratureSpec,
                              delay_given_utilization, evaluate_qos)
from mbsplan.scenario import M2_PER_KM2, RadioParams, default_scenario, user_density_matrix

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
    # inversion does not depend on the other loads. On the default radio
    # every bracket spans a factor 2. On a noiseless radio with threshold
    # 0.11 * lambda_u and lam = cap / 0.12, lam's bracket is [0.1, 0.12] *
    # lam, clipped at the cap, and needs fewer bisection steps than the
    # smaller loads' factor-2 brackets.
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


def test_demand_matrix_memoizes_repeated_loads():
    # Equal loads share one density and one fixed-point element, hence
    # equal entries in every array; a load that differs in its last bit is
    # a load of its own, with its own density and its own fixed point.
    lam = 800.0 / M2_PER_KM2
    users = np.array([[lam], [np.nextafter(lam, 1.0)], [2.0 * lam], [lam]])
    demand, delay, iterations = demand_matrix(users, PARAMS)
    assert demand[3, 0] == demand[0, 0]
    assert delay[3, 0] == delay[0, 0]
    assert iterations[3, 0] == iterations[0, 0] > 0
    assert demand[1, 0] != demand[0, 0]
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


def test_demand_matrix_names_the_first_diverged_cell(monkeypatch):
    light, heavy = 1e-4, 5e-3
    users = np.array([[light, light], [heavy, light], [light, heavy]])

    def heavy_diverges(lambda_b, lambda_u, params, quad):
        result = evaluate_qos(lambda_b, lambda_u, params, quad)
        return dataclasses.replace(result, converged=result.converged & (lambda_u != heavy))

    monkeypatch.setattr(dimensioning, "evaluate_qos", heavy_diverges)
    with pytest.raises(FixedPointDiverged, match=r"^slot 1, region index 0: "):
        demand_matrix(users, PARAMS)


def test_demand_matrix_rejects_bad_user_arrays():
    with pytest.raises(ValueError, match="J x Z"):
        demand_matrix(np.full(3, 1e-4), PARAMS)
    for bad in (-0.5e-4, np.nan):
        with pytest.raises(ValueError, match="finite and >= 0"):
            demand_matrix(np.array([[1e-4], [bad]]), PARAMS)


def test_demand_matrix_names_the_cell_of_a_non_finite_probe():
    # The first probe of the two smallest positive loads, lambda_u / 10, is
    # so small that the rate underflows to 0. The message names the smallest
    # such load's first cell and the probe made for it; the zero load is
    # never probed.
    users = np.array([[1e-4, 0.0], [1e-4, 1e-306], [1e-307, 1e-306]])
    with pytest.raises(NonFinite, match=r"^slot 2, region index 0: delay: non-finite result at "
                       r"lambda_b=1e-308, lambda_u=1e-307$"):
        demand_matrix(users, PARAMS)


def _counted(monkeypatch, module):
    """Record the element count of every ``delay_given_utilization`` call
    made through ``module``'s binding."""
    sizes = []
    delay = module.delay_given_utilization

    def counting(lambda_b, *args):
        sizes.append(np.size(lambda_b))
        return delay(lambda_b, *args)

    monkeypatch.setattr(module, "delay_given_utilization", counting)
    return sizes


DEFAULT_LOADS = np.unique(user_density_matrix(default_scenario()))
BENCH_LOADS = np.unique(json.loads((Path(__file__).parent / "data" / "bench_scenario_204_7.json")
                                   .read_text())["user_density_per_m2"])


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
def test_seeded_inversion_is_bit_equal_to_plain_bisection(instance):
    # Seeding only decides candidates outside a bracket that exact probes
    # established, so the densities are the plain bisection's bit for bit,
    # and a probe that fails there fails here with the same message.
    loads, params, quad = instance
    try:
        want = bisection_reference.min_densities(loads, params, quad)
    except Exception as exc:  # noqa: BLE001 -- any failure must be reproduced exactly
        with pytest.raises(type(exc)) as got:
            dimensioning._min_densities(loads, params, quad)
        assert str(got.value) == str(exc)
        assert getattr(got.value, "index", None) == getattr(exc, "index", None)
        return
    assert np.array_equal(dimensioning._min_densities(loads, params, quad), want)


def test_inversion_makes_few_delay_evaluations(monkeypatch):
    # Plain bisection spends 17 u = 1 delay evaluations per distinct load
    # here, in 17 calls; the seeded inversion spends about 4.6 in 5.
    sizes = _counted(monkeypatch, dimensioning)
    scenario = default_scenario()
    demand_matrix(user_density_matrix(scenario), scenario.radio, scenario.quadrature)
    assert sum(sizes) <= 6 * np.count_nonzero(DEFAULT_LOADS)
    assert len(sizes) <= 10


@pytest.mark.parametrize("spoil", ["flat", "nan"])
def test_unusable_table_falls_back_to_plain_probing(monkeypatch, spoil):
    # A table of h that is not strictly increasing, or not finite, seeds
    # nothing: every candidate is probed, in the calls plain bisection makes.
    def spoiled(lo, hi, params, quad):
        log_g = np.linspace(np.log(lo), np.log(hi), 64)
        log_h = 2.0 * log_g
        log_h[5] = log_h[4] if spoil == "flat" else np.nan
        return log_g, log_h

    monkeypatch.setattr(dimensioning, "_h_table", spoiled)
    seeded = _counted(monkeypatch, dimensioning)
    plain = _counted(monkeypatch, bisection_reference)
    got = dimensioning._min_densities(DEFAULT_LOADS, PARAMS, QuadratureSpec())
    assert np.array_equal(got, bisection_reference.min_densities(DEFAULT_LOADS, PARAMS,
                                                                 QuadratureSpec()))
    assert seeded == plain
