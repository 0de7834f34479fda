"""Delay-model tests: geometry, capacity, linearity, fixed point, kernels."""

import dataclasses
import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mc_reference
import mbsplan
import picard_reference
from kernel_reference import delay_r_form, doubled, pair_distance, shared_load_kernel
from mbsplan import qosmodel
from mbsplan.dimensioning import BISECTION_REL_TOL, InfeasibleDemand, demand_matrix
from mbsplan.pipeline import (_GRID_HI_PER_KM2, _GRID_LO_PER_KM2,
                              GRID_SPOT_USER_DENSITIES_PER_KM2, MC_SPOT_DENSITIES_PER_KM2)
from mbsplan.qosmodel import (_NODES, _TAIL_MASS, _cell_areas, _serving_cells, capacity,
                              delay_given_utilization, evaluate_qos, mc_delay_oracle,
                              mean_interference, overlap_area)
from mbsplan.scenario import RadioParams

PARAMS = RadioParams()
PER_KM2 = 1e-6  # density conversion: 1 per km^2 in per m^2
REFINEMENT_REL_TOL = 1e-4  # acceptable relative change when all node counts double


def test_pair_distance_hand_values():
    # sin(pi/2) = 1: colinear on the same side -> 3 + 4 = 7
    assert pair_distance(3.0, 4.0, np.pi / 2) == pytest.approx(7.0, abs=1e-12)
    # sin(-pi/2) = -1: opposite sides -> |3 - 4| = 1
    assert pair_distance(3.0, 4.0, -np.pi / 2) == pytest.approx(1.0, abs=1e-12)
    assert pair_distance(2.0, 2.0, -np.pi / 2) == pytest.approx(0.0, abs=1e-9)


def test_overlap_area_hand_values():
    # zero-radius disc contributes nothing
    assert overlap_area(1.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    # two unit circles at center distance 1: lens = 2pi/3 - sqrt(3)/2
    got = overlap_area(1.0, 1.0, 7.0 * np.pi / 6.0)
    expected = np.pi - (2.0 * np.pi / 3.0 - np.sqrt(3.0) / 2.0)
    assert got == pytest.approx(expected, abs=1e-12)
    # externally tangent discs: the whole disc of radius 1 is outside
    assert overlap_area(10.0, 1.0, np.pi / 2.0) == pytest.approx(np.pi, abs=1e-9)


def test_overlap_area_theta_mirror_symmetry():
    rng = np.random.default_rng(3)
    r = rng.uniform(0.1, 10.0, size=200)
    x = rng.uniform(0.1, 10.0, size=200)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=200)
    a = overlap_area(r, x, theta)
    b = overlap_area(r, x, np.pi - theta)
    # the identity is exact in sin(theta); float rounding of pi - theta
    # perturbs the 16th digit, nothing more
    assert np.allclose(a, b, rtol=0.0, atol=1e-10)


def test_overlap_area_range_and_nested_limit():
    rng = np.random.default_rng(5)
    r = rng.uniform(0.0, 10.0, size=500)
    x = rng.uniform(0.0, 10.0, size=500)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=500)
    area = overlap_area(r, x, theta)
    assert np.all(area >= 0.0) and np.all(area <= np.pi * x ** 2 + 1e-12)
    # concentric limit (d = 0 at r = x, sin theta = -1): pi x^2 - pi min^2 = 0
    assert overlap_area(2.0, 2.0, -np.pi / 2.0) == pytest.approx(0.0, abs=1e-12)
    # fully nested: small disc inside the large circle contributes nothing new
    assert overlap_area(10.0, 0.5, -np.pi / 2.0) == pytest.approx(0.0, abs=1e-12)


def _lens_complement_50_digits(r, x, theta):
    """pi x^2 minus the acos/Heron two-circle lens at center distance
    pair_distance(r, x, theta), evaluated at 50 digits from the float inputs."""
    with mpmath.workdps(50):
        r, x, theta = mpmath.mpf(r), mpmath.mpf(x), mpmath.mpf(theta)
        d = mpmath.sqrt(r * r + x * x + 2 * r * x * mpmath.sin(theta))
        heron = (-d + r + x) * (d + r - x) * (d - r + x) * (d + r + x)
        lens = (r * r * mpmath.acos((d * d + r * r - x * x) / (2 * d * r))
                + x * x * mpmath.acos((d * d + x * x - r * r) / (2 * d * x))
                - mpmath.sqrt(heron) / 2)
        return float(mpmath.pi * x * x - lens)


def test_overlap_area_near_tangency_matches_50_digit_lens():
    # theta within 1e-9..1e-1 of +-pi/2: the discs nearly touch from
    # outside (+) or nearly nest (-), where an acos argument sits next to
    # +-1 and loses half its digits
    rng = np.random.default_rng(23)
    n = 400
    r = rng.uniform(0.01, 10.0, n)
    x = rng.uniform(0.01, 10.0, n)
    theta = (rng.choice([-1.0, 1.0], n) * np.pi / 2.0
             + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-9.0, -1.0, n))
    got = overlap_area(r, x, theta)
    want = np.array([_lens_complement_50_digits(*v) for v in zip(r, x, theta)])
    assert np.all(np.abs(got - want) <= 1e-13 * np.pi * x * x)


def test_capacity_unit_snr():
    # pick interference so the SINR argument is exactly 1 -> B/k bits/s
    r = 1.0
    noise = PARAMS.noise_psd_w_per_hz * PARAMS.bandwidth_hz / PARAMS.reuse_factor
    interference = PARAMS.reference_gain * PARAMS.tx_power_w * r ** -PARAMS.path_loss_exponent - noise
    assert capacity(r, PARAMS, interference) == pytest.approx(1e7, rel=1e-12)


def test_capacity_monotone_decreasing():
    radii = np.linspace(10.0, 2000.0, 40)
    caps = np.array([capacity(r, PARAMS, 0.0) for r in radii])
    assert np.all(np.diff(caps) < 0.0)
    cap_low = capacity(100.0, PARAMS, 1e-12)
    cap_high = capacity(100.0, PARAMS, 1e-10)
    assert cap_high < cap_low


def test_capacity_reuse_halves_with_fixed_snr():
    # halving the power while halving the per-reuse bandwidth keeps the SINR
    # argument fixed, so the rate halves exactly
    base = capacity(50.0, PARAMS, 0.0)
    halved = capacity(50.0, RadioParams(reuse_factor=2, tx_power_w=PARAMS.tx_power_w / 2), 0.0)
    assert halved == pytest.approx(base / 2.0, rel=1e-12)


def test_mean_interference_formula():
    r, lam_b, u = 200.0, 30.0 * PER_KM2, 0.7
    expected = (PARAMS.reference_gain * PARAMS.tx_power_w * 2.0 * np.pi
                * r ** (2.0 - PARAMS.path_loss_exponent) * lam_b * u
                / (PARAMS.reuse_factor * (PARAMS.path_loss_exponent - 2.0)))
    assert mean_interference(r, PARAMS, lam_b, u) == pytest.approx(expected, rel=1e-12)
    assert mean_interference(r, PARAMS, 0.0, u) == 0.0
    assert mean_interference(r, PARAMS, lam_b, 0.0) == 0.0
    louder = RadioParams(tx_power_w=2.0 * PARAMS.tx_power_w)
    assert mean_interference(r, louder, lam_b, u) == pytest.approx(
        2.0 * mean_interference(r, PARAMS, lam_b, u), rel=1e-12)


def test_mean_interference_rejects_bad_utilization():
    with pytest.raises(ValueError):
        mean_interference(100.0, PARAMS, 10.0 * PER_KM2, 1.0 + 1e-6)
    with pytest.raises(ValueError):
        mean_interference(100.0, PARAMS, 10.0 * PER_KM2, -1e-6)


def test_shared_load_kernel_positive_and_converged():
    g = shared_load_kernel(1.0, 0.1)
    assert 0.0 < g < np.pi * (0.1 + np.sqrt(np.log(1e12) / np.pi)) ** 2
    lam_b = 10.0 * PER_KM2
    r = 100.0
    coarse = shared_load_kernel(lam_b, r)
    fine = shared_load_kernel(lam_b, r, doubled(_NODES))
    assert abs(fine - coarse) / coarse < REFINEMENT_REL_TOL


def test_shared_load_kernel_against_mc_integration():
    # uniform Monte Carlo estimate of the same double integral, 1e6 samples
    rng = np.random.default_rng(7)
    for lam_b_km2, r in ((10.0, 100.0), (100.0, 30.0)):
        lam_b = lam_b_km2 * PER_KM2
        x_max = np.sqrt(np.log(1.0 / _TAIL_MASS) / (lam_b * np.pi)) + r
        x = rng.uniform(0.0, x_max, size=1_000_000)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=1_000_000)
        values = np.exp(-lam_b * overlap_area(r, x, theta)) * x
        estimate = values.mean() * x_max * 2.0 * np.pi
        exact = shared_load_kernel(lam_b, r)
        assert abs(estimate - exact) / exact < 0.01


def test_delay_linear_in_user_density():
    lam_b = 20.0 * PER_KM2
    lam_u = 500.0 * PER_KM2
    base = delay_given_utilization(lam_b, lam_u, 1.0, PARAMS)
    assert delay_given_utilization(lam_b, 0.0, 1.0, PARAMS) == 0.0
    twice = delay_given_utilization(lam_b, 2.0 * lam_u, 1.0, PARAMS)
    assert twice == pytest.approx(2.0 * base, rel=1e-12)


def test_non_finite_delay_names_its_first_element():
    # A subnormal station density (from a 1e-300 peak user density) once
    # raised a message that printed both whole density arrays.
    with np.errstate(divide="ignore"), pytest.raises(qosmodel.NonFinite) as excinfo:
        delay_given_utilization([20.0 * PER_KM2, 9e-309, 8e-309], 1e-4, 1.0, PARAMS)
    assert str(excinfo.value) == "delay: non-finite result at lambda_b=9e-309, lambda_u=0.0001"
    assert excinfo.value.index == 1


def test_bad_station_density_names_its_first_element():
    with pytest.raises(ValueError) as excinfo:
        delay_given_utilization([20.0 * PER_KM2, 0.0, -1.0], 1e-4, 1.0, PARAMS)
    assert str(excinfo.value) == "lambda_b must be > 0, got 0.0 at index 1"
    assert excinfo.value.index == 1


def test_bad_user_density_names_its_first_element():
    with pytest.raises(ValueError) as excinfo:
        delay_given_utilization(20.0 * PER_KM2, [1e-4, 2e-4, -3e-4, np.nan], 1.0, PARAMS)
    assert str(excinfo.value) == "lambda_u must be >= 0, got -0.0003 at index 2"
    assert excinfo.value.index == 2


def test_bad_utilization_names_its_first_element():
    with pytest.raises(ValueError) as excinfo:
        delay_given_utilization(20.0 * PER_KM2, 1e-4, [[0.5, 1.0], [np.nan, 1.5]], PARAMS)
    assert str(excinfo.value) == "utilization must be in [0, 1], got nan at index 2"
    assert excinfo.value.index == 2
    with pytest.raises(ValueError, match=r"^utilization must be in \[0, 1\], got 1.000001$"):
        mean_interference(100.0, PARAMS, 10.0 * PER_KM2, 1.000001)


def test_mc_oracle_rejects_a_negative_user_density():
    lam_b = [50.0 * PER_KM2]
    with pytest.raises(ValueError) as excinfo:
        mc_delay_oracle(lam_b, [(1e-4, -1e-4)], 1.0, PARAMS, trials=10, rng_seed=[0])
    assert str(excinfo.value) == "lambda_u must be >= 0, got -0.0001 at index 1"
    assert excinfo.value.index == 1
    with pytest.raises(ValueError, match=r"^lambda_u must be >= 0, got -0\.0001$"):
        mc_delay_oracle(lam_b, -1e-4, 1.0, PARAMS, trials=10, rng_seed=[0])


def test_mc_oracle_takes_1d_spots_with_one_seed_each():
    # A scalar spot or seed, a 2-D spot array and spots without one seed
    # each are all refused, naming both shapes.
    lam_b = 10.0 * PER_KM2
    for spots, seeds, shapes in ((lam_b, [0], "() and (1,)"), ([lam_b], 0, "(1,) and ()"),
                                 ([[lam_b]], [0], "(1, 1) and (1,)"),
                                 ([lam_b, 3.0 * lam_b], [0], "(2,) and (1,)")):
        with pytest.raises(ValueError) as excinfo:
            mc_delay_oracle(spots, 1e-4, 1.0, PARAMS, trials=10, rng_seed=seeds)
        assert str(excinfo.value) == ("lambda_b and rng_seed must be 1-D of one length, "
                                      f"got shapes {shapes}")


def test_mc_oracle_checks_lambda_u_runs_over_the_spots_before_drawing(monkeypatch):
    # Three user densities for two spots, or a 1-D row of three for one
    # spot, are refused naming both shapes before any trial is drawn; a
    # scalar user density still scores every spot.
    lam_b = [10.0 * PER_KM2, 30.0 * PER_KM2]
    scalar = mc_delay_oracle(lam_b, 1e-4, 1.0, PARAMS, trials=100, rng_seed=[1, 2])
    assert np.array_equal(scalar, mc_delay_oracle(lam_b, [1e-4, 1e-4], 1.0, PARAMS,
                                                  trials=100, rng_seed=[1, 2]))

    def unreached(*args):
        raise AssertionError("drew trials")

    monkeypatch.setattr(qosmodel, "_serving_cells", unreached)
    for spots, seeds, shapes in ((lam_b, [1, 2], "(3,) and (2,)"),
                                 (lam_b[:1], [1], "(3,) and (1,)")):
        with pytest.raises(ValueError) as excinfo:
            mc_delay_oracle(spots, [1e-4, 2e-4, 3e-4], 1.0, PARAMS, trials=20000,
                            rng_seed=seeds)
        assert str(excinfo.value) == ("lambda_u's first axis must run over the spots of "
                                      f"lambda_b, got shapes {shapes}")


@pytest.mark.parametrize("lam_b", [math.nan, math.inf, -math.inf])
def test_mc_oracle_rejects_a_non_finite_station_density(lam_b):
    with pytest.raises(ValueError,
                       match=rf"^lambda_b must be finite and > 0, got {lam_b} at index 0$"):
        mc_delay_oracle([lam_b], [1e-4], 1.0, PARAMS, trials=10, rng_seed=[0])


@pytest.mark.parametrize("trials", [10.5, 10.0, "10"])
def test_mc_oracle_rejects_a_non_integer_trial_count(trials):
    with pytest.raises(ValueError, match=rf"^trials must be an integer >= 1, got {trials!r}$"):
        mc_delay_oracle([50.0 * PER_KM2], [1e-4], 1.0, PARAMS, trials=trials, rng_seed=[0])


def test_delay_given_utilization_arrays_match_scalar_calls():
    rng = np.random.default_rng(7)
    lam_b = 10.0 ** rng.uniform(-1.0, 4.0, 50) * PER_KM2
    lam_u = 10.0 ** rng.uniform(0.0, 5.0, 50) * PER_KM2
    for u in (1.0, 0.3, np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, 48)))):
        per_pair = np.broadcast_to(u, lam_b.shape)
        batch = delay_given_utilization(lam_b, lam_u, u, PARAMS)
        loop = [delay_given_utilization(float(b), float(v), float(w), PARAMS)
                for b, v, w in zip(lam_b, lam_u, per_pair)]
        assert np.array_equal(batch, loop)
        assert np.array_equal(delay_given_utilization(lam_b[7:20], lam_u[7:20], per_pair[7:20],
                                                      PARAMS), batch[7:20])
        # one density pair against every utilization at once
        column = delay_given_utilization(lam_b[3], lam_u[3], per_pair, PARAMS)
        assert np.array_equal(column, [delay_given_utilization(lam_b[3], lam_u[3], float(w),
                                                               PARAMS) for w in per_pair])
    with pytest.raises(ValueError):
        delay_given_utilization(np.array([1e-5, 0.0]), np.ones(2), 1.0, PARAMS)
    with pytest.raises(ValueError):
        delay_given_utilization(lam_b[:2], lam_u[:2], np.array([0.5, 1.0 + 1e-6]), PARAMS)


def test_delay_blocks_match_scalar_calls():
    # Long arrays are evaluated in blocks of densities; every element,
    # on either side of a block boundary, equals its scalar call.
    rows = qosmodel._BLOCK_ELEMENTS // _NODES[0]
    n = 2 * rows + 100
    rng = np.random.default_rng(11)
    lam_b = 10.0 ** rng.uniform(-1.0, 4.0, n) * PER_KM2
    u = rng.uniform(0.0, 1.0, n)
    picks = [0, rows - 1, rows, 2 * rows - 1, 2 * rows, n - 1]
    for batch, scalar in (
            (delay_given_utilization(lam_b, 1e-3, u, PARAMS),
             lambda k: delay_given_utilization(lam_b[k], 1e-3, u[k], PARAMS)),
            (delay_given_utilization(lam_b, 1e-3, 1.0, PARAMS),
             lambda k: delay_given_utilization(lam_b[k], 1e-3, 1.0, PARAMS)),
            (delay_given_utilization(lam_b[0], 1e-3, u, PARAMS),
             lambda k: delay_given_utilization(lam_b[0], 1e-3, u[k], PARAMS))):
        assert [batch[k] for k in picks] == [scalar(k) for k in picks]
    lam_b[2 * rows + 5] = 1e-300
    with pytest.raises(qosmodel.NonFinite) as excinfo:
        delay_given_utilization(lam_b, 1e-3, u, PARAMS)
    assert excinfo.value.index == 2 * rows + 5


def test_delay_decreasing_in_bs_density():
    lam_u = 1000.0 * PER_KM2
    grid = np.logspace(np.log10(0.1), np.log10(1000.0), 10) * PER_KM2
    delays = [delay_given_utilization(lam, lam_u, 1.0, PARAMS) for lam in grid]
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip(delays, delays[1:]))


def test_delay_matches_literal_kernel_route():
    # the cached scale-invariant kernel must agree with assembling the delay
    # integral from literal shared_load_kernel calls on a fresh radial rule
    lam_b = 25.0 * PER_KM2
    lam_u = 800.0 * PER_KM2
    u = 0.6
    fast = delay_given_utilization(lam_b, lam_u, u, PARAMS)
    r_max = np.sqrt(np.log(1.0 / _TAIL_MASS) / (lam_b * np.pi))
    nodes, weights = np.polynomial.legendre.leggauss(_NODES[0])
    r = 0.5 * r_max * (nodes + 1.0)
    w = 0.5 * r_max * weights
    total = 0.0
    for ri, wi in zip(r, w):
        g = shared_load_kernel(lam_b, ri)
        rate = capacity(ri, PARAMS, mean_interference(ri, PARAMS, lam_b, u))
        total += wi * g * np.exp(-lam_b * np.pi * ri ** 2) * lam_b * 2.0 * np.pi * ri / rate
    assert fast == pytest.approx(lam_u * total, rel=1e-10)


# Radios across the model's range: path loss just above 2, urban and
# steep; no noise, thermal noise and noise strong enough to dominate at the
# low densities; unit and threefold reuse.
RADIOS = [RadioParams(path_loss_exponent=alpha, noise_psd_w_per_hz=noise, reuse_factor=reuse)
          for alpha in (2.2, 3.5, 6.0) for noise in (0.0, PARAMS.noise_psd_w_per_hz, 1e-16)
          for reuse in (1, 3)]
RADIO_IDS = [f"alpha={p.path_loss_exponent}-noise={p.noise_psd_w_per_hz}-reuse={p.reuse_factor}"
             for p in RADIOS]


@pytest.mark.parametrize("params", RADIOS, ids=RADIO_IDS)
def test_delay_matches_r_form_reference(params):
    # The unit vectors scale signal and interference by lambda_b^(alpha/2)
    # instead of rescaling every node's distance; both routes agree.
    lam_b = np.geomspace(1e-9, 1e-1, 161)
    for u in (0.01, 0.37, 1.0):
        fast = delay_given_utilization(lam_b, 1e-3, u, params)
        np.testing.assert_allclose(fast, delay_r_form(lam_b, 1e-3, u, params),
                                   rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("params", RADIOS, ids=RADIO_IDS)
def test_delay_monotone_bit_for_bit(params):
    # The seeded inversion decides candidates from neighbouring probes, so
    # its bit-equality with plain bisection needs the computed u = 1 delay
    # never to rise with the station density, not even by one ulp; the
    # fixed point needs it never to fall as the utilization rises.
    lam_b = np.geomspace(1e-9, 1e-1, 20001)
    for u in (0.01, 0.37, 1.0):
        assert np.all(np.diff(delay_given_utilization(lam_b, 1e-3, u, params)) <= 0.0)
    u = np.linspace(0.0, 1.0, 5001)
    for b in (1e-9, 1e-5, 1e-1):
        assert np.all(np.diff(delay_given_utilization(b, 1e-3, u, params)) >= 0.0)


NOISELESS = dataclasses.replace(PARAMS, noise_psd_w_per_hz=0.0)


@pytest.mark.parametrize("params, lambda_b, outcomes", [
    # outcomes at u = 0, 0.5, 1: "raises" NonFinite, 0.0, or "finite" and > 0
    (PARAMS, 1e-300, ("raises", "raises", "raises")),
    (PARAMS, 1e-200, ("raises", "raises", "raises")),
    (PARAMS, 1e200, (0.0, "finite", "finite")),
    (PARAMS, 1e300, (0.0, "finite", "finite")),
    (NOISELESS, 1e-300, (0.0, "finite", "finite")),
    (NOISELESS, 1e-200, (0.0, "finite", "finite")),
    (NOISELESS, 1e200, (0.0, "finite", "finite")),
    (NOISELESS, 1e300, (0.0, "finite", "finite")),
])
def test_extreme_densities_return_or_raise_without_warnings(params, lambda_b, outcomes):
    # RuntimeWarning is an error under pytest, so a leaked overflow or
    # divide-by-zero fails here; the docstring states this table.
    for u, outcome in zip((0.0, 0.5, 1.0), outcomes):
        if outcome == "raises":
            with pytest.raises(qosmodel.NonFinite):
                delay_given_utilization(lambda_b, 1e-3, u, params)
            continue
        tau = delay_given_utilization(lambda_b, 1e-3, u, params)
        assert tau == 0.0 if outcome == 0.0 else 0.0 < tau < math.inf


def test_evaluate_qos_zero_traffic():
    result = evaluate_qos(10.0 * PER_KM2, 0.0, PARAMS)
    assert result.delay_s_per_bit == 0.0
    assert result.utilization == 0.0
    assert result.converged
    assert result.fixed_point_iterations <= 2


def test_evaluate_qos_fixed_point_identity():
    for lam_b_km2, lam_u_km2 in ((10.0, 100.0), (50.0, 1000.0), (5.0, 5000.0)):
        result = evaluate_qos(lam_b_km2 * PER_KM2, lam_u_km2 * PER_KM2, PARAMS)
        assert result.converged
        clamped = min(max(result.delay_s_per_bit / PARAMS.target_delay_s_per_bit, 0.0), 1.0)
        assert result.utilization == pytest.approx(clamped, abs=1e-6)


def test_evaluate_qos_overloaded_cell_saturates():
    # far too few stations: utilization pins at 1, delay exceeds the target
    result = evaluate_qos(1.0 * PER_KM2, 5000.0 * PER_KM2, PARAMS)
    assert result.converged
    assert result.utilization == 1.0
    assert result.delay_s_per_bit > PARAMS.target_delay_s_per_bit


def test_fixed_point_map_crosses_the_identity_once():
    # g(u) = clamp(tau(u) / target, 0, 1) is nondecreasing, so g(u) - u
    # changes sign exactly once on [0, 1]: the fixed point is unique and the
    # start u = 1 finds the same point as any other start would.
    u = np.linspace(0.0, 1.0, 1001)
    target = PARAMS.target_delay_s_per_bit
    for lam_b_km2, lam_u_km2 in ((20.0, 500.0), (40.0, 2000.0)):
        lam_b, lam_u = lam_b_km2 * PER_KM2, lam_u_km2 * PER_KM2
        g = np.clip(delay_given_utilization(lam_b, lam_u, u, PARAMS) / target, 0.0, 1.0)
        above = g - u > 0.0
        assert above[0] and not above[-1]
        crossings = np.flatnonzero(above[1:] != above[:-1])
        assert crossings.size == 1
        k = int(crossings[0])
        fixed = evaluate_qos(lam_b, lam_u, PARAMS).utilization
        assert u[k] - 1e-6 <= fixed <= u[k + 1] + 1e-6


def test_evaluate_qos_arrays_match_scalar_calls():
    # zero load, a saturated cell (u pinned at 1) and ordinary cells
    lam_b = np.array([[10.0, 1.0, 20.0], [50.0, 5.0, 40.0]]) * PER_KM2
    lam_u = np.array([[0.0, 5000.0, 500.0], [1000.0, 5000.0, 2000.0]]) * PER_KM2
    batch = evaluate_qos(lam_b, lam_u, PARAMS)
    assert batch.utilization[0, 1] == 1.0
    assert batch.delay_s_per_bit[0, 0] == 0.0
    for field in ("delay_s_per_bit", "utilization", "fixed_point_iterations", "converged"):
        assert getattr(batch, field).shape == (2, 3)
    for j in range(2):
        for z in range(3):
            alone = evaluate_qos(float(lam_b[j, z]), float(lam_u[j, z]), PARAMS)
            assert type(alone.delay_s_per_bit) is float
            assert type(alone.fixed_point_iterations) is int
            assert batch.delay_s_per_bit[j, z] == alone.delay_s_per_bit
            assert batch.utilization[j, z] == alone.utilization
            assert batch.fixed_point_iterations[j, z] == alone.fixed_point_iterations
            assert batch.converged[j, z] == alone.converged
    # a scalar broadcasts against an array, as in the grid scan
    row = evaluate_qos(lam_b[1], 1000.0 * PER_KM2, PARAMS)
    assert row.delay_s_per_bit[0] == batch.delay_s_per_bit[1, 0]


@settings(max_examples=150, deadline=None)
@given(log_b=st.floats(math.log10(_GRID_LO_PER_KM2), math.log10(_GRID_HI_PER_KM2)),
       log_u=st.floats(math.log10(min(GRID_SPOT_USER_DENSITIES_PER_KM2)),
                       math.log10(max(GRID_SPOT_USER_DENSITIES_PER_KM2))),
       noise_scale=st.sampled_from((1.0, 1e6)),
       at_boundary=st.booleans())
def test_secant_fixed_point_matches_picard(log_b, log_u, noise_scale, at_boundary):
    # Station densities on validate's grid-scan range, or just above the
    # dimensioned density, where u* sits near 1 and plain iteration is slowest.
    params = dataclasses.replace(PARAMS, noise_psd_w_per_hz=PARAMS.noise_psd_w_per_hz * noise_scale)
    lam_u = 10.0 ** log_u * PER_KM2
    lam_b = 10.0 ** log_b * PER_KM2
    if at_boundary:
        lam_b = demand_matrix([[lam_u]], params)[0][0, 0] * (1.0 + 0.01 * (log_b % 1.0))
    fast = evaluate_qos(lam_b, lam_u, params)
    slow = picard_reference.evaluate_qos(lam_b, lam_u, params)
    assert fast.converged == slow.converged
    target = params.target_delay_s_per_bit
    assert (fast.delay_s_per_bit <= target) == (slow.delay_s_per_bit <= target)
    assert abs(fast.utilization - slow.utilization) <= 1e-5
    # the reported utilization is g at the reported delay's utilization
    assert fast.utilization == min(max(fast.delay_s_per_bit / target, 0.0), 1.0)


def test_secant_steps_are_clipped_into_zero_and_the_image(monkeypatch):
    # A convex stand-in map g(u) = 0.1 + 0.5 u^2 makes the secant through
    # (1, g(1)) and (g(1), g(g(1))) overshoot below 0, and the next one
    # overshoot above g(0) = 0.1; the clip holds both into [0, g(u)].
    seen = []

    def convex_delay(lambda_b, lambda_u, utilization, params):
        seen.append(float(utilization[0]))
        return params.target_delay_s_per_bit * (0.1 + 0.5 * utilization ** 2)

    monkeypatch.setattr(qosmodel, "delay_given_utilization", convex_delay)
    result = evaluate_qos(1.0, 1.0, PARAMS)
    assert result.converged
    assert result.utilization == pytest.approx(1.0 - math.sqrt(0.8), abs=1e-6)
    assert seen[:4] == [1.0, 0.6, 0.0, 0.1]
    for u, after in zip(seen, seen[1:]):
        assert 0.0 <= after <= 0.1 + 0.5 * u ** 2


def test_mc_oracle_zero_traffic_and_determinism():
    lam_b = [10.0 * PER_KM2]
    assert mc_delay_oracle(lam_b, [0.0], 1.0, PARAMS, trials=1000, rng_seed=[1]).tolist() == [0.0]
    [first] = mc_delay_oracle(lam_b, [100.0 * PER_KM2], 1.0, PARAMS, trials=1000, rng_seed=[42])
    [second] = mc_delay_oracle(lam_b, [100.0 * PER_KM2], 1.0, PARAMS, trials=1000, rng_seed=[42])
    assert first == second
    assert first > 0.0


def test_mc_oracle_scores_zero_traffic_as_zero_where_the_score_sum_overflows():
    # At a 1e-300 Hz bandwidth the first spot's score sum overflows to inf
    # on validate's default seeds; zero traffic once scored 0 * inf = NaN
    # there.
    params = dataclasses.replace(PARAMS, bandwidth_hz=1e-300)
    lam_b = np.array(MC_SPOT_DENSITIES_PER_KM2)[:, 0] * PER_KM2
    users = np.array([[100.0 * PER_KM2, 0.0]] * lam_b.size)
    with np.errstate(all="raise"):
        batch = mc_delay_oracle(lam_b, users, 1.0, params, trials=1000,
                                rng_seed=[1234, 1235, 1236])
        one = mc_delay_oracle(lam_b[:1], [0.0], 1.0, params, trials=1000, rng_seed=[1234])
    assert batch[0, 0] == math.inf and np.all(np.isfinite(batch[1:, 0]))
    assert batch[:, 1].tolist() == [0.0] * lam_b.size
    assert one.tolist() == [0.0]


@pytest.mark.parametrize("error, base", [
    (qosmodel.NonFinite, ArithmeticError), (qosmodel.BadElement, ValueError),
    (qosmodel.FixedPointDiverged, RuntimeError), (InfeasibleDemand, RuntimeError)])
def test_element_errors_carry_an_index_beside_their_base(error, base):
    # The CLI's exit code follows the base: 2 for a ValueError, 1 otherwise.
    exc = error("at element 3", 3)
    assert isinstance(exc, base) and str(exc) == "at element 3" and exc.index == 3
    assert error("nowhere").index is None


def test_mc_oracle_scores_user_densities_on_one_set_of_draws():
    # Linear in lambda_u: one call scores an array of user densities, each
    # element bit-equal to its one-element call on the same seed.
    lam_b = [30.0 * PER_KM2]
    users = np.array([[1000.0 * PER_KM2, 0.0, 37.5 * PER_KM2]])
    batch = mc_delay_oracle(lam_b, users, 0.7, PARAMS, trials=1000, rng_seed=[9])
    assert batch.shape == users.shape
    for lam_u, value in zip(users[0], batch[0]):
        [one] = mc_delay_oracle(lam_b, [lam_u], 0.7, PARAMS, trials=1000, rng_seed=[9])
        assert one == value
    assert batch[0, 1] == 0.0


def _lattice(a, b, spacing, reach=4):
    """Lattice points i a + j b (|i|, |j| <= reach) but the origin, scaled."""
    i, j = np.meshgrid(np.arange(-reach, reach + 1), np.arange(-reach, reach + 1))
    keep = (i != 0) | (j != 0)
    return (spacing * (i[keep] * a[0] + j[keep] * b[0]),
            spacing * (i[keep] * a[1] + j[keep] * b[1]))


BOX = (-50.0, 50.0, -50.0, 50.0)


def _nearest_first(stations, box):
    """``_cell_areas``'s callbacks for one spot of given stations: trial t's
    offsets stations[t] = (dx, dy), nearest first (ties in their given
    order), then points at infinity, each trial in the rectangle box."""
    width = max(x.size for x, _ in stations) + 1
    dx = np.full((len(stations), width), np.inf)
    dy = np.full((len(stations), width), np.inf)
    for t, (x, y) in enumerate(stations):
        dx[t, :x.size] = x
        dy[t, :y.size] = y
    d2 = dx * dx + dy * dy
    order = np.argsort(d2, axis=1, kind="stable")
    dx, dy, d2 = (np.take_along_axis(a, order, axis=1) for a in (dx, dy, d2))
    step = -1

    def start(k):
        return box, np.empty((0, len(stations)))

    def distances(index, state):
        nonlocal step
        step += 1
        return d2[index, step]

    def offsets(index, state, d2_live):
        return dx[index, step], dy[index, step], d2_live

    return start, distances, offsets


def _cell_area(dx, dy, box):
    """One cell through the batched clipper, as a batch of one trial."""
    stations = (np.asarray(dx, dtype=float), np.asarray(dy, dtype=float))
    [[area]] = _cell_areas(1, 1, *_nearest_first([stations], box))
    return area


def test_cell_area_exact_on_square_and_hexagonal_lattices():
    dx, dy = _lattice((1.0, 0.0), (0.0, 1.0), 3.0)
    assert _cell_area(dx, dy, BOX) == pytest.approx(9.0, abs=1e-12)
    dx, dy = _lattice((1.0, 0.0), (0.5, np.sqrt(3.0) / 2.0), 2.0)
    assert _cell_area(dx, dy, BOX) == pytest.approx(np.sqrt(3.0) / 2.0 * 4.0, abs=1e-12)


def test_cell_area_unchanged_by_far_stations():
    dx, dy = _lattice((1.0, 0.0), (0.0, 1.0), 3.0)
    base = _cell_area(dx, dy, BOX)
    # The cell is the square of half-side 1.5, whose corners lie 1.5 sqrt(2)
    # from the station: no station beyond twice that can cut it.
    rng = np.random.default_rng(3)
    phi = rng.uniform(0.0, 2.0 * np.pi, 50)
    far = rng.uniform(3.0 * np.sqrt(2.0) + 1e-9, 40.0, 50)
    grown = _cell_area(np.concatenate((dx, far * np.cos(phi))),
                       np.concatenate((dy, far * np.sin(phi))), BOX)
    assert grown == pytest.approx(base, abs=1e-12)


def test_cell_area_keeps_a_cut_just_inside_the_stop_distance():
    # Square cell of half-side 1 (farthest vertex sqrt(2)); the station at
    # (1.6, 1.6), 2.26 away, is inside twice that and cuts a corner of
    # legs 0.4.
    dx = np.array([2.0, -2.0, 0.0, 0.0, 1.6])
    dy = np.array([0.0, 0.0, 2.0, -2.0, 1.6])
    assert _cell_area(dx, dy, BOX) == pytest.approx(4.0 - 0.08, abs=1e-12)


def test_cell_area_matches_brute_force_nearest_station_count():
    rng = np.random.default_rng(3)
    dx, dy = rng.uniform(-10.0, 10.0, (2, 40))
    g = np.linspace(-20.0, 20.0, 801)
    gx, gy = np.meshgrid(g, g)
    nearest = np.full(gx.shape, np.inf)
    for x, y in zip(dx, dy):
        np.minimum(nearest, (gx - x) ** 2 + (gy - y) ** 2, out=nearest)
    own = gx * gx + gy * gy < nearest
    assert not (own[0].any() or own[-1].any() or own[:, 0].any() or own[:, -1].any())
    counted = np.count_nonzero(own) * (g[1] - g[0]) ** 2
    assert _cell_area(dx, dy, BOX) == pytest.approx(counted, rel=0.02)


def test_serving_cell_mean_area_matches_gilbert():
    # Gilbert (1962): the cell covering a fixed point has mean area
    # 1.2801 / lambda_b, against 1 / lambda_b for a typical cell.
    lam_b = 10.0 * PER_KM2
    [r], [areas] = _serving_cells([lam_b], 4000, [np.random.default_rng(11)])
    assert areas.mean() * lam_b == pytest.approx(1.2801, rel=0.03)
    assert np.all(areas > 0.0)
    # The stratified serving distance keeps its law P(r > t) = exp(-lambda pi t^2).
    assert np.mean(np.pi * lam_b * r * r) == pytest.approx(1.0, rel=0.01)


def test_cell_area_without_other_stations_is_the_box():
    # A trial with no other station keeps the whole rectangle.
    empty = np.empty(0)
    assert _cell_area(empty, empty, (-3.0, 5.0, -4.0, 4.0)) == pytest.approx(64.0, abs=1e-12)


# validate's Monte Carlo station densities: the zero-traffic spot runs at
# 10/km^2 as well.
SPOT_BS_PER_KM2 = sorted({10.0} | {bs for bs, _ in MC_SPOT_DENSITIES_PER_KM2})


@pytest.mark.parametrize("trials", [1000, 2500])
@pytest.mark.parametrize("bs_km2", SPOT_BS_PER_KM2)
def test_serving_cells_bit_equal_to_scalar_reference(bs_km2, trials):
    for seed in (1234, 1235, 1236):
        [r], [areas] = _serving_cells([bs_km2 * PER_KM2], trials,
                                      [np.random.default_rng(seed)])
        r_ref, areas_ref = mc_reference.serving_cells(bs_km2 * PER_KM2, trials,
                                                      np.random.default_rng(seed))
        assert np.array_equal(r, r_ref)
        assert np.array_equal(areas, areas_ref)


@pytest.mark.parametrize("trials, mid_loop", [(700, True), (1000, True), (5000, False)])
def test_mc_oracle_spots_bit_equal_to_their_one_spot_calls(monkeypatch, trials, mid_loop):
    # validate's spots, each scoring its load and zero traffic, share one
    # clipping loop. At 700 and 1000 trials the first two spots start it and
    # the third joins while their trials are still live; at 5000 a spot
    # joins only once none is live. The loop never clips more trials than
    # the bound, or than one spot where a spot alone is wider.
    spots = np.array(MC_SPOT_DENSITIES_PER_KM2) * PER_KM2
    users = np.stack((spots[:, 1], np.zeros(len(spots))), 1)
    sizes, widths, cells = [], [], []
    clip = qosmodel._clip

    def counting(lambda_b, trials, rngs):
        sizes.append(len(rngs))
        cells.append(_serving_cells(lambda_b, trials, rngs))
        return cells[-1]

    def clipping(cx, cy, m, qx, qy, q2):
        widths.append(m.size)
        return clip(cx, cy, m, qx, qy, q2)

    monkeypatch.setattr(qosmodel, "_serving_cells", counting)
    monkeypatch.setattr(qosmodel, "_clip", clipping)
    for seed in (1, 2, 3, 1234):
        sizes.clear()
        widths.clear()
        cells.clear()
        seeds = [seed + k for k in range(len(spots))]
        batch = mc_delay_oracle(spots[:, 0], users, 1.0, PARAMS, trials=trials, rng_seed=seeds)
        assert sizes == [len(spots)]
        [(r, areas)] = cells
        assert r.shape == areas.shape == (len(spots), trials)
        assert max(widths) <= max(qosmodel._MC_PASS_TRIALS, trials)
        # the loop's width at each step where a spot joined after the first
        joins = [now for before, now in zip(widths, widths[1:]) if now > before]
        if mid_loop:
            assert widths[0] == 2 * trials
            assert len(joins) == 1 and trials < joins[0] <= qosmodel._MC_PASS_TRIALS
        else:
            assert widths[0] == trials
            assert joins == [trials] * (len(spots) - 1)
        assert batch.shape == users.shape
        for k, ((lam_b, _), lam_u, k_seed, value) in enumerate(zip(spots, users, seeds, batch)):
            [one] = mc_delay_oracle([lam_b], [lam_u], 1.0, PARAMS, trials=trials,
                                   rng_seed=[k_seed])
            assert np.array_equal(one, value)
            assert one[0] > 0.0 and one[1] == 0.0
            [one_r], [one_areas] = _serving_cells([lam_b], trials,
                                                  [np.random.default_rng(k_seed)])
            assert np.array_equal(r[k], one_r)
            assert np.array_equal(areas[k], one_areas)


def _columns(cx, cy, m):
    """Each polygon of a ``_clip`` layout as (vertex count, xs, ys), without
    its zero padding."""
    return [(k, tuple(x[:k + 1]), tuple(y[:k + 1]))
            for k, x, y in zip(m.tolist(), cx.T.tolist(), cy.T.tolist())]


def test_mc_oracle_measures_each_cell_in_the_step_it_retires(monkeypatch):
    # At validate's spots, between two _clip calls at most one _shoelace
    # call measures the cells that step retires: the previous _clip's
    # polygons split, in order, into that call's columns and the next
    # _clip's leading ones, and a spot that joins adds its fresh rectangles
    # after them. The last call measures every cell still live.
    spots = np.array(MC_SPOT_DENSITIES_PER_KM2) * PER_KM2
    users = np.stack((spots[:, 1], np.zeros(len(spots))), 1)
    trials = 1000
    clip, shoelace = qosmodel._clip, qosmodel._shoelace
    clipped, retired, measured = [], [], []

    def check_step(after):
        before = _columns(*clipped.pop())
        gone = _columns(*retired.pop()) if retired else []
        kept, at = [], 0
        for column in before:
            if at < len(gone) and column == gone[at]:
                at += 1
            else:
                kept.append(column)
        assert at == len(gone)  # each measured cell was live before this step
        assert after[:len(kept)] == kept
        joined = after[len(kept):]
        assert len(joined) in (0, trials) and all(k == 4 for k, _, _ in joined)

    def clipping(cx, cy, m, qx, qy, q2):
        if clipped:
            check_step(_columns(cx, cy, m))
        clipped.append(clip(cx, cy, m, qx, qy, q2))
        return clipped[-1]

    def measuring(cx, cy, m):
        assert not retired  # at most one call since the last _clip
        retired.append((cx, cy, m))
        measured.append(m.size)
        return shoelace(cx, cy, m)

    monkeypatch.setattr(qosmodel, "_clip", clipping)
    monkeypatch.setattr(qosmodel, "_shoelace", measuring)
    mc_delay_oracle(spots[:, 0], users, 1.0, PARAMS, trials=trials, rng_seed=[1, 2, 3])
    check_step([])
    assert sum(measured) == len(spots) * trials


def test_cell_areas_rows_equal_their_single_row_calls():
    # A lattice row, a row with no other station (the whole box) and the
    # corner-cut row, each with its box.
    lattice = _lattice((1.0, 0.0), (0.5, np.sqrt(3.0) / 2.0), 2.0)
    corner = (np.array([2.0, -2.0, 0.0, 0.0, 1.6]), np.array([0.0, 0.0, 2.0, -2.0, 1.6]))
    empty = (np.empty(0), np.empty(0))
    stations = [lattice, empty, corner]
    boxes = [BOX, (-3.0, 5.0, -4.0, 4.0), BOX]
    [areas] = _cell_areas(1, 3, *_nearest_first(stations,
                                                tuple(np.array(b) for b in zip(*boxes))))
    for t, ((x, y), box) in enumerate(zip(stations, boxes)):
        assert areas[t] == _cell_area(x, y, box)
    # The lattice's equidistant stations may be clipped in another order by
    # the reference's unstable sort; the other rows have no ties.
    assert areas[0] == pytest.approx(np.sqrt(3.0) / 2.0 * 4.0, abs=1e-12)
    for t in (1, 2):
        assert areas[t] == mc_reference.cell_area(mc_reference.given_points(*stations[t]),
                                                  boxes[t])
    assert areas[1] == 64.0
    assert areas[2] == pytest.approx(4.0 - 0.08, abs=1e-12)


def test_point_in_the_users_empty_disc_leaves_its_polygon_bit_identical():
    # _serving_cells passes a point inside the tagged user's empty disc to
    # _clip as a station at infinity (q2 = inf). Trial 0 is cut to the
    # corner-cut cell while trial 1, the box, gets such points; then trial
    # 0 gets them at several offsets while trial 1 is cut beside it as in
    # its one-trial clip.
    cx = np.repeat([[-50.0], [-50.0], [50.0], [50.0], [-50.0]], 2, axis=1)
    cy = np.repeat([[50.0], [-50.0], [-50.0], [50.0], [50.0]], 2, axis=1)
    m = np.full(2, 4)
    for qx, qy in ((2.0, 0.0), (-2.0, 0.0), (0.0, 2.0), (0.0, -2.0), (1.6, 1.6)):
        cx, cy, m = qosmodel._clip(cx, cy, m, np.array([qx, 0.0]), np.array([qy, 0.0]),
                                   np.array([qx * qx + qy * qy, np.inf]))
    assert list(m) == [5, 4]
    assert np.array_equal(cx[:5, 1], [-50.0, -50.0, 50.0, 50.0, -50.0])
    assert np.array_equal(cy[:5, 1], [50.0, -50.0, -50.0, 50.0, 50.0])
    one_x, one_y, one_m = qosmodel._clip(cx[:, 1:], cy[:, 1:], m[1:], np.array([3.0]),
                                         np.array([4.0]), np.array([25.0]))
    with np.errstate(all="raise"):
        for qx, qy in ((0.3, -0.2), (1e-300, 0.0), (0.0, 0.0), (-5.0, 7.0), (2.0, 1e3)):
            nx, ny, nm = qosmodel._clip(cx, cy, m, np.array([qx, 3.0]), np.array([qy, 4.0]),
                                        np.array([np.inf, 25.0]))
            assert nm[0] == m[0]
            assert np.array_equal(nx[:m[0] + 1, 0], cx[:m[0] + 1, 0])
            assert np.array_equal(ny[:m[0] + 1, 0], cy[:m[0] + 1, 0])
            assert nm[1] == one_m[0]
            assert np.array_equal(nx[:nm[1] + 1, 1], one_x[:, 0])
            assert np.array_equal(ny[:nm[1] + 1, 1], one_y[:, 0])


# The quadrature's error budget: the delay within 1e-5 relative of a
# high-order reference, ten times under the inversion's tolerance, over
# station densities from 0.01 to 1e4 per km^2 at u = 0, 0.5 and 1.
QUADRATURE_BUDGET = BISECTION_REL_TOL / 10.0
BUDGET_DENSITIES = np.geomspace(1e-2, 1e4, 61) * PER_KM2
BUDGET_UTILIZATIONS = (0.0, 0.5, 1.0)


def _reference_delays(nodes, half_turn):
    """Delay per unit user density at every budget density and
    utilization, one row per utilization, assembled from literal
    ``shared_load_kernel`` calls at unit station density on the radial
    rule of ``nodes``, the theta rule on the half or the full turn."""
    r_max = np.sqrt(np.log(1.0 / _TAIL_MASS) / np.pi)
    r_nodes, weights = np.polynomial.legendre.leggauss(nodes[0])
    r1 = 0.5 * r_max * (r_nodes + 1.0)
    g = np.array([shared_load_kernel(1.0, ri, nodes, half_turn) for ri in r1])
    kernel = 0.5 * r_max * weights * g * np.exp(-np.pi * r1 * r1) * 2.0 * np.pi * r1
    r = r1 / np.sqrt(BUDGET_DENSITIES)[:, None]
    busy = mean_interference(r, PARAMS, BUDGET_DENSITIES[:, None], 1.0)
    return np.array([np.sum(kernel / capacity(r, PARAMS, busy * u), axis=1) / BUDGET_DENSITIES
                     for u in BUDGET_UTILIZATIONS])


@pytest.fixture(scope="module")
def reference_delays():
    """256 / 256 / 128 nodes on the half turn, checked against 256 / 256 /
    256 on the full turn, which does not rest on the theta symmetry: they
    agree to 2.6e-8."""
    half = _reference_delays((256, 256, 128), True)
    full = _reference_delays((256, 256, 256), False)
    assert np.max(np.abs(full / half - 1.0)) < 1e-7
    return half


def _budget_error(delay, reference):
    """Largest relative error of ``delay(lambda_b, lambda_u, u, params)``
    against ``reference`` over the budget's densities and utilizations."""
    delays = np.array([delay(BUDGET_DENSITIES, 1.0, u, PARAMS) for u in BUDGET_UTILIZATIONS])
    return float(np.max(np.abs(delays / reference - 1.0)))


def _on_rule(nodes):
    """The delay on the rule of ``nodes``, through ``delay_r_form``, which
    ``test_delay_matches_r_form_reference`` pins to the program's delay."""
    return functools.partial(delay_r_form, nodes=nodes)


def test_default_quadrature_meets_the_error_budget(reference_delays):
    # 1.7e-6 measured: nearly all of it is the 64-node radial rules'
    error = _budget_error(delay_given_utilization, reference_delays)
    assert error <= QUADRATURE_BUDGET
    assert _NODES == (64, 64, 16)


def test_nodes_theta_error_across_the_accepted_range(reference_delays):
    # Every count from 10 up meets the budget at the default radial rules,
    # 32 with an error of 2.1e-6; 8 and 9 miss it (2.6e-5 and 1.05e-5).
    # On the full turn, as the rule once was, 32 missed it by 3.7e-4.
    counts = [*range(8, 33), 48, 64, 96, 128, 192, 256]
    errors = {n: _budget_error(_on_rule((*_NODES[:2], n)), reference_delays) for n in counts}
    assert [n for n in counts if errors[n] > QUADRATURE_BUDGET] == [8, 9], errors
    assert errors[32] < 3e-6


def test_delay_convergence_in_nodes_r_and_nodes_x(reference_delays):
    # How the delay converges in each radial count, the other counts at
    # their defaults. nodes_r meets the budget at 25-29, 37, 42, 45, 48 and
    # every count from 50 up (8: 4.3e-3; 37: 9.9e-6; 47 and 49: 1.01e-5 and
    # 1.02e-5), nodes_x at 17-20 and every count from 22 up (8: 9.5e-3;
    # 21: 1.1e-5; 23: 9.5e-6): convergence is not monotone near the budget.
    rules = {"nodes_r": lambda n: (n, *_NODES[1:]),
             "nodes_x": lambda n: (_NODES[0], n, _NODES[2])}
    misses = {name: [n for n in range(8, 257)
                     if _budget_error(_on_rule(rule(n)), reference_delays) > QUADRATURE_BUDGET]
              for name, rule in rules.items()}
    assert misses == {"nodes_r": [*range(8, 25), *range(30, 37), 38, 39, 40, 41, 43, 44, 46, 47,
                                  49],
                      "nodes_x": [*range(8, 17), 21]}


def test_public_api_takes_no_quadrature_rule():
    # The rule is fixed: no public name holds one, and the delay, the fixed
    # point and the inversion take no rule after their radio.
    assert all(hasattr(mbsplan, name) for name in mbsplan.__all__)
    assert "QuadratureSpec" not in mbsplan.__all__
    rule = (64, 64, 16)
    for call in (lambda: evaluate_qos(1e-5, 1e-3, PARAMS, rule),
                 lambda: delay_given_utilization(1e-5, 1e-3, 1.0, PARAMS, rule),
                 lambda: demand_matrix([[1e-3]], PARAMS, rule)):
        with pytest.raises(TypeError):
            call()
