"""Delay-model tests: geometry, capacity, linearity, fixed point, kernels."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mc_reference
import picard_reference
from kernel_reference import doubled, pair_distance, shared_load_kernel
from mbsplan import qosmodel
from mbsplan.dimensioning import min_bs_density
from mbsplan.pipeline import (_GRID_HI_PER_KM2, _GRID_LO_PER_KM2,
                              GRID_SPOT_USER_DENSITIES_PER_KM2, MC_SPOT_DENSITIES_PER_KM2)
from mbsplan.qosmodel import (QuadratureSpec, _cell_areas, _serving_cells, capacity,
                              delay_given_utilization, evaluate_qos, mc_delay_oracle,
                              mean_interference, overlap_area)
from mbsplan.scenario import RadioParams

PARAMS = RadioParams()
QUAD = QuadratureSpec()
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
    g = shared_load_kernel(1.0, 0.1, QUAD)
    assert 0.0 < g < np.pi * (0.1 + np.sqrt(np.log(1e12) / np.pi)) ** 2
    lam_b = 10.0 * PER_KM2
    r = 100.0
    coarse = shared_load_kernel(lam_b, r, QUAD)
    fine = shared_load_kernel(lam_b, r, doubled(QUAD))
    assert abs(fine - coarse) / coarse < REFINEMENT_REL_TOL


def test_shared_load_kernel_against_mc_integration():
    # uniform Monte Carlo estimate of the same double integral, 1e6 samples
    rng = np.random.default_rng(7)
    for lam_b_km2, r in ((10.0, 100.0), (100.0, 30.0)):
        lam_b = lam_b_km2 * PER_KM2
        x_max = np.sqrt(np.log(1.0 / QUAD.tail_mass_epsilon) / (lam_b * np.pi)) + r
        x = rng.uniform(0.0, x_max, size=1_000_000)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=1_000_000)
        values = np.exp(-lam_b * overlap_area(r, x, theta)) * x
        estimate = values.mean() * x_max * 2.0 * np.pi
        exact = shared_load_kernel(lam_b, r, QUAD)
        assert abs(estimate - exact) / exact < 0.01


def test_delay_linear_in_user_density():
    lam_b = 20.0 * PER_KM2
    lam_u = 500.0 * PER_KM2
    base = delay_given_utilization(lam_b, lam_u, 1.0, PARAMS, QUAD)
    assert delay_given_utilization(lam_b, 0.0, 1.0, PARAMS, QUAD) == 0.0
    twice = delay_given_utilization(lam_b, 2.0 * lam_u, 1.0, PARAMS, QUAD)
    assert twice == pytest.approx(2.0 * base, rel=1e-12)


def test_non_finite_delay_names_its_first_element():
    # A subnormal station density (from a 1e-300 peak user density) once
    # raised a message that printed both whole density arrays.
    with np.errstate(divide="ignore"), pytest.raises(qosmodel.NonFinite) as excinfo:
        delay_given_utilization([20.0 * PER_KM2, 9e-309, 8e-309], 1e-4, 1.0, PARAMS, QUAD)
    assert str(excinfo.value) == "delay: non-finite result at lambda_b=9e-309, lambda_u=0.0001"


def test_delay_given_utilization_arrays_match_scalar_calls():
    rng = np.random.default_rng(7)
    lam_b = 10.0 ** rng.uniform(-1.0, 4.0, 50) * PER_KM2
    lam_u = 10.0 ** rng.uniform(0.0, 5.0, 50) * PER_KM2
    for u in (1.0, 0.3, np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, 48)))):
        per_pair = np.broadcast_to(u, lam_b.shape)
        batch = delay_given_utilization(lam_b, lam_u, u, PARAMS, QUAD)
        loop = [delay_given_utilization(float(b), float(v), float(w), PARAMS, QUAD)
                for b, v, w in zip(lam_b, lam_u, per_pair)]
        assert np.array_equal(batch, loop)
        assert np.array_equal(delay_given_utilization(lam_b[7:20], lam_u[7:20], per_pair[7:20],
                                                      PARAMS, QUAD), batch[7:20])
        # one density pair against every utilization at once
        column = delay_given_utilization(lam_b[3], lam_u[3], per_pair, PARAMS, QUAD)
        assert np.array_equal(column, [delay_given_utilization(lam_b[3], lam_u[3], float(w),
                                                               PARAMS, QUAD) for w in per_pair])
    with pytest.raises(ValueError):
        delay_given_utilization(np.array([1e-5, 0.0]), np.ones(2), 1.0, PARAMS, QUAD)
    with pytest.raises(ValueError):
        delay_given_utilization(lam_b[:2], lam_u[:2], np.array([0.5, 1.0 + 1e-6]), PARAMS, QUAD)


def test_delay_decreasing_in_bs_density():
    lam_u = 1000.0 * PER_KM2
    grid = np.logspace(np.log10(0.1), np.log10(1000.0), 10) * PER_KM2
    delays = [delay_given_utilization(lam, lam_u, 1.0, PARAMS, QUAD) for lam in grid]
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip(delays, delays[1:]))


def test_delay_matches_literal_kernel_route():
    # the cached scale-invariant kernel must agree with assembling the delay
    # integral from literal shared_load_kernel calls on a fresh radial rule
    lam_b = 25.0 * PER_KM2
    lam_u = 800.0 * PER_KM2
    u = 0.6
    fast = delay_given_utilization(lam_b, lam_u, u, PARAMS, QUAD)
    r_max = np.sqrt(np.log(1.0 / QUAD.tail_mass_epsilon) / (lam_b * np.pi))
    nodes, weights = np.polynomial.legendre.leggauss(QUAD.nodes_r)
    r = 0.5 * r_max * (nodes + 1.0)
    w = 0.5 * r_max * weights
    total = 0.0
    for ri, wi in zip(r, w):
        g = shared_load_kernel(lam_b, ri, QUAD)
        rate = capacity(ri, PARAMS, mean_interference(ri, PARAMS, lam_b, u))
        total += wi * g * np.exp(-lam_b * np.pi * ri ** 2) * lam_b * 2.0 * np.pi * ri / rate
    assert fast == pytest.approx(lam_u * total, rel=1e-10)


def test_evaluate_qos_zero_traffic():
    result = evaluate_qos(10.0 * PER_KM2, 0.0, PARAMS, QUAD)
    assert result.delay_s_per_bit == 0.0
    assert result.utilization == 0.0
    assert result.converged
    assert result.fixed_point_iterations <= 2


def test_evaluate_qos_fixed_point_identity():
    for lam_b_km2, lam_u_km2 in ((10.0, 100.0), (50.0, 1000.0), (5.0, 5000.0)):
        result = evaluate_qos(lam_b_km2 * PER_KM2, lam_u_km2 * PER_KM2, PARAMS, QUAD)
        assert result.converged
        clamped = min(max(result.delay_s_per_bit / PARAMS.target_delay_s_per_bit, 0.0), 1.0)
        assert result.utilization == pytest.approx(clamped, abs=1e-6)


def test_evaluate_qos_overloaded_cell_saturates():
    # far too few stations: utilization pins at 1, delay exceeds the target
    result = evaluate_qos(1.0 * PER_KM2, 5000.0 * PER_KM2, PARAMS, QUAD)
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
        g = np.clip(delay_given_utilization(lam_b, lam_u, u, PARAMS, QUAD) / target, 0.0, 1.0)
        above = g - u > 0.0
        assert above[0] and not above[-1]
        crossings = np.flatnonzero(above[1:] != above[:-1])
        assert crossings.size == 1
        k = int(crossings[0])
        fixed = evaluate_qos(lam_b, lam_u, PARAMS, QUAD).utilization
        assert u[k] - 1e-6 <= fixed <= u[k + 1] + 1e-6


def test_evaluate_qos_arrays_match_scalar_calls():
    # zero load, a saturated cell (u pinned at 1) and ordinary cells
    lam_b = np.array([[10.0, 1.0, 20.0], [50.0, 5.0, 40.0]]) * PER_KM2
    lam_u = np.array([[0.0, 5000.0, 500.0], [1000.0, 5000.0, 2000.0]]) * PER_KM2
    batch = evaluate_qos(lam_b, lam_u, PARAMS, QUAD)
    assert batch.utilization[0, 1] == 1.0
    assert batch.delay_s_per_bit[0, 0] == 0.0
    for field in ("delay_s_per_bit", "utilization", "fixed_point_iterations", "converged"):
        assert getattr(batch, field).shape == (2, 3)
    for j in range(2):
        for z in range(3):
            alone = evaluate_qos(float(lam_b[j, z]), float(lam_u[j, z]), PARAMS, QUAD)
            assert type(alone.delay_s_per_bit) is float
            assert type(alone.fixed_point_iterations) is int
            assert batch.delay_s_per_bit[j, z] == alone.delay_s_per_bit
            assert batch.utilization[j, z] == alone.utilization
            assert batch.fixed_point_iterations[j, z] == alone.fixed_point_iterations
            assert batch.converged[j, z] == alone.converged
    # a scalar broadcasts against an array, as in the grid scan
    row = evaluate_qos(lam_b[1], 1000.0 * PER_KM2, PARAMS, QUAD)
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
        lam_b = min_bs_density(lam_u, params, QUAD) * (1.0 + 0.01 * (log_b % 1.0))
    fast = evaluate_qos(lam_b, lam_u, params, QUAD)
    slow = picard_reference.evaluate_qos(lam_b, lam_u, params, QUAD)
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

    def convex_delay(lambda_b, lambda_u, utilization, params, quad):
        seen.append(float(utilization[0]))
        return params.target_delay_s_per_bit * (0.1 + 0.5 * utilization ** 2)

    monkeypatch.setattr(qosmodel, "delay_given_utilization", convex_delay)
    result = evaluate_qos(1.0, 1.0, PARAMS, QUAD)
    assert result.converged
    assert result.utilization == pytest.approx(1.0 - math.sqrt(0.8), abs=1e-6)
    assert seen[:4] == [1.0, 0.6, 0.0, 0.1]
    for u, after in zip(seen, seen[1:]):
        assert 0.0 <= after <= 0.1 + 0.5 * u ** 2


def test_mc_oracle_zero_traffic_and_determinism():
    lam_b = 10.0 * PER_KM2
    assert mc_delay_oracle(lam_b, 0.0, 1.0, PARAMS, trials=1000, rng_seed=1) == 0.0
    first = mc_delay_oracle(lam_b, 100.0 * PER_KM2, 1.0, PARAMS, trials=1000, rng_seed=42)
    second = mc_delay_oracle(lam_b, 100.0 * PER_KM2, 1.0, PARAMS, trials=1000, rng_seed=42)
    assert first == second
    assert first > 0.0


def test_mc_oracle_scores_user_densities_on_one_set_of_draws():
    # Linear in lambda_u: one call scores an array of user densities, each
    # element bit-equal to its scalar call on the same seed.
    lam_b = 30.0 * PER_KM2
    users = np.array([1000.0 * PER_KM2, 0.0, 37.5 * PER_KM2])
    batch = mc_delay_oracle(lam_b, users, 0.7, PARAMS, trials=1000, rng_seed=9)
    assert batch.shape == users.shape
    for lam_u, value in zip(users, batch):
        assert mc_delay_oracle(lam_b, float(lam_u), 0.7, PARAMS, trials=1000,
                               rng_seed=9) == value
    assert batch[1] == 0.0
    assert isinstance(mc_delay_oracle(lam_b, 0.0, 0.7, PARAMS, trials=1000, rng_seed=9), float)


def _lattice(a, b, spacing, reach=4):
    """Lattice points i a + j b (|i|, |j| <= reach) but the origin, scaled."""
    i, j = np.meshgrid(np.arange(-reach, reach + 1), np.arange(-reach, reach + 1))
    keep = (i != 0) | (j != 0)
    return (spacing * (i[keep] * a[0] + j[keep] * b[0]),
            spacing * (i[keep] * a[1] + j[keep] * b[1]))


BOX = (-50.0, 50.0, -50.0, 50.0)


def _cell_area(dx, dy, box):
    """One cell through the batched clipper, as a batch of one row."""
    return _cell_areas(np.atleast_2d(dx), np.atleast_2d(dy), box)[0]


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
    r, areas = _serving_cells(lam_b, 4000, np.random.default_rng(11))
    assert areas.mean() * lam_b == pytest.approx(1.2801, rel=0.03)
    assert np.all(areas > 0.0)
    # The stratified serving distance keeps its law P(r > t) = exp(-lambda pi t^2).
    assert np.mean(np.pi * lam_b * r * r) == pytest.approx(1.0, rel=0.01)


def test_cell_area_without_other_stations_is_the_box():
    # A trial whose annulus holds no station keeps the whole square.
    empty = np.empty(0)
    assert _cell_area(empty, empty, (-3.0, 5.0, -4.0, 4.0)) == pytest.approx(64.0, abs=1e-12)


# validate's Monte Carlo station densities: the zero-traffic spot runs at
# 10/km^2 as well.
SPOT_BS_PER_KM2 = sorted({10.0} | {bs for bs, _ in MC_SPOT_DENSITIES_PER_KM2})


@pytest.mark.parametrize("trials", [1000, 2500])  # 2500 crosses a block boundary
@pytest.mark.parametrize("bs_km2", SPOT_BS_PER_KM2)
def test_serving_cells_bit_equal_to_scalar_reference(bs_km2, trials):
    for seed in (1234, 1235, 1236):
        r, areas = _serving_cells(bs_km2 * PER_KM2, trials, np.random.default_rng(seed))
        r_ref, areas_ref = mc_reference.serving_cells(bs_km2 * PER_KM2, trials,
                                                      np.random.default_rng(seed))
        assert np.array_equal(r, r_ref)
        assert np.array_equal(areas, areas_ref)


def test_cell_areas_rows_equal_their_single_row_calls():
    # A lattice row, a row with no other station (the whole box) and the
    # corner-cut row, padded with inf to a common width, each with its box.
    lattice = _lattice((1.0, 0.0), (0.5, np.sqrt(3.0) / 2.0), 2.0)
    corner = (np.array([2.0, -2.0, 0.0, 0.0, 1.6]), np.array([0.0, 0.0, 2.0, -2.0, 1.6]))
    empty = (np.empty(0), np.empty(0))
    stations = [lattice, empty, corner]
    boxes = [BOX, (-3.0, 5.0, -4.0, 4.0), BOX]
    width = max(x.size for x, _ in stations)
    dx = np.full((3, width), np.inf)
    dy = np.full((3, width), np.inf)
    for t, (x, y) in enumerate(stations):
        dx[t, :x.size] = x
        dy[t, :y.size] = y
    areas = _cell_areas(dx, dy, tuple(np.array(b) for b in zip(*boxes)))
    for t, ((x, y), box) in enumerate(zip(stations, boxes)):
        assert areas[t] == _cell_area(x, y, box)
    # The lattice's equidistant stations may be clipped in another order by
    # the reference's unstable sort; the other rows have no ties.
    assert areas[0] == pytest.approx(np.sqrt(3.0) / 2.0 * 4.0, abs=1e-12)
    for t in (1, 2):
        assert areas[t] == mc_reference.cell_area(*stations[t], boxes[t])
    assert areas[1] == 64.0
    assert areas[2] == pytest.approx(4.0 - 0.08, abs=1e-12)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(nodes_r=4)
    with pytest.raises(ValueError):
        QuadratureSpec(tail_mass_epsilon=1e-3)
    fine = doubled(QUAD)
    assert (fine.nodes_r, fine.nodes_x, fine.nodes_theta) == (128, 128, 128)
    assert fine.tail_mass_epsilon == QUAD.tail_mass_epsilon
