"""Mean per-bit downlink delay for a Poisson field of base stations.

Stations form a planar Poisson process of density ``lambda_b`` and active
users an independent one of density ``lambda_u``; every user attaches to its
nearest station, and a station splits its airtime equally over attached
users. For a tagged user at distance r from its serving station, a second
user at distance x from that same station (planar angle theta) shares it
exactly when no station sits closer to the second user. The region that must
be empty of stations for that to happen is the disc of radius x around the
second user minus its overlap with the disc of radius r around the tagged
user, which is already known to be empty; its area is ``overlap_area``.

Averaging the shared-user count over both point processes and dividing by
the Shannon rate at distance r gives the mean per-bit delay as a triple
integral over (r, x, theta). Interference enters through the mean busy
fraction (utilization) of the other stations, which itself equals
delay / target_delay, so the delay is solved as a fixed point in the
utilization, elementwise over arrays of densities: a first step from the
busy end u = 1, then safeguarded secant steps that never rise above the
map's image, so no reported delay exceeds the u = 1 delay.

The overlap area is homogeneous of degree 2 in the lengths, so the whole
radial quadrature grid at density lambda_b maps node-for-node onto the
unit-density grid scaled by sqrt(lambda_b). The expensive double integral is
therefore computed once per quadrature spec ("unit kernel") and reused for
every density, slot and fixed-point iteration. The rate needs no per-node
work per density either: signal and interference at the scaled radius both
carry the factor lambda_b^(alpha/2), so the per-node signal, interference
and weight are cached at unit density per radio and spec, and a density
only rescales the noise term, with one power. The spec, ``QuadratureSpec``,
is a parameter block of the scenario and is defined and checked in
``scenario``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .scenario import QuadratureSpec, RadioParams

TWO_PI = 2.0 * math.pi
_LN2 = math.log(2.0)

# acos arguments may stray outside [-1, 1] by rounding at tangency
# configurations; anything beyond this slack is treated as a bug.
_ACOS_SLACK = 1e-9


class NonFinite(ArithmeticError):
    """An integrand produced NaN/inf, or geometry inputs left their domain;
    ``index`` is the flat index of the delay the message names, where known."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class FixedPointDiverged(RuntimeError):
    """The utilization fixed point failed to converge within the iteration cap."""


# Stopping rule of the utilization fixed point in ``evaluate_qos``.
FIXED_POINT_TOL = 1e-6
FIXED_POINT_MAX_ITERATIONS = 100


@dataclass(frozen=True)
class QosEvaluation:
    """Python scalars for scalar densities, arrays of their shape otherwise."""

    delay_s_per_bit: float | np.ndarray
    utilization: float | np.ndarray
    fixed_point_iterations: int | np.ndarray
    converged: bool | np.ndarray


@functools.cache
def _gauss_unit(n: int):
    """Gauss-Legendre nodes/weights on [0, 1], cached per node count."""
    xi, w = np.polynomial.legendre.leggauss(n)
    xi = 0.5 * (xi + 1.0)
    w = 0.5 * w
    xi.setflags(write=False)
    w.setflags(write=False)
    return xi, w


def overlap_area(r, x, theta):
    """Area of the disc of radius x around a neighboring user that is not
    covered by the known-empty disc of radius r around the tagged user.

    Computed as pi x^2 minus the two-circle lens area at center distance
    d(r, x, theta). By construction d always lies in [|r - x|, r + x], so the
    discs intersect or touch; acos and sqrt arguments are clamped against
    floating-point noise and the result is clamped to [0, pi x^2]. The
    concentric limit d -> 0 (only reachable with r == x) returns the exact
    nested-circle value pi x^2 - pi min(r, x)^2.
    """
    r, x, theta = np.broadcast_arrays(
        np.asarray(r, dtype=float), np.asarray(x, dtype=float), np.asarray(theta, dtype=float)
    )
    sin_t = np.sin(theta)
    d = np.sqrt(x * x + r * r + 2.0 * x * r * sin_t)
    safe_d = np.where(d > 0.0, d, 1.0)
    a1 = (r + x * sin_t) / safe_d
    a2 = (x + r * sin_t) / safe_d
    worst = max(float(np.max(np.abs(a1))), float(np.max(np.abs(a2)))) - 1.0
    if worst > _ACOS_SLACK:
        raise NonFinite(
            f"overlap_area: acos argument outside [-1, 1] by {worst:.3e}; "
            "inputs are not a valid (r, x, theta) geometry"
        )
    lens = r * r * np.arccos(np.clip(a1, -1.0, 1.0)) + x * x * np.arccos(np.clip(a2, -1.0, 1.0))
    s1 = np.maximum(r * r - (d - x) ** 2, 0.0)
    s2 = np.maximum((d + x) ** 2 - r * r, 0.0)
    lens = lens - 0.5 * np.sqrt(s1 * s2)
    area = math.pi * x * x - lens
    nested = math.pi * x * x - math.pi * np.minimum(r, x) ** 2
    area = np.where(d > 0.0, area, nested)
    area = np.clip(area, 0.0, math.pi * x * x)
    if area.ndim == 0:
        return float(area)
    return area


def _truncation_radius(lambda_b: float, eps: float) -> float:
    """Radius beyond which the void probability exp(-lambda pi t^2) < eps."""
    return math.sqrt(-math.log(eps) / (lambda_b * math.pi))


@functools.cache
def _unit_kernel(quad: QuadratureSpec):
    """Radial nodes and integral weights of the outer integral at unit density.

    Returns (r1, kernel) where r1 are the Gauss-Legendre nodes on
    [0, r_max(lambda_b=1)] and kernel[i] bundles weight, inner double
    integral, nearest-station density and void factor:

        kernel[i] = w_i * g1(r1_i) * exp(-pi r1_i^2) * 2 pi r1_i

    For any density, tau = (lambda_u / lambda_b) * sum_i kernel[i] / C(r1_i /
    sqrt(lambda_b)). This is exact for the Gauss-Legendre rule because the
    overlap area is homogeneous of degree 2 and every truncation radius
    scales with 1 / sqrt(lambda_b).
    """
    r_max = _truncation_radius(1.0, quad.tail_mass_epsilon)
    xi_r, w_r = _gauss_unit(quad.nodes_r)
    r1 = xi_r * r_max
    wr = w_r * r_max
    xi_x, w_x = _gauss_unit(quad.nodes_x)
    xi_t, w_t = _gauss_unit(quad.nodes_theta)
    x_max = r_max + r1
    x = xi_x[None, :] * x_max[:, None]
    wx = w_x[None, :] * x_max[:, None]
    t = xi_t * TWO_PI
    wt = w_t * TWO_PI
    area = overlap_area(r1[:, None, None], x[:, :, None], t[None, None, :])
    g1 = np.einsum("ij,ijk,k->i", wx * x, np.exp(-area), wt)
    kernel = wr * g1 * np.exp(-math.pi * r1 * r1) * TWO_PI * r1
    if not np.all(np.isfinite(kernel)):
        raise NonFinite("unit kernel: non-finite entries; geometry bug")
    r1.setflags(write=False)
    kernel.setflags(write=False)
    return r1, kernel


def _check_utilization(utilization) -> None:
    u = np.asarray(utilization, dtype=float)
    if not np.all((u >= -1e-12) & (u <= 1.0 + 1e-12)):
        raise ValueError(f"utilization must lie in [0, 1], got {utilization}")


def mean_interference(r, params: RadioParams, lambda_b: float, utilization: float):
    """Average co-channel interference power at distance r from the serving
    station, over a field of stations each busy a fraction ``utilization``
    of the time."""
    alpha = params.path_loss_exponent
    _check_utilization(utilization)
    scale = (
        params.reference_gain
        * params.tx_power_w
        * TWO_PI
        * lambda_b
        * utilization
        / (params.reuse_factor * (alpha - 2.0))
    )
    return scale * np.asarray(r, dtype=float) ** (2.0 - alpha)


def capacity(r, params: RadioParams, interference):
    """Shannon rate at distance r over the per-reuse bandwidth B/k, with
    noise power N0 B/k plus the given interference power."""
    b_eff = params.bandwidth_hz / params.reuse_factor
    noise_w = params.noise_psd_w_per_hz * b_eff
    signal = params.reference_gain * params.tx_power_w * np.asarray(r, dtype=float) ** (
        -params.path_loss_exponent
    )
    return b_eff * np.log1p(signal / (noise_w + interference)) / _LN2


# Delay evaluations run over blocks of densities whose per-node temporaries
# hold this many floats, 0.5 MB, so they stay in a core's L2 cache: at
# 144 000 densities one unblocked pass ran over twice as slow per density.
_BLOCK_ELEMENTS = 65536


@functools.lru_cache(maxsize=64)
def _unit_vectors(params: RadioParams, quad: QuadratureSpec):
    """Per-node vectors of the delay at unit station density.

    At density lambda_b the serving distance of node i is r1_i / sqrt(lambda_b),
    so its signal is a_i lambda_b^(alpha/2) and its always-busy interference
    is b_i lambda_b^(alpha/2), with

        a_i = G P r1_i^-alpha,  b_i = mean_interference(r1_i, params, 1, 1),

    and the weight w_i = kernel_i ln 2 / B_eff turns 1 / log1p(SINR_i) into
    node i's share of the delay per unit density ratio.
    """
    r1, kernel = _unit_kernel(quad)
    a = params.reference_gain * params.tx_power_w * r1 ** -params.path_loss_exponent
    b = mean_interference(r1, params, 1.0, 1.0)
    w = kernel * _LN2 / (params.bandwidth_hz / params.reuse_factor)
    for v in (a, b, w):
        v.setflags(write=False)
    return a, b, w


def _unit_sums(lambda_b, utilization, params: RadioParams, quad: QuadratureSpec):
    """S = sum_i w_i / log1p(a_i / (N0 B_eff lambda_b^(-alpha/2) + b_i u)) over
    the unit vectors of ``_unit_vectors``, for every element of the broadcast
    of lambda_b and u, in blocks of ``_BLOCK_ELEMENTS`` node terms; each is
    bit-equal to its scalar call. Unchecked, and +inf where a rate underflows
    to 0, with no floating-point warning."""
    a, b, w = _unit_vectors(params, quad)
    noise_w = params.noise_psd_w_per_hz * (params.bandwidth_hz / params.reuse_factor)
    exponent = -0.5 * params.path_loss_exponent
    # one row per element of the broadcast of lambda_b and u; a scalar u
    # scales b once
    shape = np.broadcast_shapes(np.shape(lambda_b), np.shape(utilization))
    rows_b = np.broadcast_to(lambda_b, shape).reshape(-1, 1)
    rows_u = np.broadcast_to(utilization, shape).reshape(-1, 1) if np.ndim(utilization) else None
    unit_sum = np.empty(rows_b.shape[0])
    step = _BLOCK_ELEMENTS // a.size
    with np.errstate(all="ignore"):
        for start in range(0, unit_sum.size, step):
            block = slice(start, start + step)
            # a noiseless radio skips the power: 0 * inf is NaN where it overflows
            noise = noise_w * rows_b[block] ** exponent if noise_w else 0.0
            busy = b * (utilization if rows_u is None else rows_u[block])
            unit_sum[block] = np.sum(w / np.log1p(a / (noise + busy)), axis=-1)
    return unit_sum.reshape(shape)


def delay_given_utilization(
    lambda_b,
    lambda_u,
    utilization,
    params: RadioParams,
    quad: QuadratureSpec = QuadratureSpec(),
):
    """Mean per-bit delay when every station is busy a fixed fraction
    ``utilization`` of the time. Exactly linear in lambda_u.

    Signal and interference at the scaled radius both carry the factor
    lambda_b^(alpha/2), so dividing it out leaves the noise power as the
    only term that depends on the density: tau = (lambda_u / lambda_b) S,
    with S the node sum of ``_unit_sums``. Densities and utilizations may
    be arrays that broadcast against each other; each element is bit-equal
    to its scalar call.

    No floating-point warning escapes for any lambda_b > 0 and u in [0, 1];
    a delay that is not finite raises ``NonFinite`` naming its first
    element. At lambda_u = 1e-3 per m^2 (pinned in the tests):

    - default radio, lambda_b <= 1e-200 per m^2: ``NonFinite`` for every u,
      since the noise term overflows and the rate is 0;
    - default radio, lambda_b >= 1e200 per m^2: the noise term underflows
      to 0, so the delay is 0 at u = 0 (infinite rate) and finite, if
      subnormal, for u > 0;
    - noiseless radio: no noise term at all, so the delay is 0 at u = 0
      and finite for u > 0 at every one of those densities.
    """
    lambda_b = np.asarray(lambda_b, dtype=float)
    lambda_u = np.asarray(lambda_u, dtype=float)
    utilization = np.asarray(utilization, dtype=float)
    if np.any(lambda_b <= 0):
        raise ValueError(f"lambda_b must be > 0, got {lambda_b}")
    if np.any(lambda_u < 0):
        raise ValueError(f"lambda_u must be >= 0, got {lambda_u}")
    _check_utilization(utilization)
    with np.errstate(all="ignore"):  # a rate that underflows to 0 is reported below
        tau = (lambda_u / lambda_b) * _unit_sums(lambda_b, utilization, params, quad)
    finite = np.isfinite(tau)
    if not np.all(finite):
        first = int(np.argmin(finite))  # flat index of the first non-finite element
        at_b, at_u = (float(np.broadcast_to(x, tau.shape).flat[first])
                      for x in (lambda_b, lambda_u))
        raise NonFinite(f"delay: non-finite result at lambda_b={at_b!r}, lambda_u={at_u!r}",
                        first)
    return float(tau) if tau.ndim == 0 else tau


def evaluate_qos(
    lambda_b,
    lambda_u,
    params: RadioParams,
    quad: QuadratureSpec = QuadratureSpec(),
) -> QosEvaluation:
    """Self-consistent delay and utilization at the given densities.

    Interference scales with the stations' busy fraction delay/target, which
    feeds back into the delay, so u solves u = g(u) = clamp(tau(u)/target,
    0, 1). Each iteration evaluates the delay tau(u) once and stops when the
    residual f(u) = g(u) - u is at most ``FIXED_POINT_TOL`` in magnitude,
    reporting tau(u) and g(u). The first iteration, from the busy end u = 1,
    moves to g(1) (saturated, overloaded and zero-load points stop exactly
    as plain iteration does); each later one takes the secant step on f
    through the last two iterates, clipped into [0, g(u)], or g(u) itself
    when the secant slope is not finite and negative. tau rises with u, so
    g is nondecreasing and g(u) <= 1: every iterate, and so every reported
    delay, is at most the u = 1 delay.

    Densities may be arrays that broadcast against each other: the fixed
    point then runs elementwise, each element keeping its own previous
    iterate and stopping on its own, and the fields hold arrays bit-equal to
    the scalar calls. Non-convergence within ``FIXED_POINT_MAX_ITERATIONS``
    is reported through ``converged`` rather than an exception.
    """
    lambda_b, lambda_u = np.broadcast_arrays(np.asarray(lambda_b, dtype=float),
                                             np.asarray(lambda_u, dtype=float))
    shape = lambda_b.shape
    lambda_b, lambda_u = lambda_b.ravel(), lambda_u.ravel()
    tau = np.zeros(lambda_b.shape)
    u = np.ones(lambda_b.shape)
    # the previous iterate and its residual; NaN makes the first step g(1)
    u_prev = np.full(lambda_b.shape, np.nan)
    f_prev = np.full(lambda_b.shape, np.nan)
    iterations = np.zeros(lambda_b.shape, dtype=int)
    converged = np.zeros(lambda_b.shape, dtype=bool)
    idx = np.arange(lambda_b.size)
    while idx.size:
        u_now = u[idx]
        tau[idx] = delay_given_utilization(lambda_b[idx], lambda_u[idx], u_now, params, quad)
        iterations[idx] += 1
        target = np.clip(tau[idx] / params.target_delay_s_per_bit, 0.0, 1.0)
        f = target - u_now
        done = np.abs(f) <= FIXED_POINT_TOL
        converged[idx] = done
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (f - f_prev[idx]) / (u_now - u_prev[idx])
            secant = np.isfinite(slope) & (slope < 0.0)
            step = np.clip(u_now - f / slope, 0.0, target)
        u[idx] = np.where(secant & ~done, step, target)
        u_prev[idx], f_prev[idx] = u_now, f
        idx = idx[~done & (iterations[idx] < FIXED_POINT_MAX_ITERATIONS)]
    if not shape:
        return QosEvaluation(float(tau[0]), float(u[0]), int(iterations[0]), bool(converged[0]))
    return QosEvaluation(tau.reshape(shape), u.reshape(shape), iterations.reshape(shape),
                         converged.reshape(shape))


# Trials clipped together by ``_serving_cells``. A block's station arrays
# are as wide as its busiest trial, so blocks keep memory flat in the trial
# count while each numpy call still spans many trials.
_CLIP_BLOCK = 1024


def _clip(cx, cy, m, qx, qy, q2):
    """Clip polygon t by the perpendicular bisector to its station
    (qx[t], qy[t]), keeping the side p . q <= |q|^2 / 2, which holds the
    origin, for every t at once.

    Polygons are stored vertex-major: column t of cx, cy holds polygon t's
    m[t] vertices in rows 1..m[t] and its last vertex again in row 0, so
    row i - 1 holds the predecessor of row i; the rest is zero padding.
    Each vertex in turn emits the crossing of its incoming edge with the
    bisector, then itself if it is kept. Returns the clipped polygons in the
    same layout and their vertex counts.
    """
    trials = m.size
    v = cx * qx
    v += cy * qy
    v -= 0.5 * q2
    out = v > 0.0
    valid = np.arange(cx.shape[0] - 1)[:, None] < m
    cross = (out[:-1] != out[1:]) & valid
    keep = ~out[1:] & valid
    emitted = cross.astype(np.intp) + keep
    end = np.cumsum(emitted, axis=0)
    m = end[-1]
    nx = np.zeros((m.max() + 1, trials))
    ny = np.zeros((m.max() + 1, trials))
    # flat positions: row i of cross/keep is row i + 1 of cx, cy (one row
    # of `trials` further on), its predecessor row i
    column = np.arange(trials)
    at = np.flatnonzero(cross)
    pv, cv = v.ravel()[at], v.ravel()[at + trials]
    px, py = cx.ravel()[at], cy.ravel()[at]
    s = pv / (pv - cv)
    to = ((end - emitted + 1) * trials + column).ravel()[at]
    nx.ravel()[to] = px + s * (cx.ravel()[at + trials] - px)
    ny.ravel()[to] = py + s * (cy.ravel()[at + trials] - py)
    at = np.flatnonzero(keep)
    to = (end * trials + column).ravel()[at]
    nx.ravel()[to] = cx.ravel()[at + trials]
    ny.ravel()[to] = cy.ravel()[at + trials]
    nx[0] = nx[m, column]
    ny[0] = ny[m, column]
    return nx, ny, m


def _shoelace(cx, cy, m):
    """Areas of polygons in ``_clip``'s layout, each polygon's terms summed
    in vertex order, one row at a time, as a sequential sum over that
    polygon alone would."""
    terms = cx[:-1] * cy[1:] - cy[:-1] * cx[1:]
    terms[np.arange(terms.shape[0])[:, None] >= m] = 0.0
    total = np.zeros(m.size)
    for row in terms:
        total += row
    return 0.5 * total


def _cell_areas(dx, dy, box):
    """Area of the Voronoi cell of a station at the origin, one per row.

    Row t holds the offsets (dx[t], dy[t]) of the other stations, padded
    with inf, and its cell is cut from the rectangle box = (x0, x1, y0, y1),
    whose entries are scalars or per-row arrays. Each row clips its
    rectangle (Sutherland-Hodgman) by the perpendicular bisector to each
    station, nearest first, and retires once its next station is farther
    than twice the cell's farthest vertex: that bisector and every later
    one miss the cell, so the area is exact.

    All live rows take a step together, on polygons stored as in
    ``_clip``. A row's arithmetic and vertex order do not depend on the
    other rows (ties in distance keep their column order), so its area
    equals that of its one-row call.
    """
    dx, dy = np.asarray(dx, dtype=float), np.asarray(dy, dtype=float)
    trials, stations = dx.shape
    d2 = dx * dx + dy * dy
    order = np.argsort(d2, axis=1, kind="stable")
    x0, x1, y0, y1 = (np.broadcast_to(np.asarray(b, dtype=float), (trials,)) for b in box)
    cx = np.stack((x0, x0, x1, x1, x0))
    cy = np.stack((y1, y0, y0, y1, y1))
    m = np.full(trials, 4)
    live = np.arange(trials)
    areas = np.empty(trials)
    for k in range(stations):
        # neither the repeated vertex nor zero padding raises the maximum
        reach2 = np.max(cx * cx + cy * cy, axis=0)
        nearest = order[live, k]
        q2 = d2[live, nearest]
        done = q2 > 4.0 * reach2
        if done.any():
            areas[live[done]] = _shoelace(cx[:, done], cy[:, done], m[done])
            going = ~done
            live, cx, cy, m = live[going], cx[:, going], cy[:, going], m[going]
            nearest, q2 = nearest[going], q2[going]
            if not live.size:
                break
        cx, cy, m = _clip(cx, cy, m, dx[live, nearest], dy[live, nearest], q2)
    # trials that outlive their stations
    areas[live] = _shoelace(cx, cy, m)
    return areas


def _serving_cells(lambda_b: float, trials: int, rng: np.random.Generator):
    """Serving distance and serving-cell area of the station nearest to a
    tagged user at the origin, one independent Poisson field per trial.

    r follows its void probability P(r > t) = exp(-lambda_b pi t^2), with
    the uniform variate stratified over the trials; by isotropy the serving
    station sits at (r, 0). The other stations are a Poisson field on the
    annulus r < |y| < R, R holding 100 stations in expectation, and the
    cell is cut from the square enclosing that disc.

    Trials are drawn and clipped in blocks of ``_CLIP_BLOCK``. A block
    takes one draw of uniforms, in which trial t's n_t stations own 2 n_t
    consecutive values: n_t radial variates, then n_t angular ones.
    """
    radius = 10.0 / math.sqrt(lambda_b * math.pi)
    u = (rng.permutation(trials) + rng.random(trials)) / trials
    r = np.sqrt(-np.log(u) / (math.pi * lambda_b))
    counts = rng.poisson(lambda_b * math.pi * np.maximum(radius * radius - r * r, 0.0))
    areas = np.empty(trials)
    for start in range(0, trials, _CLIP_BLOCK):
        block = slice(start, start + _CLIP_BLOCK)
        r_b, n_b = r[block], counts[block]
        draws = rng.random(2 * int(n_b.sum()))
        # True on each trial's first n_t draws, False on its next n_t
        radial = np.repeat(np.resize((True, False), 2 * n_b.size), np.repeat(n_b, 2))
        r_s = np.repeat(r_b, n_b)
        rho = np.sqrt(r_s * r_s + (radius * radius - r_s * r_s) * draws[radial])
        phi = TWO_PI * draws[~radial]
        present = np.arange(n_b.max()) < n_b[:, None]
        dx = np.full(present.shape, np.inf)
        dy = np.full(present.shape, np.inf)
        dx[present] = rho * np.cos(phi) - r_s
        dy[present] = rho * np.sin(phi)
        areas[block] = _cell_areas(dx, dy, (-radius - r_b, radius - r_b, -radius, radius))
    return r, areas


def mc_delay_oracle(
    lambda_b: float,
    lambda_u,
    utilization: float,
    params: RadioParams,
    trials: int,
    rng_seed: int,
):
    """Simulation estimate of the mean per-bit delay, for cross-checking.

    Given the stations, the number of other users sharing the tagged user's
    station is Poisson with mean lambda_u |V0|, |V0| the area of the serving
    station's Voronoi cell, so each trial of ``_serving_cells`` scores
    lambda_u |V0| / C(r) at its serving distance r instead of sampling
    users. C(r) uses the analytic mean interference at the given
    utilization: the simulation validates the geometry and load integrals,
    not the interference average. It shares no code with the analytic
    integrals. Deterministic for a fixed seed.

    The estimate is linear in lambda_u, so one set of draws scores an array
    of user densities at once; each element is bit-equal to its scalar call.
    """
    if lambda_b <= 0:
        raise ValueError(f"lambda_b must be > 0, got {lambda_b}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    r, areas = _serving_cells(lambda_b, trials, np.random.default_rng(rng_seed))
    rate = capacity(r, params, mean_interference(r, params, lambda_b, utilization))
    tau = np.asarray(lambda_u, dtype=float) * float(np.sum(areas / rate)) / trials
    return float(tau) if tau.ndim == 0 else tau
