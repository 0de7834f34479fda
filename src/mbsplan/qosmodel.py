"""Mean per-bit downlink delay for a Poisson field of base stations.

Stations form a planar Poisson process of density ``lambda_b`` and active
users an independent one of density ``lambda_u``; every user attaches to its
nearest station, and a station splits its airtime equally over attached
users. For a tagged user at distance r from its serving station, a second
user at distance x from that same station (planar angle theta) shares it
exactly when no station sits closer to the second user. The region that must
be empty of stations for that to happen is the disc of radius x around the
second user minus its overlap with the disc of radius r around the tagged
user, which is already known to be empty; its area is ``overlap_area``,
pi x^2 minus the lens of the two discs, whose half-angles are atan2s of
sides the law of cosines gives without a square root.

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


class NonFinite(ArithmeticError):
    """An integrand produced NaN or inf; ``index`` is the flat index of the
    delay the message names, where known."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class BadElement(ValueError):
    """An input array holds a value outside its domain; ``index`` is the
    flat index of the first such element, which the message names."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _check_elements(name: str, values, ok, rule: str) -> None:
    """Raise ``BadElement`` at the first element of ``values`` where the
    boolean array ``ok``, of the same shape, is False."""
    if not np.all(ok):
        k = int(np.argmin(ok))
        where = f" at index {k}" if np.ndim(ok) else ""
        raise BadElement(f"{name} must be {rule}, got {float(np.ravel(values)[k])!r}{where}", k)


class FixedPointDiverged(RuntimeError):
    """The utilization fixed point failed to converge within the iteration
    cap; ``index`` is the flat index of the cell the message names, where
    known."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


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

    Computed as pi x^2 minus the two-circle lens. The centers lie d apart
    with d^2 = r^2 + x^2 + 2 r x sin(theta), so d^2 - (r + x s)^2 = x^2 c^2
    for s = sin(theta), c = |cos(theta)|: the lens's half-angles at the two
    centers are atan2(x c, r + x s) and atan2(r c, x + r s), and its kite is
    r x c. No division or square root enters, so tangent, nested and
    concentric discs (d = 0, where both half-angles are pi/2) need no
    special case; the result is clipped to [0, pi x^2]. sin and cos are
    taken of theta before it broadcasts with r and x.
    """
    r, x, theta = (np.asarray(v, dtype=float) for v in (r, x, theta))
    s, c = np.sin(theta), np.abs(np.cos(theta))
    lens = r * r * np.arctan2(x * c, r + x * s) + x * x * np.arctan2(r * c, x + r * s) - r * x * c
    area = np.clip(math.pi * x * x - lens, 0.0, math.pi * x * x)
    return float(area) if area.ndim == 0 else area


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

    The overlap area depends on theta only through sin(theta) and
    |cos(theta)|, so it is symmetric about theta = pi/2, where it has a
    kink, as at -pi/2. The theta integral over the full turn is therefore
    twice that over [-pi/2, pi/2], whose ends are the two kinks: the rule
    takes ``nodes_theta`` nodes there, with doubled weights.
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
    t = (xi_t - 0.5) * math.pi
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
    _check_elements("utilization", u, (u >= -1e-12) & (u <= 1.0 + 1e-12), "in [0, 1]")


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


# Delay evaluations run over blocks of densities whose per-node terms hold
# this many floats, 0.5 MB, so they stay in a core's L2 cache: at 144 000
# densities one unblocked pass ran over twice as slow per density.
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
    # every block's node terms are computed in place in one buffer: a fresh
    # 0.5 MB temporary per operation can cost a page fault per page, since
    # malloc may serve it from mmap
    work = np.empty((min(step, unit_sum.size), a.size))
    with np.errstate(all="ignore"):
        for start in range(0, unit_sum.size, step):
            block = slice(start, start + step)
            lam = rows_b[block]
            terms = work[:lam.shape[0]]
            np.multiply(b, utilization if rows_u is None else rows_u[block], out=terms)
            # a noiseless radio skips the power: 0 * inf is NaN where it overflows
            np.add(terms, noise_w * lam ** exponent if noise_w else 0.0, out=terms)
            np.divide(a, terms, out=terms)
            np.log1p(terms, out=terms)
            np.divide(w, terms, out=terms)
            unit_sum[block] = terms.sum(axis=-1)
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
    _check_elements("lambda_b", lambda_b, lambda_b > 0, "> 0")
    _check_elements("lambda_u", lambda_u, lambda_u >= 0, ">= 0")
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
    *,
    _busy_delay=None,
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
    u = np.ones(lambda_b.shape)
    # the delay at each element's current iterate, the first at u = 1;
    # demand_matrix passes the one its inversion ended on, bit-equal to it,
    # as the private _busy_delay (one per element, unchecked)
    if _busy_delay is None:
        tau = delay_given_utilization(lambda_b, lambda_u, u, params, quad)
    else:
        tau = np.array(_busy_delay, dtype=float).reshape(lambda_b.shape)
    # the previous iterate and its residual; NaN makes the first step g(1)
    u_prev = np.full(lambda_b.shape, np.nan)
    f_prev = np.full(lambda_b.shape, np.nan)
    iterations = np.zeros(lambda_b.shape, dtype=int)
    converged = np.zeros(lambda_b.shape, dtype=bool)
    idx = np.arange(lambda_b.size)
    while idx.size:
        u_now = u[idx]
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
        if idx.size:
            tau[idx] = delay_given_utilization(lambda_b[idx], lambda_u[idx], u[idx], params, quad)
    if not shape:
        return QosEvaluation(float(tau[0]), float(u[0]), int(iterations[0]), bool(converged[0]))
    return QosEvaluation(tau.reshape(shape), u.reshape(shape), iterations.reshape(shape),
                         converged.reshape(shape))


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


def _cell_areas(next_points, box, trials: int):
    """Area of the Voronoi cell of a station at the origin, one per trial.

    Each trial cuts its cell from the rectangle box = (x0, x1, y0, y1),
    whose entries are scalars or per-trial arrays, by clipping
    (Sutherland-Hodgman) with the perpendicular bisector to each of its
    other stations, nearest first. next_points(live) returns the next
    point of each trial in ``live``: its offsets qx, qy, its squared
    distance d2, and q2, which is d2 for a station and inf for a point that
    is not one (that bisector keeps every vertex). A trial retires at its
    first point farther than twice the cell's farthest vertex: that
    bisector and every later one miss the cell, so the area is exact.

    All live trials take a step together, on polygons stored as in
    ``_clip``. A trial's arithmetic and vertex order do not depend on the
    other trials, so its area equals that of its one-trial call.
    """
    x0, x1, y0, y1 = (np.broadcast_to(np.asarray(b, dtype=float), (trials,)) for b in box)
    cx = np.stack((x0, x0, x1, x1, x0))
    cy = np.stack((y1, y0, y0, y1, y1))
    m = np.full(trials, 4)
    live = np.arange(trials)
    areas = np.empty(trials)
    while live.size:
        qx, qy, d2, q2 = next_points(live)
        # neither the repeated vertex nor zero padding raises the maximum
        done = d2 > 4.0 * np.max(cx * cx + cy * cy, axis=0)
        if done.any():
            areas[live[done]] = _shoelace(cx[:, done], cy[:, done], m[done])
            going = ~done
            live, cx, cy, m = live[going], cx[:, going], cy[:, going], m[going]
            qx, qy, q2 = qx[going], qy[going], q2[going]
            if not live.size:
                break
        cx, cy, m = _clip(cx, cy, m, qx, qy, q2)
    return areas


def _serving_cells(lambda_b: float, trials: int, rng: np.random.Generator):
    """Serving distance and serving-cell area of the station nearest to a
    tagged user, one independent Poisson field per trial.

    r follows its void probability P(r > t) = exp(-lambda_b pi t^2), with
    the uniform variate stratified over the trials. Given r, the other
    stations are a Poisson field on the plane minus the open disc of radius
    r around the user, which must hold none. Around the serving station at
    the origin, with the user at (-r, 0), a Poisson field of density
    lambda_b is drawn nearest first: pi lambda_b d_k^2 is the sum of k
    standard exponentials, each point at a uniform angle psi_k. A point
    with d_k + 2 r cos psi_k < 0 lies in the user's empty disc and is
    dropped; what is left is the field restricted to the allowed region,
    exact and untruncated. The cell is cut from the square of half-width
    10 / sqrt(pi lambda_b) around the station, which no cell reaches.

    Each step draws one row of 2 * trials uniforms, and trial t takes
    column t, so a trial's points do not depend on the other trials; a
    trial stops drawing once its cell is final.
    """
    half = 10.0 / math.sqrt(lambda_b * math.pi)
    u = (rng.permutation(trials) + rng.random(trials)) / trials
    r = np.sqrt(-np.log(u) / (math.pi * lambda_b))
    # pi lambda_b d^2 of each trial's latest point
    mass = np.zeros(trials)

    def next_points(live):
        e, turn = rng.random((2, trials))[:, live]
        mass[live] -= np.log1p(-e)
        d2 = mass[live] / (math.pi * lambda_b)
        d = np.sqrt(d2)
        psi = TWO_PI * turn
        cos_psi = np.cos(psi)
        dropped = d + 2.0 * r[live] * cos_psi < 0.0
        return d * cos_psi, d * np.sin(psi), d2, np.where(dropped, np.inf, d2)

    return r, _cell_areas(next_points, (-half, half, -half, half), trials)


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
    users. ``_serving_cells`` draws each trial's stations nearest first
    around its serving station, on the whole plane outside the user's
    empty disc, until the cell is final. C(r) uses the analytic mean
    interference at the given utilization: the simulation validates the
    geometry and load integrals, not the interference average. It shares
    no code with the analytic integrals. Deterministic for a fixed seed.

    The estimate is linear in lambda_u, so one set of draws scores an array
    of user densities at once; each element is bit-equal to its scalar call.
    """
    if not 0 < lambda_b < math.inf:
        raise ValueError(f"lambda_b must be finite and > 0, got {lambda_b}")
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    lambda_u = np.asarray(lambda_u, dtype=float)
    _check_elements("lambda_u", lambda_u, lambda_u >= 0, ">= 0")
    r, areas = _serving_cells(lambda_b, trials, np.random.default_rng(rng_seed))
    rate = capacity(r, params, mean_interference(r, params, lambda_b, utilization))
    tau = lambda_u * float(np.sum(areas / rate)) / trials
    return float(tau) if tau.ndim == 0 else tau
