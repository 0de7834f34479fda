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
therefore computed once ("unit kernel") and reused for every density, slot
and fixed-point iteration. The rate needs no per-node work per density
either: signal and interference at the scaled radius both carry the factor
lambda_b^(alpha/2), so the per-node signal, interference and weight are
cached at unit density per radio, and a density only rescales the noise
term, with one power. The quadrature rule is fixed: ``_NODES`` and
``_TAIL_MASS``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .scenario import RadioParams

TWO_PI = 2.0 * math.pi
_LN2 = math.log(2.0)


# The delay's quadrature rule: tensor-product Gauss-Legendre node counts
# for r, x and theta (theta on the half turn [-pi/2, pi/2], which the
# integrand's symmetry makes the whole angular integral), and the void
# probability exp(-lambda_b pi t^2) below which the radial integrals are
# cut. It meets the delay's 1e-5 relative error budget, at 1.7e-6.
_NODES = (64, 64, 16)
_TAIL_MASS = 1e-12


class _AtElement(Exception):
    """An error at one element of an array; ``index`` is the flat index of
    the element the message names, where known."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class NonFinite(_AtElement, ArithmeticError):
    """An integrand produced NaN or inf."""


class BadElement(_AtElement, ValueError):
    """An input array holds a value outside its domain; the message names
    the first such element."""


def _check_elements(name: str, values, ok, rule: str) -> None:
    """Raise ``BadElement`` at the first element of ``values`` where the
    boolean array ``ok``, of the same shape, is False."""
    if not np.all(ok):
        k = int(np.argmin(ok))
        where = f" at index {k}" if np.ndim(ok) else ""
        raise BadElement(f"{name} must be {rule}, got {float(np.ravel(values)[k])!r}{where}", k)


class FixedPointDiverged(_AtElement, RuntimeError):
    """The utilization fixed point failed to converge within the iteration
    cap."""


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


@functools.cache
def _unit_kernel(nodes=_NODES):
    """Radial nodes and integral weights of the outer integral at unit density.

    Returns (r1, kernel) where r1 are the Gauss-Legendre nodes on
    [0, r_max], beyond which the unit-density void probability exp(-pi t^2)
    is below ``_TAIL_MASS``, and kernel[i] bundles weight, inner double
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
    takes ``nodes[2]`` nodes there, with doubled weights.

    ``nodes`` holds the node counts for r, x and theta; runs use ``_NODES``,
    and tests build other rules to measure how the integral converges.
    """
    nodes_r, nodes_x, nodes_theta = nodes
    r_max = math.sqrt(-math.log(_TAIL_MASS) / math.pi)
    xi_r, w_r = _gauss_unit(nodes_r)
    r1 = xi_r * r_max
    wr = w_r * r_max
    xi_x, w_x = _gauss_unit(nodes_x)
    xi_t, w_t = _gauss_unit(nodes_theta)
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
def _unit_vectors(params: RadioParams):
    """Per-node vectors of the delay at unit station density.

    At density lambda_b the serving distance of node i is r1_i / sqrt(lambda_b),
    so its signal is a_i lambda_b^(alpha/2) and its always-busy interference
    is b_i lambda_b^(alpha/2), with

        a_i = G P r1_i^-alpha,  b_i = mean_interference(r1_i, params, 1, 1),

    and the weight w_i = kernel_i ln 2 / B_eff turns 1 / log1p(SINR_i) into
    node i's share of the delay per unit density ratio.
    """
    r1, kernel = _unit_kernel()
    with np.errstate(all="ignore"):  # an overflow gives a delay ``NonFinite`` reports
        a = params.reference_gain * params.tx_power_w * r1 ** -params.path_loss_exponent
        b = mean_interference(r1, params, 1.0, 1.0)
        w = kernel * _LN2 / (params.bandwidth_hz / params.reuse_factor)
    for v in (a, b, w):
        v.setflags(write=False)
    return a, b, w


def _unit_sums(lambda_b, utilization, params: RadioParams):
    """S = sum_i w_i / log1p(a_i / (N0 B_eff lambda_b^(-alpha/2) + b_i u)) over
    the unit vectors of ``_unit_vectors``, for every element of the broadcast
    of lambda_b and u, in blocks of ``_BLOCK_ELEMENTS`` node terms; each is
    bit-equal to its scalar call. Unchecked, and +inf where a rate underflows
    to 0, with no floating-point warning."""
    a, b, w = _unit_vectors(params)
    noise_w = params.noise_psd_w_per_hz * (params.bandwidth_hz / params.reuse_factor)
    exponent = -0.5 * params.path_loss_exponent
    # one row per element of the broadcast of lambda_b and u
    shape = np.broadcast_shapes(np.shape(lambda_b), np.shape(utilization))
    rows_b = np.broadcast_to(lambda_b, shape).reshape(-1, 1)
    rows_u = np.broadcast_to(utilization, shape).reshape(-1, 1)
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
            np.multiply(b, rows_u[block], out=terms)
            # a noiseless radio skips the power: 0 * inf is NaN where it overflows
            np.add(terms, noise_w * lam ** exponent if noise_w else 0.0, out=terms)
            np.divide(a, terms, out=terms)
            np.log1p(terms, out=terms)
            np.divide(w, terms, out=terms)
            unit_sum[block] = terms.sum(axis=-1)
    return unit_sum.reshape(shape)


def delay_given_utilization(lambda_b, lambda_u, utilization, params: RadioParams):
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
        tau = (lambda_u / lambda_b) * _unit_sums(lambda_b, utilization, params)
    finite = np.isfinite(tau)
    if not np.all(finite):
        first = int(np.argmin(finite))  # flat index of the first non-finite element
        at_b, at_u = (float(np.broadcast_to(x, tau.shape).flat[first])
                      for x in (lambda_b, lambda_u))
        raise NonFinite(f"delay: non-finite result at lambda_b={at_b!r}, lambda_u={at_u!r}",
                        first)
    return float(tau) if tau.ndim == 0 else tau


def evaluate_qos(lambda_b, lambda_u, params: RadioParams, *, _busy_delay=None) -> QosEvaluation:
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
        tau = delay_given_utilization(lambda_b, lambda_u, u, params)
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
        with np.errstate(all="ignore"):  # tau / target may overflow to inf, clamped to 1
            target = np.clip(tau[idx] / params.target_delay_s_per_bit, 0.0, 1.0)
            f = target - u_now
            done = np.abs(f) <= FIXED_POINT_TOL
            converged[idx] = done
            slope = (f - f_prev[idx]) / (u_now - u_prev[idx])
            secant = np.isfinite(slope) & (slope < 0.0)
            step = np.clip(u_now - f / slope, 0.0, target)
        u[idx] = np.where(secant & ~done, step, target)
        u_prev[idx], f_prev[idx] = u_now, f
        idx = idx[~done & (iterations[idx] < FIXED_POINT_MAX_ITERATIONS)]
        if idx.size:
            tau[idx] = delay_given_utilization(lambda_b[idx], lambda_u[idx], u[idx], params)
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
    cross = out[:-1] != out[1:]
    cross &= valid
    keep = ~out[1:]
    keep &= valid
    # vertices emitted up to each row: a running sum row by row, several
    # times faster than np.cumsum down the columns
    end = np.add(cross, keep, dtype=np.intp)
    for i in range(1, end.shape[0]):
        end[i] += end[i - 1]
    m = end[-1]
    nx = np.zeros((m.max() + 1, trials))
    ny = np.zeros((m.max() + 1, trials))
    # flat positions: row i of cross/keep is row i + 1 of cx, cy (one row
    # of `trials` further on), its predecessor row i; a crossing goes one
    # row before its kept vertex, if any
    at = np.flatnonzero(cross)
    pv, cv = v.ravel()[at], v.ravel()[at + trials]
    px, py = cx.ravel()[at], cy.ravel()[at]
    s = pv / (pv - cv)
    to = (end.ravel()[at] - keep.ravel()[at]) * trials + at % trials
    nx.ravel()[to] = px + s * (cx.ravel()[at + trials] - px)
    ny.ravel()[to] = py + s * (cy.ravel()[at + trials] - py)
    at = np.flatnonzero(keep)
    to = end.ravel()[at] * trials + at % trials
    nx.ravel()[to] = cx.ravel()[at + trials]
    ny.ravel()[to] = cy.ravel()[at + trials]
    column = np.arange(trials)
    nx[0] = nx[m, column]
    ny[0] = ny[m, column]
    return nx, ny, m


def _shoelace(cx, cy, m):
    """Areas of polygons in ``_clip``'s layout, each polygon's terms summed
    in vertex order, a running sum down its column, as a sequential sum over
    that polygon alone would."""
    terms = cx[:-1] * cy[1:] - cy[:-1] * cx[1:]
    terms[np.arange(terms.shape[0])[:, None] >= m] = 0.0
    return 0.5 * np.cumsum(terms, axis=0)[-1]


# A spot joins the clipping loop only while its trials and the live ones
# number at most this many, or when none is live; a spot is never split.
# One spot's cost per trial falls with the loop's width, from 17 us at 250
# trials to 8.3 at 1000 and 7 at 2000 (2-vCPU Xeon VM). The bound keeps the
# heap small: clipping validate's 3 x 10 000 default trials at once peaked
# 15 MiB higher than one spot at a time, and its 3 x 1000 quick trials at
# once left a repeated call 96-190 fresh page faults.
_MC_PASS_TRIALS = 2048


def _side_by_side(blocks):
    """2-D arrays zero-padded to the tallest one's rows and set side by side."""
    out = np.zeros((max(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    at = 0
    for b in blocks:
        out[:b.shape[0], at:at + b.shape[1]] = b
        at += b.shape[1]
    return out


def _cell_areas(spots: int, trials: int, start, distances, offsets):
    """Area of the Voronoi cell of a station at the origin, for ``trials``
    trials at each of ``spots`` spots: a (spots, trials) array.

    Each trial cuts its cell from a rectangle by clipping
    (Sutherland-Hodgman) with the perpendicular bisector to each of its
    other stations, nearest first. A trial retires at its first point
    farther than twice the cell's farthest vertex: that bisector and every
    later one miss the cell, so the area is exact.

    Three callbacks supply the points. start(k) returns spot k's rectangles
    (x0, x1, y0, y1), scalars or per-trial arrays, and the source's state
    for its trials, a float array with one column per trial. Each step,
    distances(index, state) returns the squared distance d2 of the next
    point of every live trial: ``index`` holds their flat trial numbers,
    spot k's trial t being k * trials + t, in ascending order, and
    ``state`` their columns. offsets(index, state, d2) then returns the
    offsets qx, qy and q2 of the trials that stay live: q2 is d2 for a
    station and inf for a point that is not one (that bisector keeps every
    vertex).

    A spot joins at the first step where its trials and the live ones
    number at most ``_MC_PASS_TRIALS``, or where none is live. All live
    trials take a step together, on polygons stored as in ``_clip``, and
    the polygons, numbers and state are compacted together as trials
    retire. The cells a step retires are measured by one ``_shoelace`` call
    in that step. A trial's arithmetic and vertex order do not depend on
    the other trials, so its area equals that of its one-trial call.
    """
    areas = np.empty(spots * trials)  # by flat trial number
    index = np.empty(0, dtype=np.intp)
    m = np.empty(0, dtype=np.intp)
    cx = cy = state = np.empty((0, 0))
    joined = 0
    while joined < spots or index.size:
        while joined < spots and (index.size + trials <= _MC_PASS_TRIALS or not index.size):
            box, new = start(joined)
            x0, x1, y0, y1 = (np.broadcast_to(np.asarray(b, dtype=float), (trials,)) for b in box)
            cx = _side_by_side([cx, np.stack((x0, x0, x1, x1, x0))])
            cy = _side_by_side([cy, np.stack((y1, y0, y0, y1, y1))])
            state = _side_by_side([state, new])
            m = np.concatenate((m, np.full(trials, 4)))
            index = np.concatenate((index, np.arange(joined * trials, (joined + 1) * trials)))
            joined += 1
            del new  # copied into state, which is compacted as trials retire
        d2 = distances(index, state)
        # neither the repeated vertex nor zero padding raises the maximum
        done = d2 > 4.0 * np.max(cx * cx + cy * cy, axis=0)
        if done.any():
            areas[index[done]] = _shoelace(cx[:, done], cy[:, done], m[done])
            # compress keeps the polygons C-contiguous, so _clip's ravels
            # are views, not copies
            going = ~done
            index, m, d2 = index[going], m[going], d2[going]
            cx, cy = np.compress(going, cx, axis=1), np.compress(going, cy, axis=1)
            state = np.compress(going, state, axis=1)
        if index.size:
            cx, cy, m = _clip(cx, cy, m, *offsets(index, state, d2))
    return areas.reshape(spots, trials)


def _serving_cells(lambda_b, trials: int, rngs):
    """Serving distance and serving-cell area of the station nearest to a
    tagged user, one independent Poisson field per trial, for ``trials``
    trials at each spot: station density lambda_b[k] and generator rngs[k].
    Returns (r, areas), two (spots, trials) arrays.

    r follows its void probability P(r > t) = exp(-lambda_b pi t^2), with
    the uniform variate stratified over the spot's trials. Given r, the
    other stations are a Poisson field on the plane minus the open disc of
    radius r around the user, which must hold none. Around the serving
    station at the origin, with the user at (-r, 0), a Poisson field of
    density lambda_b is drawn nearest first: pi lambda_b d_k^2 is the sum of
    k standard exponentials, each point at a uniform angle psi_k. A point
    with d_k + 2 r cos psi_k < 0 lies in the user's empty disc and is
    dropped; what is left is the field restricted to the allowed region,
    exact and untruncated. The cell is cut from the square of half-width
    10 / sqrt(pi lambda_b) around the station, which no cell reaches.

    The trials of every spot are clipped in one ``_cell_areas`` loop. Each
    step, every spot from the first to the last with live trials draws one
    row of 2 * trials uniforms from its generator into its own rows of one
    buffer, and its trial t takes column t, so a trial's points do not
    depend on the other trials or spots, and each spot's results are
    bit-equal to its one-spot call; a trial stops drawing once its cell is
    final. Each trial's state is its running pi lambda_b d^2, its
    pi lambda_b and its 2 r.
    """
    lambda_b = np.asarray(lambda_b, dtype=float)
    spots = lambda_b.size
    pi_lam = math.pi * lambda_b
    half = 10.0 / np.sqrt(lambda_b * math.pi)
    r = np.empty((spots, trials))
    # each spot's latest row: its exponential variates in rows[0], its
    # turns in rows[1]
    rows = np.empty((2, spots, trials))

    def start(k):
        rng = rngs[k]
        u = (rng.permutation(trials) + rng.random(trials)) / trials
        r[k] = np.sqrt(-np.log(u) / pi_lam[k])
        state = np.stack((np.zeros(trials), np.full(trials, pi_lam[k]), 2.0 * r[k]))
        return (-half[k], half[k], -half[k], half[k]), state

    def distances(index, state):
        # a spot whose trials are all done may draw rows that nothing reads
        for k in range(index[0] // trials, index[-1] // trials + 1):
            rngs[k].random(out=rows[0, k])
            rngs[k].random(out=rows[1, k])
        state[0] -= np.log1p(-np.take(rows[0], index))
        return state[0] / state[1]

    def offsets(index, state, d2):
        d = np.sqrt(d2)
        psi = TWO_PI * np.take(rows[1], index)
        cos_psi = np.cos(psi)
        d2[d + state[2] * cos_psi < 0.0] = np.inf  # in the user's empty disc
        return d * cos_psi, d * np.sin(psi), d2

    return r, _cell_areas(spots, trials, start, distances, offsets)


def mc_delay_oracle(
    lambda_b,
    lambda_u,
    utilization: float,
    params: RadioParams,
    trials: int,
    rng_seed,
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

    lambda_b and rng_seed are 1-D, one entry per spot: spot k draws
    ``trials`` trials from ``default_rng(rng_seed[k])``, and lambda_u's
    first axis runs over the spots (a scalar lambda_u applies to each; a
    first axis of another length raises ``ValueError`` before any draw).
    The estimate is linear in lambda_u, so one set of draws scores every
    user density of a spot at once, and the result's entry k is bit-equal
    to the one-element call at
    ([lambda_b[k]], [lambda_u[k]], [rng_seed[k]]). The spots share one
    clipping loop: a spot joins it as soon as the live trials and its own
    number at most ``_MC_PASS_TRIALS``, or when none is live. One array
    expression then scores every trial of every spot; a trial whose rate
    underflows to 0 scores +inf, with no floating-point warning. Zero
    traffic scores exactly 0.0, on such a spot too.
    """
    lambda_b = np.asarray(lambda_b, dtype=float)
    seeds = np.asarray(rng_seed)
    if lambda_b.ndim != 1 or seeds.shape != lambda_b.shape:
        raise ValueError(f"lambda_b and rng_seed must be 1-D of one length, got shapes "
                         f"{lambda_b.shape} and {seeds.shape}")
    lambda_u = np.asarray(lambda_u, dtype=float)
    if lambda_u.ndim and lambda_u.shape[0] != lambda_b.size:
        raise ValueError(f"lambda_u's first axis must run over the spots of lambda_b, got shapes "
                         f"{lambda_u.shape} and {lambda_b.shape}")
    _check_elements("lambda_b", lambda_b, np.isfinite(lambda_b) & (lambda_b > 0),
                    "finite and > 0")
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    _check_elements("lambda_u", lambda_u, lambda_u >= 0, ">= 0")
    r, areas = _serving_cells(lambda_b, trials, [np.random.default_rng(s) for s in seeds.tolist()])
    with np.errstate(all="ignore"):
        rate = capacity(r, params, mean_interference(r, params, lambda_b[:, None], utilization))
        scale = np.sum(areas / rate, axis=1).reshape((-1,) + (1,) * max(lambda_u.ndim - 1, 0))
        return np.where(lambda_u == 0.0, 0.0, lambda_u * scale / trials)
