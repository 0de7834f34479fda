"""Per-density references for the delay model's cached unit kernel.

``qosmodel._unit_kernel`` computes the shared-user double integral once at
unit station density and rescales it to every density. ``shared_load_kernel``
evaluates that integral directly at one density and one serving distance,
so tests can assemble the delay the long way and compare. ``pair_distance``
is the plain law-of-cosines distance between the two discs' centers, which
the acos/Heron lens references of ``overlap_area`` take (the function
itself never forms it), and ``doubled`` is the refined quadrature the
stability checks compare against.
``delay_r_form`` is the delay as it was computed before the unit vectors:
the serving distances rescaled per density and two powers per node, through
``mean_interference`` and ``capacity``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from mbsplan.qosmodel import (TWO_PI, NonFinite, QuadratureSpec, _check_utilization,
                              _gauss_unit, _truncation_radius, _unit_kernel, capacity,
                              mean_interference, overlap_area)
from mbsplan.scenario import RadioParams


def pair_distance(r, x, theta):
    """Distance between the tagged user and a point at polar (x, theta)
    relative to the serving station, the tagged user sitting at distance r."""
    r = np.asarray(r, dtype=float)
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    d = np.sqrt(x * x + r * r + 2.0 * x * r * np.sin(theta))
    if d.ndim == 0:
        return float(d)
    return d


def shared_load_kernel(lambda_b: float, r: float, quad: QuadratureSpec = QuadratureSpec(),
                       half_turn: bool = True) -> float:
    """Expected-shared-user integral at serving distance r, per unit user
    density: g(lambda_b, r) = int_0^xmax int_0^2pi exp(-lambda_b A) x dtheta dx.

    Multiplying by lambda_u gives the mean number of other users attached to
    the tagged user's station. The x integral is truncated at the void-mass
    radius plus r. A depends on theta only through sin(theta) and
    |cos(theta)|, so the theta integral is taken on [-pi/2, pi/2] with
    doubled weights (``quad.nodes_theta`` nodes there), as the unit kernel
    takes it; ``half_turn=False`` spreads the nodes over the full turn
    instead, which converges more slowly but does not rest on the symmetry.
    """
    if lambda_b <= 0:
        raise ValueError(f"lambda_b must be > 0, got {lambda_b}")
    if r <= 0:
        raise ValueError(f"r must be > 0, got {r}")
    x_max = _truncation_radius(lambda_b, quad.tail_mass_epsilon) + r
    xi_x, w_x = _gauss_unit(quad.nodes_x)
    xi_t, w_t = _gauss_unit(quad.nodes_theta)
    x = xi_x * x_max
    wx = w_x * x_max
    t = (xi_t - 0.5) * math.pi if half_turn else xi_t * TWO_PI
    wt = w_t * TWO_PI
    area = overlap_area(r, x[:, None], t[None, :])
    integrand = np.exp(-lambda_b * area) * x[:, None]
    g = float(wx @ integrand @ wt)
    if not math.isfinite(g):
        raise NonFinite(f"shared_load_kernel: non-finite integral at lambda_b={lambda_b}, r={r}")
    return g


def doubled(quad: QuadratureSpec) -> QuadratureSpec:
    """``quad`` with every node count doubled."""
    return dataclasses.replace(quad, nodes_r=2 * quad.nodes_r, nodes_x=2 * quad.nodes_x,
                               nodes_theta=2 * quad.nodes_theta)


def delay_r_form(
    lambda_b,
    lambda_u,
    utilization,
    params: RadioParams,
    quad: QuadratureSpec = QuadratureSpec(),
):
    """Mean per-bit delay when every station is busy a fixed fraction
    ``utilization`` of the time. Exactly linear in lambda_u.

    The interference is taken in busy x u form: the interference of an
    always-busy field, ``mean_interference(r, params, lambda_b, 1.0)``,
    times u (at u = 1 the factor is an exact 1.0). Densities and
    utilizations may be arrays that broadcast against each other; each
    element is bit-equal to its scalar call.
    """
    lambda_b = np.asarray(lambda_b, dtype=float)
    lambda_u = np.asarray(lambda_u, dtype=float)
    utilization = np.asarray(utilization, dtype=float)
    if np.any(lambda_b <= 0):
        raise ValueError(f"lambda_b must be > 0, got {lambda_b}")
    if np.any(lambda_u < 0):
        raise ValueError(f"lambda_u must be >= 0, got {lambda_u}")
    _check_utilization(utilization)
    r1, kernel = _unit_kernel(quad)
    r = r1 / np.sqrt(lambda_b)[..., None]
    busy = mean_interference(r, params, lambda_b[..., None], 1.0)
    rate = capacity(r, params, busy * utilization[..., None])
    with np.errstate(all="ignore"):  # a rate that underflows to 0 is reported below
        tau = (lambda_u / lambda_b) * np.sum(kernel / rate, axis=-1)
    finite = np.isfinite(tau)
    if not np.all(finite):
        first = int(np.argmin(finite))  # flat index of the first non-finite element
        b, u = (float(np.broadcast_to(x, tau.shape).flat[first]) for x in (lambda_b, lambda_u))
        raise NonFinite(f"delay: non-finite result at lambda_b={b!r}, lambda_u={u!r}", first)
    return float(tau) if tau.ndim == 0 else tau
