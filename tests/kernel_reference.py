"""Per-density references for the delay model's cached unit kernel.

``qosmodel._unit_kernel`` computes the shared-user double integral once at
unit station density and rescales it to every density. ``shared_load_kernel``
evaluates that integral directly at one density and one serving distance,
so tests can assemble the delay the long way and compare. ``pair_distance``
is the plain law-of-cosines distance the overlap geometry is built on, and
``doubled`` is the refined quadrature the stability checks compare against.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from mbsplan.qosmodel import (TWO_PI, NonFinite, QuadratureSpec, _gauss_unit,
                              _truncation_radius, overlap_area)


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


def shared_load_kernel(lambda_b: float, r: float, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Expected-shared-user integral at serving distance r, per unit user
    density: g(lambda_b, r) = int_0^xmax int_0^2pi exp(-lambda_b A) x dtheta dx.

    Multiplying by lambda_u gives the mean number of other users attached to
    the tagged user's station. The x integral is truncated at the void-mass
    radius plus r.
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
    t = xi_t * TWO_PI
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
