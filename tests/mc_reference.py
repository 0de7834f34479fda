"""Scalar reference for the batched Monte Carlo serving-cell clipper.

This is the per-trial implementation that ``qosmodel._serving_cells`` and
``qosmodel._cell_areas`` replace: one Python Sutherland-Hodgman clip per
trial, and two ``rng.random(n)`` draws per trial. The batched code must
return bit-equal serving distances and areas for the same generator state.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def cell_area(dx, dy, box) -> float:
    """Area of the Voronoi cell of a station at the origin among stations at
    offset arrays (dx, dy), within the rectangle box = (x0, x1, y0, y1).

    Clips the rectangle (Sutherland-Hodgman) by the perpendicular bisector
    to each station, nearest first, and stops once a station is farther
    than twice the cell's farthest vertex: its bisector and every later one
    miss the cell, so the area is exact.
    """
    d2 = dx * dx + dy * dy
    order = np.argsort(d2)
    x0, x1, y0, y1 = box
    cell = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    reach2 = max(x * x + y * y for x, y in cell)
    for qx, qy, q2 in zip(dx[order].tolist(), dy[order].tolist(), d2[order].tolist()):
        if q2 > 4.0 * reach2:
            break
        # keep the side p . q <= |q|^2 / 2, which holds the origin
        half = 0.5 * q2
        px, py = cell[-1]
        pv = px * qx + py * qy - half
        clipped = []
        for x, y in cell:
            v = x * qx + y * qy - half
            if (v > 0.0) != (pv > 0.0):
                s = pv / (pv - v)
                clipped.append((px + s * (x - px), py + s * (y - py)))
            if v <= 0.0:
                clipped.append((x, y))
            px, py, pv = x, y, v
        cell = clipped
        reach2 = max(x * x + y * y for x, y in cell)
    return 0.5 * sum(px * y - py * x for (px, py), (x, y) in zip(cell[-1:] + cell[:-1], cell))


def serving_cells(lambda_b: float, trials: int, rng: np.random.Generator):
    """Serving distance and serving-cell area per trial, one trial at a time."""
    radius = 10.0 / math.sqrt(lambda_b * math.pi)
    u = (rng.permutation(trials) + rng.random(trials)) / trials
    r = np.sqrt(-np.log(u) / (math.pi * lambda_b))
    counts = rng.poisson(lambda_b * math.pi * np.maximum(radius * radius - r * r, 0.0))
    areas = np.empty(trials)
    for t, (r_t, n) in enumerate(zip(r.tolist(), counts.tolist())):
        rho = np.sqrt(r_t * r_t + (radius * radius - r_t * r_t) * rng.random(n))
        phi = TWO_PI * rng.random(n)
        areas[t] = cell_area(rho * np.cos(phi) - r_t, rho * np.sin(phi),
                             (-radius - r_t, radius - r_t, -radius, radius))
    return r, areas
