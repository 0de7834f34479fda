"""Scalar reference for the batched Monte Carlo serving-cell sampler.

``qosmodel._serving_cells`` and ``qosmodel._cell_areas`` step every trial
at once in numpy. This module runs the same step loop one trial at a time:
the same rows of uniforms (one row of 2 * trials values per step, trial t
taking column t), a Python Sutherland-Hodgman clip per station, and a
point inside the tagged user's empty disc skipped rather than clipped. The
batched code must return bit-equal serving distances and areas for the same
generator state.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

TWO_PI = 2.0 * math.pi


def cell_area(points, box) -> float:
    """Area of the Voronoi cell of a station at the origin within the
    rectangle box = (x0, x1, y0, y1).

    points yields (qx, qy, d2, kept) nearest first: the offsets of a point,
    its squared distance, and whether it is a station. Clips the rectangle
    by the perpendicular bisector to each station, and stops at the first
    point farther than twice the cell's farthest vertex: its bisector and
    every later one miss the cell, so the area is exact.
    """
    x0, x1, y0, y1 = box
    cell = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    for qx, qy, d2, kept in points:
        if d2 > 4.0 * max(x * x + y * y for x, y in cell):
            break
        if not kept:
            continue
        # keep the side p . q <= |q|^2 / 2, which holds the origin
        half = 0.5 * d2
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
    return 0.5 * sum(px * y - py * x for (px, py), (x, y) in zip(cell[-1:] + cell[:-1], cell))


def given_points(dx, dy):
    """``cell_area``'s points for given stations at offsets (dx, dy),
    nearest first, then one point at infinity."""
    d2 = dx * dx + dy * dy
    order = np.argsort(d2)
    yield from zip(dx[order].tolist(), dy[order].tolist(), d2[order].tolist(),
                   [True] * d2.size)
    yield math.inf, math.inf, math.inf, True


def serving_cells(lambda_b: float, trials: int, rng: np.random.Generator):
    """Serving distance and serving-cell area per trial, one trial at a time."""
    half = 10.0 / math.sqrt(lambda_b * math.pi)
    u = (rng.permutation(trials) + rng.random(trials)) / trials
    r = np.sqrt(-np.log(u) / (math.pi * lambda_b))
    # Per step: each trial's exponential increment, and the cosine and sine
    # of its angle. numpy's elementwise functions, as in the batched code,
    # since a libm call may round differently.
    rows = []

    def drawn_points(t, r_t):
        mass = 0.0
        for k in itertools.count():
            if k == len(rows):
                e, turn = rng.random((2, trials))
                psi = TWO_PI * turn
                rows.append((-np.log1p(-e), np.cos(psi), np.sin(psi)))
            exp_t, cos_t, sin_t = (float(row[t]) for row in rows[k])
            mass += exp_t
            d2 = mass / (math.pi * lambda_b)
            d = math.sqrt(d2)
            # a station lies outside the user's empty disc: centre (-r_t, 0), radius r_t
            yield d * cos_t, d * sin_t, d2, d + 2.0 * r_t * cos_t >= 0.0

    areas = np.array([cell_area(drawn_points(t, r_t), (-half, half, -half, half))
                      for t, r_t in enumerate(r.tolist())])
    return r, areas
