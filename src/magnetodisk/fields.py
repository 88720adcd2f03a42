"""Reconstruction of displacement and magnetization fields from a profile.

The in-plane displacement satisfies w_r = -(lam/2) sin 2h with w(1) = 0 and
w_r(0) = 0; the unit magnetization at a disk point (x, y) with radius r is

    m = (x/r sin h(r), y/r sin h(r), cos h(r)),

which reduces the three-dimensional exchange density through the identity
|grad m|^2 = (sin h / r)^2 + h_r^2.  reconstruct_w integrates the
closed-form slope on the nodes; between the nodes, h and w are read through
a monotone cubic interpolant in r.  The checks of the identity and of the
displacement balance live with the tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .operators import Profile

if TYPE_CHECKING:
    from scipy.interpolate import PchipInterpolator

__all__ = ["reconstruct_w", "magnetization_grid"]


def reconstruct_w(h: Profile, lam: float) -> Profile:
    """Integrate w_r = -(lam/2) sin 2h inward from w(1) = 0.

    Per-cell trapezoid integration of the closed-form slope; the result is a
    displacement profile (w(1) = 0 exactly, w(0) generally nonzero).
    """
    grid = h.grid
    slope = -(lam / 2.0) * np.sin(2.0 * h.values)
    dr = np.diff(grid.nodes)
    cell = 0.5 * (slope[:-1] + slope[1:]) * dr
    w = np.zeros_like(h.values)
    w[:-1] = -np.cumsum(cell[::-1])[::-1]
    w[-1] = 0.0
    return Profile(grid, w, pin_origin=False)


def _interpolant(h: Profile) -> PchipInterpolator:
    # monotone piecewise cubic in r, for the angle h and the displacement w:
    # no overshoot between nodes, C^1 derivative.
    # Imported here: scipy.interpolate loads scipy.optimize, scipy.spatial and
    # scipy.special, which only the field reconstruction needs.
    from scipy.interpolate import PchipInterpolator

    return PchipInterpolator(h.grid.nodes, h.values, extrapolate=False)


def magnetization_grid(h: Profile, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorized magnetization at points (xs[i], ys[i]); shape (len(xs), 3)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    rad = np.hypot(xs, ys)
    if np.any(rad > 1.0 + 1e-12):
        raise ValueError("sample points outside the unit disk")
    angle = _interpolant(h)(np.minimum(rad, 1.0))
    out = np.empty((len(xs), 3))
    safe = np.where(rad == 0.0, 1.0, rad)
    s = np.sin(angle)
    out[:, 0] = np.where(rad == 0.0, 0.0, xs / safe * s)
    out[:, 1] = np.where(rad == 0.0, 0.0, ys / safe * s)
    out[:, 2] = np.where(rad == 0.0, 1.0, np.cos(angle))
    return out
