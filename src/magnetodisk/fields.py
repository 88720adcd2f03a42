"""Reconstruction of displacement and magnetization fields from a profile.

The in-plane displacement satisfies w_r = -(lam/2) sin 2h with w(1) = 0 and
w_r(0) = 0; the unit magnetization at a disk point (x, y) with radius r is

    m = (x/r sin h(r), y/r sin h(r), cos h(r)),

which reduces the three-dimensional exchange density through the identity
|grad m|^2 = (sin h / r)^2 + h_r^2.  reconstruct_w integrates the
closed-form slope on the nodes; between the nodes, h and w are read as the
P1 (piecewise-linear) functions the energy is built on.  The checks of the
identity and of the displacement balance live with the tests.
"""

from __future__ import annotations

import numpy as np

from .operators import Profile

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


def magnetization_grid(h: Profile, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorized magnetization at points (xs[i], ys[i]); shape (len(xs), 3).

    xs and ys are 1-D and of one length; every point must be finite and lie
    in the closed unit disk.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError(f"xs and ys must be 1-D of one length, got {xs.shape} and {ys.shape}")
    rad = np.hypot(xs, ys)
    # NaN fails every comparison, so the test is "all inside", not "any outside"
    if not np.all(rad <= 1.0 + 1e-12):
        raise ValueError("sample points not finite or outside the unit disk")
    angle = np.interp(rad, h.grid.nodes, h.values)
    out = np.empty((len(xs), 3))
    safe = np.where(rad == 0.0, 1.0, rad)
    s = np.sin(angle)
    out[:, 0] = np.where(rad == 0.0, 0.0, xs / safe * s)
    out[:, 1] = np.where(rad == 0.0, 0.0, ys / safe * s)
    out[:, 2] = np.where(rad == 0.0, 1.0, np.cos(angle))
    return out
