"""Reconstruction of displacement and magnetization fields from a profile.

The in-plane displacement satisfies w_r = -(lam/2) sin 2h with w(1) = 0 and
w_r(0) = 0; the unit magnetization at a disk point (x, y) with radius r is

    m = (x/r sin h(r), y/r sin h(r), cos h(r)),

which reduces the three-dimensional exchange density through the identity
|grad m|^2 = (sin h / r)^2 + h_r^2.  Nodal slopes of w and sin 2h come from
the grid's second-order derivative; the exchange term h_r^2 of
coupled_energy is the P1 cell form of the reduced energy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .grid import derivative, integrate
from .operators import Profile, energy_of_values

if TYPE_CHECKING:
    from scipy.interpolate import PchipInterpolator

__all__ = [
    "reconstruct_w",
    "magnetization_grid",
    "check_reduction_identity",
    "coupled_energy",
    "displacement_equation_residual",
]


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


def check_reduction_identity(
    h: Profile,
    samples: int = 100,
    step: float = 1e-4,
    seed: int = 0,
) -> float:
    """Max mismatch of |grad m|^2 against (sin h/r)^2 + h_r^2 at random points.

    The left side is evaluated by central differences of the interpolated
    magnetization with the given stencil step; the right side uses the same
    angle interpolant and its derivative.  Returns the worst absolute error.
    """
    rng = np.random.default_rng(seed)
    rad = rng.uniform(0.05, 1.0 - 2.0 * step, samples)
    theta = rng.uniform(0.0, 2.0 * np.pi, samples)
    xs = rad * np.cos(theta)
    ys = rad * np.sin(theta)

    interp = _interpolant(h)
    dinterp = interp.derivative()

    gx = (magnetization_grid(h, xs + step, ys)
          - magnetization_grid(h, xs - step, ys)) / (2.0 * step)
    gy = (magnetization_grid(h, xs, ys + step)
          - magnetization_grid(h, xs, ys - step)) / (2.0 * step)
    lhs = np.sum(gx * gx + gy * gy, axis=1)

    angle = interp(rad)
    rhs = (np.sin(angle) / rad) ** 2 + dinterp(rad) ** 2
    return float(np.max(np.abs(lhs - rhs)))


def coupled_energy(h: Profile, w: Profile, lam: float) -> float:
    """Energy of the pair (h, w) before eliminating the displacement:

        pi * int [ h_r^2 + (sin h/r)^2 + lam sin(2h) w_r + w_r^2 ] r dr.

    The first two terms are the reduced energy at mu = 0 (the grid's P1
    exchange term and the lumped sin^2 h / r^2); the coupling terms use the
    grid derivative of w.  For w reconstructed from h this matches the
    reduced energy up to quadrature error.
    """
    grid = h.grid
    dw = derivative(grid, w.values)
    sin2h = np.sin(2.0 * h.values)
    coupling = integrate(grid, lam * sin2h * dw + dw * dw)
    return energy_of_values(grid, h.values, 0.0) + np.pi * coupling


def displacement_equation_residual(h: Profile, w: Profile, lam: float) -> np.ndarray:
    """Interior residual of the displacement balance

        w_rr + w_r/r + (lam/2) [ (sin 2h)_r + sin(2h)/r ] = 0,

    evaluated with the grid derivative stencils; returned on nodes 1..n-1.
    """
    grid = h.grid
    r = grid.nodes
    dw = derivative(grid, w.values)
    ddw = derivative(grid, dw)
    sin2h = np.sin(2.0 * h.values)
    dsin = derivative(grid, sin2h)
    res = ddw + dw / np.where(r == 0.0, 1.0, r) + 0.5 * lam * (dsin + sin2h / np.where(r == 0.0, 1.0, r))
    return res[1:-1]
