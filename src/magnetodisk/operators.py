"""Reduced energy of the radial magneto-elastic disk and its first variation.

A configuration is a radial angle profile h(r) on [0, 1] with h(0) = 0.  After
eliminating the displacement (w_r = -(lambda/2) sin 2h) the energy is

    E(h) = pi * int_0^1 [ h_r^2 + (sin h / r)^2 - (mu/2) sin^2(2h) ] r dr,

with mu = lambda^2 / 2 and the natural boundary condition h_r(1) = 0 encoded
weakly.  E(0) = 0 and E(h) >= -pi*mu/4 for every profile.

The exchange term h_r^2 is the P1 stiffness of the grid, sum_k kappa_k
(h_{k+1} - h_k)^2; the sin^2 h / r^2 and sin^2 2h terms are lumped on the
nodal quadrature weights.  energy_of_values and gradient_values, the kernels
of the minimizer's descent loop, build their fields in place.  They do the
same floating-point operations in the same order as the one-expression
formulas that tests/test_operators.py keeps as their bitwise reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .grid import RadialGrid, derivative, stiffness_apply

__all__ = [
    "Profile",
    "ModelParams",
    "energy",
    "gradient",
    "euler_residual",
    "fold",
    "nonlinear_split",
]


@dataclass(frozen=True)
class Profile:
    """Nodal grid function.  Angle profiles are pinned to 0 at r = 0.

    Displacement profiles produced by field reconstruction satisfy w(1) = 0
    instead and are built with pin_origin=False.
    """

    grid: RadialGrid
    values: np.ndarray
    pin_origin: bool = True

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise ValueError(
                f"expected {self.grid.nodes.shape[0]} nodal values, got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("profile values must be finite")
        if self.pin_origin and values[0] != 0.0:
            raise ValueError(f"profile must vanish at r=0, got {values[0]!r}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: field strength mu >= 0 with coupling lam = sqrt(2 mu).

    tol is the solver residual tolerance in the L^2(r dr) norm; max_iter caps
    descent iterations.
    """

    mu: float
    lam: float | None = None
    tol: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        if not np.isfinite(self.mu) or self.mu < 0.0:
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        if self.lam is None:
            object.__setattr__(self, "lam", sqrt(2.0 * self.mu))
        else:
            if abs(self.mu - self.lam**2 / 2.0) > 1e-12 * max(1.0, abs(self.mu)):
                raise ValueError(
                    f"inconsistent coupling: mu={self.mu} but lam^2/2={self.lam ** 2 / 2.0}"
                )
        if not (self.tol > 0.0):
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


def energy_of_values(grid: RadialGrid, values: np.ndarray, mu: float) -> float:
    """Discrete energy from raw nodal values (no Profile validation)."""
    exchange = np.diff(values)
    exchange *= exchange
    exchange *= grid.stiffness_bands[1]
    v = values[1:]
    s = np.sin(v)
    s /= grid.nodes[1:]
    sin2h = np.sin(2.0 * v)
    # w * (s^2 - (mu/2) sin^2 2h), built in s's buffer
    s *= s
    t = (0.5 * mu) * sin2h
    t *= sin2h
    s -= t
    s *= grid.weights[1:]
    return np.pi * (float(np.sum(exchange)) + float(np.sum(s)))


def energy(h: Profile, p: ModelParams) -> float:
    """E(h) for the given parameters."""
    return energy_of_values(h.grid, h.values, p.mu)


def gradient_values(grid: RadialGrid, values: np.ndarray, mu: float) -> np.ndarray:
    """Raw nodal gradient field; see gradient()."""
    g = stiffness_apply(grid, values)
    g[0] = 0.0
    two_h = 2.0 * values[1:]
    sin2h = np.sin(two_h)
    cos2h = np.cos(two_h, out=two_h)
    # q / w + sin 2h / (2 r^2) - mu sin 2h cos 2h, built in the buffer of the
    # stiffness product q
    gi = g[1:]
    gi /= grid.weights[1:]
    gi += sin2h / (2.0 * grid.r_squared)
    sin2h *= mu
    sin2h *= cos2h
    gi -= sin2h
    return g


def gradient(h: Profile, p: ModelParams) -> Profile:
    """First variation g of E: for every test profile v with v(0) = 0,

        d/dt E(h + t v) |_{t=0} = 2 pi <g, v>   in the r dr inner product.

    The value at r = 0 is 0 by convention (test profiles vanish there); the
    natural condition h_r(1) = 0 is contained in the last row weakly.
    """
    return Profile(h.grid, gradient_values(h.grid, h.values, p.mu))


def boundary_slope(h: Profile) -> float:
    """Discrete h_r(1), which vanishes at truncation level for minimizers."""
    return float(derivative(h.grid, h.values)[-1])


def euler_residual(h: Profile, p: ModelParams) -> float:
    """Convergence certificate for the strong-form critical-point equation.

    Returns the r dr-weighted 2-norm of the residual field at interior nodes
    plus |h_r(1)| (the nodal derivative's one-sided slope) for the natural
    boundary condition.  The residual field is the gradient field, so
    discrete critical points score at truncation level.
    """
    rho = gradient_values(h.grid, h.values, p.mu)
    w = h.grid.weights
    interior = float(np.sqrt(max(np.sum(w[1:-1] * rho[1:-1] ** 2), 0.0)))
    return interior + abs(boundary_slope(h))


def fold_values(values: np.ndarray) -> tuple[np.ndarray, bool]:
    """Map nodal values into [0, pi/2] by |.| and reflections at pi/2.
    Returns the mapped values and whether any value changed."""
    values = np.asarray(values, dtype=float)
    a = np.abs(values)
    changed = bool(values.min() < 0.0)
    while True:
        mask = a > np.pi / 2.0
        if not mask.any():
            return a, changed
        changed = True
        a = np.where(mask, np.abs(np.pi - a), a)


def fold(h: Profile) -> Profile:
    """Replace h by its energy-equivalent representative with values in [0, pi/2].

    Values are first replaced by their absolute value, then values above pi/2
    are reflected to pi - value, repeating until all values land in
    [0, pi/2].  The map terminates after finitely many sweeps and leaves the
    energy invariant (exactly so whenever it acts as a single global
    reflection; up to mesh-resolution error across kinks it introduces).
    """
    return Profile(h.grid, fold_values(h.values)[0])


def nonlinear_split(h: Profile, p: ModelParams) -> tuple[Profile, Profile, Profile]:
    """Split the strong-form Euler operator into linear + cubic + remainder.

    Returns nodal fields (L, C, D) with

        L(h) = -h_rr - h_r/r + h/r^2          (assembled weakly, as in gradient),
        C(h) = -(2/3) h^3/r^2 + (16/3) mu h^3  (exactly cubic),
        D(h) = remainder, of quintic order in h,

    such that L + C + D - 2 mu h reproduces the strong-form Euler residual
    field identically.  All three vanish at r = 0.
    """
    grid, v, mu = h.grid, h.values, p.mu
    r2 = grid.r_squared
    w = grid.weights

    q = stiffness_apply(grid, v)
    lin = np.zeros_like(v)
    lin[1:] = q[1:] / w[1:] + v[1:] / r2

    # cube by plain multiplication: unlike the pow ufunc this commutes bitwise
    # with power-of-two rescalings of h, keeping C exactly homogeneous
    cube = v[1:] * v[1:] * v[1:]

    cub = np.zeros_like(v)
    cub[1:] = -(2.0 / 3.0) * cube / r2 + (16.0 / 3.0) * mu * cube

    rem = np.zeros_like(v)
    sin2h = np.sin(2.0 * v[1:])
    sin4h = np.sin(4.0 * v[1:])
    rem[1:] = (
        -(v[1:] - sin2h / 2.0) / r2
        + (2.0 / 3.0) * cube / r2
        + 0.5 * mu * (4.0 * v[1:] - sin4h)
        - (16.0 / 3.0) * mu * cube
    )
    return Profile(grid, lin), Profile(grid, cub), Profile(grid, rem)
