"""Reduced energy of the radial magneto-elastic disk and its first variation.

A configuration is a radial angle profile h(r) on [0, 1] with h(0) = 0.  After
eliminating the displacement (w_r = -(lambda/2) sin 2h) the energy is

    E(h) = pi * int_0^1 [ h_r^2 + (sin h / r)^2 - (mu/2) sin^2(2h) ] r dr,

with mu = lambda^2 / 2 and the natural boundary condition h_r(1) = 0 encoded
weakly.  E(0) = 0 and E(h) >= -pi*mu/4 for every profile.

The exchange term h_r^2 is the P1 stiffness of the grid, sum_k kappa_k
(h_{k+1} - h_k)^2; the sin^2 h / r^2 and sin^2 2h terms are lumped on the
nodal quadrature weights.

Two kernels hold the formulas, and build their fields in place; each makes
one transcendental pass over the nodes.  energy_parts computes E together
with the cell differences dv = diff(h) and s = sin h at the nodes 1..n,
forming (mu/2) sin^2 2h as 2 mu s^2 (1 - s^2).  gradient_from_parts turns
those two arrays and cos h into the gradient (flux kappa dv, then the nodal
terms, with sin 2h = 2 s cos h) and also returns cos 2h = 1 - 2 s^2, from
which solver._curvature builds the Newton matrix, cos 4h included.  A
line-search trial that is accepted thus hands its dv and sin h to the
gradient at the same point, so the minimizer computes diff(h), sin h and
cos h once per iterate.  numpy evaluates float64 sin and cos by libm's
scalar loop on every CPU; its tan and exp run SIMD kernels, three to six
times faster but with last bits that depend on the CPU's vector extensions,
so they are not used, and the outputs do not depend on the CPU.  Both
kernels do the same floating-point operations in the same order as the
one-expression formulas that tests/reference_kernels.py keeps as their
bitwise reference.  fold_values maps iterates into [0, pi/2] in one pass
and never raises the energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import RadialGrid

__all__ = ["Profile", "ModelParams", "fold_values"]

@dataclass(frozen=True, eq=False)
class Profile:
    """Angle profile h: finite, read-only nodal values pinned to h(0) = 0,
    compared and hashed by identity.  The displacement w is eliminated from
    the energy; fields.reconstruct_w returns its nodal values as an array.
    """

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise ValueError(
                f"expected {self.grid.nodes.shape[0]} nodal values, got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("profile values must be finite")
        if values[0] != 0.0:
            raise ValueError(f"profile must vanish at r=0, got {values[0]!r}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: field strength mu = lambda^2 / 2, finite and >= 0.

    tol, finite and > 0, is the solver residual tolerance in the L^2(r dr)
    norm; max_iter, an integer >= 1, caps the minimizer's iterations.  The
    constructor holds every range rule, and dataclasses.replace runs it too;
    lambda goes to the fields functions.
    """

    mu: float
    tol: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        if not np.isfinite(self.mu) or self.mu < 0.0:
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        # an infinite tol would pass every gradient test
        if not (np.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if not float(self.max_iter).is_integer() or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter}")


def energy_parts(grid: RadialGrid, values: np.ndarray,
                 mu: float) -> tuple[float, np.ndarray, np.ndarray]:
    """E from raw nodal values (no Profile validation), with the two fields
    the gradient at the same values needs: the cell differences
    dv = values[1:] - values[:-1] and sinh = sin(values[1:])."""
    dv = values[1:] - values[:-1]
    t = dv * dv
    t *= grid.stiffness_bands[1]
    exchange = float(np.add.reduce(t))
    sinh = np.sin(values[1:])
    s2 = sinh * sinh
    # (mu/2) sin^2 2h = 2 mu s^2 (1 - s^2), s = sin h, in the exchange term's
    # buffer; mu multiplies s^2 (1 - s^2) <= 1/4, so no product exceeds mu/2
    # and 2 mu is never formed
    np.subtract(1.0, s2, out=t)
    t *= s2
    t *= mu
    t += t
    # w * (s^2 / r^2 - (mu/2) sin^2 2h), built in s^2's buffer
    s2 /= grid.r_squared
    s2 -= t
    s2 *= grid.weights[1:]
    e = np.pi * (exchange + float(np.add.reduce(s2)))
    return e, dv, sinh


def gradient_from_parts(grid: RadialGrid, values: np.ndarray, mu: float, dv: np.ndarray,
                        sinh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First variation g of E from raw nodal values, and cos 2h = 1 - 2 sin^2 h
    at the nodes 1..n, from the dv and sinh of energy_parts at the same
    values, which it overwrites.  For every test profile v with v(0) = 0,

        d/dt E(h + t v) |_{t=0} = 2 pi <g, v>   in the r dr inner product.

    The value at r = 0 is 0 by convention (test profiles vanish there); the
    natural condition h_r(1) = 0 is contained in the last row weakly.
    """
    flux = dv
    flux *= grid.stiffness_bands[1]
    # q / w + sin 2h / (2 r^2) - mu sin 2h cos 2h, built in the buffer of the
    # stiffness product q, whose cell fluxes enter the right node of their
    # cell with + and the left one with -
    g = np.empty_like(values)
    g[0] = 0.0
    np.subtract(flux[:-1], flux[1:], out=g[1:-1])
    g[-1] = flux[-1]
    # sin 2h = 2 sin h cos h and cos 2h = 1 - 2 sin^2 h; cos h itself, not
    # sqrt(1 - sin^2 h), keeps the sign of sin 2h for every h
    sin2h = np.cos(values[1:])
    sin2h *= sinh
    cos2h = sinh
    cos2h *= sinh
    cos2h *= -2.0
    cos2h += 1.0
    gi = g[1:]
    gi /= grid.weights[1:]
    # sin h cos h / r^2 is sin 2h / (2 r^2) bit for bit, as doubling is
    # exact; doubled in place, sin h cos h becomes sin 2h
    gi += np.divide(sin2h, grid.r_squared, out=flux)
    sin2h *= 2.0
    sin2h *= mu
    sin2h *= cos2h
    gi -= sin2h
    return g, cos2h


def fold_values(values: np.ndarray) -> tuple[np.ndarray, bool]:
    """Map nodal values into [0, pi/2]: the distance to the nearest multiple
    of pi.  Returns the mapped values and whether any value changed.

    Values already in [-pi/2, pi/2] only lose their sign.  Otherwise |.| is
    reduced modulo pi (np.fmod, exact for the double pi) when a value
    exceeds pi, and values above pi/2 are reflected once, to pi - a.  The
    map never raises the energy: it is 1-Lipschitz, so no cell difference
    grows, and it leaves sin^2 h and sin^2 2h unchanged.  A single global
    reflection keeps the energy; a kink it introduces lowers the exchange
    term."""
    values = np.asarray(values, dtype=float)
    a = np.abs(values)
    top = np.maximum.reduce(a)
    if top <= np.pi / 2.0:
        return a, bool(np.minimum.reduce(values) < 0.0)
    if top > np.pi:
        with np.errstate(invalid="ignore"):  # inf folds to nan, as divergence
            np.fmod(a, np.pi, out=a)
    over = a > np.pi / 2.0
    a[over] = np.pi - a[over]
    return a, True
