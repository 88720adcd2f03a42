"""Smallest eigenpair of the linearized operator at the trivial profile.

The quadratic form v -> int (v_r^2 + v^2/r^2) r dr restricted to v(0) = 0,
with the natural condition at r = 1, is discretized like the energy: the
grid's tridiagonal P1 stiffness plus the lumped v^2/r^2 term.  Its smallest
generalized eigenvalue gamma0 against the lumped r dr mass fixes the
instability threshold mu = gamma0 / 2 of the trivial profile.  P1 has no
spurious odd-even modes, so the second eigenpair is the discrete mode of
J1(j'_{1,2} r).

Inverse iteration reads gamma off the solve it already does: for an
M-normalized iterate v and u = A^-1 M v, 1/gamma = (M v) . u is the Rayleigh
quotient of the inverse pencil, second-order accurate in the error of v and,
for the ground mode, a sum of positive terms.  As power iteration on A^-1 M,
self-adjoint and positive in the M inner product, it lets gamma rise from
one solve to the next only by roundoff (Parlett, The Symmetric Eigenvalue
Problem, ch. 4), so it stops after two solves in a row that lower gamma by
at most RQ_TOL gamma or raise it.  The ground mode starts from the sampled
continuum mode J1(j'_{1,1} r), so a few solves settle it.  The pencil's
main diagonal and its factor are the grid's, built once per grid, and the
mass M is diag(grid.weights[1:]).  The start, by Horner's rule in r^2, and
the normalisation of each iterate run in reused buffers, with the operations
of their one-expression forms in the same order.  Every other reduction is
grid.dot, so the results do not depend on the BLAS thread count.  No
residual is computed here: EigenPair.residual is one matvec on first read.

The discrete energy along phi0 is, by the Taylor series of sin^2 h and
sin^2 2h and phi0^T A phi0 = gamma0,

    E(a phi0) / pi = -(2 mu - gamma0) a^2 + (1/2) cbar(mu) a^4 + c6(mu) a^6 + O(a^8),

cbar(mu) = -(2/3) P4 + (16/3) mu Q4 and c6(mu) = (2/45) P6 - (64/45) mu Q6,
with the moments P_k = sum w phi0^k / r^2 and Q_k = sum w phi0^k over the
nodes 1..n.  cbar(mu) is the projection of the Euler operator's cubic term
onto the ground mode, the lumped form of int [-(2/3) phi^4 / r + (16/3) mu
phi^4 r] dr; it is positive for mu >= gamma0 / 8, which makes the threshold
crossing a supercritical pitchfork that opens with amplitude
sqrt((2 mu - gamma0) / cbar) along phi0, cbar taken at mu = gamma0 / 2.
EigenPair.moments computes the four moments once per pair, EigenPair.sextic(mu)
the two coefficients at mu, from which the default start takes its
amplitude, and EigenPair.threshold_cbar is sextic's cbar at gamma0 / 2, which
both the minimizer's default start and the branch tracer read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import RadialGrid, banded_matvec, banded_solve, dot
from .operators import Profile

__all__ = ["EigenPair", "smallest_eigenpair"]

# j'_{1,1}, the first positive root of J1': the continuum ground mode on the
# unit disk is J1(j'_{1,1} r), with eigenvalue j'_{1,1}^2: the sum of c_k
# r^(2k+1), c_k = (-1)^k (j'_{1,1}/2)^(2k+1) / (k! (k+1)!), whose first 12
# terms leave a truncation error below roundoff for j'_{1,1} r <= 1.85
_J1PRIME_ROOT = 1.8411837813406593
_J1_START = tuple((-1) ** k * (0.5 * _J1PRIME_ROOT) ** (2 * k + 1)
                  / (math.factorial(k) * math.factorial(k + 1)) for k in range(12))

MAX_ITER = 400  # inverse-iteration solves before the iteration gives up
RQ_TOL = 1e-14  # relative fall of the Rayleigh quotient in a solve that counts as settled


def _j1_start(grid: RadialGrid) -> np.ndarray:
    """J1(j'_{1,1} r) at the nodes 1..n in one buffer: r^3 (c_1 + c_2 r^2 + ...)
    by Horner's rule in the grid's r^2, then the leading term c_0 r."""
    r2 = grid.r_squared
    s = _J1_START[-1] * r2
    for c in _J1_START[-2:0:-1]:
        s += c
        s *= r2
    r = grid.nodes[1:]
    s *= r
    s += _J1_START[0] * r
    return s


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue gamma0 with its nonnegative, r dr-normalized eigenprofile;
    iterations counts the inverse-iteration solves.  residual, the norm
    ||A phi0 - gamma0 M phi0||_2 over the nodes 1..n, threshold_cbar, cbar
    at mu = gamma0 / 2, and moments, (P4, Q4, P6, Q6) of the energy's
    expansion along phi0, are computed from the pair on first read and kept.
    From n ~ 4096 on, residual is the rounding noise of its own matvec: it
    sits below u || |A| |phi0| ||_2 (u = 2**-53), 2.4e-11 against 4.4e-11 at
    n = 4096 and 1.1e-9 against 2.8e-9 at n = 65536, where the inverse
    pencil's residual ||M (phi0 - gamma0 A^-1 M phi0)||_2 is 6e-13 and 6e-16.
    """

    gamma0: float
    phi0: Profile
    iterations: int = 0

    def __post_init__(self):
        if not self.gamma0 > 1.0:
            raise ValueError(f"expected eigenvalue > 1, got {self.gamma0}")
        v = self.phi0.values
        norm_sq = dot(self.phi0.grid.weights, v * v)
        if abs(norm_sq - 1.0) > 1e-10:
            raise ValueError(f"eigenprofile not normalized: <phi,phi> = {norm_sq}")
        if v.min() < 0.0:
            raise ValueError("eigenprofile must be nonnegative")

    @cached_property
    def residual(self) -> float:
        grid, v = self.phi0.grid, self.phi0.values[1:]
        res = banded_matvec(grid, grid.pencil, v) - self.gamma0 * grid.weights[1:] * v
        return float(np.sqrt(dot(res, res)))

    @cached_property
    def threshold_cbar(self) -> float:
        return self.sextic(self.gamma0 / 2.0)[0]

    @cached_property
    def moments(self) -> tuple[float, float, float, float]:
        """(P4, Q4, P6, Q6): P_k = sum w phi0^k / r^2 and Q_k = sum w phi0^k
        over the nodes 1..n, by *, / and pairwise sums."""
        grid, v = self.phi0.grid, self.phi0.values[1:]
        w, r2 = grid.weights[1:], grid.r_squared
        v2 = v * v
        v4 = v2 * v2  # not v ** 4, numpy's SIMD power
        v6 = v4 * v2
        return dot(w, v4 / r2), dot(w, v4), dot(w, v6 / r2), dot(w, v6)

    def sextic(self, mu: float) -> tuple[float, float]:
        """(cbar(mu), c6(mu)), the coefficients of the energy along phi0 at
        mu (see the module docstring)."""
        p4, q4, p6, q6 = self.moments
        return (-(2.0 / 3.0) * p4 + (16.0 / 3.0) * mu * q4,
                (2.0 / 45.0) * p6 - (64.0 / 45.0) * mu * q6)


def _inverse_iteration(grid: RadialGrid, v: np.ndarray) -> tuple[float, np.ndarray, int]:
    factor = grid.pencil_factor
    m = grid.weights[1:]
    scratch = np.empty_like(v)  # v * v, then M v, (M v) * u and m * (u * u)
    v /= np.sqrt(dot(m, np.multiply(v, v, out=scratch)))  # the caller's start, in place

    gamma_prev = np.inf
    settled = 0
    for it in range(1, MAX_ITER + 1):
        mv = np.multiply(m, v, out=scratch)
        u = banded_solve(factor, mv)
        mv *= u
        gamma = 1.0 / float(np.add.reduce(mv))
        np.multiply(u, u, out=scratch)
        scratch *= m
        u /= np.sqrt(float(np.add.reduce(scratch)))
        # gamma never rises but by roundoff, so a rise counts as settled too
        settled = settled + 1 if gamma_prev - gamma <= RQ_TOL * gamma else 0
        gamma_prev = gamma
        v = u
        if settled == 2:
            break
    else:
        raise RuntimeError(
            f"inverse iteration did not settle in {MAX_ITER} iterations; "
            f"last Rayleigh quotient {gamma}"
        )
    return gamma, v, it


def smallest_eigenpair(grid: RadialGrid) -> EigenPair:
    """Smallest eigenpair of the pencil by inverse iteration (shift 0),
    started at the sampled continuum mode J1(j'_{1,1} r).

    gamma0 is the Rayleigh quotient 1 / ((M v) . A^-1 M v) of the inverse
    pencil at the last M-normalized iterate v.  The start only sets the
    number of solves; the pair returned is the discrete one.  The
    eigenprofile is normalized to int phi^2 r dr = 1 and signed so that
    int phi r dr > 0.  Raises RuntimeError with the last Rayleigh quotient if
    the iteration does not settle.
    """
    gamma, v, it = _inverse_iteration(grid, _j1_start(grid))
    m = grid.weights[1:]
    scale = np.sqrt(dot(m, v * v))
    values = np.zeros(grid.n + 1)  # the origin value 0, then the mode
    np.divide(v, -scale if dot(m, v) < 0.0 else scale, out=values[1:])
    return EigenPair(gamma0=gamma, phi0=Profile(grid, values), iterations=it)

