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
mass M is diag(grid.weights[1:]).  The Bessel series and the normalisation
of each iterate run in reused buffers, with the operations of their
one-expression forms in the same order.  Every other reduction is grid.dot,
so the results do not depend on the BLAS thread count.

cbar projects the cubic term of the Euler operator onto the ground mode: the
pitchfork at mu = gamma0 / 2 opens with amplitude sqrt((2 mu - gamma0) / cbar)
along phi0, which both the minimizer's default start and the branch tracer
read from EigenPair.threshold_cbar, computed once per pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import RadialGrid, banded_matvec, banded_solve, dot, integrate
from .operators import ModelParams, Profile

__all__ = ["EigenPair", "cbar", "smallest_eigenpair", "second_eigenpair"]

# j'_{1,1}, the first positive root of J1': the continuum ground mode on the
# unit disk is J1(j'_{1,1} r), with eigenvalue j'_{1,1}^2
_J1PRIME_ROOT = 1.8411837813406593

MAX_ITER = 400  # inverse-iteration solves before the iteration gives up
RQ_TOL = 1e-14  # relative fall of the Rayleigh quotient in a solve that counts as settled


def _bessel_j1(x: np.ndarray) -> np.ndarray:
    """J1 by 12 terms of its power series; the truncation error is below
    roundoff for |x| <= 1.85."""
    q = -0.25 * x * x
    term = 0.5 * x
    total = term.copy()
    for k in range(1, 12):
        term *= q
        term /= k * (k + 1)
        total += term
    return total


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue gamma0 with its nonnegative, r dr-normalized eigenprofile.

    residual is ||A phi - gamma0 M phi||_2 over the nodes 1..n, computed once
    for the returned pair; iterations counts the inverse-iteration solves.
    threshold_cbar is cbar at mu = gamma0 / 2, computed on first use and
    kept with the pair.
    """

    gamma0: float
    phi0: Profile
    residual: float = 0.0
    iterations: int = 0

    def __post_init__(self):
        if not self.gamma0 > 1.0:
            raise ValueError(f"expected eigenvalue > 1, got {self.gamma0}")
        grid = self.phi0.grid
        v = self.phi0.values
        norm_sq = dot(grid.weights, v * v)
        if abs(norm_sq - 1.0) > 1e-10:
            raise ValueError(f"eigenprofile not normalized: <phi,phi> = {norm_sq}")
        if v.min() < 0.0:
            raise ValueError("eigenprofile must be nonnegative")

    @cached_property
    def threshold_cbar(self) -> float:
        return cbar(self.phi0, ModelParams(mu=self.gamma0 / 2.0))


def _inverse_iteration(grid: RadialGrid, v: np.ndarray,
                       deflate: np.ndarray | None) -> tuple[float, np.ndarray, float, int]:
    factor = grid.pencil_factor
    m = grid.weights[1:]

    def project(x: np.ndarray) -> np.ndarray:
        if deflate is None:
            return x
        return x - dot(m, x * deflate) * deflate

    v = project(v)
    if deflate is not None:
        v[0] += 1e-3  # keep the start outside the deflated direction
        v = project(v)
    v = v / np.sqrt(dot(m, v * v))

    gamma_prev = np.inf
    settled = 0
    scratch = np.empty_like(v)  # M v, then (M v) * u, then m * (u * u)
    for it in range(1, MAX_ITER + 1):
        mv = np.multiply(m, v, out=scratch)
        u = project(banded_solve(factor, mv))
        mv *= u
        gamma = 1.0 / float(np.sum(mv))
        np.multiply(u, u, out=scratch)
        scratch *= m
        u /= np.sqrt(float(np.sum(scratch)))
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
    res = banded_matvec(grid, grid.pencil, v) - gamma * m * v
    return gamma, v, float(np.sqrt(dot(res, res))), it


def _signed_mode(grid: RadialGrid, v: np.ndarray) -> Profile:
    """Mode v on nodes 1..n as a profile: signed so that int v r dr >= 0,
    normalized in r dr and padded with the origin value 0."""
    m = grid.weights[1:]
    if dot(m, v) < 0.0:
        v = -v
    v = v / np.sqrt(dot(m, v * v))
    return Profile(grid, np.concatenate(([0.0], v)))


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
    gamma, v, residual, it = _inverse_iteration(
        grid, _bessel_j1(_J1PRIME_ROOT * grid.nodes[1:]), None)
    return EigenPair(gamma0=gamma, phi0=_signed_mode(grid, v), residual=residual, iterations=it)


def second_eigenpair(grid: RadialGrid, first: EigenPair) -> tuple[float, Profile]:
    """Next-smallest eigenvalue and its eigenprofile, via deflation against
    the first pair in the mass inner product, started at sin(pi r / 2).
    Unlike the ground mode, this profile changes sign, so it is returned as a
    plain (value, profile) pair.
    """
    gamma, v, _, _ = _inverse_iteration(
        grid, np.sin(0.5 * np.pi * grid.nodes[1:]), first.phi0.values[1:])
    return gamma, _signed_mode(grid, v)


def cbar(phi0: Profile, p: ModelParams) -> float:
    """Projected cubic coefficient int [-(2/3) phi^4/r + (16/3) mu phi^4 r] dr.

    Positive for mu >= gamma0/8, which makes the threshold crossing a
    supercritical pitchfork.
    """
    grid = phi0.grid
    v2 = phi0.values[1:] * phi0.values[1:]
    v4 = v2 * v2  # not v ** 4, numpy's SIMD power
    f = np.zeros_like(phi0.values)
    f[1:] = -(2.0 / 3.0) * v4 / grid.r_squared + (16.0 / 3.0) * p.mu * v4
    return integrate(grid, f)
