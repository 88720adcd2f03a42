"""Smallest eigenpair of the linearized operator at the trivial profile.

The quadratic form v -> int (v_r^2 + v^2/r^2) r dr restricted to v(0) = 0,
with the natural condition at r = 1, is discretized with the same derivative
stencils and quadrature as the energy.  Its smallest generalized eigenvalue
gamma0 against the lumped r dr mass fixes the instability threshold
mu = gamma0 / 2 of the trivial profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve_banded

from .grid import RadialGrid, assemble_pencil, banded_matvec
from .operators import Profile

__all__ = ["EigenPair", "smallest_eigenpair", "second_eigenpair"]


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue gamma0 with its nonnegative, r dr-normalized eigenprofile."""

    gamma0: float
    phi0: Profile
    residual: float = 0.0
    iterations: int = 0

    def __post_init__(self):
        if not self.gamma0 > 1.0:
            raise ValueError(f"expected eigenvalue > 1, got {self.gamma0}")
        grid = self.phi0.grid
        v = self.phi0.values
        norm_sq = float(grid.weights @ (v * v))
        if abs(norm_sq - 1.0) > 1e-10:
            raise ValueError(f"eigenprofile not normalized: <phi,phi> = {norm_sq}")
        if v.min() < 0.0:
            raise ValueError("eigenprofile must be nonnegative")


def _inverse_iteration(
    grid: RadialGrid,
    deflate: np.ndarray | None,
    max_iter: int,
    rq_tol: float,
) -> tuple[float, np.ndarray, float, int]:
    factor = grid.pencil_factor
    ab, m = assemble_pencil(grid)

    r = grid.nodes[1:]
    v = np.sin(0.5 * np.pi * r)
    if deflate is not None:
        v = v - (m @ (v * deflate)) * deflate
        v[0] += 1e-3  # keep the start outside the deflated direction
        v = v - (m @ (v * deflate)) * deflate
    v /= np.sqrt(m @ (v * v))

    gamma_prev = np.inf
    delta_prev = np.inf
    stall = 0
    gamma = np.inf
    residual = np.inf
    for it in range(1, max_iter + 1):
        u = cho_solve_banded((factor, False), m * v)
        if deflate is not None:
            u = u - (m @ (u * deflate)) * deflate
        u /= np.sqrt(m @ (u * u))
        au = banded_matvec(ab, u)
        gamma = float(u @ au)
        residual = float(np.linalg.norm(au - gamma * m * u))
        delta = abs(gamma - gamma_prev)
        scale = max(1.0, abs(gamma))
        # Settled outright, or stuck oscillating at the roundoff floor: a tiny
        # update that no longer contracts cannot be genuine convergence motion.
        plateau = delta <= 1e-10 * scale and delta >= 0.5 * delta_prev
        if delta <= rq_tol * scale or plateau:
            stall += 1
            if stall >= 2:
                v = u
                break
        else:
            stall = 0
        delta_prev = delta
        gamma_prev = gamma
        v = u
    else:
        raise RuntimeError(
            f"inverse iteration did not settle in {max_iter} iterations; "
            f"last Rayleigh quotient {gamma}"
        )
    return gamma, v, residual, it


def _signed_mode(grid: RadialGrid, v: np.ndarray) -> Profile:
    """Mode v on nodes 1..n as a profile: signed so that int v r dr >= 0,
    normalized in r dr and padded with the origin value 0."""
    m = grid.weights[1:]
    if float(m @ v) < 0.0:
        v = -v
    v = v / np.sqrt(m @ (v * v))
    return Profile(grid, np.concatenate(([0.0], v)))


def smallest_eigenpair(grid: RadialGrid, max_iter: int = 400, rq_tol: float = 1e-14) -> EigenPair:
    """Smallest eigenpair of the pencil by shifted inverse iteration (shift 0).

    The eigenprofile is normalized to int phi^2 r dr = 1 and signed so that
    int phi r dr > 0.  Raises RuntimeError with the last Rayleigh quotient if
    the iteration does not settle.
    """
    gamma, v, residual, it = _inverse_iteration(grid, None, max_iter, rq_tol)
    return EigenPair(gamma0=gamma, phi0=_signed_mode(grid, v), residual=residual, iterations=it)


def second_eigenpair(grid: RadialGrid, first: EigenPair, max_iter: int = 400,
                     rq_tol: float = 1e-14) -> tuple[float, Profile]:
    """Next-smallest eigenvalue and its eigenprofile, via deflation against
    the first pair in the mass inner product.  Unlike the ground mode, this
    profile changes sign, so it is returned as a plain (value, profile) pair.
    """
    gamma, v, _, _ = _inverse_iteration(grid, first.phi0.values[1:], max_iter, rq_tol)
    return gamma, _signed_mode(grid, v)
