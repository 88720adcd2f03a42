"""Graded radial meshes on [0, 1] with quadrature for the measure r dr.

The unit disk problems in this package reduce to one-dimensional integrals
of the form int_0^1 f(r) r dr.  This module provides the mesh, the matching
quadrature rule, and the discrete operator of the mesh: the tridiagonal P1
stiffness K of int v_r^2 r dr, the squared nodes r^2 of the centrifugal
terms, and the threshold pencil with its LDL^T factor (LAPACK pttrf).
banded_solve (pttrs) is the one solve with such a factor, for the
eigensolver and the minimizer alike.  The nodal derivative remains for
boundary slopes and fields.  Reductions are numpy sums of products, never a
BLAS dot, so results do not depend on the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import get_lapack_funcs

__all__ = ["RadialGrid", "build_grid", "integrate", "derivative", "l2_norm", "assemble_pencil",
           "banded_solve"]

_PTTRF, _PTTRS = get_lapack_funcs(("pttrf", "pttrs"), dtype=np.float64)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class RadialGrid:
    """Mesh nodes r_k = (k/n)**grading together with r dr quadrature weights.

    nodes[0] == 0.0 and nodes[-1] == 1.0 exactly.  The weight attached to
    r = 0 is identically zero (the measure r dr vanishes there); the weights
    sum to 1/2, the total mass of r dr on [0, 1].

    The operator arrays (stencils, r_squared, stiffness_bands, pencil_factor)
    are built on first access, at most once per grid, and are read-only.
    """

    nodes: np.ndarray
    weights: np.ndarray
    grading: float

    @property
    def n(self) -> int:
        """Number of mesh cells (nodes minus one)."""
        return len(self.nodes) - 1

    @cached_property
    def stencils(self) -> tuple[np.ndarray, ...]:
        """Three-point first-derivative coefficients (lo, mid, hi) at nodes
        1..n-1, then the one-sided ones (left, right) at r = 0 and r = 1."""
        spacing = np.diff(self.nodes)
        h1 = spacing[:-1]
        h2 = spacing[1:]
        lo = -h2 / (h1 * (h1 + h2))
        mid = (h2 - h1) / (h1 * h2)
        hi = h1 / (h2 * (h1 + h2))
        a, b = spacing[0], spacing[1]
        left = np.array(
            [-(2.0 * a + b) / (a * (a + b)), (a + b) / (a * b), -a / (b * (a + b))]
        )
        a, b = spacing[-2], spacing[-1]
        right = np.array(
            [b / (a * (a + b)), -(a + b) / (a * b), (a + 2.0 * b) / (b * (a + b))]
        )
        return _read_only(lo, mid, hi, left, right)

    @cached_property
    def r_squared(self) -> np.ndarray:
        """nodes[1:] ** 2, the r^2 of the centrifugal terms at nodes 1..n."""
        return _read_only(self.nodes[1:] ** 2)[0]

    @cached_property
    def stiffness_bands(self) -> tuple[np.ndarray, np.ndarray]:
        """The P1 stiffness K of sum_k kappa_k (v_{k+1} - v_k)^2 as two bands:
        its main diagonal on the nodes 0..n and the cell coefficients
        kappa_k = (r_k + r_{k+1}) / (2 (r_{k+1} - r_k)), so that K's
        off-diagonal is -kappa.

        v^T K v is int (I v)_r^2 r dr for the piecewise-linear interpolant
        I v, cell by cell, so K is symmetric positive semidefinite.
        """
        r = self.nodes
        kappa = (r[:-1] + r[1:]) / (2.0 * np.diff(r))
        diagonal = np.zeros(self.n + 1)
        diagonal[:-1] += kappa
        diagonal[1:] += kappa
        return _read_only(diagonal, kappa)

    @cached_property
    def pencil_factor(self) -> tuple[np.ndarray, np.ndarray]:
        """LDL^T factor of the pencil matrix of assemble_pencil: the
        inverse-iteration solve in eigen and the preconditioner of minimize."""
        return _read_only(*banded_factor(self, assemble_pencil(self)[0][0]))


def build_grid(n: int, grading: float = 2.0) -> RadialGrid:
    """Build a graded mesh with n cells, clustered near r = 0 for grading > 1.

    The quadrature weights integrate the piecewise-linear interpolant of the
    sampled integrand exactly against r dr on every cell, except that the
    share belonging to the r = 0 node (where the measure vanishes and nodal
    values are conventions, not data) is folded into its neighbor so the sum
    rule sum(w) = 1/2 is preserved exactly.
    """
    if int(n) != n or n < 2:
        raise ValueError(f"need at least 2 cells, got n={n}")
    n = int(n)
    if not np.isfinite(grading) or grading < 1.0:
        raise ValueError(f"grading must be >= 1, got {grading}")

    k = np.arange(n + 1, dtype=float)
    nodes = (k / n) ** float(grading)
    nodes[0] = 0.0
    nodes[-1] = 1.0

    a = nodes[:-1]
    b = nodes[1:]
    d = b - a
    # a steep grading underflows (k/n)**grading, or its square, to 0 for small k
    if not (d > 0.0).all():
        raise ValueError(f"grading {grading} at n={n} gives nodes that are not strictly increasing")
    if b[0] * b[0] < np.finfo(float).tiny:
        raise ValueError(f"grading {grading} at n={n} gives r_1^2 = {b[0] * b[0]:g}, "
                         "where 1/r^2 overflows")
    # exact hat-function moments against r dr on the cell [a, b]
    left = d * (2.0 * a + b) / 6.0
    right = d * (a + 2.0 * b) / 6.0

    weights = np.zeros(n + 1)
    weights[:-1] += left
    weights[1:] += right
    weights[1] += weights[0]  # r = 0 carries no measure; keep the sum rule
    weights[0] = 0.0

    _read_only(nodes, weights)
    return RadialGrid(nodes=nodes, weights=weights, grading=float(grading))


def integrate(grid: RadialGrid, values: np.ndarray) -> float:
    """Quadrature for int_0^1 f(r) r dr from nodal samples of f."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.nodes.shape:
        raise ValueError(
            f"expected {grid.nodes.shape[0]} nodal values, got {values.shape}"
        )
    return float(np.sum(grid.weights * values))


def l2_norm(grid: RadialGrid, values: np.ndarray) -> float:
    """Norm of a nodal field in L^2((0,1), r dr)."""
    values = np.asarray(values, dtype=float)
    return float(np.sqrt(max(integrate(grid, values * values), 0.0)))


def derivative(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """Nodal first derivative, second order on the nonuniform mesh.

    Interior nodes use the centered three-point stencil; the endpoints use
    one-sided three-point stencils.  All stencils are exact for quadratics.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != grid.nodes.shape:
        raise ValueError(
            f"expected {grid.nodes.shape[0]} nodal values, got {values.shape}"
        )
    lo, mid, hi, left, right = grid.stencils
    out = np.empty_like(values)
    out[1:-1] = lo * values[:-2] + mid * values[1:-1] + hi * values[2:]
    out[0] = left @ values[:3]
    out[-1] = right @ values[-3:]
    return out


def banded_matvec(ab: tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
    """Product of the symmetric tridiagonal matrix with bands ab = (main,
    off-diagonal) with x."""
    main, off = ab
    y = main * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def stiffness_apply(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """K values in flux form: the cell fluxes f = kappa * diff(values) enter
    the right node of their cell with + and the left one with -."""
    flux = np.diff(np.asarray(values, dtype=float))
    flux *= grid.stiffness_bands[1]
    y = np.concatenate(([0.0], flux))
    y[:-1] -= flux
    return y


def banded_factor(grid: RadialGrid, diagonal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LDL^T factor (LAPACK pttrf) of the matrix over the nodes 1..n with the
    given main diagonal and the off-diagonal of K, i.e. with the r = 0 value
    eliminated by the Dirichlet condition.  Raises LinAlgError unless that
    matrix is positive definite."""
    d, e, info = _PTTRF(diagonal, -grid.stiffness_bands[1][1:])
    if info:
        raise np.linalg.LinAlgError(f"pttrf info {info}: the matrix is not positive definite")
    return d, e


def assemble_pencil(grid: RadialGrid) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Stiffness-plus-centrifugal matrix A and lumped mass diagonal m.

    A is returned as its bands (main, off-diagonal) over the nodes 1..n, the
    r = 0 value eliminated by the Dirichlet condition, and m holds the
    quadrature weights at the same nodes.  The generalized problem is
    A phi = gamma * diag(m) * phi.
    """
    diagonal, kappa = grid.stiffness_bands
    w = grid.weights
    return (diagonal[1:] + w[1:] / grid.r_squared, -kappa[1:]), w[1:]


def banded_solve(factor: tuple[np.ndarray, np.ndarray], b: np.ndarray) -> np.ndarray:
    """Solve A x = b, given the LDL^T factor of A from banded_factor: LAPACK
    pttrs.  b is left unchanged.  Raises ValueError on a non-finite b or one
    not matching the factor."""
    if b.shape != factor[0].shape:
        raise ValueError(f"expected a right-hand side of shape {factor[0].shape}, got {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError("right-hand side must be finite")
    x, info = _PTTRS(*factor, b)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of pttrs")
    return x
