"""Graded radial meshes on [0, 1] with quadrature for the measure r dr.

The unit disk problems in this package reduce to one-dimensional integrals
of the form int_0^1 f(r) r dr.  This module provides the mesh, the matching
quadrature rule, and the discrete operator of the mesh: second-order
finite-difference derivatives, the stiffness D^T W D of the quadratic form
sum_k w_k (Df)_k^2, the squared nodes r^2 of the centrifugal terms, and the
threshold pencil with its Cholesky factor.  banded_solve is the one solve
with a banded Cholesky factor, for the eigensolver and the minimizer alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cholesky_banded, get_lapack_funcs

__all__ = ["RadialGrid", "build_grid", "integrate", "derivative", "l2_norm", "assemble_pencil",
           "banded_solve"]

_PBTRS = get_lapack_funcs("pbtrs", dtype=np.float64)


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
    def stiffness_bands(self) -> np.ndarray:
        """D^T W D, the quadratic form of sum_k w_k (Df)_k^2 where D is the
        nodal derivative operator, in upper-banded storage: rows 0, 1, 2 hold
        the diagonals of offsets 2, 1, 0, right-aligned.

        The matrix is symmetric positive semidefinite and pentadiagonal.  Row
        r = 0 of D never contributes because its quadrature weight is zero.
        """
        w = self.weights
        lo, mid, hi, _, right = self.stencils
        bands = np.zeros((3, self.n + 1))
        d0, d1, d2 = bands[2], bands[1, 1:], bands[0, 2:]

        wk = w[1:-1]
        d0[:-2] += wk * lo * lo
        d0[1:-1] += wk * mid * mid
        d0[2:] += wk * hi * hi
        d1[:-1] += wk * lo * mid
        d1[1:] += wk * mid * hi
        d2[:] += wk * lo * hi

        wn = w[-1]
        e0, e1, e2 = right
        d0[-3] += wn * e0 * e0
        d0[-2] += wn * e1 * e1
        d0[-1] += wn * e2 * e2
        d1[-2] += wn * e0 * e1
        d1[-1] += wn * e1 * e2
        d2[-1] += wn * e0 * e2
        return _read_only(bands)[0]

    @cached_property
    def pencil_factor(self) -> np.ndarray:
        """Upper banded Cholesky factor of the pencil matrix of assemble_pencil:
        the inverse-iteration solve in eigen and the preconditioner of minimize."""
        return _read_only(cholesky_banded(assemble_pencil(self)[0]))[0]


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
    return float(grid.weights @ values)


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


def banded_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Product of a symmetric upper-banded matrix (bandwidth 2) with x."""
    y = ab[2] * x
    off1 = ab[1, 1:]
    off2 = ab[0, 2:]
    y[:-1] += off1 * x[1:]
    y[1:] += off1 * x[:-1]
    y[:-2] += off2 * x[2:]
    y[2:] += off2 * x[:-2]
    return y


def stiffness_apply(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """Matrix-vector product (D^T W D) values."""
    return banded_matvec(grid.stiffness_bands, np.asarray(values, dtype=float))


def banded_operator(grid: RadialGrid, diagonal: np.ndarray) -> np.ndarray:
    """Upper-banded storage (offsets 2, 1, 0 by row) over the nodes 1..n of
    the matrix with the given main diagonal and the off-diagonals of D^T W D,
    i.e. with the r = 0 value eliminated by the Dirichlet condition."""
    bands = grid.stiffness_bands
    ab = np.zeros((3, diagonal.shape[0]))
    ab[2, :] = diagonal
    ab[1, 1:] = bands[1, 2:]
    ab[0, 2:] = bands[0, 3:]
    return ab


def assemble_pencil(grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """Stiffness-plus-centrifugal matrix A and lumped mass diagonal m.

    A is returned in symmetric upper-banded storage (see banded_operator)
    over the nodes 1..n, and m holds the quadrature weights at the same
    nodes.  The generalized problem is A phi = gamma * diag(m) * phi.
    """
    w = grid.weights
    ab = banded_operator(grid, grid.stiffness_bands[2, 1:] + w[1:] / grid.r_squared)
    return ab, w[1:]


def banded_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b, given the upper banded Cholesky factor of A from
    cholesky_banded: LAPACK pbtrs, the same x bit for bit as scipy's
    cho_solve_banded, without its per-call wrapper.  b is left unchanged.
    Raises ValueError on a non-finite b or one not matching the factor."""
    if b.shape != factor.shape[1:]:
        raise ValueError(f"expected a right-hand side of shape {factor.shape[1:]}, got {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError("right-hand side must be finite")
    x, info = _PBTRS(factor, b)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of pbtrs")
    return x
