"""Graded radial meshes on [0, 1] with quadrature for the measure r dr.

The unit disk problems in this package reduce to one-dimensional integrals
of the form int_0^1 f(r) r dr.  This module provides the mesh, the matching
quadrature rule, and the discrete operator of the mesh, built once per grid
and read-only: the tridiagonal P1 stiffness K of int v_r^2 r dr, the squared
nodes r^2 of the centrifugal terms, and the main diagonal of the threshold
pencil with its LDL^T factor (LAPACK pttrf).  Every tridiagonal matrix the
package uses, over the nodes 1..n, has K's off-diagonal -kappa, so it is
given by its main diagonal alone: only this module reads the off-diagonal,
in banded_factor and banded_matvec.  banded_solve (pttrs) is the one solve
with such a factor, for the eigensolver and the minimizer alike.  rim_slope
is the one-sided slope at r = 1 by which the minimizer reports the natural
boundary condition.  dot is the package's one inner product: a numpy
pairwise sum of the products, never a BLAS dot, so results do not depend on
the BLAS thread count.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

__all__ = ["RadialGrid", "build_grid", "integrate", "rim_slope", "banded_solve"]


def _flapack():
    """scipy's f2py LAPACK extension scipy.linalg._flapack, loaded from its
    file under its own name.  Neither scipy/__init__ nor scipy/linalg/__init__
    runs: together they take longer to import than a whole eigen run.  The
    routines are the objects scipy.linalg.get_lapack_funcs returns."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:  # scipy.linalg is imported already
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    dirs = [os.path.join(d, "linalg") for d in (spec.submodule_search_locations if spec else ())]
    for path in [os.path.join(d, "_flapack" + suffix) for d in dirs
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]:
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(name, path, loader=loader))
            loader.exec_module(module)
            # register no scipy submodule without its packages: a later import
            # of scipy.linalg loads it again and gets the same routine objects
            sys.modules.pop(name, None)
            return module
    raise ImportError(f"scipy's LAPACK extension _flapack is not in {dirs or 'any scipy'}")


_FLAPACK = _flapack()
_PTTRF, _PTTRS = _FLAPACK.dpttrf, _FLAPACK.dpttrs


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """A mesh on [0, 1], given by its nodes; build_grid places graded ones.

    The constructor keeps a read-only float copy of the nodes and checks
    them; grids compare and hash by identity.  The weights and the operator
    arrays (r_squared, stiffness_bands, pencil, pencil_factor, _off_diagonal)
    are derived from the nodes on first access, at most once
    per grid, and are read-only.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 3:
            raise ValueError(f"need a 1-D array of nodes, at least 2 cells, "
                             f"got shape {nodes.shape}")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ValueError(f"nodes must run from 0.0 to 1.0, got {nodes[0]:g} to {nodes[-1]:g}")
        if not (nodes[1:] > nodes[:-1]).all():
            raise ValueError("nodes are not strictly increasing")
        if nodes[1] * nodes[1] < np.finfo(float).tiny:
            raise ValueError(f"r_1^2 = {nodes[1] * nodes[1]:g}, where 1/r^2 overflows")
        object.__setattr__(self, "nodes", _read_only(nodes)[0])

    @property
    def n(self) -> int:
        """Number of mesh cells (nodes minus one)."""
        return len(self.nodes) - 1

    @cached_property
    def weights(self) -> np.ndarray:
        """Quadrature weights for int_0^1 f(r) r dr from nodal samples of f.

        They integrate the piecewise-linear interpolant of the sampled
        integrand exactly against r dr on every cell, except that the share
        belonging to the r = 0 node (where the measure vanishes and nodal
        values are conventions, not data) is folded into its neighbor, so
        weights[0] == 0 and the sum rule sum(w) = 1/2 is preserved exactly.
        """
        a, b = self.nodes[:-1], self.nodes[1:]
        d = b - a
        # exact hat-function moments against r dr on the cell [a, b]:
        # d (2a + b) / 6 for its left node, d (a + 2b) / 6 for its right one
        weights, right = np.empty(self.n + 1), np.empty(self.n)
        weights[-1] = 0.0
        for moment, near, far in ((weights[:-1], a, b), (right, b, a)):
            np.multiply(2.0, near, out=moment)
            moment += far
            moment *= d
            moment /= 6.0
        weights[1:] += right
        weights[1] += weights[0]  # r = 0 carries no measure; keep the sum rule
        weights[0] = 0.0
        return _read_only(weights)[0]

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
        kappa = (r[:-1] + r[1:]) / (2.0 * (r[1:] - r[:-1]))
        diagonal = np.append(kappa, 0.0)
        diagonal[1:] += kappa
        return _read_only(diagonal, kappa)

    @cached_property
    def pencil(self) -> np.ndarray:
        """The main diagonal K0 + w / r^2 of the threshold pencil matrix
        A = K + W / r^2 over the nodes 1..n, the r = 0 value eliminated by
        the Dirichlet condition.  The generalized problem is
        A phi = gamma diag(w[1:]) phi."""
        return _read_only(self.stiffness_bands[0][1:] + self.weights[1:] / self.r_squared)[0]

    @cached_property
    def _off_diagonal(self) -> np.ndarray:
        """-kappa[1:], the off-diagonal of K over the nodes 1..n, and so of
        every tridiagonal matrix the package uses: banded_factor and
        banded_matvec read it, no other code."""
        return _read_only(-self.stiffness_bands[1][1:])[0]

    @cached_property
    def pencil_factor(self) -> tuple[np.ndarray, np.ndarray]:
        """LDL^T factor of the pencil matrix A: the inverse-iteration solve
        in eigen and the preconditioner of minimize.  Raises LinAlgError
        where pttrf finds A not positive definite."""
        factor = banded_factor(self, self.pencil)
        if factor is None:
            raise np.linalg.LinAlgError("pttrf: the pencil matrix is not positive definite")
        return _read_only(*factor)


def build_grid(n: int, grading: float = 2.0) -> RadialGrid:
    """The mesh with n cells and nodes r_k = (k/n)**grading, clustered near
    r = 0 for grading > 1."""
    if n != n or n in (math.inf, -math.inf) or int(n) != n or n < 2:  # int() takes no nan, inf
        raise ValueError(f"need at least 2 cells, got n={n}")
    n = int(n)
    if not np.isfinite(grading) or grading < 1.0:
        raise ValueError(f"grading must be >= 1, got {grading}")

    # x * x and libm's pow, never numpy's SIMD power, which differs from
    # libm by an ulp on CPUs with AVX-512
    x = np.arange(n + 1, dtype=float) / n
    if grading == 2.0:
        nodes = x * x
    else:
        nodes = np.fromiter(map(math.pow, x.tolist(), repeat(float(grading))), float, n + 1)
    nodes[0] = 0.0
    nodes[-1] = 1.0
    # a steep grading underflows (k/n)**grading, or its square, to 0 for small k
    try:
        return RadialGrid(nodes)
    except ValueError as e:
        raise ValueError(f"grading {grading} at n={n}: {e}") from None


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) in numpy's pairwise order, whatever the BLAS thread count."""
    return float(np.add.reduce(a * b))


def integrate(grid: RadialGrid, values: np.ndarray) -> float:
    """Quadrature for int_0^1 f(r) r dr from nodal samples of f."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.nodes.shape:
        raise ValueError(
            f"expected {grid.nodes.shape[0]} nodal values, got {values.shape}"
        )
    return dot(grid.weights, values)


def rim_slope(grid: RadialGrid, values: np.ndarray) -> float:
    """h_r(1) by the one-sided three-point stencil on the last two cells,
    exact for quadratics: the residual of the natural boundary condition."""
    r = grid.nodes
    a, b = r[-2] - r[-3], r[-1] - r[-2]
    right = np.array(
        [b / (a * (a + b)), -(a + b) / (a * b), (a + 2.0 * b) / (b * (a + b))]
    )
    return dot(right, values[-3:])


def banded_matvec(grid: RadialGrid, diagonal: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x, for A the matrix over the nodes 1..n with the given main diagonal
    and the off-diagonal of K."""
    off = grid._off_diagonal
    y = diagonal * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def banded_factor(grid: RadialGrid,
                  diagonal: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """LDL^T factor (LAPACK pttrf) of the matrix over the nodes 1..n with the
    given main diagonal and the off-diagonal of K, which pttrf copies, or
    None where the matrix is not positive definite."""
    d, e, info = _PTTRF(diagonal, grid._off_diagonal)
    return None if info else (d, e)


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
