"""Hand-rolled reference computations that pin expected values, and the
certificates the tests hold the package's results to.

The first part touches nothing of the package: plain power series,
bisection, and adaptive Simpson quadrature, so oracle agreement is an
independent check rather than the code testing itself.  The second part
reads the package's grids, profiles and kernels: the gradient of raw nodal
values, the projected cubic coefficient by quadrature, the second-order nodal
derivative, the strong-form residuals, the cubic split of the Euler operator,
the reduction identity of the magnetization, random starts, the multistart
uniqueness check and a zeroth-order continuation.  The command line runs none
of them.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

import numpy as np

from magnetodisk import (
    BifurcationDiagram,
    BranchPoint,
    EigenPair,
    ModelParams,
    Profile,
    RadialGrid,
    integrate,
    minimize,
)
from magnetodisk.fields import magnetization_grid
from magnetodisk.operators import energy_parts, gradient_from_parts
from reference_kernels import stiffness_apply


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-12,
    max_depth: int = 48,
) -> float:
    """Recursive Simpson with the standard 1/15 error update."""

    def simpson(lo: float, hi: float, flo: float, fmid: float, fhi: float) -> float:
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lmid = f(0.5 * (lo + mid))
        rmid = f(0.5 * (mid + hi))
        left = simpson(lo, mid, flo, lmid, fmid)
        right = simpson(mid, hi, fmid, rmid, fhi)
        if depth <= 0:
            return left + right
        if abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, lmid, fmid, left, eps / 2.0, depth - 1) + recurse(
            mid, hi, fmid, rmid, fhi, right, eps / 2.0, depth - 1
        )

    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fmid = f(mid)
    whole = simpson(a, b, fa, fmid, fb)
    return recurse(a, b, fa, fmid, fb, whole, tol, max_depth)


def bessel_j1(x: float) -> float:
    """J1 by its power series; adequate and fast for |x| < 20."""
    term = x / 2.0
    total = term
    k = 0
    while abs(term) > 1e-18 * max(1.0, abs(total)):
        k += 1
        term *= -(x * x / 4.0) / (k * (k + 1))
        total += term
    return total


def bessel_j1_prime(x: float) -> float:
    # differentiate the series termwise: each x^{2k+1} term gains (2k+1)/x
    if x == 0.0:
        return 0.5
    term = x / 2.0
    total = term / x  # k = 0: (2*0+1)/x
    k = 0
    while abs(term) > 1e-18 * max(1.0, abs(total * x)):
        k += 1
        term *= -(x * x / 4.0) / (k * (k + 1))
        total += term * (2 * k + 1) / x
    return total


def bisect_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """A root of f in [lo, hi], where f changes sign, by bisection down to
    two adjacent doubles, of which the one where |f| is smaller."""
    flo, fhi = f(lo), f(hi)
    if flo * fhi > 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while flo != 0.0 and fhi != 0.0 and (mid := 0.5 * (lo + hi)) not in (lo, hi):
        fmid = f(mid)
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return lo if abs(flo) <= abs(fhi) else hi


def first_j1prime_root() -> float:
    """First positive root of J1' (J1 rises to its first maximum there)."""
    return bisect_root(bessel_j1_prime, 1.5, 2.5)


def normalized_bessel_mode(root: float) -> Callable[[float], float]:
    """phi(r) = J1(root*r) scaled to unit L2(r dr) norm on (0, 1).

    The closed-form norm uses the Bessel integral
    int_0^1 J1(a r)^2 r dr = (J1'(a)^2 + (1 - 1/a^2) J1(a)^2) / 2,
    where the derivative term vanishes at a root of J1'.
    """
    gamma = root * root
    norm = math.sqrt(0.5 * (1.0 - 1.0 / gamma) * bessel_j1(root) ** 2)

    def phi(r: float) -> float:
        return bessel_j1(root * r) / norm

    return phi


def quartic_coefficient(root: float) -> float:
    """Continuum value of the quartic branch coefficient at mu = gamma0/2."""
    gamma = root * root
    mu = gamma / 2.0
    phi = normalized_bessel_mode(root)

    def f(r: float) -> float:
        if r == 0.0:
            return 0.0
        p4 = phi(r) ** 4
        return -(2.0 / 3.0) * p4 / r + (16.0 / 3.0) * mu * p4 * r

    return adaptive_simpson(f, 0.0, 1.0, tol=1e-13)


def tilted_profile_energy() -> float:
    """Continuum energy of h(r) = pi*r/2 at mu = 1."""

    def f(r: float) -> float:
        if r == 0.0:
            return 0.0
        quarter = math.pi / 2.0
        return (
            quarter**2 * r
            + math.sin(quarter * r) ** 2 / r
            - 0.5 * math.sin(2.0 * quarter * r) ** 2 * r
        )

    return math.pi * adaptive_simpson(f, 0.0, 1.0, tol=1e-13)


# Frozen oracle outputs (recomputed and re-asserted by the test suite).
J1PRIME_ROOT = 1.8411837813406593
GAMMA0_CONTINUUM = 3.389957716671889
CBAR_CONTINUUM = 18.309365249651368
TILTED_ENERGY_CONTINUUM = 6.072193963753959


# ---------------------------------------------------------------------------
# Certificates on the package's grids and profiles.


def gradient_field(grid: RadialGrid, values: np.ndarray, mu: float) -> np.ndarray:
    """The first variation of E at raw nodal values, by the fused path
    minimize runs: energy_parts' dv and sin h handed to gradient_from_parts."""
    _, dv, sinh = energy_parts(grid, values, mu)
    return gradient_from_parts(grid, values, mu, dv, sinh)[0]


def cbar(phi0: Profile, mu: float) -> float:
    """Projected cubic coefficient int [-(2/3) phi^4/r + (16/3) mu phi^4 r] dr
    of the lumped nodal integrand, by integrate: the independent form of
    EigenPair.sextic's cbar(mu), which sums the moments P4 and Q4 instead."""
    grid = phi0.grid
    v2 = phi0.values[1:] * phi0.values[1:]
    v4 = v2 * v2  # not v ** 4, numpy's SIMD power
    f = np.zeros_like(phi0.values)
    f[1:] = -(2.0 / 3.0) * v4 / grid.r_squared + (16.0 / 3.0) * mu * v4
    return integrate(grid, f)


def l2_norm(grid: RadialGrid, values: np.ndarray) -> float:
    """Norm of a nodal field in L^2((0,1), r dr)."""
    values = np.asarray(values, dtype=float)
    return float(np.sqrt(max(integrate(grid, values * values), 0.0)))


def stencils(grid: RadialGrid) -> tuple[np.ndarray, ...]:
    """Three-point first-derivative coefficients (lo, mid, hi) at nodes
    1..n-1, then the one-sided ones (left, right) at r = 0 and r = 1."""
    spacing = np.diff(grid.nodes)
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
    return lo, mid, hi, left, right


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
    lo, mid, hi, left, right = stencils(grid)
    out = np.empty_like(values)
    out[1:-1] = lo * values[:-2] + mid * values[1:-1] + hi * values[2:]
    # the end rows sum their products as grid.rim_slope does, not by a BLAS dot
    out[0] = np.add.reduce(left * values[:3])
    out[-1] = np.add.reduce(right * values[-3:])
    return out


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
    rho = gradient_field(h.grid, h.values, p.mu)
    w = h.grid.weights
    interior = float(np.sqrt(max(np.sum(w[1:-1] * rho[1:-1] ** 2), 0.0)))
    return interior + abs(boundary_slope(h))


def nonlinear_split(h: Profile, p: ModelParams) -> tuple[Profile, Profile, Profile]:
    """Split the strong-form Euler operator into linear + cubic + remainder.

    Returns nodal fields (L, C, D) with

        L(h) = -h_rr - h_r/r + h/r^2          (assembled weakly, as in gradient_field),
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


def check_reduction_identity(
    h: Profile,
    samples: int = 100,
    step: float = 1e-4,
    seed: int = 0,
) -> float:
    """Max mismatch of |grad m|^2 against (sin h/r)^2 + h_r^2 at random points.

    h is read as the P1 function the energy is built on, so the identity
    holds inside each cell but not across a node, where h_r jumps.  Each
    sample therefore lies in the middle half of one cell with r >= 0.05, and
    its stencil step is capped at a tenth of that cell's width, so that all
    four central-difference points of |grad m|^2 stay inside the cell.  The
    right side takes the P1 angle there and the cell's slope as h_r.
    Returns the worst absolute error.
    """
    rng = np.random.default_rng(seed)
    nodes, values = h.grid.nodes, h.values
    first = int(np.searchsorted(nodes, 0.05))
    # a cell drawn with probability proportional to its width, then a point
    # in its middle half
    cell = np.searchsorted(nodes, rng.uniform(nodes[first], 1.0, samples), side="right") - 1
    cell = np.clip(cell, first, len(nodes) - 2)
    width = nodes[cell + 1] - nodes[cell]
    rad = nodes[cell] + width * rng.uniform(0.25, 0.75, samples)
    step = np.minimum(step, 0.1 * width)
    theta = rng.uniform(0.0, 2.0 * np.pi, samples)
    xs = rad * np.cos(theta)
    ys = rad * np.sin(theta)

    gx = (magnetization_grid(h, xs + step, ys)
          - magnetization_grid(h, xs - step, ys)) / (2.0 * step)[:, None]
    gy = (magnetization_grid(h, xs, ys + step)
          - magnetization_grid(h, xs, ys - step)) / (2.0 * step)[:, None]
    lhs = np.sum(gx * gx + gy * gy, axis=1)

    angle = np.interp(rad, nodes, values)
    slope = (values[cell + 1] - values[cell]) / width
    rhs = (np.sin(angle) / rad) ** 2 + slope**2
    return float(np.max(np.abs(lhs - rhs)))


def displacement_equation_residual(h: Profile, w: np.ndarray, lam: float) -> np.ndarray:
    """Interior residual of the displacement balance

        w_rr + w_r/r + (lam/2) [ (sin 2h)_r + sin(2h)/r ] = 0,

    evaluated with the derivative stencils, for w's nodal values on h's
    grid; returned on nodes 1..n-1.
    """
    grid = h.grid
    r = grid.nodes
    dw = derivative(grid, w)
    ddw = derivative(grid, dw)
    sin2h = np.sin(2.0 * h.values)
    dsin = derivative(grid, sin2h)
    res = ddw + dw / np.where(r == 0.0, 1.0, r) + 0.5 * lam * (dsin + sin2h / np.where(r == 0.0, 1.0, r))
    return res[1:-1]


def random_profile(grid: RadialGrid, rng: np.random.Generator,
                   amplitude: float = np.pi / 2) -> Profile:
    """Smooth random profile with values in [-amplitude, amplitude] and h(0)=0."""
    r = grid.nodes
    values = np.zeros_like(r)
    for j in range(1, 7):
        coeff = rng.standard_normal() / j**2
        values += coeff * np.sin((j - 0.5) * np.pi * r)
    peak = np.max(np.abs(values))
    if peak > 0.0:
        values *= amplitude * rng.uniform(0.3, 1.0) / peak
    values[0] = 0.0
    return Profile(grid, values)


def verify_trivial_uniqueness(
    grid: RadialGrid,
    params: ModelParams,
    eigenpair: EigenPair,
    trials: int = 8,
    seed: int = 0,
) -> dict:
    """Multistart check that no start beats the trivial profile.

    Intended for mu <= gamma0/2, where the zero profile is the unique global
    minimizer: every random start must come back trivial.  Above the
    threshold the same report is used in inverted mode, where at least one
    start is expected to land on a nontrivial branch.
    """
    rng = np.random.default_rng(seed)
    reports = [
        minimize(grid, params, random_profile(grid, rng), eigenpair=eigenpair)
        for _ in range(trials)
    ]
    norms = [l2_norm(grid, rep.minimizer.values) for rep in reports]
    nontrivial = [rep for rep in reports if rep.energy < -1e-9]
    return {
        "mu": params.mu,
        "trials": trials,
        "passed": not nontrivial,
        "n_nontrivial": len(nontrivial),
        "worst_norm": max(norms),
        "worst_energy": min(rep.energy for rep in reports),
        "reports": reports,
    }


def zeroth_order_trace(
    grid: RadialGrid,
    params: ModelParams,
    mus: np.ndarray,
    *,
    eigenpair: EigenPair,
    init: Profile | None = None,
) -> BifurcationDiagram:
    """trace_branches with the zeroth-order predictor: every supercritical
    step starts from the previous nontrivial profile, the entry step where
    trace_branches starts it.  The corrector and every check are those of
    trace_branches, so the two sweeps must find the same points."""
    threshold = eigenpair.gamma0 / 2.0
    points: list[BranchPoint] = []
    prev: Profile | None = None
    truncated_at: float | None = None

    for mu in map(float, mus):
        points.append(BranchPoint(mu, "trivial", 0.0, 0.0))
        if mu <= threshold:
            continue
        start = init if prev is None else prev
        report = minimize(grid, replace(params, mu=mu), start, eigenpair=eigenpair)
        if not report.converged:
            truncated_at = mu
            break
        h = report.minimizer
        beta = integrate(grid, h.values * eigenpair.phi0.values)
        if beta < 0.0:
            h = Profile(grid, -h.values)
            beta = -beta
        points.append(BranchPoint(mu, "plus", beta, report.energy))
        points.append(BranchPoint(mu, "minus", -beta, report.energy))
        prev = h

    order = {"trivial": 0, "plus": 1, "minus": 2}
    points.sort(key=lambda q: (q.mu, order[q.branch]))
    return BifurcationDiagram(
        gamma0=eigenpair.gamma0,
        cbar=cbar(eigenpair.phi0, threshold),
        points=tuple(points),
        mu_step=float(mus[1] - mus[0]),
        truncated_at=truncated_at,
    )
