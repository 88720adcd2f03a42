"""Energy minimization over radial profiles.

Every iteration takes the same path: a shifted Newton step with a
backtracking line search (Levenberg-Marquardt; More & Sorensen 1983; Nocedal
& Wright, Numerical Optimization, ch. 3-4).  The step solves
((H + tau P) / (1 + tau)) d = -W g, where H = K + W diag(c), c = cos 2h /
r^2 - 2 mu cos 4h, is the Hessian and P = K + W / r^2 the threshold pencil.
tau = 0 is tried first; when H is indefinite, tau is computed from two
bounds that make the matrix positive definite (see _newton_direction).
hessian_bands builds the matrix for any tau, into one diagonal buffer.
Divided by 1 + tau the matrix keeps K's off-diagonal, so its main diagonal
is all grid.banded_factor needs, and as tau grows the step turns into
-P^-1 W g, steepest descent in the inner product of P.  When no shift
qualifies, that direction itself, solved with the grid's cached pencil
factor, is the step, so every iteration has one.

Without an explicit start, a run starts where _default_start says, the one
statement of the default-start policy.  The caller's threshold eigenpair
(gamma0, phi0) is the one source of both that start and the shift bound.
The pitchfork start, a phi0, is taken only where the unshifted Hessian there
factors; that test is the first iteration's tau = 0 factorization, built
from the start's first gradient evaluation.

Every accepted iterate is folded back into [0, pi/2], which never raises the
energy, so the iterate and a minimizer both lie in [0, pi/2] at every node,
and a trial that moves a node further than MAX_STEP = pi/2 only buys a
rejected energy evaluation.  Every line search therefore starts at
alpha = min(1, MAX_STEP / max|d|), the largest |d| taken over the nodes
1..n, and backtracks by safeguarded quadratic interpolation (Nocedal &
Wright 3.5).  A run stops converged once the gradient passes tol, the
unshifted Hessian factors (second-order sufficient conditions; Nocedal &
Wright, Thm 2.4: not at the h = 0 saddle above gamma0/2) and the decrease
the next step predicts (minus half its slope, half the squared Newton
decrement; Boyd & Vandenberghe, Convex Optimization, 9.5.1) is at the
roundoff floor of the energy; a step predicting less than that floor is
accepted at its first trial unless the energy rises past it.  The last
accepted iterate is returned, and the norm of its gradient is the residual.

Each trial of the line search is one operators.energy_parts call, one sine
pass.  The accepted trial's cell differences and sin h go to
operators.gradient_from_parts, one cosine pass, whose cos 2h the Newton
matrix reuses, cos 4h as 2 cos^2 2h - 1 included.  So every quantity is
computed once per iterate, with the operations and operands of the
standalone energy and gradient kernels, and the trajectory is bit for bit
the one that evaluating each afresh gives.  The boundary certificate is
grid.rim_slope of the returned profile.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .eigen import EigenPair
from .grid import RadialGrid, banded_factor, banded_solve, dot, rim_slope
from .operators import (
    ModelParams,
    Profile,
    energy_parts,
    fold_values,
    gradient_from_parts,
)

__all__ = ["SolveReport", "hessian_bands", "minimize"]

ARMIJO_C1 = 1e-4
SHRINK_MIN, SHRINK_MAX = 0.1, 0.5  # bounds on one backtrack's alpha_new / alpha
MAX_BACKTRACKS = 40
FLAT_TOL = 1e-12
# the largest nodal move a line search starts from: the width of the fold's
# domain [0, pi/2], which holds the iterate and a minimizer
MAX_STEP = np.pi / 2.0
# the last shift tried is (1 + SHIFT_MARGIN) tau_b: at tau_b itself the
# pencil's bound leaves the matrix only semidefinite, and gamma0 and c carry
# roundoff, so the bound is taken a little above the computed value
SHIFT_MARGIN = 1e-6
# the default start's scale along phi0 where neither law predicts the minimizer
INIT_EPS = 0.1
# the bound of every minimizer folded into [0, pi/2], and the plateau of the
# large-mu core (see _default_start)
PLATEAU = np.pi / 4.0


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one minimization run.

    residual is the L^2(r dr) norm of the energy gradient at the returned
    minimizer, the last accepted iterate; converged is the stop test there,
    so it implies residual <= tol and not diverged.  A run ending at E >= 0
    returns the zero profile (trivial) with 0 energy and residuals.
    bc_residual is |h_r(1)| at the minimizer by the one-sided stencil of
    grid.rim_slope, the residual of the natural boundary condition, which
    the weak form holds only up to truncation.  The energy history lists the
    energy after every accepted step.  It is non-increasing up to the
    roundoff floor FLAT_TOL * (1 + |E|), by which a step predicting less
    than that floor may raise it; iterations counts the accepted steps.
    energy_evals counts every energy evaluation of the run and backtracks
    every trial step that the line search rejected, so energy_evals ==
    1 + iterations + backtracks unless a trial energy came out NaN
    (diverged) or the pitchfork start failed its Hessian test, whose
    energy evaluation adds one (see _default_start).  factorizations
    counts the LDL^T factorizations (grid.banded_factor) of the shifted
    Newton matrices, the failed ones included: the tau = 0 matrix at every
    iteration (at a pitchfork start the Hessian test is the first, and
    a failed test counts one more), and the one or two shifted matrices
    tried when it does not factor; the grid's cached pencil factor is not
    counted.
    """

    minimizer: Profile
    energy: float
    residual: float
    iterations: int
    converged: bool
    fold_applied: int
    bc_residual: float
    energy_history: tuple[float, ...] = field(repr=False, default=())
    trivial: bool = False
    diverged: bool = False
    energy_evals: int = 0
    backtracks: int = 0
    factorizations: int = 0


def hessian_bands(grid: RadialGrid, mu: float, cos2h: np.ndarray
                  ) -> tuple[Callable[[float], np.ndarray], np.ndarray]:
    """Return diagonal(tau), the main diagonal over the nodes 1..n of
    (H + tau P) / (1 + tau), whose off-diagonal is K's, and the curvature c,
    where

        H = K + W diag(c),   c = cos 2h / r^2 - 2 mu cos 4h,

    is the Hessian of E / (2 pi) (H v is the derivative of W g along v) and
    P = K + W / r^2 the threshold pencil; diagonal(0.0) is H's.  cos2h is
    cos 2h = 1 - 2 sin^2 h at the nodes 1..n as the gradient computed it;
    cos 4h is 2 cos^2 2h - 1 from it, and c is computed once.  Each main
    diagonal is K0 + w c at tau = 0 and K0 + w ((c + tau / r^2) / (1 + tau))
    otherwise, built afresh from c by the same operations whatever shifts
    came before, so the stiffness diagonal K0 enters exactly, and every call
    writes it into the same buffer: use or copy it before the next."""
    w = grid.weights[1:]
    r2 = grid.r_squared
    k0 = grid.stiffness_bands[0][1:]
    buffer = np.divide(cos2h, r2)
    curvature = cos2h * cos2h
    curvature *= 2.0
    curvature -= 1.0
    curvature *= 2.0 * mu
    np.subtract(buffer, curvature, out=curvature)

    def diagonal(tau: float) -> np.ndarray:
        main = buffer
        if tau == 0.0:
            np.multiply(curvature, w, out=main)
        else:
            np.divide(tau, r2, out=main)
            main += curvature
            main /= 1.0 + tau
            main *= w
        main += k0
        return main

    return diagonal, curvature


def _factor(grid, main):
    """The factor of the matrix with this main diagonal and K's off-diagonal,
    or None if it is not positive definite."""
    try:
        return banded_factor(grid, main)
    except np.linalg.LinAlgError:
        return None


def _descent(factor, wg):
    """The step d = -A^-1 W g for A so factored, and its slope."""
    step = banded_solve(factor, -wg)
    return step, 2.0 * np.pi * dot(wg, step)


def _newton_direction(grid, mu, wg, cos2h, gamma0, factor=None):
    """Shifted Newton step, its slope, the factorizations made and whether
    the unshifted Hessian H factored, i.e. is positive definite.  cos2h is
    cos 2h at the nodes 1..n of the iterate, as the gradient computed it;
    gamma0 is the threshold eigenvalue; factor is H's, if the caller holds
    it (not counted).

    H is tried first, since the stop test asks whether it factors.  If not,
    ((H + tau P) / (1 + tau)) d = -W g is solved for tau = 2/3 tau_b, then
    (1 + SHIFT_MARGIN) tau_b, the first that factors and descends, else the
    step is -P^-1 W g.  tau_b, from hessian_bands' curvature c, is the smaller
    of two shifts beyond which the matrix is positive definite: max(-c r^2),
    where every c + tau / r^2 >= 0 on top of K, positive definite on the
    nodes 1..n; and max(1 / r^2 - c) / gamma0 - 1, as H + tau P = (1 + tau) P
    - W diag(1 / r^2 - c) and v^T P v >= gamma0 v^T W v.  Both bounds are
    sufficient, not necessary, and the smaller shift's step lies nearer H's."""
    if factor is not None:
        return *_descent(factor, wg), 0, True
    diagonal, curvature = hessian_bands(grid, mu, cos2h)
    factor = _factor(grid, diagonal(0.0))
    tried = 1
    if factor is not None:
        return *_descent(factor, wg), tried, True
    r2 = grid.r_squared
    bound = min(-float(np.minimum.reduce(curvature * r2)),
                float(np.maximum.reduce(1.0 / r2 - curvature)) / gamma0 - 1.0)
    for tau in (2.0 / 3.0 * bound, (1.0 + SHIFT_MARGIN) * bound):
        factor = _factor(grid, diagonal(tau))
        tried += 1
        if factor is not None:
            step, slope = _descent(factor, wg)
            if slope < 0.0:
                return step, slope, tried, False
    return *_descent(grid.pencil_factor, wg), tried, False


def _default_start(grid, mu, eigenpair):
    """The start of a run given no init, and the start to fall back on if
    the unshifted Hessian at the first does not factor, or None where the
    first is taken as it is.  The default start is stated here and in the
    README only.

    Every global minimizer, once folded into [0, pi/2], lies in [0, pi/4]:
    taking every node value v above pi/4 to pi/2 - v is 1-Lipschitz, so no
    cell difference grows, keeps sin^2 2h and lowers sin^2 h, so it lowers E
    wherever it moves a node.  The pitchfork's leading-order minimizer
    sqrt((2 mu - gamma0) / cbar) phi0 (Crandall & Rabinowitz, J. Funct.
    Anal. 8, 1971), cbar taken at mu = gamma0 / 2 (EigenPair.threshold_cbar),
    picks the start.  Where 2 mu > gamma0 and its peak is at most pi/4, the
    start is the pitchfork start a phi0, a^2 = u the positive root of
    3 c6 u^2 + cbar u - delta = 0, delta = 2 mu - gamma0: the stationary
    point of the energy along phi0 expanded to sixth order at the run's own
    mu, with cbar(mu) and c6(mu) from EigenPair.sextic (Golubitsky &
    Schaeffer, Singularities and Groups in Bifurcation Theory I, 1985,
    ch. VII).  u is taken as 2 delta / (cbar + sqrt(cbar^2 + 12 c6 delta)),
    which does not cancel and holds at c6 = 0; the discriminant stays above
    cbar^2 / 6 wherever the leading-order peak is at most pi/4, at every
    grading and on coarse random node sets alike.  The pitchfork start is
    taken provided that the unshifted Hessian there factors; minimize tests
    that on the cos 2h of its first gradient evaluation.  Where it fails,
    next to the threshold, where H cannot resolve 2 mu - gamma0, the start
    is INIT_EPS * phi0, as it is at 2 mu <= gamma0.
    A leading-order peak above pi/4, or one not finite, overshoots every
    minimizer, and the start is the large-mu core law

        h0(r) = (pi/4) s / sqrt(1 + s^2) = (pi/4) sqrt(mu r^2 / (1 + mu r^2)),

    s = sqrt(mu) r, a core of width mu^-1/2 rising to the plateau pi/4.
    Both laws are built from *, / and sqrt, which round correctly, and the
    moments from numpy's pairwise sums, so they do not depend on the CPU."""
    phi = eigenpair.phi0.values
    delta = 2.0 * mu - eigenpair.gamma0
    if not delta > 0.0:
        return INIT_EPS * phi, None
    peak = math.sqrt(delta / eigenpair.threshold_cbar) * float(np.maximum.reduce(phi))
    if peak <= PLATEAU:
        cbar, c6 = eigenpair.sextic(mu)
        u = 2.0 * delta / (cbar + math.sqrt(cbar * cbar + 12.0 * c6 * delta))
        return math.sqrt(u) * phi, INIT_EPS * phi
    x = mu * grid.r_squared
    v = np.zeros_like(phi)
    v[1:] = PLATEAU * np.sqrt(x / (1.0 + x))
    return v, None


# Overflow is checked, not warned about: a non-finite start energy raises, a
# nan trial energy or a non-finite gradient norm or slope ends the run as
# diverged, and an infinite trial energy fails the Armijo test.  One errstate
# per call, not per iteration: entering one costs about 4 % of an n = 256
# iteration.
@np.errstate(over="ignore", invalid="ignore")
def minimize(
    grid: RadialGrid,
    params: ModelParams,
    init: Profile | None = None,
    *,
    eigenpair: EigenPair,
) -> SolveReport:
    """Minimize the reduced energy at fixed parameters from init, else from
    the default start (see _default_start).  eigenpair is the grid's
    threshold pair (gamma0, phi0), which the default start and the Newton
    shift bound read; an init or a pair of another grid object is a ValueError.
    The zero profile, an exact critical point with E = 0, always enters the
    final candidate set: a run ending at E >= 0 returns it, converged only
    if it passed the stop test.
    """
    mu = params.mu
    w = grid.weights

    if eigenpair.phi0.grid is not grid:
        raise ValueError("eigenpair lives on a different grid")
    factorizations = 0
    factor = None  # H's factor at the start, from the pitchfork start's test
    fallback = None
    if init is None:
        v, fallback = _default_start(grid, mu, eigenpair)
    else:
        if init.grid is not grid:
            raise ValueError("init profile lives on a different grid")
        v = init.values

    e_cur, dv, sinh = energy_parts(grid, v, mu)
    energy_evals = 1
    backtracks = 0
    if not np.isfinite(e_cur):
        raise ValueError("initial profile has non-finite energy")
    g, cos2h = gradient_from_parts(grid, v, mu, dv, sinh)
    if fallback is not None:
        # the start's Hessian test is the first iteration's tau = 0 factorization
        factor = _factor(grid, hessian_bands(grid, mu, cos2h)[0](0.0))
        factorizations = 1
        if factor is None:
            v = fallback
            e_cur, dv, sinh = energy_parts(grid, v, mu)
            energy_evals += 1
            g, cos2h = gradient_from_parts(grid, v, mu, dv, sinh)
    gnorm = math.sqrt(dot(w * g, g))

    history = [e_cur]
    fold_count = 0
    converged = False
    diverged = not math.isfinite(gnorm)  # e.g. mu = 1e300
    direction = np.zeros_like(v)  # the search direction; r = 0 stays pinned

    while not diverged:
        wg = w[1:] * g[1:]
        step, slope, tried, definite = _newton_direction(
            grid, mu, wg, cos2h, eigenpair.gamma0, factor)
        factor = None
        factorizations += tried
        if not math.isfinite(slope):
            diverged = True
            break
        floor = FLAT_TOL * (1.0 + abs(e_cur))
        # first- and second-order conditions, the decrement at the roundoff floor
        converged = gnorm <= params.tol and definite and -0.5 * slope <= floor
        if converged or slope >= 0.0 or len(history) > params.max_iter:
            break  # slope >= 0: no descent direction left

        direction[1:] = step
        reach = float(np.maximum.reduce(np.abs(step)))
        alpha = MAX_STEP / reach if reach > MAX_STEP else 1.0
        # a step that predicts less than the floor may raise E by up to the
        # floor at its first trial: an Armijo test there compares noise with noise
        flat = -0.5 * slope <= floor
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            cand, folded = fold_values(v + alpha * direction)
            e_new, dv, sinh = energy_parts(grid, cand, mu)
            energy_evals += 1
            if math.isnan(e_new):
                diverged = True
                break
            if e_new <= e_cur + (floor if flat else ARMIJO_C1 * alpha * slope):
                accepted = True
                break
            # the minimizer of the quadratic through E, the slope and e_new,
            # kept within [SHRINK_MIN, SHRINK_MAX] * alpha; an infinite e_new
            # makes it 0, so the step shrinks by SHRINK_MIN
            quadratic = -slope * alpha * alpha / (2.0 * (e_new - e_cur - slope * alpha))
            alpha = min(max(quadratic, SHRINK_MIN * alpha), SHRINK_MAX * alpha)
            flat = False
            backtracks += 1
        if diverged or not accepted:
            break

        if folded:
            fold_count += 1
        v = cand
        e_cur = e_new
        history.append(e_cur)

        g, cos2h = gradient_from_parts(grid, v, mu, dv, sinh)
        gnorm = math.sqrt(dot(w * g, g))
        if not math.isfinite(gnorm):
            diverged = True
            break

    iterations = len(history) - 1
    trivial = not diverged and e_cur >= 0.0
    if trivial:
        if e_cur > 0.0:
            history.append(0.0)
        v, e_cur, gnorm = np.zeros_like(v), 0.0, 0.0

    return SolveReport(
        minimizer=Profile(grid, v),
        energy=e_cur,
        residual=gnorm,
        iterations=iterations,
        converged=converged,
        fold_applied=fold_count,
        bc_residual=abs(rim_slope(grid, v)),
        energy_history=tuple(history),
        trivial=trivial,
        diverged=diverged,
        energy_evals=energy_evals,
        backtracks=backtracks,
        factorizations=factorizations,
    )
