"""Energy minimization over radial profiles.

Every iteration takes the same path: a shifted Newton step with a
backtracking line search (Levenberg-Marquardt; More & Sorensen 1983; Nocedal
& Wright, Numerical Optimization, ch. 3-4).  The step solves
((H + tau P) / (1 + tau)) d = -W g, where H is the Hessian of the banded
linearization and P = K + W / r^2 the threshold pencil, for the first tau of
SHIFTS whose matrix is positive definite and whose step descends.  Divided by
1 + tau the matrix keeps K's off-diagonal, so grid.banded_factor factors it,
and as tau grows the step turns into -P^-1 W g, steepest descent in the
inner product of P.  When no shift qualifies, that direction itself, solved
with the grid's cached pencil factor, is the step, so every iteration has
one.

Every line search starts at alpha = 1 and backtracks by safeguarded
quadratic interpolation (Nocedal & Wright 3.5).  Every accepted iterate is
folded back into [0, pi/2], which never raises the energy.  A run stops
converged once the gradient passes tol and the decrease the next step
predicts (minus half its slope, half the squared Newton decrement; Boyd &
Vandenberghe, Convex Optimization, 9.5.1) is at the roundoff floor of the
energy; a step predicting less than that floor is taken whole unless the
energy rises past it.  The last accepted iterate is returned, and the norm of
its gradient is the residual.

Each trial of the line search is one operators.energy_parts call.  The
accepted trial's cell differences and sin 2h go to
operators.gradient_from_parts, whose cos 2h the Newton step reuses.  So every
quantity is computed once per iterate, with the operations and operands of
the standalone energy and gradient kernels, and the trajectory is bit for bit
the one that evaluating each afresh gives.  The boundary certificate is
grid.rim_slope of the returned profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigen import EigenPair, smallest_eigenpair
from .grid import RadialGrid, banded_factor, banded_solve, rim_slope
from .operators import (
    ModelParams,
    Profile,
    energy_parts,
    fold_values,
    gradient_from_parts,
)

__all__ = ["SolveReport", "minimize"]

ARMIJO_C1 = 1e-4
SHRINK_MIN, SHRINK_MAX = 0.1, 0.5  # bounds on one backtrack's alpha_new / alpha
MAX_BACKTRACKS = 40
FLAT_TOL = 1e-12
# the shifts tau tried in turn; the pencil direction is the limit tau -> inf
SHIFTS = (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one minimization run.

    residual is the L^2(r dr) norm of the energy gradient at the returned
    minimizer, the last accepted iterate, so a converged report satisfies
    residual <= tol.  bc_residual is |h_r(1)| at the minimizer by the
    one-sided stencil of grid.rim_slope, the residual of the natural
    boundary condition, which the weak form holds only up to truncation.
    The energy history lists the energy after every accepted step.  It is
    non-increasing up to the roundoff floor FLAT_TOL * (1 + |E|), by which a
    step predicting less than that floor may raise it; iterations counts the
    accepted steps.  energy_evals counts every energy evaluation of the run
    and backtracks every trial step that the line search rejected, so
    energy_evals == 1 + iterations + backtracks unless a trial
    energy came out NaN (diverged).
    """

    minimizer: Profile
    energy: float
    residual: float
    iterations: int
    mu: float
    converged: bool
    fold_applied: int
    bc_residual: float
    energy_history: tuple[float, ...] = field(repr=False, default=())
    trivial: bool = False
    diverged: bool = False
    energy_evals: int = 0
    backtracks: int = 0


def _wnorm(w: np.ndarray, values: np.ndarray) -> float:
    t = w * values
    t *= values
    return math.sqrt(max(float(np.add.reduce(t)), 0.0))


def _newton_direction(grid, values, mu, wg, cos2h):
    """Shifted Newton step and its slope: solve ((H + tau P) / (1 + tau)) d
    = -W g for the first tau of SHIFTS whose matrix is positive definite and
    whose step descends, else the pencil step -P^-1 W g.  cos2h is
    cos(2 values[1:]), as the gradient at values computed it."""
    w = grid.weights[1:]
    curvature = cos2h / grid.r_squared - 2.0 * mu * np.cos(4.0 * values[1:])
    k0 = grid.stiffness_bands[0][1:]
    for tau in SHIFTS:
        try:
            factor = banded_factor(grid, k0 + w * ((curvature + tau / grid.r_squared) / (1.0 + tau)))
        except np.linalg.LinAlgError:
            continue
        step = banded_solve(factor, -wg)
        slope = 2.0 * np.pi * float(np.add.reduce(wg * step))
        if slope < 0.0:
            return step, slope
    step = banded_solve(grid.pencil_factor, -wg)
    return step, 2.0 * np.pi * float(np.add.reduce(wg * step))


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
    eigenpair: EigenPair | None = None,
    init_eps: float = 0.1,
) -> SolveReport:
    """Minimize the reduced energy at fixed parameters.

    init defaults to init_eps * phi0, the scaled threshold eigenprofile.  The
    zero profile is an exact critical point with E = 0, so it always enters
    the final candidate set: whenever the run ends at nonnegative energy, the
    trivial profile is returned as the minimizer.
    """
    mu = params.mu
    w = grid.weights
    nodes = grid.nodes

    if init is None:
        if eigenpair is None:
            eigenpair = smallest_eigenpair(grid)
        v = init_eps * eigenpair.phi0.values
    else:
        if init.grid.nodes.shape != nodes.shape or not np.array_equal(init.grid.nodes, nodes):
            raise ValueError("init profile lives on a different grid")
        v = init.values.copy()

    e_cur, dv, sin2h = energy_parts(grid, v, mu)
    energy_evals = 1
    backtracks = 0
    if not np.isfinite(e_cur):
        raise ValueError("initial profile has non-finite energy")
    g, cos2h = gradient_from_parts(grid, v, mu, dv, sin2h)
    gnorm = _wnorm(w, g)

    history = [e_cur]
    fold_count = 0
    diverged = not math.isfinite(gnorm)  # e.g. mu = 1e300
    direction = np.zeros_like(v)  # the search direction; r = 0 stays pinned

    for _ in range(0 if diverged else params.max_iter):
        wg = w[1:] * g[1:]
        step, slope = _newton_direction(grid, v, mu, wg, cos2h)
        if not math.isfinite(slope):
            diverged = True
            break
        if slope >= 0.0:
            break  # no descent direction left; g is numerically zero
        floor = FLAT_TOL * (1.0 + abs(e_cur))
        if gnorm <= params.tol and -0.5 * slope <= floor:
            break  # converged: the Newton decrement is at the roundoff floor

        direction[1:] = step
        alpha = 1.0
        # a full step that predicts less than the floor may raise E by up to
        # the floor: an Armijo test there compares noise with noise
        flat = -0.5 * slope <= floor
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            cand, folded = fold_values(v + alpha * direction)
            e_new, dv, sin2h = energy_parts(grid, cand, mu)
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

        g, cos2h = gradient_from_parts(grid, v, mu, dv, sin2h)
        gnorm = _wnorm(w, g)
        if not math.isfinite(gnorm):
            diverged = True
            break

    converged = not diverged and gnorm <= params.tol
    iterations = len(history) - 1

    if not diverged and e_cur >= 0.0:
        zero = np.zeros_like(v)
        if e_cur > 0.0:
            history.append(0.0)
        return SolveReport(
            minimizer=Profile(grid, zero),
            energy=0.0,
            residual=0.0,
            iterations=iterations,
            mu=mu,
            converged=True,
            fold_applied=fold_count,
            bc_residual=0.0,
            energy_history=tuple(history),
            trivial=True,
            energy_evals=energy_evals,
            backtracks=backtracks,
        )

    return SolveReport(
        minimizer=Profile(grid, v),
        energy=e_cur,
        residual=gnorm,
        iterations=iterations,
        mu=mu,
        converged=converged,
        fold_applied=fold_count,
        bc_residual=abs(rim_slope(grid, v)),
        energy_history=tuple(history),
        diverged=diverged,
        energy_evals=energy_evals,
        backtracks=backtracks,
    )
