"""Energy minimization over radial profiles.

Descent in the inner product of the linearized operator (the stiffness plus
centrifugal pencil), with backtracking line search and a damped Newton
endgame on the banded linearization.  A descent step's line search starts
one doubling above the previous accepted descent step (never above 1), so
at large mu it does not backtrack from 1 every time; a Newton step always
starts at 1, which its quadratic convergence needs.  Every accepted iterate
is folded back into [0, pi/2], which never changes the energy of the limit.
A run stops converged once the gradient passes tol and the decrease the
next step predicts (minus half its slope; for a Newton step, half the squared
Newton decrement, Boyd & Vandenberghe, Convex Optimization, 9.5.1) is at the
roundoff floor of the energy; a Newton step predicting less than that floor
is taken whole unless the energy rises past it.  Both directions come from
grid.banded_solve with a tridiagonal LDL^T factor: the grid's cached pencil
factor for descent, a fresh factor of the shifted Hessian for Newton.

Each trial of the line search is one operators.energy_parts call.  The
accepted trial's cell differences and sin 2h go to
operators.gradient_from_parts, whose cos 2h the Newton step reuses, and the
closing residual is the last gradient's norm whenever the returned profile
is the last iterate.  So every quantity is computed once per iterate, with
the operations and operands of the standalone energy_of_values and
gradient_values, and the trajectory is bit for bit the one that evaluating
each afresh gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigen import EigenPair, smallest_eigenpair
from .grid import RadialGrid, banded_factor, banded_solve, derivative, l2_norm
from .operators import (
    ModelParams,
    Profile,
    energy_parts,
    fold_values,
    gradient_from_parts,
    gradient_values,
)

__all__ = ["SolveReport", "minimize", "verify_trivial_uniqueness", "random_profile"]

ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 40
NEWTON_GATE = 1e-2
FLAT_TOL = 1e-12


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one minimization run.

    residual is the L^2(r dr) norm of the energy gradient at the returned
    minimizer; converged reports are meant to satisfy residual <= tol, but a
    flat-energy tail can break this (see
    tests/test_solver.py::test_converged_report_satisfies_tol_at_large_mu).
    The energy history lists the energy after every accepted step.  It is
    non-increasing up to the roundoff floor FLAT_TOL * (1 + |E|), by which a
    Newton step predicting less than that floor may raise it; iterations
    counts the accepted steps.  energy_evals counts every energy evaluation
    of the run and backtracks every trial step that the line search
    rejected, so energy_evals == 1 + iterations + backtracks unless a trial
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


def _wnorm(w: np.ndarray, values: np.ndarray) -> float:
    t = w * values
    t *= values
    return math.sqrt(max(float(np.add.reduce(t)), 0.0))


def _newton_direction(grid, values, mu, wg, cos2h):
    """Damped Newton step for the full system: solve (H + tau W) d = -W g.
    cos2h is cos(2 values[1:]), as the gradient at values computed it."""
    w = grid.weights
    curvature = cos2h / grid.r_squared - 2.0 * mu * np.cos(4.0 * values[1:])
    h0 = grid.stiffness_bands[0][1:] + w[1:] * curvature
    tau = 0.0
    scale = float(np.max(np.abs(h0))) or 1.0
    for _ in range(25):
        try:
            factor = banded_factor(grid, h0 + tau * w[1:])
        except np.linalg.LinAlgError:
            tau = max(tau * 100.0, 1e-12 * scale)
            continue
        step = banded_solve(factor, -wg)
        slope = 2.0 * np.pi * float(np.add.reduce(wg * step))
        if slope < 0.0:
            return step, slope
        tau = max(tau * 100.0, 1e-12 * scale)
    return None, 0.0


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
    fold_iterates: bool = True,
    eigenpair: EigenPair | None = None,
    init_eps: float = 0.1,
) -> SolveReport:
    """Minimize the reduced energy at fixed parameters.

    init defaults to init_eps * phi0, the scaled threshold eigenprofile.  The
    zero profile is an exact critical point with E = 0, so it always enters
    the final candidate set: whenever the descent path ends at nonnegative
    energy, the trivial profile is returned as the minimizer.
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

    precond = grid.pencil_factor

    e_cur, dv, sin2h = energy_parts(grid, v, mu)
    energy_evals = 1
    backtracks = 0
    if not np.isfinite(e_cur):
        raise ValueError("initial profile has non-finite energy")
    g, cos2h = gradient_from_parts(grid, v, mu, dv, sin2h)
    gnorm = _wnorm(w, g)

    history = [e_cur]
    best_e, best_v = e_cur, v.copy()
    best_is_v = True  # best_v equals v, whose residual is gnorm
    fold_count = 0
    diverged = not math.isfinite(gnorm)  # e.g. mu = 1e300
    alpha_prev = 1.0  # last accepted step of a preconditioned-descent direction
    direction = np.zeros_like(v)  # the search direction; r = 0 stays pinned

    for _ in range(0 if diverged else params.max_iter):
        wg = w[1:] * g[1:]
        step, slope = (_newton_direction(grid, v, mu, wg, cos2h) if gnorm <= NEWTON_GATE
                       else (None, 0.0))
        newton = step is not None
        if not newton:
            step = banded_solve(precond, -wg)
            slope = 2.0 * np.pi * float(np.add.reduce(wg * step))
        if not math.isfinite(slope):
            diverged = True
            break
        if slope >= 0.0:
            break  # no descent direction left; g is numerically zero
        floor = FLAT_TOL * (1.0 + abs(e_cur))
        if gnorm <= params.tol and -0.5 * slope <= floor:
            break  # converged: the Newton decrement is at the roundoff floor

        direction[1:] = step
        alpha = 1.0 if newton else min(1.0, alpha_prev / BACKTRACK)
        # a full Newton step that predicts less than the floor may raise E by
        # up to the floor: an Armijo test there compares noise with noise
        flat = newton and -0.5 * slope <= floor
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            cand = v + alpha * direction
            folded = False
            if fold_iterates:
                cand, folded = fold_values(cand)
            e_new, dv, sin2h = energy_parts(grid, cand, mu)
            energy_evals += 1
            if math.isnan(e_new):
                diverged = True
                break
            if e_new <= e_cur + (floor if flat else ARMIJO_C1 * alpha * slope):
                accepted = True
                break
            alpha *= BACKTRACK
            flat = False
            backtracks += 1
        if diverged or not accepted:
            break
        if not newton:
            alpha_prev = alpha

        if folded:
            fold_count += 1
        v = cand
        e_cur = e_new
        history.append(e_cur)
        best_is_v = e_cur < best_e
        if best_is_v:
            best_e, best_v = e_cur, v.copy()

        g, cos2h = gradient_from_parts(grid, v, mu, dv, sin2h)
        gnorm = _wnorm(w, g)
        if not math.isfinite(gnorm):
            diverged = True
            break

    converged = not diverged and gnorm <= params.tol
    iterations = len(history) - 1

    if not diverged and best_e >= 0.0:
        zero = np.zeros_like(v)
        if best_e > 0.0:
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
        minimizer=Profile(grid, best_v),
        energy=best_e,
        residual=gnorm if best_is_v else _wnorm(w, gradient_values(grid, best_v, mu)),
        iterations=iterations,
        mu=mu,
        converged=converged,
        fold_applied=fold_count,
        bc_residual=abs(float(derivative(grid, best_v)[-1])),
        energy_history=tuple(history),
        diverged=diverged,
        energy_evals=energy_evals,
        backtracks=backtracks,
    )


def verify_trivial_uniqueness(
    grid: RadialGrid,
    params: ModelParams,
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
        minimize(grid, params, init=random_profile(grid, rng))
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
