"""The energy, gradient and fold as first written, one numpy expression each,
with the flux-form stiffness apply K v that the gradient builds on; the
Horner start and inverse iteration of magnetodisk.eigen, with a fresh array
for every intermediate; and the Newton matrix, step and shift search of
magnetodisk.solver, the search as a linear scan of its ladder of tried shifts.

The kernels of magnetodisk.operators build the same fields in place, fused
(energy_parts hands dv and sin h to gradient_from_parts, which takes sin 2h
and cos 2h from sin h and cos h), and do the same
floating-point operations in the same order, so they must agree with these
bit for bit; so must eigen's in-place start and normalisation.  The
operator references read only the grid's nodes and weights; the inverse
iteration solves with the grid's pencil factor, as eigen does, and can also
deflate against a given mode, which gives the tests the second eigenpair.  The solver
builds each tried matrix and step by the same operations, so its steps must
agree with the scan's bit for bit.
"""

from functools import reduce

import numpy as np

from magnetodisk.eigen import _J1_START
from magnetodisk.grid import banded_factor, banded_solve
from magnetodisk.solver import SHIFT_MARGIN


def kappa(grid):
    """P1 cell coefficients: kappa_k (v_{k+1} - v_k)^2 = int v_r^2 r dr on
    cell k for linear v."""
    r = grid.nodes
    return (r[:-1] + r[1:]) / (2.0 * (r[1:] - r[:-1]))


def stiffness_apply(grid, values):
    """K values in flux form: the cell fluxes f = kappa * diff(values) enter
    the right node of their cell with + and the left one with -."""
    flux = kappa(grid) * np.diff(values)
    return np.concatenate(([0.0], flux)) - np.concatenate((flux, [0.0]))


def dense_matrix(grid, diagonal):
    """The matrix over the nodes 1..n with this main diagonal and the
    off-diagonal -kappa[1:] of the stiffness, as a dense array."""
    off = -kappa(grid)[1:]
    return np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)


def reference_cos2h(values):
    """cos 2h at the nodes 1..n as 1 - 2 sin^2 h, the form the gradient returns."""
    s = np.sin(values[1:])
    return 1.0 - 2.0 * (s * s)


def reference_energy(grid, values, mu):
    s2 = np.sin(values[1:]) ** 2
    # (mu/2) sin^2 2h = 2 mu sin^2 h (1 - sin^2 h)
    nodal = s2 / grid.nodes[1:] ** 2 - (1.0 - s2) * s2 * mu * 2.0
    return np.pi * (float(np.sum(kappa(grid) * np.diff(values) ** 2))
                    + float(np.sum(grid.weights[1:] * nodal)))


def reference_gradient(grid, values, mu):
    r = grid.nodes
    w = grid.weights
    q = stiffness_apply(grid, values)
    sin2h = 2.0 * (np.sin(values[1:]) * np.cos(values[1:]))
    g = np.zeros_like(values)
    g[1:] = (
        q[1:] / w[1:]
        + sin2h / (2.0 * r[1:] ** 2)
        - mu * sin2h * reference_cos2h(values)
    )
    return g


def reference_fold(values):
    """|.|, then one reflection sweep at a time; and whether anything moved."""
    a = np.abs(values)
    changed = bool((values < 0.0).any())
    while (a > np.pi / 2.0).any():
        a = np.where(a > np.pi / 2.0, np.abs(np.pi - a), a)
        changed = True
    return a, changed


def reference_j1_start(grid):
    """J1(j'_{1,1} r) = sum_k c_k r^(2k+1) at the nodes 1..n, with eigen's
    coefficients c_k: c_0 r plus r^3 (c_1 + c_2 r^2 + ...) by Horner's rule."""
    r, r2 = grid.nodes[1:], grid.r_squared
    return reduce(lambda p, c: p * r2 + c, _J1_START[-2:0:-1], _J1_START[-1]) * r2 * r \
        + _J1_START[0] * r


def reference_inverse_iteration(grid, v, deflate=None, max_iter=400, rq_tol=1e-14):
    """Shift-0 inverse iteration on the pencil, deflated against the
    M-normalized mode deflate unless it is None: (gamma, v, solves), as
    eigen._inverse_iteration returns them.

    It stops by an older rule than eigen's, kept as an independent
    reference: two solves in a row that change gamma by at most
    rq_tol * max(1, |gamma|), or that sit on a plateau, a change below
    1e-10 * max(1, |gamma|) and at least half the previous one.  Where the
    two rules stop at the same solve, the results agree bit for bit."""
    factor = grid.pencil_factor
    m = grid.weights[1:]

    def project(x):
        if deflate is None:
            return x
        return x - float(np.sum(m * (x * deflate))) * deflate

    v = project(v)
    if deflate is not None:
        v[0] += 1e-3
        v = project(v)
    v = v / np.sqrt(float(np.sum(m * (v * v))))
    gamma_prev = delta_prev = gamma = np.inf
    stall = 0
    for it in range(1, max_iter + 1):
        mv = m * v
        u = project(banded_solve(factor, mv))
        gamma = 1.0 / float(np.sum(mv * u))
        u = u / np.sqrt(float(np.sum(m * (u * u))))
        delta = abs(gamma - gamma_prev)
        scale = max(1.0, abs(gamma))
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
        raise RuntimeError(f"inverse iteration did not settle in {max_iter} iterations")
    return gamma, v, it


def reference_curvature(grid, mu, cos2h):
    """c = cos 2h / r^2 - 2 mu cos 4h at the nodes 1..n, cos 4h as
    2 cos^2 2h - 1."""
    return cos2h / grid.r_squared - 2.0 * mu * (2.0 * cos2h * cos2h - 1.0)


def reference_newton_diagonal(grid, curvature, tau):
    """The main diagonal of (H + tau P) / (1 + tau): K0 + w c for H itself,
    else K0 + w ((c + tau / r^2) / (1 + tau))."""
    w = grid.weights[1:]
    k0 = grid.stiffness_bands[0][1:]
    if tau == 0.0:
        return k0 + w * curvature
    return k0 + w * ((curvature + tau / grid.r_squared) / (1.0 + tau))


def reference_descent(factor, wg):
    """The step -A^-1 W g for A so factored, and its slope 2 pi (W g) . d."""
    step = banded_solve(factor, -wg)
    return step, 2.0 * np.pi * float(np.sum(wg * step))


def reference_shift_search(grid, curvature, wg, gamma0):
    """Try 2/3 tau_b and (1 + SHIFT_MARGIN) tau_b in turn, tau_b =
    min(max(-c r^2), max(1 / r^2 - c) / gamma0 - 1), and solve with the
    first whose matrix (H + tau P) / (1 + tau) factors and whose step
    descends, else take the pencil step.  (step, slope, tried) as
    solver._shift_search returns them, tried counting every factorization."""
    r2 = grid.r_squared
    bound = min(float(np.max(-curvature * r2)),
                float(np.max(1.0 / r2 - curvature)) / gamma0 - 1.0)
    ladder = [2.0 / 3.0 * bound, (1.0 + SHIFT_MARGIN) * bound]
    for tried, tau in enumerate(ladder, start=1):
        try:
            shifted = banded_factor(grid, reference_newton_diagonal(grid, curvature, tau))
        except np.linalg.LinAlgError:
            continue
        step, slope = reference_descent(shifted, wg)
        if slope < 0.0:
            return step, slope, tried
    return *reference_descent(grid.pencil_factor, wg), len(ladder)
