import math

import numpy as np
import pytest

import magnetodisk.solver as solver
from magnetodisk import (
    ModelParams,
    Profile,
    RadialGrid,
    build_grid,
    minimize,
    smallest_eigenpair,
)
from magnetodisk.grid import banded_factor, banded_matvec, banded_solve
from magnetodisk.operators import (
    energy_parts,
    gradient_from_parts,
)

from conftest import grid_and_pair, scaled_phi0, smooth_profile
from oracles import euler_residual, gradient_field, l2_norm, random_profile, verify_trivial_uniqueness
from reference_kernels import (
    dense_matrix,
    reference_cos2h,
    reference_curvature,
    reference_descent,
    reference_energy,
    reference_fold,
    reference_gradient,
    reference_newton_diagonal,
    reference_shift_search,
)


def test_subcritical_runs_return_the_exact_trivial_profile(grid256, pair256):
    p = ModelParams(mu=1.0)
    rng = np.random.default_rng(4)
    inits = [None, random_profile(grid256, rng), smooth_profile(grid256, [0.9, -0.3])]
    for init in inits:
        rep = minimize(grid256, p, init=init, eigenpair=pair256)
        assert rep.converged
        assert rep.trivial
        assert rep.energy == 0.0
        assert np.all(rep.minimizer.values == 0.0)
        assert rep.residual == 0.0


def test_supercritical_minimizer_lands_on_the_positive_branch(grid256, pair256):
    mu = pair256.gamma0 / 2.0 + 0.2
    rep = minimize(grid256, ModelParams(mu=mu), eigenpair=pair256)
    assert rep.converged
    assert not rep.trivial
    assert rep.energy < -1e-6
    assert rep.residual <= 1e-8
    vals = rep.minimizer.values
    assert vals[0] == 0.0
    assert np.all(vals[1:] > 0.0)
    assert np.all(vals[1:] <= np.pi / 2.0)


def test_minimizer_satisfies_the_strong_equation(minimizer512, grid1024, pair1024):
    p = ModelParams(mu=2.0)
    rep = minimize(grid1024, p, eigenpair=pair1024)
    assert rep.converged
    assert euler_residual(rep.minimizer, p) <= 1e-6  # measured 2.1e-8
    assert rep.bc_residual <= 1e-6
    assert euler_residual(rep.minimizer, p) < euler_residual(minimizer512.minimizer, p)


def test_energy_history_is_monotone(grid256, pair256):
    for mu in (1.2, 2.3):
        rep = minimize(grid256, ModelParams(mu=mu), eigenpair=pair256)
        hist = np.asarray(rep.energy_history)
        assert np.all(np.diff(hist) <= 0.0)
        assert hist[-1] == rep.energy or rep.trivial


def test_descent_is_sign_equivariant_without_folding(grid256, pair256, monkeypatch):
    # with the fold replaced by the identity every operation in the loop is
    # odd, so negating the start negates the whole trajectory bitwise
    monkeypatch.setattr(solver, "fold_values", lambda values: (values, False))
    p = ModelParams(mu=2.0)
    plus = minimize(grid256, p, scaled_phi0(pair256, 0.1), eigenpair=pair256)
    minus = minimize(grid256, p, scaled_phi0(pair256, -0.1), eigenpair=pair256)
    assert plus.converged and minus.converged
    assert abs(plus.energy - minus.energy) <= 1e-12  # measured 0.0
    assert l2_norm(grid256, plus.minimizer.values + minus.minimizer.values) <= 1e-8
    assert np.all(minus.minimizer.values <= 0.0)
    assert minus.fold_applied == 0


def test_minimizer_is_stable_under_refinement(minimizer256, minimizer512):
    # every other fine node coincides with a coarse node exactly, so the two
    # solutions can be compared nodewise
    coarse = minimizer256.minimizer
    fine = minimizer512.minimizer
    assert np.array_equal(fine.grid.nodes[::2], coarse.grid.nodes)
    diff = fine.values[::2] - coarse.values
    assert l2_norm(coarse.grid, diff) <= (2.0 / 256.0) ** 2  # measured 4.9e-6


def test_minimal_energy_is_nonincreasing_in_mu(grid256, pair256):
    energies = []
    for mu in (1.8, 2.0, 2.4, 3.0):
        rep = minimize(grid256, ModelParams(mu=mu), eigenpair=pair256)
        assert rep.converged
        energies.append(rep.energy)
    assert all(a > b for a, b in zip(energies, energies[1:]))
    assert energies[0] < 0.0


def test_multistart_certifies_trivial_uniqueness_below_threshold(grid256, pair256):
    thr = pair256.gamma0 / 2.0
    for mu in (0.0, thr - 0.05):
        out = verify_trivial_uniqueness(grid256, ModelParams(mu=mu), pair256, trials=8, seed=0)
        assert out["passed"]
        assert out["n_nontrivial"] == 0
        assert out["worst_norm"] <= 1e-8


def test_multistart_flags_nontrivial_minimizers_above_threshold(grid256, pair256):
    thr = pair256.gamma0 / 2.0
    out = verify_trivial_uniqueness(grid256, ModelParams(mu=thr + 0.1), pair256, trials=8,
                                    seed=0)
    assert not out["passed"]
    assert out["n_nontrivial"] >= 1
    assert out["worst_energy"] < -1e-9


# the evaluations measured from the core law at every n below: one per
# iteration and the start's (7, 9 and 10 from 0.1 phi0)
ENERGY_EVAL_CAPS = {20.0: 4, 100.0: 4, 1000.0: 4}
# the iterations measured from the core law at every n below (5, 6 and 7
# from 0.1 phi0)
ITERATION_CAPS = {20.0: 3, 100.0: 3, 1000.0: 3}


@pytest.mark.parametrize("mu", sorted(ENERGY_EVAL_CAPS))
def test_line_search_energy_evaluations_are_capped(monkeypatch, mu):
    calls = []
    factors = []
    energy = solver.energy_parts
    factor = solver.banded_factor

    def counted(*args):
        calls.append(None)
        return energy(*args)

    def factored(*args):
        factors.append(None)
        return factor(*args)

    monkeypatch.setattr(solver, "energy_parts", counted)
    monkeypatch.setattr(solver, "banded_factor", factored)
    for n in (256, 512, 1024):
        calls.clear()
        factors.clear()
        grid, pair = grid_and_pair(n)
        rep = minimize(grid, ModelParams(mu=mu), eigenpair=pair)
        assert rep.converged
        assert rep.iterations <= ITERATION_CAPS[mu]
        assert rep.energy_evals <= ENERGY_EVAL_CAPS[mu]
        assert rep.energy_evals == len(calls)
        # the initial evaluation, one accepted trial per iteration, one per rejection
        assert rep.energy_evals == 1 + rep.iterations + rep.backtracks
        # every shift tried, failed ones included; measured 4 at every n, as
        # H factors at every iterate from the core law (8, 11 and 13 from
        # 0.1 phi0): tau = 0 at every iterate, at most two shifts after it
        assert rep.factorizations == len(factors) > rep.iterations
        assert rep.factorizations <= 1 + 3 * rep.iterations


# the energies at grading 2 with every line search started at alpha = 1,
# which took 24 / 70 / 193 / 311 evaluations at n = 256 and
# 22 / 83 / 163 / 810 at n = 1024
LARGE_MU_ENERGIES = {
    (256, 1e3): -778.7255148089565,
    (256, 1e4): -7845.498115404243,
    (256, 1e6): -785386.0291310146,
    (256, 1e8): -78539800.26306045,
    (1024, 1e3): -778.7265992590109,
    (1024, 1e4): -7845.501637344184,
    (1024, 1e6): -785386.0643866004,
    (1024, 1e8): -78539800.60259016,
}


@pytest.mark.parametrize("n, mu", sorted(LARGE_MU_ENERGIES))
def test_solve_cost_is_flat_in_mu(n, mu):
    grid, pair = grid_and_pair(n)
    rep = minimize(grid, ModelParams(mu=mu), eigenpair=pair)
    assert rep.converged
    # measured 3, 3, 3 and 4 at either n from the core law (7, 8, 11 and 11
    # at n = 256 and 7, 8, 12 and 11 at n = 1024 from 0.1 phi0)
    assert rep.iterations <= 4
    assert rep.factorizations <= 1 + 3 * rep.iterations
    # measured 4, 4, 4 and 5 at either n (10, 12, 17 and 18 at n = 256 and
    # 10, 12, 18 and 18 at n = 1024 from 0.1 phi0)
    assert rep.energy_evals <= 5
    assert abs(rep.energy - LARGE_MU_ENERGIES[n, mu]) <= 1e-13 * abs(rep.energy)


@pytest.mark.parametrize("mu, init_eps", [(2.0, 0.1), (20.0, 0.1), (100.0, 0.1),
                                          (1000.0, 0.1), (20.0, 10.0)])
def test_line_search_trials_stay_within_the_fold_domain_of_their_iterate(
        monkeypatch, grid256, pair256, mu, init_eps):
    # the gradient is evaluated at the start and at every accepted iterate,
    # and every trial goes through the fold, so between them the two hooks
    # see each trial next to the iterate its line search started from
    iterate = []
    reaches = []
    gradient = solver.gradient_from_parts
    fold = solver.fold_values

    def at_iterate(grid, v, *args):
        iterate[:] = [v.copy()]
        return gradient(grid, v, *args)

    def folded(values):
        v = iterate[0]
        bound = np.pi / 2.0 + 4.0 * np.spacing(np.pi + np.abs(v).max())
        reaches.append(np.abs(values - v).max() / bound)
        return fold(values)

    monkeypatch.setattr(solver, "gradient_from_parts", at_iterate)
    monkeypatch.setattr(solver, "fold_values", folded)
    start = scaled_phi0(pair256, init_eps)
    rep = minimize(grid256, ModelParams(mu=mu), start, eigenpair=pair256)
    assert rep.converged
    assert len(reaches) == rep.energy_evals - 1
    assert max(reaches) <= 1.0


def test_shift_search_falls_back_to_the_pencil_step(monkeypatch, grid256, pair256):
    # when no matrix factors, the search tries 2/3 tau_b and then
    # (1 + SHIFT_MARGIN) tau_b, and the step is the pencil solve, the
    # tau -> inf limit
    def indefinite(grid, diagonal):
        return None

    monkeypatch.setattr(solver, "banded_factor", indefinite)
    v = 0.1 * pair256.phi0.values
    g = reference_gradient(grid256, v, 2.0)
    wg = grid256.weights[1:] * g[1:]
    curvature = solver._curvature(grid256, 2.0, np.cos(2.0 * v[1:]))
    step, slope, tried = solver._shift_search(grid256, curvature, wg, pair256.gamma0)
    assert step.tobytes() == banded_solve(grid256.pencil_factor, -wg).tobytes()
    assert slope < 0.0
    assert tried == 2
    # a run adds the tau = 0 factorization at the top of each iterate: three
    # failed factorizations per iterate, which is never reported definite
    rep = minimize(grid256, ModelParams(mu=2.0, max_iter=1), scaled_phi0(pair256, 0.1),
                   eigenpair=pair256)
    assert (rep.iterations, rep.factorizations, rep.converged) == (1, 6, False)


@pytest.mark.parametrize("mu", [2.0, 20.0, 1000.0])
def test_hessian_bands_are_the_derivative_of_the_weighted_gradient(mu):
    # H v against the central difference of W g along v, for a rough and a
    # smooth v: the stiffness dominates the first, the curvature the second
    grid = build_grid(256, 2.0)
    r = grid.nodes
    h = 1.3 * r * (2.0 - r)
    diagonal = solver._newton_diagonal(grid, solver._curvature(grid, mu, np.cos(2.0 * h[1:])), 0.0)
    rough = np.concatenate(([0.0], np.random.default_rng(7).standard_normal(grid.n)))
    eps = 1e-5  # measured relative errors 5e-12 (rough) and 5e-9 (smooth)
    for v in (rough, np.sin(3.0 * r)):
        hv = banded_matvec(grid, diagonal, v[1:])
        fd = (gradient_field(grid, h + eps * v, mu)
              - gradient_field(grid, h - eps * v, mu))[1:] * grid.weights[1:] / (2.0 * eps)
        assert np.linalg.norm(hv - fd) <= 1e-6 * np.linalg.norm(hv)


@pytest.mark.parametrize("mu", [2.0, 20.0, 1000.0, 1e8])
def test_hessian_diagonals_match_the_cos_4h_form(mu):
    # cos 4h = 2 cos^2 2h - 1 from the gradient's cos 2h, for shifts over the
    # range the bound takes, against K0 + w ((c + tau / r^2) / (1 + tau)) with
    # np.cos(4h); and each is built by the same operations whatever shifts
    # were built before it
    grid = build_grid(256, 2.0)
    h = np.concatenate(([0.0], np.random.default_rng(3).uniform(0.0, np.pi / 2.0, grid.n)))
    cos2h = np.cos(2.0 * h[1:])
    w, r2, k0 = grid.weights[1:], grid.r_squared, grid.stiffness_bands[0][1:]
    curvature = cos2h / r2 - 2.0 * mu * np.cos(4.0 * h[1:])
    scale = k0 + w * (np.abs(cos2h) / r2 + 2.0 * mu)
    shipped = solver._curvature(grid, mu, cos2h)
    assert np.all(np.abs(shipped - curvature) <= 4.0 * np.spacing(np.abs(cos2h) / r2 + 2.0 * mu))
    taus = [0.0, 1e-6, 1e-3, 2.0 / 3.0, 1.0, 1e3, 1e8]
    built = []
    for tau in taus:
        main = solver._newton_diagonal(grid, shipped, tau)
        built.append(main.tobytes())
        old = k0 + w * ((curvature + tau / r2) / (1.0 + tau))
        assert np.all(np.abs(main - old) <= 4.0 * np.spacing(scale))
    for k in (3, 6, 0, 2, 1, 5, 0, 4):
        assert solver._newton_diagonal(grid, shipped, taus[k]).tobytes() == built[k]


def test_each_newton_diagonal_is_a_fresh_array(grid256, pair256):
    # building another shift's diagonal, or H's again, changes neither an
    # earlier diagonal nor the curvature they are built from
    cos2h = np.cos(2.0 * 0.3 * pair256.phi0.values[1:])
    curvature = solver._curvature(grid256, 2.0, cos2h)
    kept = curvature.tobytes()
    first = solver._newton_diagonal(grid256, curvature, 0.0)
    want = first.tobytes()
    for tau in (1.0, 0.0, 1e3):
        later = solver._newton_diagonal(grid256, curvature, tau)
        assert not np.shares_memory(later, first)
        assert first.tobytes() == want
    assert curvature.tobytes() == kept


@pytest.mark.parametrize("n, mu, init_eps", [(64, 2.0, 1e-9), (64, 20.0, 1e-12),
                                             (256, 2.0, 0.1), (256, 1000.0, 0.1)])
def test_unshifted_hessian_factors_exactly_when_minimize_reports_it_definite(
        monkeypatch, n, mu, init_eps):
    # at every iterate, and independently of the factorization at n = 64: the
    # smallest eigenvalue of the dense matrix is positive exactly then
    grid, pair = grid_and_pair(n)
    seen = []  # the cos 2h of each iterate and whether minimize took H's own step
    curvature_of, search = solver._curvature, solver._shift_search

    def recorded(grid, mu, cos2h):
        seen.append([cos2h.copy(), True])
        return curvature_of(grid, mu, cos2h)

    def shifted(*args):
        seen[-1][1] = False
        return search(*args)

    monkeypatch.setattr(solver, "_curvature", recorded)
    monkeypatch.setattr(solver, "_shift_search", shifted)
    rep = minimize(grid, ModelParams(mu=mu), scaled_phi0(pair, init_eps), eigenpair=pair)
    assert rep.converged and seen[-1][1]
    for cos2h, definite in seen:
        main = solver._newton_diagonal(grid, curvature_of(grid, mu, cos2h), 0.0)
        assert (banded_factor(grid, main) is not None) == definite
        if n == 64:
            assert (np.linalg.eigvalsh(dense_matrix(grid, main))[0] > 0.0) == definite
    if init_eps < 1e-3:  # the start next to the h = 0 saddle is indefinite
        assert not seen[0][1]


@pytest.mark.parametrize("mu", [2.0, 20.0, 1e3, 1e8])
def test_either_shift_bound_makes_the_newton_matrix_positive_definite(monkeypatch, mu):
    # at n = 64, by the smallest eigenvalue of the dense matrix: at random
    # profiles in [0, pi/2], at 1e-9 phi0 next to the h = 0 saddle, and at
    # every iterate of a run from there, whose shifts are recorded
    grid, pair = grid_and_pair(64)
    r2 = grid.r_squared
    curvature_of, diagonal = solver._curvature, solver._newton_diagonal
    runs = []  # the cos 2h of each curvature built and the shifts built from it

    def recorded(grid, mu, cos2h):
        runs.append((cos2h.copy(), []))
        return curvature_of(grid, mu, cos2h)

    def traced(grid, curvature, tau):
        runs[-1][1].append(tau)
        return diagonal(grid, curvature, tau)

    monkeypatch.setattr(solver, "_curvature", recorded)
    monkeypatch.setattr(solver, "_newton_diagonal", traced)
    assert minimize(grid, ModelParams(mu=mu), scaled_phi0(pair, 1e-9), eigenpair=pair).converged
    rng = np.random.default_rng(11)
    profiles = [rng.uniform(0.0, np.pi / 2.0, grid.n) for _ in range(3)]
    profiles.append(1e-9 * pair.phi0.values[1:])
    shifted = 0
    for cos2h, taus in [(np.cos(2.0 * h), None) for h in profiles] + runs:
        curvature = curvature_of(grid, mu, cos2h)
        diagonal_bound = float(np.max(-curvature * r2))
        pencil_bound = float(np.max(1.0 / r2 - curvature)) / pair.gamma0 - 1.0
        bound = min(diagonal_bound, pencil_bound)
        for b in (diagonal_bound, pencil_bound, bound):
            tau = max(b, 0.0) * (1.0 + solver.SHIFT_MARGIN)
            assert np.linalg.eigvalsh(dense_matrix(grid, diagonal(grid, curvature, tau)))[0] > 0.0
        if taus is not None and len(taus) > 1:  # H did not factor
            shifted += 1
            assert taus[1:] == pytest.approx(
                [2.0 / 3.0 * bound, (1.0 + solver.SHIFT_MARGIN) * bound][:len(taus) - 1],
                rel=1e-12)
    assert shifted > 0


# factorizations at n = 1024 from 0.1 phi0, and at n = 64 from 1e-9 phi0 next
# to the h = 0 saddle; a warm search of a fixed 14-shift ladder made
# 6 / 9 / 13 / 17 / 31 / 27 / 31 and 160 (in 55 iterations there), a scan of
# it from tau = 0 6 / 14 / 25 / 36 / 65 / 76 / 103 and 412
SHIFT_SEARCH_FACTORIZATIONS = {
    (1024, 2.0, 0.1): 6,
    (1024, 20.0, 0.1): 8,
    (1024, 100.0, 0.1): 11,
    (1024, 1e3, 0.1): 13,
    (1024, 1e4, 0.1): 15,
    (1024, 1e6, 0.1): 20,
    (1024, 1e8, 0.1): 21,
    (64, 2.0, 1e-9): 13,
}
# the energy the ladder's 55 iterations reached from 1e-9 phi0
SADDLE_START_ENERGY = -0.027634954515609787


@pytest.mark.parametrize("n, mu, init_eps", sorted(SHIFT_SEARCH_FACTORIZATIONS))
def test_shift_search_factorizations_are_pinned(n, mu, init_eps):
    grid, pair = grid_and_pair(n)
    rep = minimize(grid, ModelParams(mu=mu), scaled_phi0(pair, init_eps), eigenpair=pair)
    assert rep.converged
    assert rep.factorizations == SHIFT_SEARCH_FACTORIZATIONS[n, mu, init_eps]
    assert rep.factorizations <= 1 + 3 * rep.iterations
    if init_eps < 1e-3:  # the escape from h = 0, measured 7 iterations
        assert rep.iterations <= 10
        floor = solver.FLAT_TOL * (1.0 + abs(SADDLE_START_ENERGY))
        assert abs(rep.energy - SADDLE_START_ENERGY) <= floor


@pytest.mark.parametrize("init_eps", [0.1, 1.0, 1e-9])
@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("mu", [2.0, 2.1, 3.0, 20.0, 100.0, 1e3, 1e4, 1e6, 1e8])
def test_shift_search_takes_the_steps_of_the_ladder_scan(monkeypatch, mu, n, init_eps):
    # minimize tries tau = 0 and the search returns the shift that a scan of
    # 2/3 tau_b and (1 + SHIFT_MARGIN) tau_b reaches first, so the whole run
    # is the reference's bit for bit, factorizations included; the pencil
    # step is only a safety net, and 2/3 tau_b or tau_b just above it
    # qualifies at every iterate of these runs
    grid, pair = grid_and_pair(n)
    start = scaled_phi0(pair, init_eps)
    pencil = []
    descent = solver._descent

    def recorded(factor, wg):
        pencil.append(factor is grid.pencil_factor)
        return descent(factor, wg)

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_descent", recorded)
        shipped = minimize(grid, ModelParams(mu=mu), start, eigenpair=pair)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_curvature", reference_curvature)
        patch.setattr(solver, "_newton_diagonal", reference_newton_diagonal)
        patch.setattr(solver, "_descent", reference_descent)
        patch.setattr(solver, "_shift_search", reference_shift_search)
        ref = minimize(grid, ModelParams(mu=mu), start, eigenpair=pair)
    assert shipped.converged
    assert not any(pencil)
    assert shipped.minimizer.values.tobytes() == ref.minimizer.values.tobytes()
    assert shipped.energy.hex() == ref.energy.hex()
    assert shipped.residual.hex() == ref.residual.hex()
    assert (shipped.iterations, shipped.energy_evals, shipped.backtracks, shipped.converged,
            shipped.factorizations) \
        == (ref.iterations, ref.energy_evals, ref.backtracks, ref.converged, ref.factorizations)
    assert shipped.factorizations <= 1 + 3 * shipped.iterations


def _reference_solver(monkeypatch):
    """Make minimize evaluate every energy, gradient, cos 2h and fold afresh
    from the point at hand, by the one-expression reference formulas, as it
    did before the fused kernels handed a trial's parts to the gradient and
    the gradient's cos 2h to the Newton step."""
    monkeypatch.setattr(solver, "energy_parts",
                        lambda grid, v, mu: (reference_energy(grid, v, mu), None, None))
    monkeypatch.setattr(solver, "gradient_from_parts", lambda grid, v, mu, dv, sinh: (
        reference_gradient(grid, v, mu), reference_cos2h(v)))
    monkeypatch.setattr(solver, "fold_values", reference_fold)


@pytest.mark.parametrize("mu", [20.0, 100.0, 1000.0])
def test_fused_descent_is_the_reference_descent_bitwise(monkeypatch, mu):
    grid, pair = grid_and_pair(256)
    shipped = minimize(grid, ModelParams(mu=mu), eigenpair=pair)
    with monkeypatch.context() as patch:
        _reference_solver(patch)
        ref = minimize(grid, ModelParams(mu=mu), eigenpair=pair)
    assert [e.hex() for e in shipped.energy_history] == [e.hex() for e in ref.energy_history]
    # the residual at the returned profile, computed afresh
    g = reference_gradient(grid, ref.minimizer.values, mu)
    residual = float(np.sqrt(max(np.sum(grid.weights * g * g), 0.0)))
    assert shipped.residual.hex() == residual.hex()
    assert shipped.minimizer.values.tobytes() == ref.minimizer.values.tobytes()
    assert (shipped.converged, shipped.energy_evals, shipped.backtracks, shipped.fold_applied) \
        == (ref.converged, ref.energy_evals, ref.backtracks, ref.fold_applied)


@pytest.mark.parametrize("n", [256, 1024, 4096, 16384])
def test_solve_stops_without_line_searches_at_the_roundoff_floor(n):
    # Once the gradient passes tol, the stop reads the decrease the Newton
    # step predicts; it does not wait for flat accepted steps, whose Armijo
    # tests at the roundoff floor compare noise with noise.
    grid, pair = grid_and_pair(n)
    rep = minimize(grid, ModelParams(mu=2.0), eigenpair=pair)
    assert rep.converged
    assert rep.iterations <= 6  # measured 5 at every n
    # measured 1, in the first step; 4 when a backtrack halves the step
    # instead of interpolating, and 12, 18 and 24 with a flat-step stop
    assert rep.backtracks <= 2
    assert rep.energy_evals <= 14  # measured 7; 27, 33 and 39 with a flat-step stop


@pytest.mark.parametrize("mu", [100.0, 1000.0])
def test_converged_report_satisfies_tol_at_large_mu(grid256, pair256, mu):
    p = ModelParams(mu=mu)
    rep = minimize(grid256, p, eigenpair=pair256)
    assert rep.converged
    assert rep.residual <= p.tol  # measured 3.8e-10 and 2.6e-12
    assert rep.energy >= -np.pi * mu / 4.0


@pytest.mark.parametrize("mu, init_eps", [(2.0, 1e-9), (1.8, 1e-12), (20.0, 1e-12)])
def test_a_start_near_the_saddle_escapes_to_the_minimizer(mu, init_eps):
    # above gamma0/2 the trivial profile is a saddle: the gradient of a tiny
    # start passes tol, but its Hessian is indefinite, so the run must not stop
    grid, pair = grid_and_pair(64)
    ref = minimize(grid, ModelParams(mu=mu), eigenpair=pair)
    rep = minimize(grid, ModelParams(mu=mu), scaled_phi0(pair, init_eps), eigenpair=pair)
    assert rep.converged and not rep.trivial
    assert rep.iterations > 0  # measured 7, 6 and 7 (55, 29 and 15 with the shift ladder)
    assert abs(rep.energy - ref.energy) <= solver.FLAT_TOL * (1.0 + abs(ref.energy))


def test_an_underflowed_start_at_the_saddle_is_not_converged():
    # 1e-200 phi0 has E = 0 and a gradient of 1e-200: only the Hessian tells
    # the saddle at mu = 2 from the minimum at mu = 1
    grid, pair = grid_and_pair(64)
    start = scaled_phi0(pair, 1e-200)
    saddle = minimize(grid, ModelParams(mu=2.0), start, eigenpair=pair)
    assert not saddle.converged
    minimum = minimize(grid, ModelParams(mu=1.0), start, eigenpair=pair)
    assert minimum.converged and minimum.trivial


@pytest.mark.parametrize("n", [1024, 4096])
def test_a_default_run_above_the_threshold_does_not_end_converged_at_the_saddle(n):
    # E(a phi0) = pi (-delta a^2 + cbar a^4 / 2) < 0 for small a, so h = 0
    # is a saddle for every delta > 0; here delta is far above gamma0's
    # roundoff, though the energy gap pi delta^2 / (2 cbar) is below every
    # floor.  The pitchfork start fails its Hessian test, and the run ends
    # there: the start, whose energy is below 0 (measured -8.0e-25 and
    # -1.1e-23), after one factorization and no step
    grid, pair = grid_and_pair(n)
    mu = (pair.gamma0 + 1e-12) / 2.0
    if not 2.0 * mu - pair.gamma0 > 0.5e-12:
        pytest.fail(f"2 mu - gamma0 = {2.0 * mu - pair.gamma0} is not 1e-12")
    start, tested = solver._default_start(grid, mu, pair)
    rep = minimize(grid, ModelParams(mu=mu), eigenpair=pair)
    assert not (rep.trivial and rep.converged)
    assert tested and not rep.converged and not rep.trivial
    assert (rep.iterations, rep.factorizations, rep.energy_evals) == (0, 1, 1)
    assert rep.minimizer.values.tobytes() == start.tobytes()
    assert rep.energy < 0.0


def test_a_run_ending_at_the_saddle_above_the_threshold_is_not_converged():
    # from 0.1 phi0 at 2 mu = gamma0 + 1e-12 the descent reaches E >= 0 and
    # passes the stop test at h = 0 (measured 14 iterations); above gamma0 / 2
    # h = 0 is a saddle, so the run returns it as trivial, never converged.
    # At 2 mu = gamma0 - 1e-12 the same start ends trivial and converged
    grid, pair = grid_and_pair(1024)
    start = scaled_phi0(pair, 0.1)
    above = minimize(grid, ModelParams(mu=(pair.gamma0 + 1e-12) / 2.0), start, eigenpair=pair)
    assert not (above.trivial and above.converged)
    below = minimize(grid, ModelParams(mu=(pair.gamma0 - 1e-12) / 2.0), start, eigenpair=pair)
    assert below.trivial and below.converged


def _assert_certified_trivial(rep):
    """h = 0, certified at 2 mu <= gamma0: no step, no factorization, the
    start's one energy evaluation, and every reported value 0."""
    assert rep.trivial and rep.converged and not rep.diverged
    assert (rep.iterations, rep.factorizations, rep.energy_evals) == (0, 0, 1)
    assert np.all(rep.minimizer.values == 0.0)
    assert rep.energy == rep.residual == rep.bc_residual == rep.energy_history[-1] == 0.0
    assert rep.fold_applied == rep.backtracks == 0


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("delta", [-1e-12, -1e-13])
def test_a_start_next_to_h_0_below_the_threshold_is_certified_trivial(n, delta):
    # the threshold inequality makes E > 0 for every h != 0 here, so h = 0
    # is the minimizer with no iteration; a descent from 1e-9 phi0 stalls at
    # the 500-iteration cap (1,002 factorizations) at E = -1e-29, which that
    # inequality rules out
    grid, pair = grid_and_pair(n)
    mu = (pair.gamma0 + delta) / 2.0
    if not 0.5 * abs(delta) < pair.gamma0 - 2.0 * mu < 2.0 * abs(delta):
        pytest.fail(f"2 mu - gamma0 = {2.0 * mu - pair.gamma0} is not {delta}")
    _assert_certified_trivial(minimize(grid, ModelParams(mu=mu), scaled_phi0(pair, 1e-9),
                                       eigenpair=pair))


@pytest.mark.parametrize("n", [64, 256, 1024, 4096, 16384, 65536])
@pytest.mark.parametrize("mu", [0.0, 1.0, 1.69])
def test_the_default_start_below_the_threshold_is_certified_trivial(n, mu):
    # gamma0 / 2 = 1.6950 at every n here; a descent from 0.1 phi0 takes 3
    # to 7 Newton steps to h = 0 (7 and 48 ms at n = 65536, mu = 1.69)
    grid, pair = grid_and_pair(n)
    assert 2.0 * mu <= pair.gamma0
    _assert_certified_trivial(minimize(grid, ModelParams(mu=mu), eigenpair=pair))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: no stagnated rule; from 1e-9 phi0 "
                   "just above the threshold Newton steps stall next to the h = 0 saddle")
def test_a_start_next_to_h_0_just_above_the_threshold_ends_within_20_iterations():
    # 2 mu - gamma0 = +1e-12, which the certificate does not reach: the run
    # takes 500 iterations and 1,002 factorizations to E = -1.6e-29
    grid, pair = grid_and_pair(1024)
    mu = (pair.gamma0 + 1e-12) / 2.0
    assert 2.0 * mu - pair.gamma0 > 0.5e-12
    rep = minimize(grid, ModelParams(mu=mu), scaled_phi0(pair, 1e-9), eigenpair=pair)
    assert rep.iterations <= 20


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the L2 gradient stop lies below the "
                   "roundoff floor at n = 65536 (residual 3.5e-8 at mu = 2, 2.6e-7 at mu = 1e8)")
@pytest.mark.parametrize("mu", [2.0, 1e8])
def test_the_default_start_converges_at_n_65536(mu):
    # 20 iterations and 0.12-0.15 s each today; a dual-norm stop converged
    # in 2 or 3
    grid, pair = grid_and_pair(65536)
    assert minimize(grid, ModelParams(mu, max_iter=20), eigenpair=pair).converged


@pytest.mark.parametrize("n", [256, 16384])
def test_the_default_start_at_mu_2_is_two_newton_steps_from_the_minimizer(monkeypatch, n):
    # the pitchfork start at the sixth-order amplitude, against 3 steps from
    # the leading-order amplitude sqrt((2 mu - gamma0) / cbar) and 5 from
    # 0.1 phi0; measured 2 at every n = 64 ... 16384.  The start's Hessian
    # test is the first iteration's own tau = 0 factorization, not a fourth one
    built = []
    diagonal = solver._newton_diagonal

    def counted(*args):
        built.append(None)
        return diagonal(*args)

    monkeypatch.setattr(solver, "_newton_diagonal", counted)
    grid, pair = grid_and_pair(n)
    rep = minimize(grid, ModelParams(mu=2.0), eigenpair=pair)
    assert rep.converged and not rep.trivial
    assert rep.iterations == 2
    assert rep.factorizations == 3
    assert len(built) == rep.factorizations


def test_only_the_start_ends_the_run_when_h_does_not_factor(monkeypatch, grid256, pair256):
    # the pitchfork start at mu = 2 passes its Hessian test; where H does not
    # factor at a later iterate, that iterate takes the shift search and the
    # run goes on
    factor = solver.banded_factor
    calls = []

    def second_fails(grid, main):
        calls.append(None)
        return None if len(calls) == 2 else factor(grid, main)

    monkeypatch.setattr(solver, "banded_factor", second_fails)
    start, tested = solver._default_start(grid256, 2.0, pair256)
    assert tested
    rep = minimize(grid256, ModelParams(mu=2.0), eigenpair=pair256)
    assert rep.converged
    assert rep.energy_history[0] == energy_parts(grid256, start, 2.0)[0]
    assert rep.energy_evals == 1 + rep.iterations + rep.backtracks
    assert rep.factorizations == len(calls) > rep.iterations + 1


@pytest.mark.parametrize("mu", [2.0, 1000.0, None])
def test_one_sine_per_energy_and_one_cosine_per_gradient(monkeypatch, mu):
    # the energy computes sin h, the gradient cos h and from both sin 2h and
    # cos 2h, which the Newton matrix reads, the start's Hessian test
    # included; the start itself (the pitchfork start at mu = 2, the core law
    # at mu = 1000) takes none.  mu = None is 2 mu - gamma0 = 1e-13 at
    # n = 1024, where the Hessian test fails and the run ends at the start
    # after its one energy and one gradient evaluation
    stopped = mu is None
    grid, pair = grid_and_pair(1024 if stopped else 256)
    if stopped:
        mu = (pair.gamma0 + 1e-13) / 2.0
    calls = dict.fromkeys(["sin", "cos", "gradient"], 0)

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np, "sin", counted("sin", np.sin))
    monkeypatch.setattr(np, "cos", counted("cos", np.cos))
    monkeypatch.setattr(solver, "gradient_from_parts",
                        counted("gradient", solver.gradient_from_parts))
    solver._default_start(grid, mu, pair)
    assert calls == {"sin": 0, "cos": 0, "gradient": 0}
    rep = minimize(grid, ModelParams(mu=mu), eigenpair=pair)
    evaluated = rep.iterations + 1
    assert calls == {"sin": rep.energy_evals, "cos": evaluated, "gradient": evaluated}
    assert rep.energy_evals == 1 + rep.iterations + rep.backtracks
    if stopped:
        assert (rep.iterations, rep.factorizations, rep.converged) == (0, 1, False)
    else:
        assert rep.converged
        assert rep.factorizations == {2.0: 3, 1000.0: 4}[mu]


def _start_factor(grid, mu, v):
    """H's factor at v, from the cos 2h of the gradient there, or None."""
    _, dv, sinh = energy_parts(grid, v, mu)
    _, cos2h = gradient_from_parts(grid, v, mu, dv, sinh)
    curvature = solver._curvature(grid, mu, cos2h)
    return banded_factor(grid, solver._newton_diagonal(grid, curvature, 0.0))


@pytest.mark.parametrize("n, grading, delta, mu", [
    *[(n, grading, delta, None) for n in (64, 1024) for grading in (1.0, 2.0)
      for delta in (1e-13, 1e-11, 1e-9, 1e-7, 1e-5, 1e-3, 1e-1)],
    *[(1024, grading, None, mu) for grading in (1.0, 2.0, 4.0)
      for mu in (5.0, 20.0, 1000.0, 1e4, 1e8)],
])
def test_the_default_start_never_does_worse_than_a_tenth_of_phi0(n, grading, delta, mu):
    # delta = 2 mu - gamma0 sets mu near the pitchfork.  Whatever the start,
    # the run costs no more iterations than the one from 0.1 phi0, converges
    # wherever that does and ends at its energy up to the roundoff floor.
    # The pitchfork start, where taken, is 0-2 steps from the minimizer (4-14
    # from 0.1 phi0); where its Hessian test fails the run ends there after
    # that one factorization, at an energy no higher than the 0.1 phi0
    # run's, which ends at the h = 0 saddle, not converged either.
    # Past its pi/4 bound the core law costs no factorization before the
    # first iteration, and 3 or 4 steps (5-12 from 0.1 phi0)
    grid, pair = grid_and_pair(n, grading)
    if mu is None:
        mu = (pair.gamma0 + delta) / 2.0
    start, tested = solver._default_start(grid, mu, pair)
    factor = _start_factor(grid, mu, start) if tested else None
    default = minimize(grid, ModelParams(mu=mu), eigenpair=pair)
    ref = minimize(grid, ModelParams(mu=mu), scaled_phi0(pair, 0.1), eigenpair=pair)
    assert default.iterations <= ref.iterations
    assert default.converged or not ref.converged
    assert abs(default.energy - ref.energy) <= solver.FLAT_TOL * (1.0 + abs(ref.energy))
    if factor is not None:
        assert default.iterations <= 2
    elif tested:
        assert (default.iterations, default.factorizations, default.energy_evals) == (0, 1, 1)
        assert not default.converged
        assert default.energy <= ref.energy
        assert ref.trivial and not ref.converged
    else:
        assert default.iterations <= 4
        assert default.factorizations <= 5
    if delta is None:  # a start past pi/4 costs no factorization
        assert not tested and factor is None
    elif (n, grading, delta) == (1024, 2.0, 1e-13):  # the Hessian test fails here
        assert tested and factor is None


def _leading_order_start(grid, mu, pair):
    """The default start above the threshold with the leading-order amplitude
    sqrt(delta / cbar), cbar at gamma0 / 2, written out: the family choice
    and the core law are the default start's, the pitchfork amplitude is not."""
    amplitude = math.sqrt((2.0 * mu - pair.gamma0) / pair.threshold_cbar)
    phi = pair.phi0.values
    if amplitude * phi.max() <= np.pi / 4.0:
        return amplitude * phi, True
    x = mu * grid.r_squared
    return np.concatenate(([0.0], np.pi / 4.0 * np.sqrt(x / (1.0 + x)))), False


def _squared_amplitude(start, pair):
    """u = a^2 of a start a phi0, read at phi0's peak."""
    k = int(np.argmax(pair.phi0.values))
    return (start[k] / pair.phi0.values[k]) ** 2


@pytest.mark.parametrize("grading", [1.0, 2.0, 3.5])
@pytest.mark.parametrize("mu", [1.8, 2.0, 2.5, 3.0, 3.6])
def test_the_pitchfork_start_is_the_sextic_stationary_point(mu, grading):
    # a^2 = u solves 3 c6 u^2 + cbar u - delta = 0 to roundoff, and the
    # energy there lies below the energy at the leading-order amplitude
    grid, pair = grid_and_pair(1024, grading)
    start, tested = solver._default_start(grid, mu, pair)
    leading, _ = _leading_order_start(grid, mu, pair)
    assert tested
    delta = 2.0 * mu - pair.gamma0
    cb, c6 = pair.sextic(mu)
    u = _squared_amplitude(start, pair)
    terms = (3.0 * c6 * u * u, cb * u, -delta)
    assert abs(sum(terms)) <= 1e-14 * sum(map(abs, terms))
    assert energy_parts(grid, start, mu)[0] < energy_parts(grid, leading, mu)[0]


@pytest.mark.parametrize("grading", [1.0, 2.0, 3.5])
def test_the_pitchfork_amplitude_tends_to_the_leading_order_law(grading):
    # u / (delta / cbar(gamma0 / 2)) - 1 = s delta + O(delta^2), with
    # s = -(8/3) Q4 / cbar - 3 c6 / cbar^2 from the moments at gamma0 / 2
    grid, pair = grid_and_pair(1024, grading)
    cb0 = pair.threshold_cbar
    _, q4, _, _ = pair.moments
    slope = -(8.0 / 3.0) * q4 / cb0 - 3.0 * pair.sextic(pair.gamma0 / 2.0)[1] / cb0 ** 2
    for target in (1e-2, 1e-4, 1e-6):
        mu = (pair.gamma0 + target) / 2.0
        delta = 2.0 * mu - pair.gamma0
        start, _ = solver._default_start(grid, mu, pair)
        excess = _squared_amplitude(start, pair) / (delta / cb0) - 1.0
        assert abs(excess - slope * delta) <= 0.05 * abs(slope) * delta  # O(delta) in all
        assert abs(excess - slope * delta) <= 0.1 * delta * delta + 1e-14  # measured 0.058 delta^2


def _assert_positive_root_up_to_the_core_law(grid, pair, mu_hi):
    for mu in np.linspace(pair.gamma0 / 2.0, mu_hi, 101)[1:]:
        mu = float(mu)
        delta = 2.0 * mu - pair.gamma0
        start, tested = solver._default_start(grid, mu, pair)
        if not tested:  # past the switch to the core law
            continue
        cb, c6 = pair.sextic(mu)
        assert cb > 0.0 and cb * cb + 12.0 * c6 * delta > cb * cb / 6.0
        assert np.all(start[1:] > 0.0) and np.all(np.isfinite(start))


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("grading", [1.0, 2.0, 3.5])
def test_the_pitchfork_start_has_a_positive_root_up_to_the_core_law(n, grading):
    # the discriminant cbar^2 + 12 c6 delta stays above cbar^2 / 6 (measured
    # 0.23 cbar^2 at the least) wherever the start is the pitchfork start,
    # up to the switch to the core law at mu = 3.6856
    grid, pair = grid_and_pair(n, grading)
    assert solver._default_start(grid, 3.6856, pair)[1]
    _assert_positive_root_up_to_the_core_law(grid, pair, 3.6856)


def test_the_pitchfork_start_has_a_positive_root_on_coarse_random_grids():
    # 2 to 11 cells at random nodes: the discriminant still stays above
    # cbar^2 / 6 (measured 0.20 cbar^2 at the least) wherever the
    # leading-order peak is at most pi/4
    rng = np.random.default_rng(35)
    for _ in range(50):
        interior = np.sort(rng.random(rng.integers(1, 11)))
        grid = RadialGrid(np.concatenate(([0.0], interior, [1.0])))
        pair = smallest_eigenpair(grid)
        _assert_positive_root_up_to_the_core_law(grid, pair, pair.gamma0 / 2.0 + 10.0)


@pytest.mark.parametrize("n, grading, mu", [
    *[(n, grading, mu) for n in (64, 1024) for grading in (1.0, 2.0, 3.5)
      for mu in (3.6857, 5.0, 20.0, 1e3, 1e8)],
    (1024, 2.0, None),
])
def test_the_core_law_start_is_the_leading_order_law(n, grading, mu):
    # the sixth-order amplitude moves only the pitchfork start: the family
    # is chosen by the leading-order peak, and the core law is its start bit
    # for bit.  mu = None is delta = 1e-13, where the Hessian test fails at
    # both amplitudes, so either run ends at its start
    grid, pair = grid_and_pair(n, grading)
    hessian_test_fails = mu is None
    if hessian_test_fails:
        mu = (pair.gamma0 + 1e-13) / 2.0
    start, tested = solver._default_start(grid, mu, pair)
    ref_start, ref_tested = _leading_order_start(grid, mu, pair)
    # tested: 2 mu - gamma0 = 1e-13, or n = 64 at mu = 3.6857
    assert tested == ref_tested
    if not tested:
        assert start.tobytes() == ref_start.tobytes()
    if hessian_test_fails:
        assert _start_factor(grid, mu, start) is None
        assert _start_factor(grid, mu, ref_start) is None


@pytest.mark.parametrize("grading", [1.0, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("n", [64, 256, 1024, 4096])
def test_every_converged_default_minimizer_lies_within_pi_over_4(n, grading):
    # folded into [0, pi/2], a global minimizer lies in [0, pi/4]: taking a
    # node value v above pi/4 to pi/2 - v keeps sin^2 2h, lowers sin^2 h and
    # is 1-Lipschitz.  From just above the threshold, on the pitchfork start,
    # through the switch to the core law, to mu = 1e8
    grid, pair = grid_and_pair(n, grading)
    mus = [(pair.gamma0 + delta) / 2.0 for delta in (1e-3, 1e-1, 1.0, 3.0, 5.0)]
    mus += [5.0, 20.0, 100.0, 1e3, 1e4, 1e6, 1e8]
    converged = 0
    for mu in mus:
        rep = minimize(grid, ModelParams(mu=mu), eigenpair=pair)
        if rep.converged:
            converged += 1
            assert not rep.trivial
            assert np.all(rep.minimizer.values >= 0.0)
            assert np.all(rep.minimizer.values <= np.pi / 4.0)
            if mu >= 5.0:  # on the core law; measured 3 or 4 (5-12 from 0.1 phi0)
                assert rep.iterations <= 4 and rep.factorizations <= 5
    # only grading 4 at n = 4096, mu = 1e8 hits the iteration cap, from 0.1
    # phi0 too
    assert converged == len(mus) - ((n, grading) == (4096, 4.0))


def test_a_run_converged_at_the_iteration_cap_reports_it(grid256, pair256):
    # the stop test also reads the max_iter-th iterate
    free = minimize(grid256, ModelParams(mu=2.5), eigenpair=pair256)
    capped = minimize(grid256, ModelParams(mu=2.5, max_iter=free.iterations), eigenpair=pair256)
    assert free.converged and capped.converged
    assert capped.energy_history == free.energy_history


def test_iteration_cap_reports_honest_failure(grid256, pair256):
    # the default start converges in 3 iterations here
    rep = minimize(grid256, ModelParams(mu=2.5, max_iter=2), eigenpair=pair256)
    assert not rep.converged
    assert rep.iterations == 2
    assert rep.energy < 0.0  # the last accepted iterate is still returned


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_initial_energy_is_rejected(grid256, pair256):
    # the overflow on the way to inf is the point of the test
    huge = Profile(grid256, 1e200 * grid256.nodes)
    with pytest.raises(ValueError, match="non-finite"):
        minimize(grid256, ModelParams(mu=2.0), init=huge, eigenpair=pair256)


@pytest.mark.filterwarnings("error")  # an overflow must not surface as a warning
def test_overflowing_gradient_ends_the_run_as_diverged(grid256, pair256):
    # at mu = 1e300 the start's energy is finite but its gradient norm is not
    rep = minimize(grid256, ModelParams(mu=1e300), eigenpair=pair256)
    assert rep.diverged
    assert not rep.converged
    assert rep.iterations == 0
    assert rep.residual == np.inf
    assert np.isfinite(rep.energy)


def test_init_on_wrong_grid_is_rejected(grid256, pair256):
    other = build_grid(128, 2.0)
    init = Profile(other, np.zeros(129))
    with pytest.raises(ValueError, match="different grid"):
        minimize(grid256, ModelParams(mu=2.0), init=init, eigenpair=pair256)


@pytest.mark.parametrize("n, grading", [(64, 2.0), (256, 3.0)])
@pytest.mark.parametrize("start", [False, True])
def test_eigenpair_on_wrong_grid_is_rejected(grid256, pair256, n, grading, start):
    # another n, or the same n at another grading: the start and the shift
    # bound would read the wrong gamma0 and phi0
    init = scaled_phi0(pair256, 1e-3) if start else None
    with pytest.raises(ValueError, match="eigenpair lives on a different grid"):
        minimize(grid256, ModelParams(mu=2.0), init, eigenpair=grid_and_pair(n, grading)[1])


def test_random_profile_contract(grid256):
    a = random_profile(grid256, np.random.default_rng(42), amplitude=1.3)
    b = random_profile(grid256, np.random.default_rng(42), amplitude=1.3)
    assert np.array_equal(a.values, b.values)
    assert a.values[0] == 0.0
    assert np.abs(a.values).max() <= 1.3 + 1e-12
