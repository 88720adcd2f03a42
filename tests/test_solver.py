import numpy as np
import pytest

import magnetodisk.solver as solver
from magnetodisk import ModelParams, Profile, build_grid, minimize
from magnetodisk.grid import banded_factor, banded_matvec, banded_solve
from magnetodisk.operators import gradient_values

from conftest import smooth_profile
from oracles import euler_residual, l2_norm, random_profile, verify_trivial_uniqueness
from reference_kernels import (
    dense_matrix,
    reference_energy,
    reference_fold,
    reference_gradient,
    reference_newton_direction,
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


def test_minimizer_satisfies_the_strong_equation(minimizer512):
    g = build_grid(1024, 2.0)
    p = ModelParams(mu=2.0)
    rep = minimize(g, p)
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
    plus = minimize(grid256, p, init=Profile(grid256, 0.1 * pair256.phi0.values))
    minus = minimize(grid256, p, init=Profile(grid256, -0.1 * pair256.phi0.values))
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
        out = verify_trivial_uniqueness(grid256, ModelParams(mu=mu), trials=8, seed=0)
        assert out["passed"]
        assert out["n_nontrivial"] == 0
        assert out["worst_norm"] <= 1e-8


def test_multistart_flags_nontrivial_minimizers_above_threshold(grid256, pair256):
    thr = pair256.gamma0 / 2.0
    out = verify_trivial_uniqueness(grid256, ModelParams(mu=thr + 0.1), trials=8, seed=0)
    assert not out["passed"]
    assert out["n_nontrivial"] >= 1
    assert out["worst_energy"] < -1e-9


# twice the evaluations measured with every line search started inside the
# fold's domain: 7, 9 and 10 at mu = 20, 100 and 1000, at every n below
ENERGY_EVAL_CAPS = {20.0: 14, 100.0: 18, 1000.0: 20}
# the iterations measured at every n below
ITERATION_CAPS = {20.0: 5, 100.0: 6, 1000.0: 7}


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
        rep = minimize(build_grid(n, 2.0), ModelParams(mu=mu))
        assert rep.converged
        assert rep.iterations <= ITERATION_CAPS[mu]
        assert rep.energy_evals <= ENERGY_EVAL_CAPS[mu]
        assert rep.energy_evals == len(calls)
        # the initial evaluation, one accepted trial per iteration, one per rejection
        assert rep.energy_evals == 1 + rep.iterations + rep.backtracks
        # every shift tried, failed ones included; measured 9, 13 and 17 at
        # every n (14, 25 and 36 when the ladder was scanned from tau = 0)
        assert rep.factorizations == len(factors) > rep.iterations


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
    rep = minimize(build_grid(n, 2.0), ModelParams(mu=mu))
    assert rep.converged
    assert rep.iterations <= 20  # measured 7, 11, 11 and 13 at either n
    assert rep.energy_evals <= 30  # measured 10, 16, 17 and 21 at either n
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
    rep = minimize(grid256, ModelParams(mu=mu), eigenpair=pair256, init_eps=init_eps)
    assert rep.converged
    assert len(reaches) == rep.energy_evals - 1
    assert max(reaches) <= 1.0


# factorizations when none succeeds, by the rung the previous step took:
# tau = 0, then a bisection of the 13 shifted rungs after tau = 0, or a walk
# up from the rung below the previous one to the top of the ladder
FALLBACK_TRIES = {0: 1 + 4, 1: 1 + 13, 7: 1 + 8, len(solver.SHIFTS): 1 + 1}


def test_newton_direction_falls_back_to_the_pencil_step(monkeypatch, grid256, pair256):
    # when no shifted matrix factors, the step is the pencil solve, the
    # tau -> inf limit of the shifted Newton step
    def indefinite(grid, diagonal):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(solver, "banded_factor", indefinite)
    v = 0.1 * pair256.phi0.values
    g = reference_gradient(grid256, v, 2.0)
    wg = grid256.weights[1:] * g[1:]
    for last, tries in FALLBACK_TRIES.items():
        step, slope, tried, definite, rung = solver._newton_direction(
            grid256, 2.0, wg, np.cos(2.0 * v[1:]), last)
        assert step.tobytes() == banded_solve(grid256.pencil_factor, -wg).tobytes()
        assert slope < 0.0
        assert tried == tries
        assert rung == len(solver.SHIFTS)
        assert not definite


@pytest.mark.parametrize("mu", [2.0, 20.0, 1000.0])
def test_hessian_bands_are_the_derivative_of_the_weighted_gradient(mu):
    # H v against the central difference of W g along v, for a rough and a
    # smooth v: the stiffness dominates the first, the curvature the second
    grid = build_grid(256, 2.0)
    r = grid.nodes
    h = 1.3 * r * (2.0 - r)
    tau = solver.SHIFTS[0]
    diagonal = solver.hessian_bands(grid, mu, np.cos(2.0 * h[1:]))(tau)
    assert tau == 0.0
    rough = np.concatenate(([0.0], np.random.default_rng(7).standard_normal(grid.n)))
    eps = 1e-5  # measured relative errors 5e-12 (rough) and 5e-9 (smooth)
    for v in (rough, np.sin(3.0 * r)):
        hv = banded_matvec(grid, diagonal, v[1:])
        fd = (gradient_values(grid, h + eps * v, mu)
              - gradient_values(grid, h - eps * v, mu))[1:] * grid.weights[1:] / (2.0 * eps)
        assert np.linalg.norm(hv - fd) <= 1e-6 * np.linalg.norm(hv)


@pytest.mark.parametrize("mu", [2.0, 20.0, 1000.0, 1e8])
def test_hessian_diagonals_match_the_cos_4h_form(mu):
    # cos 4h = 2 cos^2 2h - 1 from the gradient's cos 2h, for every shift of
    # the ladder, against K0 + w ((c + tau / r^2) / (1 + tau)) with np.cos(4h);
    # and each rung is built by the same operations whatever rungs were built
    # before it, so that a search of the ladder sees the matrices of a scan
    grid = build_grid(256, 2.0)
    h = np.concatenate(([0.0], np.random.default_rng(3).uniform(0.0, np.pi / 2.0, grid.n)))
    cos2h = np.cos(2.0 * h[1:])
    w, r2, k0 = grid.weights[1:], grid.r_squared, grid.stiffness_bands[0][1:]
    curvature = cos2h / r2 - 2.0 * mu * np.cos(4.0 * h[1:])
    scale = k0 + w * (np.abs(cos2h) / r2 + 2.0 * mu)
    diagonal = solver.hessian_bands(grid, mu, cos2h)
    taus = []
    scanned = []
    for tau in solver.SHIFTS:
        main = diagonal(tau)
        taus.append(tau)
        scanned.append(main.tobytes())
        old = k0 + w * ((curvature + tau / r2) / (1.0 + tau))
        assert np.all(np.abs(main - old) <= 4.0 * np.spacing(scale))
    assert tuple(taus) == solver.SHIFTS
    for k in (7, 13, 0, 3, 1, 12, 0, 6):
        assert diagonal(solver.SHIFTS[k]).tobytes() == scanned[k]


@pytest.mark.parametrize("n, mu, init_eps", [(64, 2.0, 1e-9), (64, 20.0, 1e-12),
                                             (256, 2.0, 0.1), (256, 1000.0, 0.1)])
def test_unshifted_hessian_factors_exactly_when_minimize_reports_it_definite(
        monkeypatch, n, mu, init_eps):
    # at every iterate, and independently of the factorization at n = 64: the
    # smallest eigenvalue of the dense matrix is positive exactly then
    grid = build_grid(n, 2.0)
    seen = []
    newton = solver._newton_direction

    def recorded(grid, mu, wg, cos2h, last):
        out = newton(grid, mu, wg, cos2h, last)
        seen.append((cos2h.copy(), out[3]))
        return out

    monkeypatch.setattr(solver, "_newton_direction", recorded)
    rep = minimize(grid, ModelParams(mu=mu), init_eps=init_eps)
    assert rep.converged and seen[-1][1]
    for cos2h, definite in seen:
        main = solver.hessian_bands(grid, mu, cos2h)(0.0)
        try:
            banded_factor(grid, main)
            factors = True
        except np.linalg.LinAlgError:
            factors = False
        assert factors == definite
        if n == 64:
            assert (np.linalg.eigvalsh(dense_matrix(grid, main))[0] > 0.0) == definite
    if init_eps < 1e-3:  # the start next to the h = 0 saddle is indefinite
        assert not seen[0][1]


# factorizations at n = 1024 from the default start, and at n = 64 from
# 1e-9 phi0 next to the h = 0 saddle; a scan of the ladder from tau = 0 made
# 6 / 14 / 25 / 36 / 65 / 76 / 103 and 412, in the same iterations
SHIFT_SEARCH_FACTORIZATIONS = {
    (1024, 2.0, 0.1): 6,
    (1024, 20.0, 0.1): 9,
    (1024, 100.0, 0.1): 13,
    (1024, 1e3, 0.1): 17,
    (1024, 1e4, 0.1): 31,
    (1024, 1e6, 0.1): 27,
    (1024, 1e8, 0.1): 31,
    (64, 2.0, 1e-9): 160,
}


@pytest.mark.parametrize("n, mu, init_eps", sorted(SHIFT_SEARCH_FACTORIZATIONS))
def test_shift_search_factorizations_are_pinned(n, mu, init_eps):
    rep = minimize(build_grid(n, 2.0), ModelParams(mu=mu), init_eps=init_eps)
    assert rep.converged
    assert rep.factorizations == SHIFT_SEARCH_FACTORIZATIONS[n, mu, init_eps]
    if init_eps < 1e-3:  # the search leaves the slow escape from h = 0 as it was
        assert rep.iterations == 55


@pytest.mark.parametrize("init_eps", [0.1, 1.0, 1e-9])
@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("mu", [2.0, 2.1, 3.0, 20.0, 100.0, 1e3, 1e4, 1e6, 1e8])
def test_shift_search_takes_the_steps_of_the_ladder_scan(monkeypatch, mu, n, init_eps):
    # the search returns the rung a scan from tau = 0 reaches first, so the
    # whole run is the scan's bit for bit, with no more factorizations
    grid = build_grid(n, 2.0)
    shipped = minimize(grid, ModelParams(mu=mu), init_eps=init_eps)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_newton_direction", reference_newton_direction)
        ref = minimize(grid, ModelParams(mu=mu), init_eps=init_eps)
    assert shipped.minimizer.values.tobytes() == ref.minimizer.values.tobytes()
    assert shipped.energy.hex() == ref.energy.hex()
    assert shipped.residual.hex() == ref.residual.hex()
    assert (shipped.iterations, shipped.energy_evals, shipped.backtracks, shipped.converged) \
        == (ref.iterations, ref.energy_evals, ref.backtracks, ref.converged)
    assert shipped.factorizations <= ref.factorizations


def _reference_solver(monkeypatch):
    """Make minimize evaluate every energy, gradient, cos 2h and fold afresh
    from the point at hand, by the one-expression reference formulas, as it
    did before the fused kernels handed a trial's parts to the gradient and
    the gradient's cos 2h to the Newton step."""
    monkeypatch.setattr(solver, "energy_parts",
                        lambda grid, v, mu: (reference_energy(grid, v, mu), None, None))
    monkeypatch.setattr(solver, "gradient_from_parts", lambda grid, v, mu, dv, sin2h: (
        reference_gradient(grid, v, mu), np.cos(2.0 * v[1:])))
    monkeypatch.setattr(solver, "fold_values", reference_fold)


@pytest.mark.parametrize("mu", [20.0, 100.0, 1000.0])
def test_fused_descent_is_the_reference_descent_bitwise(monkeypatch, mu):
    grid = build_grid(256, 2.0)
    shipped = minimize(grid, ModelParams(mu=mu))
    with monkeypatch.context() as patch:
        _reference_solver(patch)
        ref = minimize(grid, ModelParams(mu=mu))
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
    rep = minimize(build_grid(n, 2.0), ModelParams(mu=2.0))
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
    grid = build_grid(64, 2.0)
    ref = minimize(grid, ModelParams(mu=mu))
    rep = minimize(grid, ModelParams(mu=mu), init_eps=init_eps)
    assert rep.converged and not rep.trivial
    assert rep.iterations > 0  # measured 55, 29 and 15
    assert abs(rep.energy - ref.energy) <= solver.FLAT_TOL * (1.0 + abs(ref.energy))


def test_an_underflowed_start_at_the_saddle_is_not_converged():
    # 1e-200 phi0 has E = 0 and a gradient of 1e-200: only the Hessian tells
    # the saddle at mu = 2 from the minimum at mu = 1
    grid = build_grid(64, 2.0)
    saddle = minimize(grid, ModelParams(mu=2.0), init_eps=1e-200)
    assert not saddle.converged
    minimum = minimize(grid, ModelParams(mu=1.0), init_eps=1e-200)
    assert minimum.converged and minimum.trivial


def test_a_run_converged_at_the_iteration_cap_reports_it(grid256, pair256):
    # the stop test also reads the max_iter-th iterate
    free = minimize(grid256, ModelParams(mu=2.5), eigenpair=pair256)
    capped = minimize(grid256, ModelParams(mu=2.5, max_iter=free.iterations), eigenpair=pair256)
    assert free.converged and capped.converged
    assert capped.energy_history == free.energy_history


def test_iteration_cap_reports_honest_failure(grid256, pair256):
    rep = minimize(grid256, ModelParams(mu=2.5, max_iter=3), eigenpair=pair256)
    assert not rep.converged
    assert rep.iterations == 3
    assert rep.energy < 0.0  # the last accepted iterate is still returned


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_initial_energy_is_rejected(grid256):
    # the overflow on the way to inf is the point of the test
    huge = Profile(grid256, 1e200 * grid256.nodes)
    with pytest.raises(ValueError, match="non-finite"):
        minimize(grid256, ModelParams(mu=2.0), init=huge)


@pytest.mark.filterwarnings("error")  # an overflow must not surface as a warning
def test_overflowing_gradient_ends_the_run_as_diverged(grid256, pair256):
    # at mu = 1e300 the start's energy is finite but its gradient norm is not
    rep = minimize(grid256, ModelParams(mu=1e300), eigenpair=pair256)
    assert rep.diverged
    assert not rep.converged
    assert rep.iterations == 0
    assert rep.residual == np.inf
    assert np.isfinite(rep.energy)


def test_init_on_wrong_grid_is_rejected(grid256):
    other = build_grid(128, 2.0)
    init = Profile(other, np.zeros(129))
    with pytest.raises(ValueError, match="different grid"):
        minimize(grid256, ModelParams(mu=2.0), init=init)


def test_random_profile_contract(grid256):
    a = random_profile(grid256, np.random.default_rng(42), amplitude=1.3)
    b = random_profile(grid256, np.random.default_rng(42), amplitude=1.3)
    assert np.array_equal(a.values, b.values)
    assert a.values[0] == 0.0
    assert np.abs(a.values).max() <= 1.3 + 1e-12
