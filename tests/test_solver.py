import numpy as np
import pytest

import magnetodisk.solver as solver
from magnetodisk import ModelParams, Profile, build_grid, minimize
from magnetodisk.grid import banded_solve

from conftest import smooth_profile
from oracles import euler_residual, l2_norm, random_profile, verify_trivial_uniqueness
from reference_kernels import reference_energy, reference_fold, reference_gradient


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


# at most twice the evaluations measured at n = 256 and 512 (11 and 12 at
# mu = 20, 21 and 22 at mu = 100, 24 and 37 at mu = 1000), and below those
# of the descent loop with a Newton endgame that came before (71 and 71, 463
# and 473, 1008 and 1008 at its iteration cap)
ENERGY_EVAL_CAPS = {20.0: 22, 100.0: 42, 1000.0: 48}


@pytest.mark.parametrize("mu", sorted(ENERGY_EVAL_CAPS))
def test_line_search_energy_evaluations_are_capped(monkeypatch, mu):
    calls = []
    energy = solver.energy_parts

    def counted(*args):
        calls.append(None)
        return energy(*args)

    monkeypatch.setattr(solver, "energy_parts", counted)
    for n in (256, 512):
        calls.clear()
        rep = minimize(build_grid(n, 2.0), ModelParams(mu=mu))
        assert rep.converged
        assert rep.energy_evals <= ENERGY_EVAL_CAPS[mu]
        assert rep.energy_evals == len(calls)
        # the initial evaluation, one accepted trial per iteration, one per rejection
        assert rep.energy_evals == 1 + rep.iterations + rep.backtracks


def test_newton_direction_falls_back_to_the_pencil_step(monkeypatch, grid256, pair256):
    # when no shifted matrix factors, the step is the pencil solve, the
    # tau -> inf limit of the shifted Newton step
    def indefinite(grid, diagonal):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(solver, "banded_factor", indefinite)
    v = 0.1 * pair256.phi0.values
    g = reference_gradient(grid256, v, 2.0)
    wg = grid256.weights[1:] * g[1:]
    step, slope = solver._newton_direction(grid256, v, 2.0, wg, np.cos(2.0 * v[1:]))
    assert step.tobytes() == banded_solve(grid256.pencil_factor, -wg).tobytes()
    assert slope < 0.0


def _reference_solver(monkeypatch):
    """Make minimize evaluate every energy, gradient, cos 2h and fold afresh
    from the point at hand, by the one-expression reference formulas, as it
    did before the fused kernels handed a trial's parts to the gradient and
    the gradient's cos 2h to the Newton step."""
    newton = solver._newton_direction
    monkeypatch.setattr(solver, "energy_parts",
                        lambda grid, v, mu: (reference_energy(grid, v, mu), None, None))
    monkeypatch.setattr(solver, "gradient_from_parts",
                        lambda grid, v, mu, dv, sin2h: (reference_gradient(grid, v, mu), None))
    monkeypatch.setattr(solver, "_newton_direction", lambda grid, v, mu, wg, cos2h: newton(
        grid, v, mu, wg, np.cos(2.0 * v[1:])))
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


@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_solve_stops_without_line_searches_at_the_roundoff_floor(n):
    # Once the gradient passes tol, the stop reads the decrease the Newton
    # step predicts; it does not wait for flat accepted steps, whose Armijo
    # tests at the roundoff floor compare noise with noise.
    rep = minimize(build_grid(n, 2.0), ModelParams(mu=2.0))
    assert rep.converged
    # measured 2, both in the first step; 4 when a backtrack halves the step
    # instead of interpolating, and 12, 18 and 24 with a flat-step stop
    assert rep.backtracks <= 2
    assert rep.energy_evals <= 14  # measured 8; 27, 33 and 39 with a flat-step stop


@pytest.mark.parametrize("mu", [100.0, 1000.0])
def test_converged_report_satisfies_tol_at_large_mu(grid256, pair256, mu):
    p = ModelParams(mu=mu)
    rep = minimize(grid256, p, eigenpair=pair256)
    assert rep.converged
    assert rep.residual <= p.tol  # measured 3.8e-10 and 2.6e-12
    assert rep.energy >= -np.pi * mu / 4.0


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
