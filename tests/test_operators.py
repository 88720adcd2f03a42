from dataclasses import replace

import numpy as np
import pytest

import magnetodisk.solver as solver
from magnetodisk import ModelParams, Profile, build_grid, integrate, minimize
from magnetodisk.operators import (
    energy_parts,
    fold_values,
    gradient_from_parts,
)

from conftest import fresh_python, grid_and_pair, smooth_profile
from oracles import (
    TILTED_ENERGY_CONTINUUM, euler_residual, gradient_field, l2_norm, nonlinear_split,
    random_profile, tilted_profile_energy)
from reference_kernels import (
    kappa, reference_cos2h, reference_energy, reference_fold, reference_gradient)


def test_profile_validation():
    g = build_grid(16, 2.0)
    with pytest.raises(ValueError):
        Profile(g, np.ones(17))  # nonzero at r=0
    with pytest.raises(ValueError):
        Profile(g, np.zeros(5))
    bad = np.zeros(17)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        Profile(g, bad)


def test_profile_is_immutable():
    g = build_grid(16, 2.0)
    p = Profile(g, np.zeros(17))
    with pytest.raises(ValueError):
        p.values[2] = 1.0


def test_profiles_compare_and_hash_by_identity():
    g = build_grid(8)
    p = Profile(g, np.zeros(9))
    assert p == p
    assert p != Profile(g, np.zeros(9))
    assert {p: 1}[p] == 1
    assert hash(p) == hash(p)


def test_profile_pin_origin_opt_out():
    g = build_grid(16, 2.0)
    p = Profile(g, np.ones(17), pin_origin=False)
    assert p.values[0] == 1.0


def test_model_params():
    p = ModelParams(mu=2.0)
    assert (p.mu, p.tol, p.max_iter) == (2.0, 1e-8, 500)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            ModelParams(mu=bad)
        with pytest.raises(ValueError):  # a copy is checked like a new one
            replace(p, mu=bad)
    for tol in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            ModelParams(mu=1.0, tol=tol)
    with pytest.raises(ValueError):
        ModelParams(mu=1.0, max_iter=0)


def test_model_params_rejects_an_infinite_tol():
    # every gradient norm passes an infinite tol, so the stop test is vacuous
    with pytest.raises(ValueError, match="tol must be finite"):
        ModelParams(mu=1.0, tol=np.inf)
    with pytest.raises(ValueError, match="tol must be finite"):
        replace(ModelParams(mu=1.0), tol=np.inf)


@pytest.mark.parametrize("max_iter", [2.5, np.nan, np.inf])
def test_model_params_rejects_a_non_integral_max_iter(max_iter):
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        ModelParams(mu=1.0, max_iter=max_iter)


def test_zero_profile_has_zero_energy_and_gradient():
    g = build_grid(64, 2.0)
    zero = Profile(g, np.zeros(65))
    p = ModelParams(mu=1.7)
    assert energy_parts(g, zero.values, p.mu)[0] == 0.0
    assert np.abs(gradient_field(g, zero.values, p.mu)).max() == 0.0


def test_energy_of_tilted_profile_matches_quadrature_oracle(grid1024):
    vals = 0.5 * np.pi * grid1024.nodes
    e = energy_parts(grid1024, vals, 1.0)[0]
    assert abs(tilted_profile_energy() - TILTED_ENERGY_CONTINUUM) <= 1e-13  # frozen constant guard
    assert abs(e - TILTED_ENERGY_CONTINUUM) <= 1e-6  # measured 6.8e-7


@pytest.mark.filterwarnings("error")  # an overflow must not surface as a warning
def test_energy_and_gradient_are_finite_at_the_largest_mu(grid256):
    # (mu/2) sin^2 2h is formed as mu s^2 (1 - s^2) doubled, never with 2 mu,
    # so at the largest double the energy stays above -pi mu / 4, reached by
    # h = pi/4, and the gradient's mu sin 2h cos 2h stays within mu / 2
    mu = np.finfo(float).max
    rng = np.random.default_rng(8)
    for values in (np.full(257, np.pi / 4.0), np.full(257, np.pi / 8.0),
                   rng.uniform(0.0, np.pi / 2.0, 257)):
        values[0] = 0.0
        e = energy_parts(grid256, values, mu)[0]
        assert np.isfinite(e) and e >= -np.pi / 4.0 * mu
        assert np.all(np.isfinite(gradient_field(grid256, values, mu)))


def test_gradient_matches_finite_differences(grid256):
    p = ModelParams(mu=1.3)
    rng = np.random.default_rng(7)
    h = smooth_profile(grid256, rng.normal(size=4), scale=1.2)
    t = 1e-5
    for _ in range(5):
        d = smooth_profile(grid256, rng.normal(size=4), scale=1.0)
        fd = (energy_parts(grid256, h.values + t * d.values, p.mu)[0]
              - energy_parts(grid256, h.values - t * d.values, p.mu)[0]) / (2.0 * t)
        pairing = 2.0 * np.pi * integrate(grid256, gradient_field(grid256, h.values, p.mu)
                                          * d.values)
        assert abs(pairing - fd) <= 1e-6 * max(1.0, abs(fd))  # measured 2.9e-10


def test_gradient_is_cubic_on_neutral_direction(grid512, pair512):
    # at the critical coupling the linear part annihilates the ground mode
    # exactly, leaving a projection that scales like eps^3 with the projected
    # cubic coefficient as its limit
    mu_c = pair512.gamma0 / 2.0
    phi = pair512.phi0.values
    eps_list = (1e-2, 5e-3, 2.5e-3)
    proj = []
    for eps in eps_list:
        g = gradient_field(grid512, eps * phi, mu_c)
        proj.append(integrate(grid512, g * phi) / eps**3)
    ratio1 = (proj[0] * eps_list[0] ** 3) / (proj[1] * eps_list[1] ** 3)
    ratio2 = (proj[1] * eps_list[1] ** 3) / (proj[2] * eps_list[2] ** 3)
    assert 7.5 <= ratio1 <= 8.5  # measured 8.0
    assert 7.5 <= ratio2 <= 8.5
    limit = pair512.threshold_cbar
    assert abs(proj[2] - limit) <= 1e-3 * abs(limit)


def test_odd_symmetry_is_bitwise(grid256):
    p = ModelParams(mu=2.2)
    rng = np.random.default_rng(3)
    h = smooth_profile(grid256, rng.normal(size=5), scale=1.4)
    neg = Profile(grid256, -h.values)
    assert energy_parts(grid256, neg.values, p.mu)[0] == energy_parts(grid256, h.values, p.mu)[0]
    assert np.array_equal(gradient_field(grid256, neg.values, p.mu),
                          -gradient_field(grid256, h.values, p.mu))


def test_euler_residual_vanishes_on_zero():
    g = build_grid(128, 2.0)
    zero = Profile(g, np.zeros(129))
    assert euler_residual(zero, ModelParams(mu=2.0)) <= 1e-12


def test_euler_residual_small_on_minimizer(minimizer512):
    res = euler_residual(minimizer512.minimizer, ModelParams(mu=2.0))
    assert res <= 1e-5  # measured 9.2e-8


def test_euler_residual_decreases_under_refinement(minimizer512, grid1024, pair1024):
    rep = minimize(grid1024, ModelParams(mu=2.0), eigenpair=pair1024)
    assert rep.converged
    fine = euler_residual(rep.minimizer, ModelParams(mu=2.0))
    coarse = euler_residual(minimizer512.minimizer, ModelParams(mu=2.0))
    assert fine < coarse


def test_eigenmode_solves_linear_but_not_nonlinear_problem(pair512):
    # the linearized residual is tiny while the full critical-point residual
    # is O(1), so the two certificates measure genuinely different equations
    mu_c = pair512.gamma0 / 2.0
    assert euler_residual(pair512.phi0, ModelParams(mu=mu_c)) >= 0.1  # measured 1.70
    assert pair512.residual <= 1e-8


def test_fold_identity_inside_range(grid256):
    vals = 1.2 * np.sin(np.pi * grid256.nodes) ** 2
    vals[0] = 0.0
    out, folded = fold_values(vals)
    assert np.array_equal(out, vals)
    assert not folded


def test_fold_reflects_single_overshoot(grid256):
    vals = np.zeros_like(grid256.nodes)
    vals[10] = 2.0
    out, folded = fold_values(vals)
    assert abs(out[10] - (np.pi - 2.0)) <= 1e-15
    assert out[5] == 0.0
    assert folded
    assert fold_values(-np.abs(vals))[1]  # |.| alone counts as a fold


def test_fold_lands_in_range_and_is_idempotent(grid256):
    rng = np.random.default_rng(11)
    vals = rng.uniform(-8.0, 8.0, size=grid256.nodes.size)
    vals[0] = 0.0
    out, _ = fold_values(vals)
    assert np.all(out >= 0.0) and np.all(out <= np.pi / 2.0 + 1e-15)
    again, folded = fold_values(out)
    assert np.array_equal(again, out)
    assert not folded


def test_fold_is_the_reflection_loop_bitwise_up_to_32():
    # the double pi ends in three zero bits, so below 32 every sweep's a - pi
    # is exact, as fmod is; from 32 up the loop rounds once per sweep
    rng = np.random.default_rng(17)
    for hi in (np.pi / 2.0, 8.0, 32.0):
        vals = rng.uniform(-hi, hi, 4097)
        vals[0] = 0.0
        vals[1:4] = (hi, -hi, -0.0)
        out, changed = fold_values(vals)
        ref, ref_changed = reference_fold(vals)
        assert out.tobytes() == ref.tobytes()
        assert changed == ref_changed


def test_fold_is_the_distance_to_the_nearest_multiple_of_pi_bitwise():
    # one fmod and one reflection at every magnitude from pi/2 to 1e300
    rng = np.random.default_rng(23)
    vals = rng.choice([-1.0, 1.0], 4097) * np.exp(rng.uniform(np.log(np.pi / 2.0),
                                                             np.log(1e300), 4097))
    vals[:8] = (0.0, np.pi / 2.0, np.pi, -2.0 * np.pi, 1.5 * np.pi, 32.0, 2.0**55, -1e300)
    out, changed = fold_values(vals)
    r = np.fmod(np.abs(vals), np.pi)
    assert out.tobytes() == np.minimum(r, np.pi - r).tobytes()
    assert changed


def test_fold_finishes_on_huge_values():
    # one sweep per pi of amplitude never ends at 1e100, where x - pi == x;
    # a fresh interpreter lets the time limit stop it
    probe = ("import numpy as np; from magnetodisk.operators import fold_values; "
             "out, changed = fold_values(np.array([0.0, 1e100, -1e300, 5e3, 1.0])); "
             "print(changed, *(x.hex() for x in out))")
    changed, *hexes = fresh_python("-c", probe, timeout=30).stdout.split()
    out = np.array([float.fromhex(x) for x in hexes])
    assert changed == "True"
    assert np.all(out >= 0.0) and np.all(out <= np.pi / 2.0)
    assert out[0] == 0.0 and out[-1] == 1.0
    # the fold is the distance to the nearest multiple of the double pi,
    # which fmod computes exactly
    assert out[3] == min(np.fmod(5e3, np.pi), np.pi - np.fmod(5e3, np.pi))


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("mu", [2.0, 20.0, 100.0, 1e3, 1e4, 1e6, 1e8])
def test_solver_trials_need_a_single_reflection(monkeypatch, n, mu):
    # every line search starts within pi/2 of an iterate in [0, pi/2], so
    # the fold of a default-start solve never reaches its fmod
    fold = solver.fold_values
    lows, highs = [], []

    def seen(values):
        lows.append(values.min())
        highs.append(values.max())
        return fold(values)

    monkeypatch.setattr(solver, "fold_values", seen)
    grid, pair = grid_and_pair(n)
    rep = minimize(grid, ModelParams(mu=mu), eigenpair=pair)
    assert rep.converged
    assert len(highs) == rep.energy_evals - 1
    assert -np.pi / 2.0 <= min(lows) and max(highs) <= np.pi  # measured max 1.94


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_fold_preserves_energy_on_single_signed_profiles(grid512, sign):
    # one-signed profiles within |h| <= pi/2 fold by a single global
    # reflection, which the energy cannot see
    vals = sign * 1.4 * np.sin(np.pi * grid512.nodes) ** 2
    vals[0] = 0.0
    before = energy_parts(grid512, vals, 2.0)[0]
    after = energy_parts(grid512, fold_values(vals)[0], 2.0)[0]
    assert abs(after - before) <= 1e-10


def test_fold_drift_on_crossing_profiles_shrinks_with_resolution():
    # a sign-crossing profile pays an O(spacing) energy drift at the kink the
    # fold introduces.  Only the cells where the sign changes see it:
    # (|a| - |b|)^2 - (a - b)^2 = -4 |a b| there, so the drift is exactly
    # -4 pi sum kappa_k |v_k v_{k+1}| over those cells.  Check the identity
    # and the size
    for n in (128, 256, 512):
        g = build_grid(n, 2.0)
        vals = 1.3 * np.sin(2.0 * np.pi * g.nodes)
        vals[0] = 0.0
        before = energy_parts(g, vals, 2.0)[0]
        after = energy_parts(g, fold_values(vals)[0], 2.0)[0]
        cross = vals[:-1] * vals[1:] < 0.0
        identity = -4.0 * np.pi * np.sum(kappa(g)[cross] * np.abs(vals[:-1] * vals[1:])[cross])
        assert abs((after - before) - identity) <= 1e-12 * max(1.0, abs(before))
        # |v_k v_{k+1}| <= (h max|v_r|)^2 / 4 and kappa ~ r / h, so the drift
        # shrinks like h; how far below that bound it falls depends on where
        # the root sits in its cell, so two meshes need not be ordered
        assert abs(after - before) <= 150.0 * (2.0 / n)  # measured constant 74, 5.6, 11


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("grading", [1.0, 2.0, 3.0])
def test_fold_never_raises_the_energy(n, grading):
    # the fold is the distance to the nearest multiple of pi: 1-Lipschitz, so
    # no cell difference grows, and sin^2 h and sin^2 2h stay as they were.
    # Half the profiles are smooth, half nodal noise with a kink in most cells
    g = build_grid(n, grading)
    rng = np.random.default_rng(7 * n + int(grading))
    for k in range(40):
        mu = rng.uniform(0.0, 50.0)
        amplitude = 10.0 ** rng.uniform(-3.0, 2.0)
        if k % 2:
            vals = random_profile(g, rng, amplitude).values
        else:
            vals = rng.uniform(-amplitude, amplitude, n + 1)
            vals[0] = 0.0
        folded = fold_values(vals)[0]
        assert energy_parts(g, folded, mu)[0] <= energy_parts(g, vals, mu)[0]


def _recombined(h, p):
    lap, cubic, defect = nonlinear_split(h, p)
    return lap.values + cubic.values + defect.values - 2.0 * p.mu * h.values


def test_split_recombines_absolutely_on_flat_origin_profiles(grid512):
    # quadratic behavior at the origin keeps the 1/r^2 pieces benign, so the
    # recombination matches the assembled residual field in absolute terms
    p = ModelParams(mu=2.0)
    vals = 0.45 * (1.0 - np.cos(np.pi * grid512.nodes)) * np.cos(3.0 * grid512.nodes)
    vals[0] = 0.0
    h = Profile(grid512, vals)
    strong = gradient_field(grid512, vals, p.mu)
    assert np.abs(_recombined(h, p) - strong).max() <= 1e-12  # measured 2.8e-14


def test_split_recombines_relatively_on_steep_origin_profiles(grid512):
    # linear-at-origin profiles push O(1/r^2) magnitudes into the individual
    # terms near r=0, so compare against the local term scale
    p = ModelParams(mu=2.0)
    rng = np.random.default_rng(5)
    h = smooth_profile(grid512, rng.normal(size=4), scale=1.1)
    lap, cubic, defect = nonlinear_split(h, p)
    strong = gradient_field(grid512, h.values, p.mu)
    scale = np.maximum.reduce([
        np.ones_like(strong),
        np.abs(lap.values),
        np.abs(cubic.values),
        np.abs(defect.values),
        np.abs(2.0 * p.mu * h.values),
    ])
    err = np.abs(_recombined(h, p) - strong) / scale
    assert err.max() <= 1e-12  # measured 4.8e-16


def test_cubic_term_is_bitwise_homogeneous(grid256):
    # power-of-two scalings commute exactly with every float operation in the
    # cubic term, so degree-3 homogeneity holds without tolerance
    p = ModelParams(mu=2.0)
    rng = np.random.default_rng(9)
    h = smooth_profile(grid256, rng.normal(size=3), scale=0.8)
    _, cubic, _ = nonlinear_split(h, p)
    for t in (-2.0, 0.5):
        scaled = Profile(grid256, t * h.values)
        _, cubic_t, _ = nonlinear_split(scaled, p)
        assert np.array_equal(cubic_t.values, t**3 * cubic.values)


def test_defect_term_decays_past_cubic_order(grid256):
    p = ModelParams(mu=2.0)
    rng = np.random.default_rng(13)
    base = smooth_profile(grid256, rng.normal(size=3), scale=1.0)
    scaled_norms = []
    for eps in (0.1, 0.05, 0.025):
        h = Profile(grid256, eps * base.values)
        _, _, defect = nonlinear_split(h, p)
        scaled_norms.append(l2_norm(grid256, defect.values) / eps**3)
    assert scaled_norms[0] / scaled_norms[1] >= 3.0  # measured 3.97
    assert scaled_norms[1] / scaled_norms[2] >= 3.0


def _kernel_profiles(grid):
    """Smooth, rough and unfolded nodal profiles (amplitudes up to 3 pi), one
    of them holding -0.0 at the origin and at interior nodes."""
    rng = np.random.default_rng(grid.n)
    size = grid.nodes.shape[0]
    profiles = [random_profile(grid, rng, amplitude=a).values for a in (0.3, np.pi / 2, 3 * np.pi)]
    rough = rng.uniform(-3 * np.pi, 3 * np.pi, size)
    rough[0] = 0.0
    profiles.append(rough)
    signed_zeros = rng.uniform(-1.0, 1.0, size)
    signed_zeros[::7] = -0.0
    profiles.append(signed_zeros)
    return profiles


@pytest.mark.parametrize("n", [256, 1024, 4097])
@pytest.mark.parametrize("mu", [0.0, 2.0, 20.0, 1000.0])
def test_kernels_match_the_reference_formulas_bitwise(n, mu):
    grid = build_grid(n, 2.0)
    for values in _kernel_profiles(grid):
        e = energy_parts(grid, values, mu)[0]
        assert e.hex() == reference_energy(grid, values, mu).hex()
        g = gradient_field(grid, values, mu)
        ref = reference_gradient(grid, values, mu)
        assert g.tobytes() == ref.tobytes()  # stricter than array_equal: -0.0 != 0.0
        # the descent loop's path: a trial's energy hands its parts to the gradient
        e_trial, dv, sinh = energy_parts(grid, values, mu)
        assert e_trial.hex() == e.hex()
        assert dv.tobytes() == np.diff(values).tobytes()
        assert sinh.tobytes() == np.sin(values[1:]).tobytes()
        g_trial, cos2h = gradient_from_parts(grid, values, mu, dv, sinh)
        assert g_trial.tobytes() == ref.tobytes()
        assert cos2h.tobytes() == reference_cos2h(values).tobytes()
