import numpy as np
import pytest

from magnetodisk import (
    ModelParams,
    build_grid,
    integrate,
    second_eigenpair,
    smallest_eigenpair,
)
from magnetodisk import eigen
from magnetodisk.eigen import _inverse_iteration
from magnetodisk.grid import assemble_pencil, banded_matvec, banded_solve

import oracles
from oracles import GAMMA0_CONTINUUM, J1PRIME_ROOT, boundary_slope
from reference_kernels import stiffness_apply


def test_pencil_matches_elimination_of_the_origin_node(grid256):
    # applying the banded pencil to v must agree with the full stiffness
    # acting on [0, v] plus the centrifugal diagonal
    ab, mass = assemble_pencil(grid256)
    assert np.array_equal(mass, grid256.weights[1:])
    rng = np.random.default_rng(0)
    v = rng.standard_normal(mass.size)
    full = np.concatenate(([0.0], v))
    direct = stiffness_apply(grid256, full)[1:] + mass * v / grid256.nodes[1:] ** 2
    got = banded_matvec(ab, v)
    assert np.abs(got - direct).max() <= 1e-12 * max(1.0, np.abs(direct).max())


def test_quadratic_form_matches_quadrature(grid256):
    # the stiffness part is int (I v)_r^2 r dr of the piecewise-linear
    # interpolant I v: on each cell the slope is constant and r is linear, so
    # the midpoint rule integrates it exactly
    ab, _ = assemble_pencil(grid256)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(grid256.n)
    full = np.concatenate(([0.0], v))
    r = grid256.nodes
    cells = [((full[k + 1] - full[k]) / (r[k + 1] - r[k])) ** 2 * 0.5 * (r[k] + r[k + 1])
             * (r[k + 1] - r[k]) for k in range(grid256.n)]
    s = np.zeros_like(full)
    s[1:] = full[1:] / r[1:]
    direct = sum(cells) + integrate(grid256, s * s)
    form = float(v @ banded_matvec(ab, v))
    assert abs(form - direct) <= 1e-12 * max(1.0, abs(direct))


def test_rayleigh_quotient_of_linear_ramp(grid512):
    # v(r) = r has form value int(1 + 1) r dr = 1 and mass int r^2 r dr = 1/4
    ab, mass = assemble_pencil(grid512)
    v = grid512.nodes[1:]
    rq = float(v @ banded_matvec(ab, v)) / float(mass @ (v * v))
    assert abs(rq - 4.0) <= 1e-3  # measured 1.4e-5


@pytest.mark.parametrize("n", [8, 64, 256])
def test_ground_eigenvalue_exceeds_one(n):
    pair = smallest_eigenpair(build_grid(n, 2.0))
    assert pair.gamma0 > 1.0


def test_ground_eigenvalue_matches_bessel_oracle(pair512):
    rel = abs(pair512.gamma0 - GAMMA0_CONTINUUM) / GAMMA0_CONTINUUM
    assert rel <= 1e-4  # measured 3.0e-6


def test_oracle_constants_recompute():
    root = oracles.first_j1prime_root()
    assert abs(root - J1PRIME_ROOT) <= 1e-14
    assert abs(root**2 - GAMMA0_CONTINUUM) <= 1e-13

    from scipy.special import jnp_zeros

    assert abs(jnp_zeros(1, 1)[0] - J1PRIME_ROOT) <= 1e-12


def test_eigenprofile_contract(pair256, grid256):
    phi = pair256.phi0.values
    assert phi[0] == 0.0
    assert phi.min() >= 0.0
    norm_sq = integrate(grid256, phi * phi)
    assert abs(norm_sq - 1.0) <= 1e-10
    assert pair256.residual <= 1e-8


def test_eigenprofile_natural_boundary_condition():
    # the weak form never imposes phi_r(1) = 0, yet the computed mode must
    # satisfy it at least at second-order truncation level
    slopes = []
    for n in (128, 256, 512, 1024):
        pair = smallest_eigenpair(build_grid(n, 2.0))
        s = abs(boundary_slope(pair.phi0))
        assert s <= 0.1 * (2.0 / n) ** 2  # measured 0.052 -> 0.013 x (2/n)^2
        slopes.append(s)
    for coarse, fine in zip(slopes, slopes[1:]):
        assert coarse / fine >= 3.5  # measured 7.0, 6.5, 5.8


def test_ground_eigenvalue_is_a_lower_bound(grid256, pair256):
    ab, mass = assemble_pencil(grid256)
    rng = np.random.default_rng(2)
    for _ in range(10):
        v = rng.standard_normal(mass.size)
        rq = float(v @ banded_matvec(ab, v)) / float(mass @ (v * v))
        assert rq >= pair256.gamma0 * (1.0 - 1e-12)


def test_ground_eigenvalue_refinement_is_second_order():
    gammas = [smallest_eigenpair(build_grid(n, 2.0)).gamma0
              for n in (128, 256, 512, 1024)]
    assert all(a > b for a, b in zip(gammas, gammas[1:]))  # monotone from above
    diffs = [a - b for a, b in zip(gammas, gammas[1:])]
    for coarse, fine in zip(diffs, diffs[1:]):
        assert 3.5 <= coarse / fine <= 4.5  # measured 4.00


def test_second_eigenpair(grid256, pair256):
    gamma1, psi = second_eigenpair(grid256, pair256)
    assert gamma1 > pair256.gamma0 + 1.0
    overlap = integrate(grid256, psi.values * pair256.phi0.values)
    assert abs(overlap) <= 1e-8
    assert psi.values.min() < 0.0 < psi.values.max()  # excited mode changes sign


def test_second_eigenpair_converges_to_the_second_bessel_mode():
    gamma1_continuum = oracles.bisect_root(oracles.bessel_j1_prime, 5.0, 6.0) ** 2
    errors, sign_changes = [], []
    for n in (256, 1024, 4096):
        grid = build_grid(n, 2.0)
        gamma1, psi = second_eigenpair(grid, smallest_eigenpair(grid))
        errors.append(abs(gamma1 - gamma1_continuum))
        signs = np.sign(psi.values[1:])
        sign_changes.append(int(np.count_nonzero(signs[1:] != signs[:-1])))
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 <= coarse / fine <= 20.0  # second order: 16x per 4x n
    assert sign_changes == [1, 1, 1]


@pytest.mark.parametrize("n", [4096, 16384, 65536])
def test_bessel_start_settles_in_few_solves(n):
    # the sampled continuum mode is within O(h^2) of the discrete one
    assert smallest_eigenpair(build_grid(n, 2.0)).iterations <= 4  # measured 3


@pytest.mark.parametrize("n", [1024, 4096, 16384])
def test_ground_mode_is_the_inverse_iteration_fixed_point(n):
    grid = build_grid(n, 2.0)
    pair = smallest_eigenpair(grid)
    mass = grid.weights[1:]
    v = pair.phi0.values[1:]
    u = v.copy()
    for _ in range(60):
        u = banded_solve(grid.pencil_factor, mass * u)
        u /= np.sqrt(np.sum(mass * u * u))
    assert np.sqrt(np.sum(mass * (u - v) ** 2)) <= 1e-9  # measured <= 1.4e-10


@pytest.mark.parametrize("n", [256, 4096])
def test_start_vector_does_not_change_the_eigenvalue(n):
    grid = build_grid(n, 2.0)
    gamma0 = smallest_eigenpair(grid).gamma0
    gamma, _, _, _ = _inverse_iteration(grid, np.sin(0.5 * np.pi * grid.nodes[1:]), None)
    assert abs(gamma - gamma0) <= 1e-12 * gamma0


def test_iteration_budget_failure_is_loud(grid256, monkeypatch):
    monkeypatch.setattr(eigen, "MAX_ITER", 1)
    with pytest.raises(RuntimeError, match="did not settle"):
        smallest_eigenpair(grid256)


def test_threshold_couples_eigenvalue_to_model(pair256):
    # the trivial profile loses stability exactly at mu = gamma0/2, so the
    # threshold parameters must be constructible without rounding surprises
    p = ModelParams(mu=pair256.gamma0 / 2.0)
    assert 2.0 * p.mu == pair256.gamma0
