import dataclasses

import numpy as np
import pytest

from magnetodisk import ModelParams, build_grid, integrate, smallest_eigenpair
from magnetodisk import eigen
from magnetodisk.eigen import _inverse_iteration, second_eigenpair
from magnetodisk.grid import banded_matvec, banded_solve

import oracles
from oracles import GAMMA0_CONTINUUM, J1PRIME_ROOT, boundary_slope
from reference_kernels import reference_inverse_iteration, reference_j1_start, stiffness_apply


def test_pencil_matches_elimination_of_the_origin_node(grid256):
    # applying the banded pencil to v must agree with the full stiffness
    # acting on [0, v] plus the centrifugal diagonal
    mass = grid256.weights[1:]
    rng = np.random.default_rng(0)
    v = rng.standard_normal(mass.size)
    full = np.concatenate(([0.0], v))
    direct = stiffness_apply(grid256, full)[1:] + mass * v / grid256.nodes[1:] ** 2
    got = banded_matvec(grid256, grid256.pencil, v)
    assert np.abs(got - direct).max() <= 1e-12 * max(1.0, np.abs(direct).max())


def test_quadratic_form_matches_quadrature(grid256):
    # the stiffness part is int (I v)_r^2 r dr of the piecewise-linear
    # interpolant I v: on each cell the slope is constant and r is linear, so
    # the midpoint rule integrates it exactly
    rng = np.random.default_rng(1)
    v = rng.standard_normal(grid256.n)
    full = np.concatenate(([0.0], v))
    r = grid256.nodes
    cells = [((full[k + 1] - full[k]) / (r[k + 1] - r[k])) ** 2 * 0.5 * (r[k] + r[k + 1])
             * (r[k + 1] - r[k]) for k in range(grid256.n)]
    s = np.zeros_like(full)
    s[1:] = full[1:] / r[1:]
    direct = sum(cells) + integrate(grid256, s * s)
    form = float(v @ banded_matvec(grid256, grid256.pencil, v))
    assert abs(form - direct) <= 1e-12 * max(1.0, abs(direct))


def test_rayleigh_quotient_of_linear_ramp(grid512):
    # v(r) = r has form value int(1 + 1) r dr = 1 and mass int r^2 r dr = 1/4
    mass = grid512.weights[1:]
    v = grid512.nodes[1:]
    rq = float(v @ banded_matvec(grid512, grid512.pencil, v)) / float(mass @ (v * v))
    assert abs(rq - 4.0) <= 1e-3  # measured 1.4e-5


@pytest.mark.parametrize("n", [8, 64, 256])
def test_ground_eigenvalue_exceeds_one(n):
    pair = smallest_eigenpair(build_grid(n, 2.0))
    assert pair.gamma0 > 1.0


def test_ground_eigenvalue_matches_bessel_oracle(pair512):
    rel = abs(pair512.gamma0 - GAMMA0_CONTINUUM) / GAMMA0_CONTINUUM
    assert rel <= 1e-4  # measured 3.0e-6


def test_oracle_constants_recompute():
    # j'_{1,1} = 1.84118378134065930264..., whose nearest double the
    # bisection finds; its square is the double nearest j'_{1,1}^2 =
    # 3.38995771667188872685...
    root = oracles.first_j1prime_root()
    assert root == J1PRIME_ROOT == eigen._J1PRIME_ROOT
    assert root * root == GAMMA0_CONTINUUM

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
    mass = grid256.weights[1:]
    rng = np.random.default_rng(2)
    for _ in range(10):
        v = rng.standard_normal(mass.size)
        rq = float(v @ banded_matvec(grid256, grid256.pencil, v)) / float(mass @ (v * v))
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
    gamma, _, _ = _inverse_iteration(grid, np.sin(0.5 * np.pi * grid.nodes[1:]), None)
    assert abs(gamma - gamma0) <= 1e-12 * gamma0


@pytest.mark.parametrize("grading", [1.0, 2.0, 4.0])
def test_rayleigh_quotient_stop_settles_at_a_million_cells(grading):
    # the Rayleigh quotient only falls, but by roundoff; at n = 2**20 its
    # last digits wander, and a rise counts as settled
    pair = smallest_eigenpair(build_grid(2**20, grading))
    assert pair.iterations <= 8  # measured 3, 6, 3
    assert pair.residual <= 1e-6  # measured 1.6e-7, 7.3e-8, 3.0e-8


def test_iteration_budget_failure_is_loud(grid256, monkeypatch):
    monkeypatch.setattr(eigen, "MAX_ITER", 1)
    with pytest.raises(RuntimeError, match="did not settle"):
        smallest_eigenpair(grid256)


def test_threshold_couples_eigenvalue_to_model(pair256):
    # the trivial profile loses stability exactly at mu = gamma0/2, so the
    # threshold parameters must be constructible without rounding surprises
    p = ModelParams(mu=pair256.gamma0 / 2.0)
    assert 2.0 * p.mu == pair256.gamma0


@pytest.mark.parametrize("grading", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("n", [64, 256, 1024, 4096, 65536])
def test_in_place_iteration_is_the_reference_iteration_bitwise(monkeypatch, n, grading):
    # the Horner start and the normalisation run in reused buffers, with the
    # operations of the one-expression forms in the same order; the reference
    # stops by the older plateau rule, and at these n both rules stop at the
    # same solve
    grid = build_grid(n, grading)
    assert eigen._j1_start(grid).tobytes() == reference_j1_start(grid).tobytes()
    pair = smallest_eigenpair(grid)
    gamma1, psi = second_eigenpair(grid, pair)
    monkeypatch.setattr(eigen, "_j1_start", reference_j1_start)
    monkeypatch.setattr(eigen, "_inverse_iteration", reference_inverse_iteration)
    ref = smallest_eigenpair(grid)
    ref_gamma1, ref_psi = second_eigenpair(grid, ref)
    assert pair.gamma0.hex() == ref.gamma0.hex()
    assert pair.phi0.values.tobytes() == ref.phi0.values.tobytes()
    assert pair.iterations == ref.iterations
    # the residual of the returned pair, written out
    v = ref.phi0.values[1:]
    res = banded_matvec(grid, grid.pencil, v) - ref.gamma0 * grid.weights[1:] * v
    assert pair.residual.hex() == float(np.sqrt(np.sum(res * res))).hex()
    assert gamma1.hex() == ref_gamma1.hex()
    assert psi.values.tobytes() == ref_psi.values.tobytes()


def test_horner_start_is_the_sampled_bessel_mode():
    # the oracle's series at the package's j'_{1,1}: the folded coefficients
    # and Horner's rule lose only a few ulp
    grid = build_grid(256, 2.0)  # 257 nodes
    got = eigen._j1_start(grid)
    want = np.array([oracles.bessel_j1(eigen._J1PRIME_ROOT * r) for r in grid.nodes[1:]])
    ulps = np.abs(got - want) / np.spacing(np.abs(want))
    assert ulps.max() <= 4.0  # measured 2


@pytest.mark.parametrize("n, solves", [(256, 5), (4096, 3), (65536, 3)])
def test_solve_counts_are_pinned(n, solves):
    # the Bessel start leaves only the O(h^2) discretization error to settle
    assert smallest_eigenpair(build_grid(n, 2.0)).iterations == solves


def test_residual_is_computed_on_first_read(grid256, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return banded_matvec(*args)

    monkeypatch.setattr(eigen, "banded_matvec", counted)
    pair = smallest_eigenpair(grid256)
    assert calls == []  # the solver computes no residual
    first = pair.residual
    assert len(calls) == 1
    assert pair.residual is first and len(calls) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.gamma0 = 1.0
    assert tuple(f.name for f in dataclasses.fields(eigen.EigenPair)) == (
        "gamma0", "phi0", "iterations")


def test_eigenpairs_compare_without_comparing_arrays(pair256):
    # the profile compares by identity, so == and hash never compare arrays
    assert pair256 == pair256
    assert {pair256: 1}[pair256] == 1
    assert pair256 != smallest_eigenpair(pair256.phi0.grid)
