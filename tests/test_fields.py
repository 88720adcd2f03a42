import warnings

import numpy as np
import pytest

from magnetodisk import Profile, integrate, magnetization_grid, reconstruct_w
from magnetodisk.operators import energy_parts

from oracles import check_reduction_identity, derivative, displacement_equation_residual


LAM = 2.0  # coupling for mu = 2.0


def coupled_energy(h: Profile, w: np.ndarray, lam: float) -> float:
    """Energy of the pair (h, w) before eliminating the displacement:

        pi * int [ h_r^2 + (sin h/r)^2 + lam sin(2h) w_r + w_r^2 ] r dr.

    The first two terms are the reduced energy at mu = 0 (the grid's P1
    exchange term and the lumped sin^2 h / r^2); the coupling terms use the
    derivative stencils on w.  For w reconstructed from h this matches the
    reduced energy up to quadrature error.  w holds the nodal values of the
    displacement on h's grid.
    """
    grid = h.grid
    dw = derivative(grid, w)
    sin2h = np.sin(2.0 * h.values)
    coupling = integrate(grid, lam * sin2h * dw + dw * dw)
    return energy_parts(grid, h.values, 0.0)[0] + np.pi * coupling


def test_zero_profile_reconstructs_zero_displacement(grid256):
    zero = Profile(grid256, np.zeros_like(grid256.nodes))
    w = reconstruct_w(zero, LAM)
    assert np.all(w == 0.0)


def test_displacement_boundary_conditions(minimizer256):
    h = minimizer256.minimizer
    w = reconstruct_w(h, LAM)
    assert w[-1] == 0.0  # clamped rim, exact by construction
    # free center: w_r(0) = -(lam/2) sin(2 h(0)) = 0 up to stencil truncation
    assert abs(derivative(h.grid, w)[0]) <= (2.0 / 256.0) ** 2


def test_displacement_rejects_a_non_finite_lambda(minimizer256):
    # checked before the slope is formed, so no RuntimeWarning comes first
    for lam in (np.inf, -np.inf, np.nan):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="lambda must be finite"):
                reconstruct_w(minimizer256.minimizer, lam)


def test_displacement_solves_its_balance_equation(minimizer256, minimizer512):
    norms = []
    for rep in (minimizer256, minimizer512):
        h = rep.minimizer
        w = reconstruct_w(h, LAM)
        res = displacement_equation_residual(h, w, LAM)
        wt = h.grid.weights[1:-1]
        norms.append(float(np.sqrt(np.sum(wt * res * res))))
    assert norms[0] <= 5e-4  # measured 1.8e-4
    assert norms[1] <= norms[0] / 1.4  # measured ratio 2.8


def test_magnetization_at_center_and_for_trivial_profile(grid256):
    zero = Profile(grid256, np.zeros_like(grid256.nodes))
    assert np.array_equal(magnetization_grid(zero, [0.0], [0.0])[0], [0.0, 0.0, 1.0])
    assert np.allclose(magnetization_grid(zero, [0.3], [-0.4])[0], [0.0, 0.0, 1.0],
                       rtol=0.0, atol=1e-15)


def test_magnetization_rejects_points_outside_the_disk(minimizer256):
    with pytest.raises(ValueError):
        magnetization_grid(minimizer256.minimizer, [1.2], [0.0])
    with pytest.raises(ValueError):
        magnetization_grid(minimizer256.minimizer, np.array([0.0, 0.9]),
                           np.array([0.0, 0.9]))
    # a non-finite point is not inside the disk either
    for xs, ys in (([np.nan, 0.3], [0.0, 0.2]), ([0.1], [np.nan]),
                   ([np.inf], [0.0]), ([-np.inf, 0.0], [np.nan, 0.0])):
        with pytest.raises(ValueError):
            magnetization_grid(minimizer256.minimizer, xs, ys)


def test_magnetization_rejects_mismatched_shapes(minimizer256):
    h = minimizer256.minimizer
    for xs, ys in (([0.3, 0.1], [0.2]), ([0.3], [0.1, 0.2]), (0.3, 0.2),
                   ([[0.3, 0.1]], [[0.2, 0.0]])):
        with pytest.raises(ValueError):
            magnetization_grid(h, xs, ys)


def test_magnetization_reads_the_p1_angle(minimizer256):
    # the angle between the nodes is the P1 function the solver minimized:
    # the nodal value at a node, the mean of the two nodal values mid-cell
    h = minimizer256.minimizer
    r, v = h.grid.nodes[1:], h.values[1:]
    xs = np.concatenate((r, np.zeros_like(r), -r))
    ys = np.concatenate((np.zeros_like(r), r, np.zeros_like(r)))
    rad, angle = np.tile(r, 3), np.tile(v, 3)
    expected = np.stack((xs / rad * np.sin(angle), ys / rad * np.sin(angle),
                         np.cos(angle)), axis=1)
    assert np.array_equal(magnetization_grid(h, xs, ys), expected)

    mid = 0.5 * (h.grid.nodes[:-1] + h.grid.nodes[1:])
    mean = 0.5 * (h.values[:-1] + h.values[1:])
    m = magnetization_grid(h, mid, np.zeros_like(mid))
    assert np.abs(m[:, 0] - np.sin(mean)).max() <= 1e-15
    assert np.abs(m[:, 2] - np.cos(mean)).max() <= 1e-15


def test_magnetization_is_unit_length(minimizer256):
    rng = np.random.default_rng(6)
    rad = np.sqrt(rng.uniform(0.0, 1.0, 100))
    theta = rng.uniform(0.0, 2.0 * np.pi, 100)
    m = magnetization_grid(minimizer256.minimizer, rad * np.cos(theta),
                           rad * np.sin(theta))
    norms = np.sum(m * m, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-12  # measured 2.2e-16


def test_magnetization_grid_matches_pointwise_evaluation(minimizer256):
    h = minimizer256.minimizer
    xs = np.array([0.0, 0.25, -0.5, 0.6, 0.0])
    ys = np.array([0.0, 0.1, 0.3, -0.7, 0.99])
    batch = magnetization_grid(h, xs, ys)
    for i in range(len(xs)):
        single = magnetization_grid(h, [xs[i]], [ys[i]])[0]
        assert np.abs(batch[i] - single).max() <= 1e-15


def test_magnetization_is_rotation_equivariant(minimizer256):
    h = minimizer256.minimizer
    alpha = 0.73
    c, s = np.cos(alpha), np.sin(alpha)
    x, y = 0.44, -0.31
    m = magnetization_grid(h, [x], [y])[0]
    m_rot = magnetization_grid(h, [c * x - s * y], [s * x + c * y])[0]
    expected = np.array([c * m[0] - s * m[1], s * m[0] + c * m[1], m[2]])
    assert np.abs(m_rot - expected).max() <= 1e-12  # measured 1.1e-16


def test_reduction_identity_for_simple_profiles(grid256):
    zero = Profile(grid256, np.zeros_like(grid256.nodes))
    assert check_reduction_identity(zero) <= 1e-15
    ramp = Profile(grid256, grid256.nodes.copy())
    assert check_reduction_identity(ramp) <= 1e-6  # measured 6.7e-9


def test_reduction_identity_for_minimizer(minimizer256):
    # the planar exchange density of the reconstructed magnetization must
    # collapse to the radial integrand the energy is built on
    assert check_reduction_identity(minimizer256.minimizer) <= 1e-4  # measured 3.0e-9


def test_coupled_energy_matches_reduced_energy(minimizer256):
    h = minimizer256.minimizer
    w = reconstruct_w(h, LAM)
    coupled = coupled_energy(h, w, LAM)
    reduced = energy_parts(h.grid, h.values, 2.0)[0]
    assert abs(coupled - reduced) <= 1e-8  # measured 2.3e-10


def test_coupled_energy_mismatch_shrinks_under_refinement(minimizer256, minimizer512):
    diffs = []
    for rep, mu in ((minimizer256, 2.0), (minimizer512, 2.0)):
        h = rep.minimizer
        w = reconstruct_w(h, LAM)
        diffs.append(abs(coupled_energy(h, w, LAM) - energy_parts(h.grid, h.values, mu)[0]))
    assert diffs[1] < diffs[0]
