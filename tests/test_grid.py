import dataclasses
import gc
import weakref
from functools import cached_property

import numpy as np
import pytest
import magnetodisk.grid as grid_module
from magnetodisk import (
    ModelParams, RadialGrid, build_grid, integrate, minimize, smallest_eigenpair)
from magnetodisk.grid import banded_factor, banded_matvec, banded_solve, rim_slope

from conftest import fresh_python
from oracles import adaptive_simpson, derivative, gradient_field, l2_norm
from reference_kernels import dense_matrix, stiffness_apply


def test_minimal_uniform_grid():
    g = build_grid(2, 1.0)
    assert np.array_equal(g.nodes, [0.0, 0.5, 1.0])
    assert abs(g.weights.sum() - 0.5) <= 1e-12


@pytest.mark.parametrize("n", [8, 17, 64, 257, 512])
@pytest.mark.parametrize("grading", [1.0, 1.5, 2.0, 3.0])
def test_grid_invariants(n, grading):
    g = build_grid(n, grading)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
    assert np.all(np.diff(g.nodes) > 0.0)
    assert np.all(g.weights >= 0.0)
    assert g.weights[0] == 0.0
    assert abs(g.weights.sum() - 0.5) <= 1e-12
    assert np.allclose(g.nodes, (np.arange(n + 1) / n) ** grading, rtol=0, atol=1e-15)


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_grid(1, 1.0)
    with pytest.raises(ValueError):
        build_grid(64, 0.5)
    # a cell count that is not a finite integer is the same usage error,
    # not an OverflowError or a failed float-to-int conversion
    for n in (float("inf"), float("-inf"), float("nan"), 8.5, "8"):
        with pytest.raises(ValueError, match="need at least 2 cells"):
            build_grid(n)


def test_grids_compare_and_hash_by_identity():
    # two grids of the same nodes are two grids, and == never compares arrays
    g = build_grid(8)
    assert g == g
    assert g != build_grid(8)
    assert {g: 1}[g] == 1
    assert hash(g) == hash(g)


def test_grid_rejects_collapsed_nodes():
    # (k/64)**1e6 underflows to 0 for k < 64: 63 cells of zero width
    with pytest.raises(ValueError, match="strictly increasing"):
        build_grid(64, 1e6)
    # (1/64)**100 is a normal double but its square underflows, so the
    # centrifugal terms w / r^2 of the pencil would be 0/0
    with pytest.raises(ValueError, match="1/r\\^2 overflows"):
        build_grid(64, 100.0)
    assert build_grid(64, 85.0).r_squared[0] > 0.0


def test_grid_is_its_nodes():
    g = build_grid(64, 2.0)
    assert tuple(f.name for f in dataclasses.fields(RadialGrid)) == ("nodes",)
    # the weights are derived from the nodes, never given
    with pytest.raises(TypeError):
        RadialGrid(g.nodes, weights=np.ones(65))
    with pytest.raises(TypeError):
        RadialGrid(g.nodes, grading=7.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.weights = np.ones(65)
    assert g.weights is g.weights
    # the grid keeps its own float copy of what it is given
    nodes = np.array([0, 1, 4, 16]) / 16
    h = RadialGrid(nodes)
    nodes[1] = 0.5
    assert h.nodes.tolist() == [0.0, 0.0625, 0.25, 1.0]
    assert RadialGrid([0, 0.5, 1]).nodes.dtype == float
    h = RadialGrid(g.nodes)
    assert h.nodes is not g.nodes and not h.nodes.flags.writeable
    assert h.weights.tobytes() == g.weights.tobytes()
    assert h.pencil.tobytes() == g.pencil.tobytes()


@pytest.mark.parametrize(
    "nodes, match",
    [
        ([[0.0, 0.5, 1.0]], "1-D"),
        ([0.0, 1.0], "at least 2 cells"),
        ([0.0], "at least 2 cells"),
        ([1e-3, 0.5, 1.0], "from 0.0 to 1.0"),
        ([0.0, 0.5, 0.999], "from 0.0 to 1.0"),
        ([0.0, 0.5, 0.5, 1.0], "strictly increasing"),
        ([0.0, 0.7, 0.5, 1.0], "strictly increasing"),
        ([0.0, np.nan, 1.0], "strictly increasing"),
        ([np.nan, 0.5, 1.0], "from 0.0 to 1.0"),
        ([0.0, 1e-160, 1.0], "1/r\\^2 overflows"),
    ],
)
def test_radial_grid_rejects_bad_nodes(nodes, match):
    with pytest.raises(ValueError, match=match):
        RadialGrid(np.array(nodes))


@pytest.mark.parametrize("grading", [1.0, 2.0, 3.5])
@pytest.mark.parametrize("n", [2, 3, 64, 257])
def test_every_other_node_of_a_grid_is_the_grid_of_half_the_cells(n, grading):
    # nested meshes: (2k / 2n)**g is (k / n)**g to the bit, so the coarse grid
    # built from the fine grid's nodes is build_grid's own
    fine = build_grid(2 * n, grading)
    coarse = RadialGrid(fine.nodes[::2])
    want = build_grid(n, grading)
    for name in ("nodes", "weights", "pencil"):
        assert getattr(coarse, name).tobytes() == getattr(want, name).tobytes()


def test_grid_is_immutable():
    g = build_grid(16, 2.0)
    with pytest.raises(ValueError):
        g.nodes[0] = 1.0
    with pytest.raises(ValueError):
        g.weights[0] = 1.0
    # the operator arrays are built once per grid and shared read-only
    assert g.stiffness_bands is g.stiffness_bands
    assert g.pencil is g.pencil
    assert g.pencil_factor is g.pencil_factor
    assert g.r_squared is g.r_squared
    for array in (*g.stiffness_bands, g.pencil, *g.pencil_factor, g.r_squared):
        with pytest.raises(ValueError):
            array[0] = 1.0
    assert np.array_equal(g.r_squared, g.nodes[1:] ** 2)
    # the gradient's sin 2h / (2 r^2) is formed as sin h cos h / r^2
    assert not hasattr(g, "two_r_squared")


def test_pencil_is_assembled_once(monkeypatch):
    # count the assemblies: every reader of the pencil (the pencil factor,
    # the eigensolver, each Newton factorization) shares one
    built = []
    pencil = grid_module.RadialGrid.pencil

    def counted(grid):
        built.append(grid)
        return pencil.func(grid)

    counting = cached_property(counted)
    counting.__set_name__(grid_module.RadialGrid, "pencil")
    monkeypatch.setattr(grid_module.RadialGrid, "pencil", counting)
    g = build_grid(256, 2.0)
    main = g.pencil
    minimize(g, ModelParams(mu=20.0), eigenpair=smallest_eigenpair(g))
    assert built == [g]
    assert g.pencil is main
    with pytest.raises(ValueError):
        main[0] = 1.0
    # the main diagonal of A = K + W / r^2 over the nodes 1..n
    diagonal, _ = g.stiffness_bands
    assert main.tobytes() == (diagonal[1:] + g.weights[1:] / g.nodes[1:] ** 2).tobytes()


def test_banded_factor_passes_the_cached_off_diagonal(monkeypatch):
    g = build_grid(64, 2.0)
    seen = []
    pttrf = grid_module._PTTRF

    def recorded(d, e):
        seen.append(e)
        return pttrf(d, e)

    monkeypatch.setattr(grid_module, "_PTTRF", recorded)
    banded_factor(g, g.pencil)
    banded_factor(g, 2.0 * g.pencil)
    off = seen[0]
    assert len(seen) == 2 and seen[1] is off and not off.flags.writeable
    # pttrf copies it: the cached band is -kappa[1:], unchanged by the
    # factorizations
    assert off.tobytes() == (-g.stiffness_bands[1][1:]).tobytes()
    x = np.random.default_rng(5).standard_normal(g.n)
    want = dense_matrix(g, g.pencil) @ x
    assert np.abs(banded_matvec(g, g.pencil, x) - want).max() <= 1e-12 * np.abs(want).max()


def test_grid_is_collected_once_dropped():
    # the per-grid arrays live on the grid itself, so nothing outlives it
    g = build_grid(64, 2.0)
    minimize(g, ModelParams(mu=2.0), eigenpair=smallest_eigenpair(g))
    gradient_field(g, 0.5 * g.nodes, 2.0)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("n", [256, 4096])
def test_banded_solve_matches_a_dense_solve(n):
    g = build_grid(n, 2.0)
    dense = dense_matrix(g, g.pencil)
    b = np.random.default_rng(n).normal(size=n)
    kept = b.copy()
    x = banded_solve(g.pencil_factor, b)
    ref = np.linalg.solve(dense, b)
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()
    assert np.array_equal(b, kept)


def test_banded_factor_rejects_indefinite_matrices():
    # the Newton step's tau shift relies on this to find a positive definite shift
    g = build_grid(64, 2.0)
    bad = g.pencil.copy()
    bad[10] = -1.0
    with pytest.raises(np.linalg.LinAlgError):
        banded_factor(g, bad)


# grid loads scipy's LAPACK extension from its file; scipy.linalg may be
# imported before it or after it
IMPORT_ORDERS = {
    "package first": "import magnetodisk.grid as g\n"
                     "assert 'scipy.linalg' not in sys.modules\n"
                     "from scipy.linalg import lapack\n",
    "scipy.linalg first": "from scipy.linalg import lapack\n"
                          "import magnetodisk.grid as g\n",
}


@pytest.mark.parametrize("order", IMPORT_ORDERS)
def test_banded_factor_and_solve_match_scipy_lapack_bitwise(order):
    probe = "import sys\nimport numpy as np\n" + IMPORT_ORDERS[order] + """
grid = g.build_grid(4096)
main, m = grid.pencil, grid.weights[1:]
off = -grid.stiffness_bands[1][1:]
b = np.sin(np.arange(1.0, main.size + 1.0))
for diagonal in (main, main - 3.0 * m):  # the pencil and a shift below gamma0
    d, e = g.banded_factor(grid, diagonal)
    d_ref, e_ref, info = lapack.dpttrf(diagonal, off)
    assert info == 0
    assert d.tobytes() == d_ref.tobytes() and e.tobytes() == e_ref.tobytes()
    x_ref, info = lapack.dpttrs(d_ref, e_ref, b)
    assert info == 0
    assert g.banded_solve((d, e), b).tobytes() == x_ref.tobytes()
try:
    g.banded_factor(grid, main - 10.0 * m)
except np.linalg.LinAlgError:
    print("indefinite refused")
"""
    assert fresh_python("-c", probe).stdout.splitlines()[-1] == "indefinite refused"


def test_missing_lapack_extension_is_an_import_error(tmp_path):
    # a scipy without linalg/_flapack: the error names the directory searched
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    probe = f"""
import sys
sys.path.insert(0, {str(tmp_path)!r})
try:
    import magnetodisk.grid
except ImportError as exc:
    print(exc)
"""
    message = fresh_python("-c", probe).stdout
    assert "_flapack" in message and str(tmp_path / "scipy" / "linalg") in message


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_banded_solve_rejects_nonfinite_right_hand_sides(bad):
    g = build_grid(64, 2.0)
    b = np.ones(64)
    b[10] = bad
    with pytest.raises(ValueError, match="finite"):
        banded_solve(g.pencil_factor, b)


def test_banded_solve_rejects_mismatched_right_hand_sides():
    g = build_grid(64, 2.0)
    for b in (np.ones(63), np.ones(65), np.ones((64, 1))):
        with pytest.raises(ValueError, match="shape"):
            banded_solve(g.pencil_factor, b)


def test_integrate_constants():
    g = build_grid(64, 2.0)
    assert integrate(g, np.zeros(65)) == 0.0
    assert abs(integrate(g, np.full(65, 2.0)) - 1.0) <= 1e-14


def test_integrate_linear_is_exact():
    # weights integrate the P1 interpolant exactly, and f(r)=r is P1
    g = build_grid(512, 2.0)
    assert abs(integrate(g, g.nodes) - 1.0 / 3.0) <= 1e-12


def test_integrate_smooth_against_adaptive_oracle():
    g = build_grid(1024, 2.0)
    f = np.empty_like(g.nodes)
    f[0] = np.pi  # limit of sin(pi r)/r
    f[1:] = np.sin(np.pi * g.nodes[1:]) / g.nodes[1:]
    ref = adaptive_simpson(lambda r: np.sin(np.pi * r), 0.0, 1.0, tol=1e-14)
    assert abs(integrate(g, f) - ref) <= 1e-6  # measured 1.8e-7


def test_integrate_is_linear():
    g = build_grid(128, 2.0)
    rng = np.random.default_rng(0)
    f, h = rng.normal(size=129), rng.normal(size=129)
    lhs = integrate(g, 2.5 * f - 0.75 * h)
    rhs = 2.5 * integrate(g, f) - 0.75 * integrate(g, h)
    assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))


def test_integrate_second_order_refinement():
    ref = adaptive_simpson(lambda r: np.cos(3.0 * r) * r, 0.0, 1.0, tol=1e-14)
    errors = []
    for n in (64, 128, 256):
        g = build_grid(n, 2.0)
        errors.append(abs(np.dot(g.weights, np.cos(3.0 * g.nodes)) - ref))
    assert errors[0] / errors[1] >= 3.0
    assert errors[1] / errors[2] >= 3.0


def test_integrate_length_mismatch():
    g = build_grid(16, 2.0)
    with pytest.raises(ValueError):
        integrate(g, np.zeros(5))


def test_derivative_exactness_classes():
    g = build_grid(64, 1.7)
    assert np.abs(derivative(g, np.full(65, 3.3))).max() <= 1e-12
    assert np.abs(derivative(g, 2.0 * g.nodes - 1.0) - 2.0).max() <= 1e-12
    assert np.abs(derivative(g, g.nodes**2) - 2.0 * g.nodes).max() <= 1e-10


def test_stiffness_exactness_classes():
    # K annihilates constants, and v^T K v = int v_r^2 r dr = b^2 / 2 holds
    # exactly for linear v = a + b r
    g = build_grid(64, 1.7)
    assert np.array_equal(stiffness_apply(g, np.full(65, 3.3)), np.zeros(65))
    v = 2.0 * g.nodes - 1.0
    assert abs(np.sum(v * stiffness_apply(g, v)) - 2.0) <= 1e-12


@pytest.mark.parametrize("n", [64, 1024, 65536])
@pytest.mark.parametrize("grading", [1.0, 2.0, 3.5])
def test_rim_slope_is_the_one_sided_derivative_bitwise(n, grading):
    g = build_grid(n, grading)
    rng = np.random.default_rng(n)
    for v in (np.sin(3.0 * g.nodes), g.nodes**2, rng.uniform(-np.pi, np.pi, n + 1)):
        assert rim_slope(g, v).hex() == float(derivative(g, v)[-1]).hex()


def test_minimizer_reports_the_rim_slope_as_its_boundary_residual(grid256, pair256):
    rep = minimize(grid256, ModelParams(mu=2.0), eigenpair=pair256)
    assert rep.bc_residual == abs(float(derivative(grid256, rep.minimizer.values)[-1]))


def test_derivative_smooth_accuracy():
    g = build_grid(512, 2.0)
    err = np.abs(derivative(g, np.sin(g.nodes)) - np.cos(g.nodes)).max()
    assert err <= 1e-4  # measured 2.8e-6


def test_derivative_length_mismatch():
    g = build_grid(16, 2.0)
    with pytest.raises(ValueError):
        derivative(g, np.zeros(3))


def test_l2_norm_matches_integrate():
    g = build_grid(128, 2.0)
    f = np.sin(2.0 * g.nodes)
    assert abs(l2_norm(g, f) - np.sqrt(integrate(g, f * f))) <= 1e-15
