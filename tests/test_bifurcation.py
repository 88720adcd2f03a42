from functools import cached_property

import numpy as np
import pytest

import magnetodisk.bifurcation as bifurcation
import magnetodisk.eigen as eigen
from magnetodisk import (
    BranchPoint,
    ModelParams,
    Profile,
    build_grid,
    detected_threshold,
    amplitude_fit_slope,
    minimize,
    smallest_eigenpair,
    trace_branches,
)
from magnetodisk.operators import energy_parts
from magnetodisk.solver import FLAT_TOL

from conftest import grid_and_pair
from oracles import (
    CBAR_CONTINUUM, J1PRIME_ROOT, cbar, quartic_coefficient, random_profile, zeroth_order_trace)


def predicted_amplitude(mu: float, gamma0: float, cbar_value: float) -> list[tuple[float, bool]]:
    """Lowest-order amplitudes with stability flags at the given mu.

    Returns [(0, stable)] at or below the threshold; above it the trivial
    state turns unstable and the two branch amplitudes +-sqrt(delta/cbar)
    are the stable ones.
    """
    if not cbar_value > 0.0:
        raise ValueError(f"cubic coefficient must be positive, got {cbar_value}")
    delta = 2.0 * mu - gamma0
    if delta <= 0.0:
        return [(0.0, True)]
    beta = float(np.sqrt(delta / cbar_value))
    return [(0.0, False), (beta, True), (-beta, True)]


def test_cubic_coefficient_is_positive_at_threshold(pair256):
    assert pair256.threshold_cbar > 0.0


def test_cubic_coefficient_matches_quadrature_oracle():
    grid = build_grid(2048, 2.0)
    pair = smallest_eigenpair(grid)
    cb = pair.threshold_cbar
    assert abs(quartic_coefficient(J1PRIME_ROOT) - CBAR_CONTINUUM) <= 1e-13  # frozen constant guard
    assert abs(cb - CBAR_CONTINUUM) <= 1e-4  # measured 8.6e-6


def test_cubic_coefficient_is_quartically_homogeneous(grid256, pair256):
    # of the quadrature form that the tests hold EigenPair.sextic's cbar to
    mu = pair256.gamma0 / 2.0
    base = cbar(pair256.phi0, mu)
    t = 1.7
    scaled = cbar(Profile(grid256, t * pair256.phi0.values), mu)
    assert abs(scaled - t**4 * base) <= 1e-12 * abs(t**4 * base)


def test_cubic_coefficient_is_computed_once_per_eigenpair(monkeypatch):
    # the diagram and the default start of every minimize above the
    # threshold read it from the pair, bit for bit sextic's cbar at
    # gamma0 / 2, from moments computed once per pair
    calls = []
    computed = eigen.EigenPair.__dict__["moments"].func
    counted = cached_property(lambda pair: calls.append(pair) or computed(pair))
    counted.__set_name__(eigen.EigenPair, "moments")
    monkeypatch.setattr(eigen.EigenPair, "moments", counted)
    grid = build_grid(256, 2.0)
    pair = smallest_eigenpair(grid)
    diagram = trace_branches(grid, ModelParams(mu=2.0), np.linspace(1.5, 2.2, 8), eigenpair=pair)
    for mu in (2.0, 20.0):
        minimize(grid, ModelParams(mu=mu), eigenpair=pair)
    assert calls == [pair]
    sextic = pair.sextic(pair.gamma0 / 2.0)[0]
    assert diagram.cbar.hex() == pair.threshold_cbar.hex() == sextic.hex()
    assert calls == [pair]


def test_predicted_amplitude_at_and_below_threshold():
    assert predicted_amplitude(1.5, 3.0, 1.0) == [(0.0, True)]
    assert predicted_amplitude(1.2, 3.0, 1.0) == [(0.0, True)]


def test_predicted_amplitude_above_threshold():
    out = predicted_amplitude(1.52, 3.0, 1.0)
    assert out[0] == (0.0, False)  # trivial state has turned unstable
    (beta, stable_p), (beta_m, stable_m) = out[1], out[2]
    assert stable_p and stable_m
    assert abs(beta - 0.2) <= 1e-12  # sqrt(delta/cbar) with delta = 0.04
    assert beta_m == -beta


def test_predicted_amplitude_rejects_nonpositive_cubic_coefficient():
    with pytest.raises(ValueError):
        predicted_amplitude(2.0, 3.0, 0.0)
    with pytest.raises(ValueError):
        predicted_amplitude(2.0, 3.0, -1.0)


def test_trace_rejects_bad_ranges(grid256, pair256):
    bad = [
        np.linspace(2.0, 1.0, 5),  # decreasing
        [1.0, 1.5, 1.2, 2.0],  # decreasing in the middle
        [1.0, 1.0],  # the first not below the last
        [1.0, np.nan, 2.0],
        [1.0, np.inf],
        [1.0],  # a single value
        np.linspace(1.0, 2.0, 4).reshape(2, 2),
    ]
    for mus in bad:
        # the message names the rule, not the array
        with pytest.raises(ValueError, match=r"^need mus 1-D, at least 2 finite values, "
                                             r"non-decreasing, the first below the last$"):
            trace_branches(grid256, ModelParams(mu=1.0), mus, eigenpair=pair256)


def test_trace_rejects_a_negative_mu_as_model_params_does(grid256, pair256):
    # no point is certified trivial at a mu that no ModelParams accepts
    with pytest.raises(ValueError, match=r"^mu must be finite and >= 0, got -5\.0$"):
        ModelParams(mu=-5.0)
    with pytest.raises(ValueError, match=r"^mu must be finite and >= 0, got -5\.0$"):
        trace_branches(grid256, ModelParams(mu=1.0), [-5.0, -1.0, 0.5], eigenpair=pair256)


def test_trace_takes_a_list_of_mu_values(grid256, pair256):
    # below the threshold no minimize runs: the points are the given mus
    mus = [0.1, 0.3, 0.3, 0.5]
    diagram = trace_branches(grid256, ModelParams(mu=0.1), mus, eigenpair=pair256)
    assert [pt.mu for pt in diagram.points] == mus
    assert diagram.mu_step == 0.3 - 0.1


def test_trace_rejects_an_eigenpair_of_another_grid(grid256, pair64):
    # below the threshold no minimize runs, so the trace itself must refuse
    # to certify trivial points against another grid's gamma0 / 2
    with pytest.raises(ValueError, match="eigenpair lives on a different grid"):
        trace_branches(grid256, ModelParams(mu=0.1), np.linspace(0.1, 0.5, 3), eigenpair=pair64)


@pytest.mark.parametrize("lo, hi", [(1.0, 1.5), (1.5, 2.2)], ids=["subcritical", "supercritical"])
def test_trace_rejects_an_init_of_another_grid(lo, hi):
    # checked next to the pair, before any point is certified: below the
    # threshold no minimize runs that would see it
    grid, pair = grid_and_pair(64)
    other, other_pair = grid_and_pair(128)
    init = Profile(other, 0.1 * other_pair.phi0.values)
    with pytest.raises(ValueError, match="init profile lives on a different grid"):
        trace_branches(grid, ModelParams(mu=lo), np.linspace(lo, hi, 3), eigenpair=pair,
                       init=init)


def test_grids_match_by_identity():
    # a grid with the same nodes is another grid: neither minimize nor
    # trace_branches takes its pair or its profile
    grid, pair = grid_and_pair(64)
    twin = build_grid(64)
    assert np.array_equal(twin.nodes, grid.nodes)
    twin_start = Profile(twin, 0.1 * pair.phi0.values)
    with pytest.raises(ValueError, match="eigenpair lives on a different grid"):
        minimize(twin, ModelParams(mu=2.0), eigenpair=pair)
    with pytest.raises(ValueError, match="init profile lives on a different grid"):
        minimize(grid, ModelParams(mu=2.0), twin_start, eigenpair=pair)
    with pytest.raises(ValueError, match="eigenpair lives on a different grid"):
        trace_branches(twin, ModelParams(mu=1.0), [1.0, 2.0], eigenpair=pair)
    with pytest.raises(ValueError, match="init profile lives on a different grid"):
        trace_branches(grid, ModelParams(mu=1.0), [1.0, 2.0], eigenpair=pair, init=twin_start)


def test_trace_does_not_read_the_mu_of_params(grid256, pair256):
    # params supplies tol and max_iter (see test_truncated_continuation_is_reported)
    mus = np.linspace(1.5, 2.2, 8)
    a, b = (trace_branches(grid256, ModelParams(mu=mu), mus, eigenpair=pair256)
            for mu in (0.0, 99.0))
    assert a == b


def test_trace_below_threshold_is_all_trivial(grid256, pair256):
    thr = pair256.gamma0 / 2.0
    diagram = trace_branches(
        grid256, ModelParams(mu=0.2), np.linspace(0.2, thr - 0.3, 5), eigenpair=pair256
    )
    assert all(q.branch == "trivial" for q in diagram.points)
    assert all(q.energy == 0.0 and q.beta == 0.0 for q in diagram.points)
    assert detected_threshold(diagram) is None
    assert amplitude_fit_slope(diagram) is None


@pytest.fixture(scope="module")
def straddling_diagram(grid256, pair256):
    thr = pair256.gamma0 / 2.0
    return trace_branches(
        grid256, ModelParams(mu=thr - 0.2), np.linspace(thr - 0.2, thr + 0.3, 11),
        eigenpair=pair256,
    )


def test_traced_branches_open_at_the_threshold(straddling_diagram, pair256):
    thr = pair256.gamma0 / 2.0
    detected = detected_threshold(straddling_diagram)
    assert detected is not None
    assert thr < detected <= thr + straddling_diagram.mu_step + 1e-12


def test_traced_branches_come_in_symmetric_pairs(straddling_diagram):
    plus = {q.mu: q for q in straddling_diagram.points if q.branch == "plus"}
    minus = {q.mu: q for q in straddling_diagram.points if q.branch == "minus"}
    assert plus and set(plus) == set(minus)
    for mu, q in plus.items():
        assert q.beta > 0.0
        assert minus[mu].beta == -q.beta
        assert minus[mu].energy == q.energy


def test_traced_energies_split_cleanly(straddling_diagram, pair256):
    thr = pair256.gamma0 / 2.0
    for q in straddling_diagram.points:
        if q.branch == "trivial":
            assert q.energy == 0.0
        else:
            assert q.mu > thr
            assert q.energy < -1e-9


def test_traced_points_are_sorted(straddling_diagram):
    order = {"trivial": 0, "plus": 1, "minus": 2}
    keys = [(q.mu, order[q.branch]) for q in straddling_diagram.points]
    assert keys == sorted(keys)


def test_tracing_is_deterministic(grid256, pair256):
    thr = pair256.gamma0 / 2.0
    runs = [
        trace_branches(grid256, ModelParams(mu=thr), np.linspace(thr - 0.05, thr + 0.15, 5),
                       eigenpair=pair256)
        for _ in range(2)
    ]
    a, b = runs
    assert len(a.points) == len(b.points)
    for qa, qb in zip(a.points, b.points):
        assert (qa.mu, qa.branch, qa.beta, qa.energy) == (qb.mu, qb.branch, qb.beta, qb.energy)


def test_amplitudes_follow_the_square_root_law(grid256, pair256):
    thr = pair256.gamma0 / 2.0
    diagram = trace_branches(
        grid256, ModelParams(mu=thr), np.linspace(thr + 0.01, thr + 0.25, 8), eigenpair=pair256
    )
    cb = diagram.cbar
    measured = [
        (2.0 * q.mu - diagram.gamma0, q.beta)
        for q in diagram.points
        if q.branch == "plus"
    ]
    assert len(measured) == 8
    for delta, beta in sorted(measured)[:3]:
        ratio = beta / np.sqrt(delta / cb)
        assert 0.9 <= ratio <= 1.1  # measured 0.98-1.00

    slope = amplitude_fit_slope(diagram)
    assert slope is not None
    assert abs(slope - 0.5) <= 0.05  # measured 0.49


def test_truncated_continuation_is_reported(grid256, pair256):
    thr = pair256.gamma0 / 2.0
    diagram = trace_branches(
        grid256, ModelParams(mu=thr, max_iter=1), np.linspace(thr - 0.1, thr + 0.3, 5),
        eigenpair=pair256,
    )
    assert diagram.truncated_at is not None
    assert diagram.truncated_at > thr
    assert all(q.branch == "trivial" for q in diagram.points)


def test_branch_point_rejects_unknown_branch():
    with pytest.raises(ValueError):
        BranchPoint(mu=1.0, branch="sideways", beta=0.0, energy=0.0)


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("grading", [1.0, 2.0, 3.0])
def test_energy_obeys_the_threshold_inequality(n, grading):
    # E_h(h) >= pi (gamma0_h - 2 mu) sum w sin^2 h: sin is 1-Lipschitz on each
    # cell, so the exchange term of sin h is at most that of h, and
    # (mu/2) sin^2 2h <= 2 mu sin^2 h.  Every third profile is a multiple of
    # phi0, the direction where the bound is tightest.  gamma0 is a Rayleigh
    # quotient good to roundoff, hence the 1e-12 relative allowance
    grid, pair = grid_and_pair(n, grading)
    rng = np.random.default_rng(n + int(grading))
    for k in range(60):
        mu = rng.uniform(0.0, 50.0)
        amplitude = 10.0 ** rng.uniform(-3.0, 2.0)
        if k % 3 == 2:
            values = amplitude * pair.phi0.values
        else:
            values = random_profile(grid, rng, amplitude).values
        energy = energy_parts(grid, values, mu)[0]
        s = np.sin(values)
        mass = float(np.sum(grid.weights * s * s))
        bound = np.pi * (pair.gamma0 - 2.0 * mu) * mass
        # smallest relative slack measured: 1.2e-3 random, 2.4e-6 along phi0
        assert energy - bound >= -1e-12 * (abs(energy) + np.pi * pair.gamma0 * mass)


@pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-9])
def test_eigenprofile_lowers_the_energy_just_above_the_threshold(grid256, pair256, delta):
    # E_h(eps phi0) = pi eps^2 (gamma0 - 2 mu) + O(eps^4), so with eps^2 far
    # below delta it is negative at mu = gamma0/2 + delta; at gamma0/2 - delta
    # the inequality above keeps it positive.  Together the two pin the
    # discrete threshold at exactly gamma0_h/2
    thr = pair256.gamma0 / 2.0
    values = 1e-2 * np.sqrt(delta) * pair256.phi0.values
    assert energy_parts(grid256, values, thr + delta)[0] < 0.0
    assert energy_parts(grid256, values, thr - delta)[0] > 0.0


def test_trace_solves_nothing_at_or_below_the_threshold(grid256, pair256, monkeypatch):
    solved = []

    def counting_minimize(grid, params, *args, **kwargs):
        solved.append(params.mu)
        return minimize(grid, params, *args, **kwargs)

    monkeypatch.setattr(bifurcation, "minimize", counting_minimize)
    thr = pair256.gamma0 / 2.0
    below = trace_branches(grid256, ModelParams(mu=thr), np.linspace(thr - 0.3, thr, 4),
                           eigenpair=pair256)
    assert solved == []
    assert [q.branch for q in below.points] == ["trivial"] * 4
    assert below.points[-1].mu == thr

    across = trace_branches(grid256, ModelParams(mu=thr), np.linspace(thr - 0.4, thr + 0.2, 6),
                            eigenpair=pair256)
    mus = sorted({q.mu for q in across.points})
    assert solved == [mu for mu in mus if mu > thr]
    assert len(solved) == 2


@pytest.mark.parametrize(
    "n, span",
    [(256, (1.5, 2.2, 15)), (512, (1.5, 50.0, 60)), (256, (-0.005, 0.005, 11))],
    ids=["pitchfork", "wide", "near-onset"],
)
def test_predictor_finds_the_zeroth_order_points(request, n, span):
    # trace_branches and the zeroth-order continuation run the same corrector
    # from different starts, so they must find the same points.  Each solve
    # stops once the step it predicts would gain less than the floor
    # FLAT_TOL * (1 + |E|), so each energy is that close to the minimum: two
    # differ by at most twice the floor, whose absolute part covers the
    # near-onset points (|E| < 1e-6).  Each also stops with |g| <= tol, within
    # |g| / lam of the minimizer, lam the Hessian's smallest eigenvalue in the
    # r dr metric; the normal form pi (-delta beta^2 + c beta^4) puts it at
    # 2 delta near the onset, taken here as min(delta, 1).  Measured: at most
    # 6e-4 of the energy bound and 0.68 of the beta bound
    grid = request.getfixturevalue(f"grid{n}")
    pair = request.getfixturevalue(f"pair{n}")
    lo, hi, steps = span
    if lo < 0.0:  # offsets from gamma0/2
        lo, hi = pair.gamma0 / 2.0 + lo, pair.gamma0 / 2.0 + hi
    params = ModelParams(mu=lo)
    mus = np.linspace(lo, hi, steps)
    predicted = trace_branches(grid, params, mus, eigenpair=pair)
    zeroth = zeroth_order_trace(grid, params, mus, eigenpair=pair)

    assert predicted.truncated_at is None and zeroth.truncated_at is None
    assert [(q.mu, q.branch) for q in predicted.points] == [
        (q.mu, q.branch) for q in zeroth.points
    ]
    # a plus and a minus point at every mu above gamma0/2, and only there
    above = {q.mu for q in predicted.points if q.mu > pair.gamma0 / 2.0}
    nontrivial = {(q.mu, q.branch) for q in predicted.points if q.branch != "trivial"}
    assert above and nontrivial == {(mu, b) for mu in above for b in ("plus", "minus")}
    for a, b in zip(predicted.points, zeroth.points):
        assert abs(a.energy - b.energy) <= 2.0 * FLAT_TOL * (1.0 + abs(b.energy))
        if a.branch != "trivial":
            delta = 2.0 * a.mu - pair.gamma0
            assert abs(a.beta - b.beta) <= params.tol / min(delta, 1.0)


def test_predictor_halves_the_corrector_iterations(grid256, pair256, monkeypatch):
    # the entry step starts on the pitchfork start and every later step within
    # a few tol of the branch, so the corrector needs at most 2 Newton steps;
    # measured [1, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1], 16 in all, against 44 from
    # the previous profile and 22 with the entry step from 0.1 phi0
    iterations = []

    def counting_minimize(grid, params, *args, **kwargs):
        report = minimize(grid, params, *args, **kwargs)
        iterations.append(report.iterations)
        return report

    monkeypatch.setattr(bifurcation, "minimize", counting_minimize)
    diagram = trace_branches(grid256, ModelParams(mu=1.5), np.linspace(1.5, 2.2, 15),
                             eigenpair=pair256)
    assert diagram.truncated_at is None
    assert len(iterations) == 11
    assert iterations[0] <= 1
    assert max(iterations[1:]) <= 2
    assert sum(iterations) <= 16


def test_mu_values_closer_than_float_spacing_repeat_a_branch_point():
    # linspace repeats 1.7 and 1.7000000000000002, so two steps share s; each
    # repeat replaces the last known point, and the extrapolant stays defined
    grid, pair = grid_and_pair(64)
    lo, hi = 1.7, np.nextafter(1.7, 2.0)
    diagram = trace_branches(grid, ModelParams(mu=lo), np.linspace(lo, hi, 5), eigenpair=pair)
    assert diagram.truncated_at is None
    assert 2.0 * lo > diagram.gamma0
    plus = [(q.mu, q.beta, q.energy) for q in diagram.points if q.branch == "plus"]
    minus = [(q.mu, -q.beta, q.energy) for q in diagram.points if q.branch == "minus"]
    assert len(plus) == 5 and plus == minus
    assert all(beta > 0.0 for _, beta, _ in plus)
