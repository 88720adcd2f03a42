import numpy as np
import pytest

from magnetodisk import (
    BranchPoint,
    ModelParams,
    Profile,
    build_grid,
    cbar,
    detected_threshold,
    amplitude_fit_slope,
    smallest_eigenpair,
    trace_branches,
)

from oracles import CBAR_CONTINUUM


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


def _threshold_params(pair):
    return ModelParams(mu=pair.gamma0 / 2.0)


def test_cubic_coefficient_is_positive_at_threshold(pair256):
    assert cbar(pair256.phi0, _threshold_params(pair256)) > 0.0


def test_cubic_coefficient_matches_quadrature_oracle():
    grid = build_grid(2048, 2.0)
    pair = smallest_eigenpair(grid)
    cb = cbar(pair.phi0, _threshold_params(pair))
    assert abs(cb - CBAR_CONTINUUM) <= 1e-4  # measured 8.6e-6


def test_cubic_coefficient_is_quartically_homogeneous(grid256, pair256):
    p = _threshold_params(pair256)
    base = cbar(pair256.phi0, p)
    t = 1.7
    scaled = cbar(Profile(grid256, t * pair256.phi0.values), p)
    assert abs(scaled - t**4 * base) <= 1e-12 * abs(t**4 * base)


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


def test_trace_rejects_bad_ranges(grid256):
    p = ModelParams(mu=1.0)
    with pytest.raises(ValueError):
        trace_branches(grid256, p, 2.0, 1.0, 5)
    with pytest.raises(ValueError):
        trace_branches(grid256, p, 1.0, 2.0, 1)


def test_trace_below_threshold_is_all_trivial(grid256, pair256):
    thr = pair256.gamma0 / 2.0
    diagram = trace_branches(
        grid256, ModelParams(mu=0.2), 0.2, thr - 0.3, 5, eigenpair=pair256
    )
    assert all(q.branch == "trivial" for q in diagram.points)
    assert all(q.energy == 0.0 and q.beta == 0.0 for q in diagram.points)
    assert detected_threshold(diagram) is None
    assert amplitude_fit_slope(diagram) is None


@pytest.fixture(scope="module")
def straddling_diagram(grid256, pair256):
    thr = pair256.gamma0 / 2.0
    return trace_branches(
        grid256, ModelParams(mu=thr - 0.2), thr - 0.2, thr + 0.3, 11,
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
        h = straddling_diagram.profiles[q.profile_id]
        neg = straddling_diagram.profiles[minus[mu].profile_id]
        assert np.array_equal(neg.values, -h.values)


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
        trace_branches(grid256, ModelParams(mu=thr), thr - 0.05, thr + 0.15, 5,
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
        grid256, ModelParams(mu=thr), thr + 0.01, thr + 0.25, 8, eigenpair=pair256
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
        grid256, ModelParams(mu=thr, max_iter=1), thr - 0.1, thr + 0.3, 5,
        eigenpair=pair256,
    )
    assert diagram.truncated_at is not None
    assert diagram.truncated_at > thr
    assert all(q.branch == "trivial" for q in diagram.points)


def test_branch_point_rejects_unknown_branch():
    with pytest.raises(ValueError):
        BranchPoint(mu=1.0, branch="sideways", beta=0.0, energy=0.0, profile_id="x")
