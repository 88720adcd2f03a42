"""Branch structure of minimizers across the instability threshold.

Below mu = gamma0/2 only the trivial profile minimizes, and on the grid this
is exact, not a search result.  With u = sin h, sin is 1-Lipschitz on every
P1 cell, so the exchange term of u is at most that of h, and
(mu/2) sin^2 2h <= 2 mu sin^2 h pointwise; the Rayleigh quotient of the
threshold pencil then gives

    E_h(h) >= pi (gamma0 - 2 mu) sum_i w_i sin^2 h_i,

with gamma0 the discrete eigenvalue of the pencil the energy uses.  Just
above, two nontrivial branches open with leading amplitude
beta = +-sqrt(delta/cbar), delta = 2 mu - gamma0, where cbar is the projected
cubic coefficient of the Euler operator at the threshold eigenprofile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .eigen import EigenPair
from .grid import RadialGrid, integrate
from .operators import ModelParams, Profile
from .solver import minimize

__all__ = [
    "BranchPoint",
    "BifurcationDiagram",
    "trace_branches",
    "detected_threshold",
    "amplitude_fit_slope",
]

_BRANCH_ORDER = {"trivial": 0, "plus": 1, "minus": 2}


@dataclass(frozen=True)
class BranchPoint:
    """One solution on one branch: amplitude beta = <h, phi0> in r dr."""

    mu: float
    branch: str
    beta: float
    energy: float

    def __post_init__(self):
        if self.branch not in _BRANCH_ORDER:
            raise ValueError(f"unknown branch {self.branch!r}")


@dataclass(frozen=True)
class BifurcationDiagram:
    """Traced branch points, sorted by mu then branch.

    truncated_at records the first mu where continuation failed, if any.
    """

    gamma0: float
    cbar: float
    points: tuple[BranchPoint, ...]
    mu_step: float
    truncated_at: float | None = None


def trace_branches(
    grid: RadialGrid,
    params: ModelParams,
    mus: np.ndarray,
    *,
    eigenpair: EigenPair,
    init: Profile | None = None,
) -> BifurcationDiagram:
    """Natural-parameter continuation over the given mu values.

    mus is 1-D, at least 2 finite values, non-decreasing, the first below
    the last, and none negative, as ModelParams requires of mu; mu_step is
    mus[1] - mus[0].  params supplies the tol and max_iter of every step;
    its mu is not read.  Every step records the trivial branch.  At mu <= gamma0/2 that is all:
    the module's bound makes E_h > 0 there for every h != 0, so no minimize
    runs.  Above it, each step is one minimize call with the grid's
    threshold eigenpair (another grid's is a ValueError), and minimize
    never reports h = 0 converged there, so a converged step records the
    plus and minus points.  A step
    entering the supercritical range starts from init, else from minimize's
    default start.  Every later step starts from a predictor in
    s = sqrt(2 mu - gamma0), the variable in which the pitchfork branch is a
    smooth curve through (s, h) = (0, 0): the Lagrange extrapolant through
    the last three known points of the plus branch, with the bifurcation
    point as the first of them (see _predict); a step whose s repeats the
    last known one replaces it.  The minus branch is the negation of the
    plus branch, with the same energy, since E is even bit for bit.  If a
    step fails to converge, next to the threshold too, where minimize
    cannot certify the branch, the diagram is truncated there and that mu
    recorded.
    """
    mus = np.asarray(mus, dtype=np.float64)
    if not (mus.ndim == 1 and mus.size >= 2 and np.isfinite(mus).all()
            and (mus[1:] >= mus[:-1]).all() and mus[0] < mus[-1]):
        raise ValueError("need mus 1-D, at least 2 finite values, non-decreasing, "
                         "the first below the last")
    replace(params, mu=float(mus[0]))  # ModelParams' range rule for mu
    if eigenpair.phi0.grid is not grid:
        raise ValueError("eigenpair lives on a different grid")
    if init is not None and init.grid is not grid:
        raise ValueError("init profile lives on a different grid")

    threshold = eigenpair.gamma0 / 2.0

    points: list[BranchPoint] = []
    # the last three known (s, plus-branch values) of the current branch,
    # from the bifurcation point (0, 0) on, strictly increasing in s
    known: list[tuple[float, np.ndarray]] = []
    truncated_at: float | None = None

    for mu in map(float, mus):
        points.append(BranchPoint(mu, "trivial", 0.0, 0.0))
        if mu <= threshold:
            continue  # certified trivial
        # 2 mu > gamma0 exactly, since doubling is exact: s > 0
        s = math.sqrt(2.0 * mu - eigenpair.gamma0)
        start = _predict(grid, known, s) if known else init
        report = minimize(grid, replace(params, mu=mu), start, eigenpair=eigenpair)
        if not report.converged:  # above gamma0/2 a converged run is nontrivial
            truncated_at = mu
            break
        h = report.minimizer.values
        beta = integrate(grid, h * eigenpair.phi0.values)
        if beta < 0.0:
            h = -h
            beta = -beta
        points.append(BranchPoint(mu, "plus", beta, report.energy))
        points.append(BranchPoint(mu, "minus", -beta, report.energy))
        if not known:
            known.append((0.0, np.zeros_like(h)))
        elif known[-1][0] == s:  # mu values closer than float spacing repeat s
            known.pop()
        known.append((s, h))
        del known[:-3]

    points.sort(key=lambda q: (q.mu, _BRANCH_ORDER[q.branch]))
    return BifurcationDiagram(
        gamma0=eigenpair.gamma0,
        cbar=eigenpair.threshold_cbar,
        points=tuple(points),
        mu_step=float(mus[1] - mus[0]),
        truncated_at=truncated_at,
    )


def _predict(grid: RadialGrid, known: list[tuple[float, np.ndarray]], s: float) -> Profile:
    """Lagrange extrapolant at s through the known points, at most three.

    With one solution h_1 besides the bifurcation point this is
    (s / s_1) h_1, the amplitude law beta ~ s; from two on it is quadratic
    in s.  The s_k increase strictly, so no denominator vanishes.
    """
    values = np.zeros_like(known[0][1])
    for j, (sj, hj) in enumerate(known):
        weight = 1.0
        for m, (sm, _) in enumerate(known):
            if m != j:
                weight *= (s - sm) / (sj - sm)
        values += weight * hj
    values[0] = 0.0  # h(0) = 0, and never -0.0
    return Profile(grid, values)


def detected_threshold(diagram: BifurcationDiagram) -> float | None:
    """Smallest mu carrying a nontrivial point, or None if all trivial."""
    nontrivial = [q.mu for q in diagram.points if q.branch != "trivial"]
    return min(nontrivial) if nontrivial else None


def amplitude_fit_slope(diagram: BifurcationDiagram) -> float | None:
    """Least-squares slope of log beta against log delta, delta = 2 mu - gamma0,
    on the plus branch; None unless the log deltas span more than their own
    rounding error.

    Each x = log delta carries an error of about eps * (2 mu / delta + |x|):
    the subtraction loses up to eps * 2 mu of delta, the log rounds x.  Two
    xs closer than twice the largest of these may differ by roundoff alone,
    and a slope fitted to them is roundoff over roundoff.  The logs are
    libm's (math.log), not numpy's SIMD kernel, so the slope does not depend
    on the CPU.
    """
    eps = math.ulp(1.0)
    xs = []
    ys = []
    noise = 0.0
    for q in diagram.points:
        if q.branch == "plus" and q.beta > 0.0:
            delta = 2.0 * q.mu - diagram.gamma0
            if delta > 0.0:
                x = math.log(delta)
                xs.append(x)
                ys.append(math.log(q.beta))
                noise = max(noise, eps * (2.0 * q.mu / delta + abs(x)))
    if not xs or max(xs) - min(xs) <= 2.0 * noise:
        return None
    x_mean = sum(xs) / len(xs)
    y_mean = sum(ys) / len(ys)
    dxs = [x - x_mean for x in xs]
    return sum(dx * (y - y_mean) for dx, y in zip(dxs, ys)) / sum(dx * dx for dx in dxs)
