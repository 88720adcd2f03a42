"""Branch structure of minimizers across the instability threshold.

Below mu = gamma0/2 only the trivial profile minimizes.  Just above, two
nontrivial branches open with leading amplitude beta = +-sqrt(delta/cbar),
delta = 2 mu - gamma0, where cbar is the projected cubic coefficient of the
Euler operator at the threshold eigenprofile.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .eigen import EigenPair, smallest_eigenpair
from .grid import RadialGrid, integrate
from .operators import ModelParams, Profile
from .solver import SolveReport, minimize

__all__ = [
    "BranchPoint",
    "BifurcationDiagram",
    "cbar",
    "trace_branches",
    "detected_threshold",
    "amplitude_fit_slope",
]

_BRANCH_ORDER = {"trivial": 0, "plus": 1, "minus": 2}
DELTA0 = 0.5  # no nontrivial point may appear at mu <= gamma0/2 - DELTA0


@dataclass(frozen=True)
class BranchPoint:
    """One solution on one branch: amplitude beta = <h, phi0> in r dr."""

    mu: float
    branch: str
    beta: float
    energy: float
    profile_id: str

    def __post_init__(self):
        if self.branch not in _BRANCH_ORDER:
            raise ValueError(f"unknown branch {self.branch!r}")


@dataclass(frozen=True)
class BifurcationDiagram:
    """Traced branch points, sorted by mu then branch, with stored profiles.

    truncated_at records the first mu where continuation failed, if any.
    """

    gamma0: float
    cbar: float
    points: tuple[BranchPoint, ...]
    profiles: dict[str, Profile]
    mu_step: float
    truncated_at: float | None = None


def cbar(phi0: Profile, p: ModelParams) -> float:
    """Projected cubic coefficient int [-(2/3) phi^4/r + (16/3) mu phi^4 r] dr.

    Positive for mu >= gamma0/8, which makes the threshold crossing a
    supercritical pitchfork.
    """
    grid = phi0.grid
    v = phi0.values
    f = np.zeros_like(v)
    f[1:] = -(2.0 / 3.0) * v[1:] ** 4 / grid.r_squared + (16.0 / 3.0) * p.mu * v[1:] ** 4
    return integrate(grid, f)


def trace_branches(
    grid: RadialGrid,
    params: ModelParams,
    mu_lo: float,
    mu_hi: float,
    steps: int,
    *,
    init_eps: float = 0.1,
    eigenpair: EigenPair | None = None,
) -> BifurcationDiagram:
    """Natural-parameter continuation over [mu_lo, mu_hi] with `steps` points.

    Every step records the trivial branch.  Each step is solved by minimize
    seeded with the previous nontrivial profile (or the scaled eigenprofile
    when entering the supercritical range); the minus branch is the negation
    of the plus branch, with the same energy, since E is even bit for bit.
    If a step fails to converge the diagram is truncated there and the
    failure mu recorded.  A nontrivial minimizer at mu <= gamma0/2 - DELTA0
    raises RuntimeError.
    """
    if not (np.isfinite(mu_lo) and np.isfinite(mu_hi) and mu_lo < mu_hi):
        raise ValueError(f"need mu_lo < mu_hi, got [{mu_lo}, {mu_hi}]")
    if steps < 2:
        raise ValueError("need at least 2 sweep steps")

    if eigenpair is None:
        eigenpair = smallest_eigenpair(grid)
    threshold = eigenpair.gamma0 / 2.0
    cb = cbar(eigenpair.phi0, replace(params, mu=threshold))

    mus = np.linspace(mu_lo, mu_hi, steps)
    zero = Profile(grid, np.zeros_like(grid.nodes))
    points: list[BranchPoint] = []
    profiles: dict[str, Profile] = {"trivial": zero}
    prev: Profile | None = None
    truncated_at: float | None = None

    for i, mu in enumerate(map(float, mus)):
        points.append(BranchPoint(mu, "trivial", 0.0, 0.0, "trivial"))
        report: SolveReport = minimize(
            grid, replace(params, mu=mu), init=prev, eigenpair=eigenpair, init_eps=init_eps
        )
        if not report.converged:
            truncated_at = mu
            break
        if report.trivial or report.energy >= -1e-11:
            prev = None
            continue
        h = report.minimizer
        if mu <= threshold - DELTA0:
            raise RuntimeError(
                f"nontrivial minimizer at mu={mu}, below threshold {threshold} "
                f"by more than the margin {DELTA0}"
            )
        beta = integrate(grid, h.values * eigenpair.phi0.values)
        if beta < 0.0:
            h = Profile(grid, -h.values)
            beta = -beta
        neg = Profile(grid, -h.values)
        pid = f"{i:04d}"
        profiles[f"{pid}:plus"] = h
        profiles[f"{pid}:minus"] = neg
        points.append(BranchPoint(mu, "plus", beta, report.energy, f"{pid}:plus"))
        points.append(BranchPoint(mu, "minus", -beta, report.energy, f"{pid}:minus"))
        prev = h

    points.sort(key=lambda q: (q.mu, _BRANCH_ORDER[q.branch]))
    return BifurcationDiagram(
        gamma0=eigenpair.gamma0,
        cbar=cb,
        points=tuple(points),
        profiles=profiles,
        mu_step=float(mus[1] - mus[0]),
        truncated_at=truncated_at,
    )


def detected_threshold(diagram: BifurcationDiagram) -> float | None:
    """Smallest mu carrying a nontrivial point, or None if all trivial."""
    nontrivial = [q.mu for q in diagram.points if q.branch != "trivial"]
    return min(nontrivial) if nontrivial else None


def amplitude_fit_slope(diagram: BifurcationDiagram) -> float | None:
    """Log-log slope of beta against delta = 2 mu - gamma0 on the plus branch."""
    deltas = []
    betas = []
    for q in diagram.points:
        if q.branch == "plus" and q.beta > 0.0:
            delta = 2.0 * q.mu - diagram.gamma0
            if delta > 0.0:
                deltas.append(delta)
                betas.append(q.beta)
    if len(deltas) < 2:
        return None
    slope = np.polyfit(np.log(np.asarray(deltas)), np.log(np.asarray(betas)), 1)[0]
    return float(slope)
