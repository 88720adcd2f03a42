"""Properties the outputs of magnetodisk must have.

Every check raises ``Incorrect`` when an output is wrong, or ``Failed`` when
the program itself reports a failure or breaks the contract of its report
(a nonzero exit code, a ``converged`` solve whose residual is above tol).
A failed operation is counted, not judged: ``correct`` in the benchmark
result speaks of the operations that did not fail.
"""

from __future__ import annotations

import math

import numpy as np

# Leading constants C of the second-order bounds |x_n - x_ref| / |x_ref| <= C / n^2.
# Each is about twice the largest n^2-scaled relative error measured on the
# workload ladders when the benchmark was added (gamma0: 1.9 at n = 65536,
# where roundoff starts to show; E at mu = 2: 15.6; E at mu = 20: 1.04), so an
# error of the same order but twice that size, or one of lower order, is
# rejected.
ORDER2_GAMMA0 = 4.0
ORDER2_ENERGY = {2.0: 32.0, 20.0: 2.5}

SLOPE_TOL = 0.05  # amplitude law beta ~ delta^(1/2); measured 0.480 at n = 4096
UNIT_TOL = 1e-12  # max | |m|^2 - 1 | over the lattice
RIM_TOL = 1e-14  # |w| at the lattice points on r = 1, relative to max |w|


class Incorrect(Exception):
    """An output of a successful operation violates a required property."""


class Failed(Exception):
    """The operation failed: nonzero exit or a broken report contract."""


def exit_ok(code: int, what: str) -> None:
    if code != 0:
        raise Failed(f"{what}: exit code {code}")


def residual_within_tol(converged: bool, residual: float, tol: float, what: str) -> None:
    """A solve reported as converged must have residual <= tol."""
    if not converged:
        raise Failed(f"{what}: not converged (residual {residual:.3g})")
    if not residual <= tol:
        raise Failed(f"{what}: converged=true with residual {residual:.3g} > tol {tol:g}")


def within_order2(value: float, ref: float, n: int, const: float, what: str) -> float:
    """Relative error against the reference within const / n^2; returns it."""
    rel = abs(value - ref) / abs(ref)
    if not rel <= const / n**2:
        raise Incorrect(
            f"{what}: relative error {rel:.3e} at n={n} exceeds the "
            f"second-order bound {const:g}/n^2 = {const / n**2:.3e}"
        )
    return rel


def energy_above_bound(energy: float, mu: float, what: str) -> None:
    """E >= -pi mu / 4 holds for every profile, discrete or continuum."""
    if not energy >= -math.pi * mu / 4.0:
        raise Incorrect(f"{what}: energy {energy!r} below -pi*mu/4 at mu={mu}")


def nonnegative_mode(r: np.ndarray, phi: np.ndarray, n: int, what: str) -> None:
    """Threshold mode on n+1 nodes from r = 0 to 1, pinned at 0, nonnegative."""
    if r.shape != (n + 1,) or phi.shape != (n + 1,):
        raise Incorrect(f"{what}: expected {n + 1} rows, got {r.shape[0]}")
    if r[0] != 0.0 or r[-1] != 1.0 or not np.all(np.diff(r) > 0.0):
        raise Incorrect(f"{what}: nodes are not increasing from 0 to 1")
    if phi[0] != 0.0 or not phi.min() >= 0.0:
        raise Incorrect(f"{what}: mode not pinned at 0 or not nonnegative")


def same_table(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape or not np.array_equal(a, b):
        raise Incorrect(f"{what}: the csv and json tables differ")


def branch_onset(points: list[tuple[float, str, float, float]], gamma0: float,
                 mu_step: float, what: str) -> None:
    """No nontrivial point below gamma0/2, the first one within one mu_step above."""
    threshold = gamma0 / 2.0
    nontrivial = [mu for mu, branch, _, _ in points if branch != "trivial"]
    if not nontrivial:
        raise Incorrect(f"{what}: no nontrivial point in the sweep")
    early = [mu for mu in nontrivial if mu < threshold]
    if early:
        raise Incorrect(f"{what}: nontrivial point at mu={early[0]} below gamma0/2={threshold}")
    if not min(nontrivial) <= threshold + mu_step:
        raise Incorrect(
            f"{what}: detected threshold {min(nontrivial)} more than one step "
            f"{mu_step} above gamma0/2={threshold}"
        )


def minus_mirrors_plus(points: list[tuple[float, str, float, float]], what: str) -> None:
    """At each mu the minus point is the plus point negated, bit for bit."""
    plus = {mu: (beta, e) for mu, branch, beta, e in points if branch == "plus"}
    minus = {mu: (beta, e) for mu, branch, beta, e in points if branch == "minus"}
    if set(plus) != set(minus):
        raise Incorrect(f"{what}: plus and minus branches cover different mu")
    for mu, (beta, e) in plus.items():
        m_beta, m_e = minus[mu]
        if m_beta != -beta or m_e != e:
            raise Incorrect(f"{what}: minus point at mu={mu} is not the negated plus point")


def amplitude_slope(slope: float | None, what: str) -> None:
    """Log-log slope of beta against 2 mu - gamma0 near the square-root law."""
    if slope is None or not abs(slope - 0.5) <= SLOPE_TOL:
        raise Incorrect(f"{what}: amplitude-law slope {slope} not within {SLOPE_TOL} of 1/2")


def unit_magnetization(m: np.ndarray, what: str) -> None:
    dev = float(np.max(np.abs(np.sum(m * m, axis=1) - 1.0)))
    if not dev <= UNIT_TOL:
        raise Incorrect(f"{what}: |m|^2 deviates from 1 by {dev:.3e}")


def pinned_profile(h: np.ndarray, w: np.ndarray, what: str) -> None:
    """Minimizer profile: h(0) = 0 and w(1) = 0, both exact by construction."""
    if h[0] != 0.0 or w[-1] != 0.0:
        raise Incorrect(f"{what}: h(0)={h[0]!r}, w(1)={w[-1]!r}; both must be 0")


def rim_displacement(w_rim: np.ndarray, w_all: np.ndarray, what: str) -> None:
    """w = 0 at the lattice points on the rim r = 1."""
    if w_rim.size == 0:
        raise Incorrect(f"{what}: no lattice point on the rim")
    scale = max(1.0, float(np.max(np.abs(w_all))))
    if not float(np.max(np.abs(w_rim))) <= RIM_TOL * scale:
        raise Incorrect(f"{what}: w on the rim is {np.max(np.abs(w_rim)):.3e}, not 0")
