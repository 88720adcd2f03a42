"""Reference values computed apart from the magnetodisk package.

* gamma0 = j'_{1,1}^2, the square of the first positive root of J1', from the
  power series of J1' and bisection.
* The minimal continuum energy at a given mu, from scipy's ``solve_bvp`` on
  the Euler-Lagrange equation of

      E(h) = pi * int_0^1 [ h_r^2 + (sin h / r)^2 - (mu/2) sin^2(2h) ] r dr,

  followed by adaptive quadrature of E on the collocation interpolant.

Nothing here imports the package, so agreement with it is an independent
check.  Both are recomputed on every benchmark run (about 0.3 s together);
``python3 bench/references.py`` prints them.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad, solve_bvp

# solve_bvp tolerance of the final solve, and the mu steps of the continuation
# that carries the profile from the small-mu branch up to the target mu.
BVP_TOL = 3e-10
_CONTINUATION_STEP = 1.5


def bessel_j1_prime(x: float) -> float:
    """J1'(x) by its power series sum_k (-1)^k (2k+1)/2 (x/2)^(2k) / (k!(k+1)!)."""
    a = 1.0  # (-1)^k (x/2)^(2k) / (k! (k+1)!) at k = 0
    total = 0.5
    k = 0
    while abs(a) > 1e-18:
        a *= -(x * x / 4.0) / ((k + 1) * (k + 2))
        k += 1
        total += a * (2 * k + 1) / 2.0
    return total


def first_j1prime_root() -> float:
    """First positive root of J1', by bisection on [1.5, 2.5] to the last bit."""
    lo, hi = 1.5, 2.5
    f_lo = bessel_j1_prime(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        f_mid = bessel_j1_prime(mid)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid


def gamma0_reference() -> float:
    """Continuum threshold eigenvalue gamma0 = j'_{1,1}^2."""
    root = first_j1prime_root()
    return root * root


def _t_minus_sin_over_cube(t: np.ndarray) -> np.ndarray:
    """(t - sin t) / t^3, by its Taylor series where the quotient cancels."""
    small = np.abs(t) < 0.1
    ts = np.where(small, 1.0, t)
    direct = (ts - np.sin(ts)) / ts**3
    t2 = t * t
    series = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0 - t2**3 / 362880.0
    return np.where(small, series, direct)


def _solve_profile(mu: float, x: np.ndarray, y: np.ndarray, tol: float):
    """Euler-Lagrange equation h_rr + h_r/r - sin(2h)/(2r^2) + (mu/2) sin(4h) = 0
    with h(0) = 0 and h_r(1) = 0, written for u = h/r, which is regular at r = 0:

        u'' = -3 u'/r - 4 u^3 (2ru - sin 2ru)/(2ru)^3 - 2 mu u sinc(4ru),

    so the 1/r term is solve_bvp's singular term S y / r with S = diag(0, -3).
    """
    singular = np.array([[0.0, 0.0], [0.0, -3.0]])

    def rhs(r, y):
        u, du = y
        ru = r * u
        return np.vstack([
            du,
            -4.0 * u**3 * _t_minus_sin_over_cube(2.0 * ru)
            - 2.0 * mu * u * np.sinc(4.0 * ru / np.pi),
        ])

    def bc(ya, yb):
        return np.array([ya[1], yb[0] + yb[1]])  # u'(0) = 0, h_r(1) = u + u' = 0

    sol = solve_bvp(rhs, bc, x, y, S=singular, tol=tol, max_nodes=100000, bc_tol=1e-14)
    if sol.status != 0:
        raise RuntimeError(f"solve_bvp failed at mu={mu}: {sol.message}")
    return sol


def _energy(sol, mu: float) -> float:
    def integrand(r):
        u, du = sol.sol(r)
        dh = u + r * du
        s = u * np.sinc(r * u / np.pi)  # sin(h)/r
        return (dh * dh + s * s - 0.5 * mu * np.sin(2.0 * r * u) ** 2) * r

    with warnings.catch_warnings():
        # quad reports roundoff when it cannot reach 1e-14; the result is
        # still good to about 1e-13 relative, far inside what is judged.
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = quad(integrand, 0.0, 1.0, epsabs=1e-15, epsrel=1e-14, limit=1000)
    return float(np.pi * value)


def minimal_energy(mu: float, tol: float = BVP_TOL) -> float:
    """Continuum minimal energy at mu (mu above the threshold, up to about 50).

    The nontrivial minimizer is reached by natural continuation from mu = 2,
    starting from the constant guess u = 1 (h = r); intermediate steps use a
    loose tolerance and only the final solve uses ``tol``.
    """
    if not 2.0 <= mu <= 50.0:
        raise ValueError(f"reference energies cover 2 <= mu <= 50, got {mu}")
    x = np.linspace(0.0, 1.0, 51)
    y = np.vstack([np.ones_like(x), np.zeros_like(x)])
    steps = [2.0]
    while steps[-1] * _CONTINUATION_STEP < mu:
        steps.append(steps[-1] * _CONTINUATION_STEP)
    if steps[-1] != mu:
        steps.append(mu)
    for m in steps[:-1]:
        sol = _solve_profile(m, x, y, 1e-6)
        x, y = sol.x, sol.y
    sol = _solve_profile(mu, x, y, tol)
    if not sol.y[0, 0] > 0.0:
        raise RuntimeError(f"solve_bvp found the trivial profile at mu={mu}")
    return _energy(sol, mu)


if __name__ == "__main__":
    print(f"gamma0 = {gamma0_reference()!r}")
    for mu in (2.0, 20.0):
        print(f"E_min(mu={mu}) = {minimal_energy(mu)!r}")
