"""Invariant suite and acceptance gate: one check per shipped guarantee, one
printed verdict line each.  Run with `pytest tests/test_acceptance.py -v -s`
to see the lines.
"""

import json
import time

import numpy as np

from magnetodisk import (
    ModelParams,
    Profile,
    build_grid,
    cbar,
    integrate,
    minimize,
    reconstruct_w,
    smallest_eigenpair,
)
from magnetodisk.cli import main as cli_main
from magnetodisk.operators import energy_of_values, fold_values, gradient_values

import oracles
from oracles import (
    GAMMA0_CONTINUUM,
    check_reduction_identity,
    derivative,
    displacement_equation_residual,
    l2_norm,
    nonlinear_split,
    random_profile,
    verify_trivial_uniqueness,
)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def test_criterion_1_eigenvalue_oracle():
    grid = build_grid(2048, 2.0)
    t0 = time.perf_counter()
    pair = smallest_eigenpair(grid)
    elapsed = time.perf_counter() - t0

    root = oracles.first_j1prime_root()
    assert root * root == GAMMA0_CONTINUUM  # frozen constant guard

    rel = abs(pair.gamma0 - GAMMA0_CONTINUUM) / GAMMA0_CONTINUUM
    ok = rel <= 1e-5 and pair.gamma0 > 1.0 and elapsed < 1.0
    _line(1, ok, f"gamma0={pair.gamma0:.12g} rel_err={rel:.3g} time={elapsed:.3f}s")
    assert ok


def test_criterion_2_threshold_dichotomy(grid256, pair256):
    t0 = time.perf_counter()
    thr = pair256.gamma0 / 2.0

    worst_norm = 0.0
    worst_abs_e = 0.0
    for factor in (0.5, 0.9, 1.0):
        out = verify_trivial_uniqueness(
            grid256, ModelParams(mu=factor * thr), pair256, trials=8, seed=0
        )
        for rep in out["reports"]:
            worst_norm = max(worst_norm, l2_norm(grid256, rep.minimizer.values))
            worst_abs_e = max(worst_abs_e, abs(rep.energy))
    below_ok = worst_norm < 1e-6 and worst_abs_e < 1e-9

    above_ok = True
    worst_e_above = 0.0
    rng = np.random.default_rng(0)
    for bump in (0.05, 0.2):
        p = ModelParams(mu=thr + bump)
        for _ in range(8):
            rep = minimize(grid256, p, init=random_profile(grid256, rng),
                           eigenpair=pair256)
            vals = rep.minimizer.values
            above_ok = above_ok and rep.converged and rep.energy < -1e-6
            above_ok = above_ok and np.all(vals[1:] > 0.0) and np.all(vals[1:] <= np.pi / 2.0)
            worst_e_above = min(worst_e_above, rep.energy)
    elapsed = time.perf_counter() - t0

    ok = below_ok and above_ok and elapsed < 30.0
    _line(2, ok, f"below: norm<={worst_norm:.3g} |E|<={worst_abs_e:.3g}; "
                 f"above: E_min={worst_e_above:.3g}; time={elapsed:.1f}s")
    assert ok


def test_criterion_3_amplitude_law(grid512, pair512):
    gamma0 = pair512.gamma0
    cb = cbar(pair512.phi0, gamma0 / 2.0)
    deltas = []
    ratios = []
    for delta in (0.02, 0.04, 0.08, 0.16):
        mu = (gamma0 + delta) / 2.0
        delta_eff = 2.0 * mu - gamma0
        rep = minimize(grid512, ModelParams(mu=mu), eigenpair=pair512)
        assert rep.converged and not rep.trivial
        beta = integrate(grid512, rep.minimizer.values * pair512.phi0.values)
        deltas.append(delta_eff)
        ratios.append(beta / np.sqrt(delta_eff / cb))

    betas = [r * np.sqrt(d / cb) for r, d in zip(ratios, deltas)]
    slope = float(np.polyfit(np.log(deltas), np.log(betas), 1)[0])
    ok = all(0.9 <= r <= 1.1 for r in ratios[:2]) and abs(slope - 0.5) <= 0.05
    _line(3, ok, f"ratios={[f'{r:.4f}' for r in ratios]} slope={slope:.4f}")
    assert ok


def test_criterion_4_gradient_consistency(grid256):
    p = ModelParams(mu=1.3)
    rng = np.random.default_rng(7)
    t = 1e-5
    worst = 0.0
    for _ in range(20):
        h = random_profile(grid256, rng, amplitude=1.2)
        d = random_profile(grid256, rng, amplitude=1.0)
        fd = (energy_of_values(grid256, h.values + t * d.values, p.mu)
              - energy_of_values(grid256, h.values - t * d.values, p.mu)) / (2.0 * t)
        pairing = 2.0 * np.pi * integrate(grid256, gradient_values(grid256, h.values, p.mu)
                                          * d.values)
        worst = max(worst, abs(pairing - fd) / max(1.0, abs(fd)))
    ok = worst < 1e-6
    _line(4, ok, f"worst relative error {worst:.3g} over 20 profiles")
    assert ok


def test_criterion_5_energy_lower_bound(grid256):
    rng = np.random.default_rng(17)
    worst_slack = np.inf
    for k in range(100):
        mu = rng.uniform(0.0, 4.0)
        if k % 2 == 0:
            h = random_profile(grid256, rng, amplitude=np.pi)
            vals = h.values
        else:
            vals = rng.uniform(-np.pi, np.pi, size=grid256.nodes.size)
            vals[0] = 0.0
        e = energy_of_values(grid256, vals, mu)
        worst_slack = min(worst_slack, e + np.pi * mu / 4.0)
    ok = worst_slack >= -1e-6
    _line(5, ok, f"worst slack above -pi*mu/4 is {worst_slack:.3g}")
    assert ok


def test_criterion_6_fold_and_odd_symmetry(grid256):
    p = ModelParams(mu=2.0)
    rng = np.random.default_rng(23)
    worst = 0.0
    for sign in (1.0, -1.0):
        for _ in range(5):
            # smooth one-signed profile within |h| <= pi/2: the fold acts as
            # one global reflection, which the energy cannot distinguish
            amp = rng.uniform(0.3, 1.5)
            vals = sign * amp * np.sin(np.pi * grid256.nodes) ** 2
            vals[0] = 0.0
            h = Profile(grid256, vals)
            folded = fold_values(h.values)[0]
            worst = max(worst, abs(energy_of_values(grid256, folded, p.mu)
                                   - energy_of_values(grid256, h.values, p.mu)))
    for _ in range(10):
        h = random_profile(grid256, rng, amplitude=np.pi)
        neg = Profile(grid256, -h.values)
        worst = max(worst, abs(energy_of_values(grid256, neg.values, p.mu)
                               - energy_of_values(grid256, h.values, p.mu)))
    ok = worst <= 1e-10
    _line(6, ok, f"worst energy mismatch {worst:.3g}")
    assert ok


def test_criterion_7_operator_split(grid512, pair512):
    p = ModelParams(mu=2.0)

    # identity, absolute tolerance: profiles flat at the origin
    vals = 0.45 * (1.0 - np.cos(np.pi * grid512.nodes)) * np.cos(3.0 * grid512.nodes)
    vals[0] = 0.0
    lap, cub, rem = nonlinear_split(Profile(grid512, vals), p)
    recombined = lap.values + cub.values + rem.values - 2.0 * p.mu * vals
    abs_err = np.abs(recombined - gradient_values(grid512, vals, p.mu)).max()

    # identity, scale-relative tolerance: profiles linear at the origin,
    # where the individual terms carry O(1/r^2) magnitudes
    ramp = np.sin(0.5 * np.pi * grid512.nodes)
    ramp[0] = 0.0
    lap2, cub2, rem2 = nonlinear_split(Profile(grid512, ramp), p)
    recombined2 = lap2.values + cub2.values + rem2.values - 2.0 * p.mu * ramp
    scale = np.maximum.reduce([
        np.ones_like(ramp), np.abs(lap2.values), np.abs(cub2.values),
        np.abs(rem2.values), np.abs(2.0 * p.mu * ramp),
    ])
    rel_err = (np.abs(recombined2 - gradient_values(grid512, ramp, p.mu)) / scale).max()

    # exact cubic homogeneity for power-of-two scalings
    rng = np.random.default_rng(29)
    base = np.sin(1.5 * np.pi * grid512.nodes) * rng.uniform(0.5, 1.0)
    base[0] = 0.0
    _, cub_base, _ = nonlinear_split(Profile(grid512, base), p)
    homog = all(
        np.array_equal(
            nonlinear_split(Profile(grid512, t * base), p)[1].values,
            t**3 * cub_base.values,
        )
        for t in (-2.0, 0.5)
    )

    p_thr = ModelParams(mu=pair512.gamma0 / 2.0)
    scaled_norms = []
    for eps in (0.1, 0.05, 0.025):
        _, _, rem_eps = nonlinear_split(
            Profile(grid512, eps * pair512.phi0.values), p_thr
        )
        scaled_norms.append(l2_norm(grid512, rem_eps.values) / eps**3)
    decays = [a / b for a, b in zip(scaled_norms, scaled_norms[1:])]

    cb = cbar(pair512.phi0, p_thr.mu)
    ok = (abs_err <= 1e-12 and rel_err <= 1e-12 and homog
          and all(d >= 3.0 for d in decays) and cb > 0.0)
    _line(7, ok, f"abs={abs_err:.3g} rel={rel_err:.3g} homogeneous={homog} "
                 f"decay={[f'{d:.2f}' for d in decays]} cbar={cb:.4f}")
    assert ok


def test_criterion_8_reduction_identity(minimizer256):
    assert minimizer256.converged
    err = check_reduction_identity(minimizer256.minimizer, samples=100)
    ok = err <= 1e-4
    _line(8, ok, f"max |grad m|^2 mismatch {err:.3g} at 100 points")
    assert ok


def test_criterion_9_displacement_reconstruction(minimizer256, minimizer512):
    lam = 2.0
    norms = []
    checks = []
    for rep in (minimizer256, minimizer512):
        h = rep.minimizer
        n = h.grid.n
        w = reconstruct_w(h, lam)
        res = displacement_equation_residual(h, w, lam)
        wt = h.grid.weights[1:-1]
        rnorm = float(np.sqrt(np.sum(wt * res * res)))
        norms.append(rnorm)
        checks.append(
            w.values[-1] == 0.0
            and abs(derivative(h.grid, w.values)[0]) < (2.0 / n) ** 2
        )
    ok = all(checks) and norms[0] < 5e-4 and norms[1] < norms[0] / 1.4
    _line(9, ok, f"residual norms {norms[0]:.3g} -> {norms[1]:.3g}, "
                 f"w(1)=0 and w_r(0) at truncation level: {all(checks)}")
    assert ok


def test_criterion_10_deterministic_outputs(tmp_path):
    jobs = [
        ("eigen", "--n", "96"),
        ("minimize", "--mu", "2.5", "--n", "64"),
        ("sweep", "--mu-range", "1.5:2.0:4", "--n", "64"),
    ]
    identical = True
    for i, job in enumerate(jobs):
        dirs = [tmp_path / f"{i}_{k}" for k in (0, 1)]
        for d in dirs:
            assert cli_main([*job, "--out", str(d)]) == 0
        names = sorted(q.name for q in dirs[0].iterdir())
        assert names == sorted(q.name for q in dirs[1].iterdir())
        for name in names:
            identical = identical and (
                (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
            )
    _line(10, identical, f"{len(jobs)} commands rerun bit-identically")
    assert identical
