"""Self-test of the benchmark's references and checks.

    python3 bench/selftest.py

Run from the root of a source tree.  It runs one pass of every workload,
requires every check to accept the real outputs (and the two known faults of
strong_coupling to count as failed), then perturbs one value at a time and
requires the check that guards it to reject it.  Exits 1 if anything is off.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
from scipy.special import jnp_zeros  # noqa: E402

import checks  # noqa: E402
import references  # noqa: E402
from checks import Failed, Incorrect  # noqa: E402
from run import OUT, _import_package  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_TOL,
    WORKLOADS,
    Ladder,
    References,
    climb_ladder,
    read_diagram,
    read_json,
    read_numeric_table,
    run_pass,
)

KNOWN_FAILED = {"minimize-100", "minimize-1000"}
results: list[tuple[str, bool]] = []


def expect(name: str, fn, *, rejects: bool) -> None:
    try:
        fn()
        ok = not rejects
    except (Incorrect, Failed):
        ok = rejects
    results.append((name, ok))
    print(f"{'ok  ' if ok else 'FAIL'} {'rejects' if rejects else 'accepts'}: {name}")


def bump(x: float) -> float:
    """The next float above x: the smallest possible perturbation."""
    return float(np.nextafter(x, math.inf))


def main() -> int:
    package = _import_package()
    from magnetodisk import cli

    # --- references
    root = references.first_j1prime_root()
    results.append(("series root matches scipy's jnp_zeros",
                    abs(root - jnp_zeros(1, 1)[0]) <= 4e-16 * root))
    refs = References(gamma0=references.gamma0_reference(),
                      energy={mu: references.minimal_energy(mu) for mu in (2.0, 20.0)})
    for mu, e in refs.energy.items():
        loose = references.minimal_energy(mu, tol=10 * references.BVP_TOL)
        results.append((f"reference E(mu={mu:g}) stable under a 10x looser tol",
                        abs(loose - e) <= 1e-10 * abs(e)))
    for name, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")

    # --- real outputs pass
    base = OUT / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    dirs = {}
    for workload in WORKLOADS.values():
        pass_dir = base / workload.name
        _, codes = run_pass(workload.invocations, pass_dir, 0, cli.main)
        for inv in workload.invocations:
            out = pass_dir / inv.label
            dirs[inv.label] = out
            if inv.label in KNOWN_FAILED:
                try:
                    inv.check(out, codes[inv.label], refs)
                    ok = False
                except Failed:
                    ok = True
                results.append((f"{inv.label} counts as failed", ok))
                print(f"{'ok  ' if ok else 'FAIL'} {inv.label} counts as failed")
            else:
                expect(f"{workload.name}/{inv.label} outputs",
                       lambda inv=inv, out=out: inv.check(out, codes[inv.label], refs),
                       rejects=False)
        expect(f"{workload.name} ladder",
               lambda w=workload: climb_ladder(w.ladder, refs, package), rejects=False)

    # --- perturbations, one value at a time, starting from the real outputs
    n = 4096
    gamma0 = read_json(dirs["eigen-4096"] / "eigen.json")["gamma0"]
    expect("gamma0 at twice the second-order bound",
           lambda: checks.within_order2(gamma0 + 2 * checks.ORDER2_GAMMA0 / n**2 * refs.gamma0,
                                        refs.gamma0, n, checks.ORDER2_GAMMA0, "gamma0"),
           rejects=True)
    expect("gamma0 with first-order error",
           lambda: checks.within_order2(refs.gamma0 * (1 + 1.0 / n), refs.gamma0, n,
                                        checks.ORDER2_GAMMA0, "gamma0"), rejects=True)

    report = read_json(dirs["minimize"] / "report.json")
    e2, e_ref = report["energy"], refs.energy[2.0]
    expect("E(mu=2) at twice the second-order bound",
           lambda: checks.within_order2(e_ref * (1 + 2 * checks.ORDER2_ENERGY[2.0] / n**2),
                                        e_ref, n, checks.ORDER2_ENERGY[2.0], "E"), rejects=True)
    expect("E(mu=2) real value within bound",
           lambda: checks.within_order2(e2, e_ref, n, checks.ORDER2_ENERGY[2.0], "E"),
           rejects=False)
    expect("energy just below -pi mu/4",
           lambda: checks.energy_above_bound(
               float(np.nextafter(-math.pi * 2.0 / 4.0, -math.inf)), 2.0, "E"), rejects=True)
    expect("converged with residual above tol",
           lambda: checks.residual_within_tol(True, bump(DEFAULT_TOL), DEFAULT_TOL, "r"),
           rejects=True)
    expect("not converged",
           lambda: checks.residual_within_tol(False, report["residual"], DEFAULT_TOL, "r"),
           rejects=True)
    expect("nonzero exit code", lambda: checks.exit_ok(1, "cli"), rejects=True)

    prof = read_numeric_table(dirs["minimize"], "profile", "csv")
    for col, label in ((1, "h(0)"), (2, "w(1)")):
        bad = prof.copy()
        bad[0 if col == 1 else -1, col] = 5e-324
        expect(f"{label} off zero by the smallest float",
               lambda bad=bad: checks.pinned_profile(bad[:, 1], bad[:, 2], "profile"),
               rejects=True)

    phi = read_numeric_table(dirs["eigen-256"], "phi0", "csv")
    bad = phi.copy()
    bad[128, 1] = -bad[128, 1]
    expect("sign flip in phi0",
           lambda: checks.nonnegative_mode(bad[:, 0], bad[:, 1], 256, "phi0"), rejects=True)
    expect("phi0 with a missing row",
           lambda: checks.nonnegative_mode(phi[:-1, 0], phi[:-1, 1], 256, "phi0"), rejects=True)

    json_dir = dirs["eigen-65536-json"]
    payload = json.loads((json_dir / "phi0.json").read_text())
    payload["rows"][1000][1] = bump(payload["rows"][1000][1])
    twin_dir = base / "perturbed" / "eigen-65536-json"
    twin_dir.mkdir(parents=True)
    shutil.copy(json_dir / "eigen.json", twin_dir / "eigen.json")
    (twin_dir / "phi0.json").write_text(json.dumps(payload))
    shutil.copytree(dirs["eigen-65536"], twin_dir.parent / "eigen-65536")
    json_check = WORKLOADS["threshold"].invocations[-1].check
    expect("json phi0 one ulp off the csv twin",
           lambda: json_check(twin_dir, 0, refs), rejects=True)

    points = read_diagram(dirs["sweep"])
    summary = read_json(dirs["sweep"] / "summary.json")
    g0, step = summary["gamma0"], summary["mu_step"]
    first = min(mu for mu, b, _, _ in points if b != "trivial")
    expect("sweep onset as computed",
           lambda: checks.branch_onset(points, g0, step, "sweep"), rejects=False)
    expect("nontrivial point just below gamma0/2",
           lambda: checks.branch_onset(points, bump(2 * first), step, "sweep"), rejects=True)
    expect("detected threshold more than one step above gamma0/2",
           lambda: checks.branch_onset(points, 2 * (first - step) - 1e-9, step, "sweep"),
           rejects=True)
    for field, label in ((2, "beta"), (3, "energy")):
        bad = copy.deepcopy(points)
        i = next(k for k, p in enumerate(bad) if p[1] == "minus")
        row = list(bad[i])
        row[field] = bump(row[field])
        bad[i] = tuple(row)
        expect(f"minus {label} one ulp off the negated plus",
               lambda bad=bad: checks.minus_mirrors_plus(bad, "sweep"), rejects=True)
    expect("amplitude slope outside 1/2 +- tol",
           lambda: checks.amplitude_slope(0.5 + 1.01 * checks.SLOPE_TOL, "sweep"), rejects=True)
    expect("no amplitude slope", lambda: checks.amplitude_slope(None, "sweep"), rejects=True)

    fields = read_numeric_table(dirs["fields"], "fields", "csv")
    m = fields[:, 2:5].copy()
    m[7] *= 1.0 + 1e-9
    expect("|m| off 1 by 1e-9", lambda: checks.unit_magnetization(m, "fields"), rejects=True)
    rim = np.hypot(fields[:, 0], fields[:, 1]) == 1.0
    expect("w on the rim off 0 by 1e-10",
           lambda: checks.rim_displacement(fields[rim, 5] + 1e-10, fields[:, 5], "fields"),
           rejects=True)

    shifted = References(gamma0=refs.gamma0 * (1 + 1e-6), energy=refs.energy)
    expect("ladder against a reference shifted by 1e-6",
           lambda: climb_ladder(Ladder(None, (256, 512), 1e-8, False, 1), shifted, package),
           rejects=True)
    expect("ladder that cannot reach its target by the cap",
           lambda: climb_ladder(Ladder(20.0, (256, 512), 1e-7, True, 1), refs, package),
           rejects=True)

    shutil.rmtree(base, ignore_errors=True)
    bad = [name for name, ok in results if not ok]
    print(f"{len(results) - len(bad)}/{len(results)} self-test cases pass")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
