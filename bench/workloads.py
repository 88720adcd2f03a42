"""The benchmark workloads: the CLI invocations of one pass, the checks on
their outputs, and the time-to-accuracy ladder.

A round of a workload is one pass over its invocations followed by a fixed
number of climbs of its ladder; every run attempts whole rounds.  The reasons for each
workload's make-up are in bench/README.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from checks import (
    ORDER2_ENERGY,
    ORDER2_GAMMA0,
    Failed,
    Incorrect,
    amplitude_slope,
    branch_onset,
    energy_above_bound,
    exit_ok,
    minus_mirrors_plus,
    nonnegative_mode,
    pinned_profile,
    residual_within_tol,
    rim_displacement,
    same_table,
    unit_magnetization,
    within_order2,
)
from stopwatch import Stopwatch

DEFAULT_TOL = 1e-8  # the CLI's documented default --tol


@dataclass(frozen=True)
class References:
    gamma0: float
    energy: dict  # mu -> continuum minimal energy


Check = Callable[[Path, int, References], None]


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Ladder:
    """Doubling ladder of n; mu None climbs gamma0, otherwise the minimal energy.
    climbs is the number of climbs per round: enough that a run collects about
    as many tta_s samples on a short ladder as on a long one."""

    mu: float | None
    ns: tuple[int, ...]
    target: float
    relative: bool
    climbs: int


@dataclass(frozen=True)
class Workload:
    name: str
    first_n: int
    invocations: tuple[Invocation, ...]
    ladder: Ladder


def _doubling(lo: int, hi: int) -> tuple[int, ...]:
    ns = [lo]
    while ns[-1] < hi:
        ns.append(2 * ns[-1])
    return tuple(ns)


def read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise Incorrect(f"{path.name}: unreadable ({exc})") from exc


def read_numeric_table(out: Path, stem: str, fmt: str) -> np.ndarray:
    path = out / f"{stem}.{fmt}"
    if fmt == "json":
        return np.array(read_json(path)["rows"], dtype=float)
    try:
        return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    except (OSError, ValueError) as exc:
        raise Incorrect(f"{path.name}: unreadable ({exc})") from exc


def read_diagram(out: Path) -> list[tuple[float, str, float, float]]:
    with open(out / "diagram.csv", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    return [(float(mu), branch, float(beta), float(e)) for mu, branch, beta, e in rows[1:]]


# ---------------------------------------------------------------- checks


def eigen_check(n: int, fmt: str = "csv", twin: str | None = None) -> Check:
    """gamma0 against j'_{1,1}^2, the mode's shape; a json table must hold the
    same numbers as the csv table written by its twin invocation."""

    def check(out: Path, code: int, refs: References) -> None:
        what = f"eigen n={n} {fmt}"
        exit_ok(code, what)
        within_order2(read_json(out / "eigen.json")["gamma0"], refs.gamma0, n,
                      ORDER2_GAMMA0, what)
        table = read_numeric_table(out, "phi0", fmt)
        nonnegative_mode(table[:, 0], table[:, 1], n, what)
        if twin is not None:
            same_table(table, read_numeric_table(out.parent / twin, "phi0", "csv"), what)

    return check


def minimize_check(mu: float, n: int) -> Check:
    """Report contract, lower bound, reference energy (where there is one), pins."""

    def check(out: Path, code: int, refs: References) -> None:
        what = f"minimize mu={mu:g} n={n}"
        exit_ok(code, what)
        report = read_json(out / "report.json")
        residual_within_tol(report["converged"], report["residual"], DEFAULT_TOL, what)
        energy_above_bound(report["energy"], mu, what)
        if mu in refs.energy:
            within_order2(report["energy"], refs.energy[mu], n, ORDER2_ENERGY[mu], what)
        table = read_numeric_table(out, "profile", "csv")
        pinned_profile(table[:, 1], table[:, 2], what)

    return check


def sweep_check(n: int) -> Check:
    def check(out: Path, code: int, refs: References) -> None:
        what = f"sweep n={n}"
        exit_ok(code, what)
        summary = read_json(out / "summary.json")
        within_order2(summary["gamma0"], refs.gamma0, n, ORDER2_GAMMA0, what)
        points = read_diagram(out)
        for mu, _, _, e in points:
            energy_above_bound(e, mu, what)
        branch_onset(points, summary["gamma0"], summary["mu_step"], what)
        minus_mirrors_plus(points, what)
        amplitude_slope(summary["slope"], what)

    return check


def fields_check(out: Path, code: int, refs: References) -> None:
    what = "fields"
    exit_ok(code, what)
    table = read_numeric_table(out, "fields", "csv")
    x, y, m, w = table[:, 0], table[:, 1], table[:, 2:5], table[:, 5]
    rad = np.hypot(x, y)
    if not np.all(rad <= 1.0):
        raise Incorrect(f"{what}: lattice point outside the disk")
    unit_magnetization(m, what)
    rim_displacement(w[rad == 1.0], w, what)


# ---------------------------------------------------------------- workloads

THRESHOLD_NS = _doubling(256, 65536)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="threshold",
            first_n=256,
            invocations=(
                *(Invocation(f"eigen-{n}", ("eigen", "--n", str(n)), eigen_check(n))
                  for n in THRESHOLD_NS),
                Invocation("eigen-65536-json", ("eigen", "--n", "65536", "--format", "json"),
                           eigen_check(65536, "json", twin="eigen-65536")),
            ),
            ladder=Ladder(mu=None, ns=THRESHOLD_NS, target=1e-8, relative=False, climbs=8),
        ),
        Workload(
            name="bifurcation",
            first_n=4096,
            invocations=(
                Invocation("sweep", ("sweep", "--mu-range", "1.5:2.2:15", "--n", "4096"),
                           sweep_check(4096)),
                Invocation("minimize", ("minimize", "--mu", "2", "--n", "4096"),
                           minimize_check(2.0, 4096)),
                Invocation("fields", ("fields", "--mu", "2", "--n", "4096", "--samples", "41"),
                           fields_check),
            ),
            ladder=Ladder(mu=2.0, ns=_doubling(256, 32768), target=1e-7, relative=True, climbs=2),
        ),
        Workload(
            name="strong_coupling",
            first_n=1024,
            invocations=tuple(
                Invocation(f"minimize-{mu:g}", ("minimize", "--mu", f"{mu:g}", "--n", "1024"),
                           minimize_check(mu, 1024))
                for mu in (20.0, 100.0, 1000.0)
            ),
            ladder=Ladder(mu=20.0, ns=_doubling(256, 16384), target=1e-7, relative=True,
                          climbs=2),
        ),
    )
}


# ---------------------------------------------------------------- running


def run_pass(invocations, pass_dir: Path, seed: int, main) -> tuple[Stopwatch, dict]:
    """Run the invocations in the given order through main; return the time
    of the pass and the exit code of each invocation by label."""
    shutil.rmtree(pass_dir, ignore_errors=True)
    watch = Stopwatch()
    codes = {}
    sink = io.StringIO()  # the CLI reports failures on stderr
    with contextlib.redirect_stderr(sink):
        for inv in invocations:
            argv = [*inv.argv, "--seed", str(seed), "--out", str(pass_dir / inv.label)]
            try:
                with watch.interval():
                    codes[inv.label] = main(argv)
            except Exception:  # a crash fails the invocation, as exit code 1 would
                traceback.print_exc(file=sys.__stderr__)
                codes[inv.label] = 1
    return watch, codes


def bytes_written(pass_dir: Path) -> int:
    return sum(p.stat().st_size for p in pass_dir.rglob("*") if p.is_file())


def climb_ladder(ladder: Ladder, refs: References, lib) -> Stopwatch:
    """Time of build_grid plus the solve, summed over the rungs up to the first
    one within the target.  Raises Failed if the cap is reached first."""
    ref = refs.gamma0 if ladder.mu is None else refs.energy[ladder.mu]
    watch = Stopwatch()
    for n in ladder.ns:
        with watch.interval():
            grid = lib.build_grid(n)
            pair = lib.smallest_eigenpair(grid)
            if ladder.mu is not None:
                report = lib.minimize(grid, lib.ModelParams(mu=ladder.mu), eigenpair=pair)

        what = f"ladder n={n}"
        if ladder.mu is None:
            value = pair.gamma0
            within_order2(value, ref, n, ORDER2_GAMMA0, what)
        else:
            value = report.energy
            residual_within_tol(report.converged, report.residual, DEFAULT_TOL, what)
            energy_above_bound(value, ladder.mu, what)
            within_order2(value, ref, n, ORDER2_ENERGY[ladder.mu], what)
        err = abs(value - ref) / (abs(ref) if ladder.relative else 1.0)
        if err <= ladder.target:
            return watch
    raise Failed(f"ladder reached its cap n={ladder.ns[-1]} without error <= {ladder.target:g}")
