"""Spans around the layers of magnetodisk, recorded from outside the package.

The package's modules import what they call by value (``from .grid import
derivative``), so each function is wrapped where it is looked up: in every
module that calls it.  A span is [name, start, end, parent index, extra];
spans stay in memory and are written out when the benchmark ends.  A name
missing from a module (a later refactor may remove it) is skipped, and its
metrics read 0.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median


def _eigen_iterations(pair) -> int:
    return int(getattr(pair, "iterations", 0))


def _solve_counts(report) -> tuple[int, int]:
    """(iterations, accepted steps).  energy_history holds the start energy and
    one entry per accepted step, plus a closing 0.0 when a solve that never
    went below zero is replaced by the trivial profile."""
    history = getattr(report, "energy_history", ())
    accepted = len(history) - 1
    if getattr(report, "trivial", False) and len(history) >= 2 \
            and history[-1] == 0.0 and history[-2] > 0.0:
        accepted -= 1
    return int(report.iterations), max(accepted, 0)


# (module, attribute, span name, extractor of counts from the result)
PATCHES = (
    ("cli", "build_grid", "grid.build_grid", None),
    ("grid", "stiffness_diagonals", "grid.stiffness_diagonals", None),
    ("eigen", "stiffness_diagonals", "grid.stiffness_diagonals", None),
    ("solver", "stiffness_diagonals", "grid.stiffness_diagonals", None),
    ("operators", "stiffness_apply", "grid.stiffness_apply", None),
    ("operators", "derivative", "grid.derivative", None),
    ("solver", "derivative", "grid.derivative", None),
    ("fields", "derivative", "grid.derivative", None),
    ("grid", "integrate", "grid.integrate", None),
    ("operators", "integrate", "grid.integrate", None),
    ("bifurcation", "integrate", "grid.integrate", None),
    ("fields", "integrate", "grid.integrate", None),
    ("cli", "integrate", "grid.integrate", None),
    ("operators", "energy_of_values", "operators.energy", None),
    ("solver", "energy_of_values", "operators.energy", None),
    ("bifurcation", "energy_of_values", "operators.energy", None),
    ("operators", "gradient_values", "operators.gradient", None),
    ("solver", "gradient_values", "operators.gradient", None),
    ("cli", "smallest_eigenpair", "eigen.smallest_eigenpair", _eigen_iterations),
    ("solver", "smallest_eigenpair", "eigen.smallest_eigenpair", _eigen_iterations),
    ("bifurcation", "smallest_eigenpair", "eigen.smallest_eigenpair", _eigen_iterations),
    ("eigen", "assemble_pencil", "eigen.assemble_pencil", None),
    ("solver", "assemble_pencil", "eigen.assemble_pencil", None),
    ("eigen", "cholesky_banded", "lapack.cholesky_banded", None),
    ("solver", "cholesky_banded", "lapack.cholesky_banded", None),
    ("cli", "minimize", "solver.minimize", _solve_counts),
    ("bifurcation", "minimize", "solver.minimize", _solve_counts),
    ("cli", "trace_branches", "bifurcation.trace_branches", None),
    ("cli", "reconstruct_w", "fields.reconstruct_w", None),
    ("cli", "magnetization_grid", "fields.magnetization_grid", None),
)

# per-layer metric -> unit, "better"; every value is per pass of the workload
LAYER_METRICS = {
    "grid.build_grid_s": ("s", "lower"),
    "grid.derivative_s": ("s", "lower"),
    "grid.integrate_s": ("s", "lower"),
    "grid.stiffness_apply_s": ("s", "lower"),
    "grid.stiffness_diagonals_s": ("s", "lower"),
    "operators.energy_calls": ("count", "lower"),
    "operators.energy_s": ("s", "lower"),
    "operators.gradient_calls": ("count", "lower"),
    "operators.gradient_s": ("s", "lower"),
    "eigen.assemble_pencil_calls": ("count", "lower"),
    "eigen.assemble_pencil_s": ("s", "lower"),
    "eigen.smallest_eigenpair_s": ("s", "lower"),
    "eigen.inverse_iterations": ("count", "lower"),
    "eigen.factorizations": ("count", "lower"),
    "solver.minimize_calls": ("count", "lower"),
    "solver.minimize_s": ("s", "lower"),
    "solver.iterations": ("count", "lower"),
    "solver.accepted_per_energy_eval": ("ratio", "higher"),
    "bifurcation.trace_branches_s": ("s", "lower"),
    "bifurcation.steps": ("count", "lower"),
    "bifurcation.iterations_per_step": ("count", "lower"),
    "fields.reconstruct_w_s": ("s", "lower"),
    "fields.magnetization_grid_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, extract=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1], None]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if extract is not None:
                span[4] = extract(out)
            return out

        return traced

    def install(self) -> None:
        for mod_name, attr, name, extract in PATCHES:
            module = importlib.import_module(f"magnetodisk.{mod_name}")
            if hasattr(module, attr):
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, extract))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self) -> list[list]:
        """The spans recorded since the last call, in start order."""
        out = list(self.spans)
        self.spans.clear()
        return out


def layer_metrics(spans: list[list], written: int, time_scale: float) -> dict[str, float]:
    """Self times, call counts and ratios of one traced pass.  Times are
    multiplied by time_scale, the pass's factor to the reference speed."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name] += ((end - start) - child[i]) * time_scale
        calls[name] += 1

    is_minimize = [s[0] == "solver.minimize" for s in spans]
    solves = [s for s in spans if s[0] == "solver.minimize"]
    accepted = sum(s[4][1] for s in solves if s[4])
    solver_evals = sum(1 for s in spans if s[0] == "operators.energy"
                       and s[3] >= 0 and is_minimize[s[3]])
    steps = [s for s in solves if s[3] >= 0 and spans[s[3]][0] == "bifurcation.trace_branches"]
    return {
        "grid.build_grid_s": self_s["grid.build_grid"],
        "grid.derivative_s": self_s["grid.derivative"],
        "grid.integrate_s": self_s["grid.integrate"],
        "grid.stiffness_apply_s": self_s["grid.stiffness_apply"],
        "grid.stiffness_diagonals_s": self_s["grid.stiffness_diagonals"],
        "operators.energy_calls": calls["operators.energy"],
        "operators.energy_s": self_s["operators.energy"],
        "operators.gradient_calls": calls["operators.gradient"],
        "operators.gradient_s": self_s["operators.gradient"],
        "eigen.assemble_pencil_calls": calls["eigen.assemble_pencil"],
        "eigen.assemble_pencil_s": self_s["eigen.assemble_pencil"],
        "eigen.smallest_eigenpair_s": self_s["eigen.smallest_eigenpair"],
        "eigen.inverse_iterations": sum(s[4] or 0 for s in spans
                                        if s[0] == "eigen.smallest_eigenpair"),
        "eigen.factorizations": calls["lapack.cholesky_banded"],
        "solver.minimize_calls": calls["solver.minimize"],
        "solver.minimize_s": self_s["solver.minimize"],
        "solver.iterations": sum(s[4][0] for s in solves if s[4]),
        "solver.accepted_per_energy_eval": accepted / solver_evals if solver_evals else 0.0,
        "bifurcation.trace_branches_s": self_s["bifurcation.trace_branches"],
        "bifurcation.steps": len(steps),
        "bifurcation.iterations_per_step":
            sum(s[4][0] for s in steps if s[4]) / len(steps) if steps else 0.0,
        "fields.reconstruct_w_s": self_s["fields.reconstruct_w"],
        "fields.magnetization_grid_s": self_s["fields.magnetization_grid"],
        "cli.self_s": self_s["cli.main"],
        "cli.bytes_written": written,
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: float(median(p[key] for p in per_pass)) for key in per_pass[0]}


def write_spans(path: Path, passes: list[list[list]]) -> None:
    """One JSON line per span: pass, index, name, start, end, parent, extra."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for k, spans in enumerate(passes):
            for i, (name, start, end, parent, extra) in enumerate(spans):
                fh.write(json.dumps([k, i, name, start, end, parent, extra]) + "\n")
