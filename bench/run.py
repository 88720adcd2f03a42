"""Benchmark of the magnetodisk CLI and library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree: the package is imported from ./src.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the environment.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  See bench/README.md.
"""

import os

# One BLAS thread, set before numpy loads OpenBLAS: with the default thread
# count, small products at n >= 1e4 stall for milliseconds now and then
# during the first second of a process, which makes timings bimodal.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
from numpy.linalg import LinAlgError  # noqa: E402

import references  # noqa: E402
from checks import Failed, Incorrect  # noqa: E402
from stopwatch import Stopwatch  # noqa: E402
from tracing import LAYER_METRICS, Tracer, layer_metrics, median_metrics, write_spans  # noqa: E402
from workloads import WORKLOADS, References, bytes_written, climb_ladder, run_pass  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5  # timed fresh interpreters per run, after one warm-up


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package():
    """Import magnetodisk from ./src and nowhere else."""
    if not (SRC / "magnetodisk" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'magnetodisk'}; "
                         "run from the root of a magnetodisk source tree")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("magnetodisk")
    if Path(package.__file__).resolve().parent != (SRC / "magnetodisk").resolve():
        raise SystemExit(f"error: magnetodisk was imported from {package.__file__}")
    return package


def environment() -> dict:
    def blas(config):
        dep = config["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "cpu_count": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def setup_seconds(first_n: int) -> tuple[float, float]:
    """Median time of a fresh interpreter that imports magnetodisk.cli and
    builds the workload's first grid, as every CLI invocation does first:
    rescaled to the reference speed, and raw."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = ("import magnetodisk.cli\n"
            "from magnetodisk.grid import build_grid\n"
            f"build_grid({first_n})\n")
    argv = [sys.executable, "-c", code]
    subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=120)  # may compile bytecode
    watches = []
    for _ in range(SETUP_SAMPLES):
        watch = Stopwatch()
        with watch.interval():
            subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=120)
        watches.append(watch)
    return median(w.scaled for w in watches), median(w.raw for w in watches)


def main(argv=None) -> int:
    args = _parse_args(argv)
    # Probes and timed work run on one CPU, so that a probe sees the state the
    # work ran in.  Child interpreters inherit the pinning.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    package = _import_package()
    from magnetodisk import cli

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    if not args.seconds > 0:
        raise SystemExit("error: --seconds must be positive")
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    out_dir = OUT / workload.name / f"seed{args.seed}"
    shutil.rmtree(out_dir, ignore_errors=True)

    refs = References(
        gamma0=references.gamma0_reference(),
        energy={mu: references.minimal_energy(mu) for mu in (2.0, 20.0)},
    )
    setup_s, setup_raw = (None, None) if trace else setup_seconds(workload.first_n)

    # The seed orders the invocations of each pass and is passed on as --seed;
    # the set of invocations, and so the work, is the same for every seed.
    rng = random.Random(args.seed)
    tracer = Tracer() if trace else None
    # times at the reference speed, and raw, by kind: "wall", "traced", "tta"
    times = {kind: ([], []) for kind in ("wall", "traced", "tta")}
    per_pass, passes = [], []
    attempted = failed = 0
    problems: list[str] = []

    def judge(fn, *fn_args):
        nonlocal attempted, failed
        attempted += 1
        try:
            return fn(*fn_args)
        except (Failed, RuntimeError, LinAlgError):  # what the package raises on failure
            failed += 1
        except (Incorrect, KeyError, TypeError, ValueError, IndexError) as exc:
            problems.append(f"{type(exc).__name__}: {exc}")
        return None

    def record(kind, watch):
        times[kind][0].append(watch.scaled)
        times[kind][1].append(watch.raw)

    # Round 0 warms caches and lazy imports; its timings are dropped but its
    # outputs are checked like any other.  In trace mode the measured rounds
    # alternate untraced and traced passes, so both see the same drift, and
    # the run ends on a whole pair.
    rounds = 0
    while True:
        measured = rounds > 0
        traced = trace and measured and rounds % 2 == 0
        order = rng.sample(workload.invocations, len(workload.invocations))
        pass_dir = out_dir / "pass"
        entry = cli.main
        if traced:
            tracer.install()
            entry = tracer.wrap("cli.main", cli.main)
        try:
            wall, codes = run_pass(order, pass_dir, args.seed, entry)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            spans = tracer.take()
            passes.append(spans)
            per_pass.append(layer_metrics(spans, bytes_written(pass_dir), wall.scaled / wall.raw))
        if measured:
            record("traced" if traced else "wall", wall)
        for inv in workload.invocations:
            judge(inv.check, pass_dir / inv.label, codes[inv.label], refs)
        for _ in range(workload.ladder.climbs):
            tta = judge(climb_ladder, workload.ladder, refs, package)
            if tta is not None and measured:
                record("tta", tta)
        if not measured:
            start = time.perf_counter()
        rounds += 1
        if (measured and time.perf_counter() - start >= args.seconds
                and not (trace and rounds % 2 == 0)):
            break
    shutil.rmtree(out_dir if not trace else out_dir / "pass", ignore_errors=True)

    def med(kind, raw=False):
        values = times[kind][1 if raw else 0]
        return median(values) if values else None

    if trace:
        write_spans(out_dir / "trace.jsonl", passes)
        metrics = median_metrics(per_pass)
        metrics["trace.overhead_s"] = med("traced") - med("wall")
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    else:
        metrics = {
            "wall_s": med("wall"),
            "tta_s": med("tta"),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"wall_s": "s", "tta_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    for problem in problems[:5]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "environment": environment(),
        "workload": workload.name,
        "seed": args.seed,
        "measured_rounds": rounds - 1,
        "raw_s": {"wall": med("wall", raw=True), "traced_wall": med("traced", raw=True),
                  "tta": med("tta", raw=True), "setup": setup_raw},
    }))
    print(json.dumps({
        "correct": not problems and bool(times["tta"][0]),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
