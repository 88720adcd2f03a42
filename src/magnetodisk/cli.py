"""Command-line driver: magnetodisk <eigen|minimize|sweep|fields>.

Exit codes: 0 success, 1 numerical failure, 2 invalid input.  Output files
carry a metadata header with the package version and a hash of the resolved
configuration; reruns with identical configuration are bit-identical.  The
invariants behind the outputs are checked by tests/test_acceptance.py, not
by a subcommand.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bifurcation import amplitude_fit_slope, detected_threshold, trace_branches
from .eigen import smallest_eigenpair
from .fields import magnetization_grid, reconstruct_w
from .grid import build_grid
from .operators import ModelParams
from .solver import minimize

__all__ = ["RunConfig", "main"]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    n: int = 512
    grading: float = 2.0
    mu: float | None = None
    mu_range: tuple[float, float, int] | None = None
    lam: float | None = None
    seed: int = 0
    tol: float = 1e-8
    max_iter: int = 500
    init_eps: float = 0.1
    out: str = "."
    format: str = "csv"
    samples: int = 41


_CONFIG_KEYS = frozenset(f.name for f in fields(RunConfig)) - {"command"}


def _parse_mu_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"mu range must look like LO:HI:STEPS, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad mu range {text!r}: {exc}") from exc
    return lo, hi, steps


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "mu_range" in raw and raw["mu_range"] is not None:
        rng = raw["mu_range"]
        if isinstance(rng, str):
            raw["mu_range"] = _parse_mu_range(rng)
        elif isinstance(rng, (list, tuple)) and len(rng) == 3:
            raw["mu_range"] = (float(rng[0]), float(rng[1]), int(rng[2]))
        else:
            raise ConfigError(f"mu_range must be [lo, hi, steps], got {rng!r}")
    return raw


def resolve_config(args: argparse.Namespace) -> RunConfig:
    merged: dict = {}
    if args.config is not None:
        merged.update(_load_config_file(args.config))
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value

    cfg = RunConfig(command=args.command, **merged)

    if int(cfg.n) != cfg.n or cfg.n < 2:
        raise ConfigError(f"n must be an integer >= 2, got {cfg.n}")
    cfg = replace(cfg, n=int(cfg.n))
    if not np.isfinite(cfg.grading) or cfg.grading < 1.0:
        raise ConfigError(f"grading must be >= 1, got {cfg.grading}")
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg.format!r}")
    if cfg.tol <= 0.0 or cfg.max_iter < 1 or cfg.init_eps <= 0.0:
        raise ConfigError("tol, max_iter, and init_eps must be positive")
    if cfg.samples < 3:
        # with 2 per axis the lattice is the four corners, all outside the disk
        raise ConfigError(f"samples must be >= 3, got {cfg.samples}")

    if cfg.mu is not None and cfg.mu_range is not None:
        raise ConfigError("give either mu or mu_range, not both")
    if cfg.lam is not None:
        lam_mu = cfg.lam**2 / 2.0
        if cfg.mu is None:
            cfg = replace(cfg, mu=lam_mu)
        elif abs(cfg.mu - lam_mu) > 1e-12 * max(1.0, abs(cfg.mu)):
            raise ConfigError(
                f"inconsistent parameters: mu={cfg.mu} but lambda^2/2={lam_mu}"
            )
    if cfg.mu is not None and cfg.mu < 0.0:
        raise ConfigError(f"mu must be >= 0, got {cfg.mu}")

    if cfg.command in ("minimize", "fields") and cfg.mu is None:
        raise ConfigError(f"{cfg.command} requires mu (or lambda)")
    if cfg.command == "sweep":
        if cfg.mu_range is None:
            raise ConfigError("sweep requires mu_range LO:HI:STEPS")
        lo, hi, steps = cfg.mu_range
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi) or steps < 2:
            raise ConfigError(f"bad mu_range {cfg.mu_range}")
        if lo < 0.0:
            raise ConfigError("mu_range must stay nonnegative")
    return cfg


def _json_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_json_text(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ", ".join(_json_text(v, indent) for v in obj)
        return "[" + items + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return "%.17g" % x if math.isfinite(x) else "null"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def _config_hash(cfg: RunConfig) -> str:
    # The destination directory does not influence any computed value, so it
    # stays out of the run identity.
    payload = _json_text(
        {k: v for k, v in sorted(asdict(cfg).items()) if k != "out"}
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


_BLOCK_ROWS = 4096  # rows per % call: bounds the text held in memory at once


class _Writer:
    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.out = Path(cfg.out)
        self.meta = {"version": __version__, "config_hash": _config_hash(cfg)}

    def json(self, name: str, payload: dict) -> Path:
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / name
        body = dict(payload)
        body["meta"] = self.meta
        path.write_text(_json_text(body) + "\n")
        return path

    def table(self, stem: str, names: list[str], columns) -> Path:
        """Write a table given column by column: each column is an array of
        floats or a sequence of str.  Floats are written as %.17g (in JSON,
        non-finite ones as null), strings as they are (JSON-quoted in JSON).
        Each block of rows is formatted by a single % over a flat tuple."""
        self.out.mkdir(parents=True, exist_ok=True)
        as_json = self.cfg.format == "json"
        specs, cells = [], []
        for column in map(np.asarray, columns):
            if column.dtype.kind != "f":
                if as_json:
                    column = np.array([json.dumps(s) for s in column.tolist()])
                specs.append("%s")
            elif as_json and not np.isfinite(column).all():
                column = np.array(["%.17g" % x if math.isfinite(x) else "null"
                                   for x in column.tolist()])
                specs.append("%s")
            else:
                specs.append("%.17g")
            cells.append(column)
        if as_json:
            path = self.out / f"{stem}.json"
            head, tail = _json_text(
                {"meta": self.meta, "columns": names, "rows": []}
            ).rsplit("[]", 1)
            opening, closing = head + "[", "]" + tail + "\n"
            row, sep = "[" + ", ".join(specs) + "]", ", "
        else:
            path = self.out / f"{stem}.csv"
            opening = (f"# magnetodisk={self.meta['version']} "
                       f"config_hash={self.meta['config_hash']}\n"
                       + ",".join(names) + "\n")
            row, sep, closing = ",".join(specs) + "\n", "", ""

        n_rows, width = len(cells[0]), len(cells)
        with open(path, "w") as fh:
            fh.write(opening)
            for start in range(0, n_rows, _BLOCK_ROWS):
                stop = min(start + _BLOCK_ROWS, n_rows)
                flat = [None] * ((stop - start) * width)
                for j, column in enumerate(cells):
                    flat[j::width] = column[start:stop].tolist()
                if start:
                    fh.write(sep)
                fh.write(sep.join([row] * (stop - start)) % tuple(flat))
            fh.write(closing)
        return path


def _params(cfg: RunConfig) -> ModelParams:
    return ModelParams(mu=cfg.mu, lam=cfg.lam, tol=cfg.tol, max_iter=cfg.max_iter)


def cmd_eigen(cfg: RunConfig) -> int:
    grid = build_grid(cfg.n, cfg.grading)
    pair = smallest_eigenpair(grid)
    writer = _Writer(cfg)
    writer.json(
        "eigen.json",
        {
            "gamma0": pair.gamma0,
            "n": cfg.n,
            "grading": cfg.grading,
            "residual": pair.residual,
            "iterations": pair.iterations,
        },
    )
    writer.table("phi0", ["r", "phi0"], [grid.nodes, pair.phi0.values])
    return 0


def cmd_minimize(cfg: RunConfig) -> int:
    grid = build_grid(cfg.n, cfg.grading)
    params = _params(cfg)
    pair = smallest_eigenpair(grid)
    report = minimize(grid, params, eigenpair=pair, init_eps=cfg.init_eps)
    w = reconstruct_w(report.minimizer, params.lam)
    writer = _Writer(cfg)
    writer.json(
        "report.json",
        {
            "mu": params.mu,
            "lambda": params.lam,
            "energy": report.energy,
            "residual": report.residual,
            "iterations": report.iterations,
            "converged": report.converged,
            "fold_applied": report.fold_applied,
            "bc_residual": report.bc_residual,
            "trivial": report.trivial,
        },
    )
    writer.table("profile", ["r", "h", "w"],
                 [grid.nodes, report.minimizer.values, w.values])
    if report.diverged or not report.converged:
        print(f"minimize did not converge at mu={params.mu}", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    grid = build_grid(cfg.n, cfg.grading)
    lo, hi, steps = cfg.mu_range
    params = ModelParams(mu=lo, tol=cfg.tol, max_iter=cfg.max_iter)
    diagram = trace_branches(grid, params, lo, hi, steps, init_eps=cfg.init_eps)
    writer = _Writer(cfg)
    names = ["mu", "branch", "beta", "energy"]
    writer.table("diagram", names,
                 [[getattr(q, name) for q in diagram.points] for name in names])
    writer.json(
        "summary.json",
        {
            "gamma0": diagram.gamma0,
            "cbar": diagram.cbar,
            "threshold": detected_threshold(diagram),
            "slope": amplitude_fit_slope(diagram),
            "mu_step": diagram.mu_step,
            "truncated_at": diagram.truncated_at,
        },
    )
    if diagram.truncated_at is not None:
        print(f"continuation failed at mu={diagram.truncated_at}", file=sys.stderr)
        return 1
    return 0


def cmd_fields(cfg: RunConfig) -> int:
    grid = build_grid(cfg.n, cfg.grading)
    params = _params(cfg)
    pair = smallest_eigenpair(grid)
    report = minimize(grid, params, eigenpair=pair, init_eps=cfg.init_eps)
    w = reconstruct_w(report.minimizer, params.lam)

    from scipy.interpolate import PchipInterpolator

    w_of_r = PchipInterpolator(grid.nodes, w.values, extrapolate=False)
    axis = np.linspace(-1.0, 1.0, cfg.samples)
    xg, yg = np.meshgrid(axis, axis)
    xs, ys = xg.ravel(), yg.ravel()
    keep = xs**2 + ys**2 <= 1.0
    xs, ys = xs[keep], ys[keep]
    m = magnetization_grid(report.minimizer, xs, ys)
    wvals = w_of_r(np.hypot(xs, ys))

    writer = _Writer(cfg)
    writer.table("fields", ["x", "y", "m1", "m2", "m3", "w"], [xs, ys, *m.T, wvals])
    if report.diverged or not report.converged:
        print(f"minimize did not converge at mu={params.mu}", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "eigen": cmd_eigen,
    "minimize": cmd_minimize,
    "sweep": cmd_sweep,
    "fields": cmd_fields,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing never mutates it."""
    parser = argparse.ArgumentParser(
        prog="magnetodisk",
        description="Radial magneto-elastic disk: threshold eigenpair, energy "
                    "minimization, branch tracing, and field reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "eigen": "solve the threshold eigenproblem",
        "minimize": "minimize the energy at fixed mu",
        "sweep": "trace solution branches over a mu range",
        "fields": "reconstruct magnetization and displacement on the disk",
    }
    for name, text in descriptions.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--n", type=int, help="mesh cells (default 512)")
        sp.add_argument("--grading", type=float, help="mesh grading (default 2)")
        sp.add_argument("--mu", type=float, help="field strength parameter")
        sp.add_argument("--mu-range", dest="mu_range", type=_parse_mu_range,
                        metavar="LO:HI:STEPS", help="sweep range")
        sp.add_argument("--lambda", dest="lam", type=float,
                        help="coupling; must satisfy mu = lambda^2/2")
        sp.add_argument("--out", help="output directory (default .)")
        sp.add_argument("--format", choices=("csv", "json"),
                        help="table format (default csv)")
        sp.add_argument("--seed", type=int,
                        help="kept in the config hash; no subcommand draws "
                             "random numbers (default 0)")
        sp.add_argument("--tol", type=float, help="solver residual tolerance")
        sp.add_argument("--max-iter", dest="max_iter", type=int,
                        help="solver iteration cap")
        sp.add_argument("--init-eps", dest="init_eps", type=float,
                        help="seed amplitude for the default start")
        sp.add_argument("--samples", type=int,
                        help="lattice points per axis for fields output")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[cfg.command](cfg)
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
