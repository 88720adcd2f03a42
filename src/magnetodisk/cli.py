"""Command-line driver: magnetodisk <eigen|minimize|sweep|fields>.

main resolves the configuration, builds each input of the run once (grid,
ModelParams, fields lattice or sweep mu grid, threshold eigenpair) and hands
them to the subcommand.  Their constructors judge n, grading, mu, tol and
max_iter; the CLI checks only what they never see.  lambda, read only here,
defaults to sqrt(2 mu).

Exit codes: 0 success, 1 numerical failure, 2 invalid input (found before
anything is written).  Running out of memory is one stderr line too: exit 2
while the configuration is resolved and the arrays it sizes built, else 1.
Output files carry a metadata header with the package version and a hash
of the resolved configuration; reruns with identical configuration are
bit-identical.  JSON text is json.dumps's; the float cells of a table come
from the %.17g kernel _g17.  The invariants behind the outputs are checked
by tests/test_acceptance.py, not by a subcommand.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bifurcation import amplitude_fit_slope, detected_threshold, trace_branches
from .eigen import EigenPair, smallest_eigenpair
from .fields import magnetization_grid, reconstruct_w
from .grid import RadialGrid, build_grid
from .operators import ModelParams, Profile
from .solver import SolveReport, minimize

__all__ = ["RunConfig", "main"]


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
    init_eps: float | None = None
    out: str = "."
    format: str = "csv"
    samples: int = 41


def _integer(value) -> int:
    # a JSON writer may emit an integral float such as 64.0
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _mu_range(value) -> tuple[float, float, int]:
    """LO:HI:STEPS text (flag or config file) or a [lo, hi, steps] list."""
    if isinstance(value, str):
        parts = value.split(":")
        if len(parts) != 3:
            raise ValueError(f"mu range must look like LO:HI:STEPS, got {value!r}")
        return float(parts[0]), float(parts[1]), int(parts[2])
    if isinstance(value, (list, tuple)) and len(value) == 3:
        return _real(value[0]), _real(value[1]), _integer(value[2])
    raise TypeError(f"expected [lo, hi, steps] or 'LO:HI:STEPS', got {value!r}")


# The converter of each config key.  A config-file value and a flag value
# (which argparse has already parsed from its text) go through the same one.
_CONVERTERS = {
    "n": _integer, "grading": _real, "mu": _real, "mu_range": _mu_range,
    "lam": _real, "seed": _integer, "tol": _real, "max_iter": _integer,
    "init_eps": _real, "out": _text, "format": _text, "samples": _integer,
}


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    unknown = set(raw) - set(_CONVERTERS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return raw


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge the config file and the flags (flags win), convert each value,
    and check what no library constructor sees: format, samples, init_eps,
    out, lambda against mu, and the shape of mu_range.  main leaves n, grading,
    mu, tol and max_iter to build_grid and ModelParams."""
    merged = _load_config_file(args.config) if args.config is not None else {}
    merged.update({k: v for k, v in vars(args).items() if k in _CONVERTERS and v is not None})
    converted = {}
    for key, value in merged.items():
        try:
            if value is not None:
                converted[key] = _CONVERTERS[key](value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad {key}: {exc}") from exc
    cfg = RunConfig(command=args.command, **converted)

    if cfg.format not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {cfg.format!r}")
    if cfg.init_eps is not None and not (math.isfinite(cfg.init_eps) and cfg.init_eps > 0.0):
        raise ValueError(f"init_eps must be positive and finite, got {cfg.init_eps}")
    if cfg.samples < 3:
        # with 2 per axis the lattice is the four corners, all outside the disk
        raise ValueError(f"samples must be >= 3, got {cfg.samples}")
    # the outputs go into out, made with its missing parents: the nearest
    # of them that exists, a dangling symlink included, must be a directory
    out = Path(cfg.out)
    nearest = next((p for p in (out, *out.parents) if p.is_symlink() or p.exists()), None)
    if nearest is not None and not nearest.is_dir():
        raise ValueError(f"out {cfg.out!r}: {str(nearest)!r} is not a directory")

    if cfg.lam is not None:
        try:
            lam_mu = cfg.lam**2 / 2.0
        except OverflowError:
            raise ValueError(f"lambda^2/2 overflows at lambda={cfg.lam}") from None
        if cfg.mu is None:
            cfg = replace(cfg, mu=lam_mu)
        elif not abs(cfg.mu - lam_mu) <= 1e-12 * max(1.0, abs(cfg.mu)):
            raise ValueError(f"inconsistent parameters: mu={cfg.mu} but lambda^2/2={lam_mu}")
    if cfg.mu is not None and cfg.mu_range is not None:
        raise ValueError("give either mu (or lambda) or mu_range, not both")

    if cfg.command in ("minimize", "fields") and cfg.mu is None:
        raise ValueError(f"{cfg.command} requires mu (or lambda)")
    if cfg.command == "sweep":
        if cfg.mu_range is None:
            raise ValueError("sweep requires mu_range LO:HI:STEPS")
        lo, hi, steps = cfg.mu_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi) or steps < 2:
            raise ValueError(f"bad mu_range {cfg.mu_range}")
    return cfg


def _config_hash(cfg: RunConfig) -> str:
    # The destination directory does not influence any computed value, so it
    # stays out of the run identity.
    config = asdict(cfg)
    del config["out"]
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:12]


_BLOCK_ROWS = 4096  # rows formatted and written at a time: bounds the text in memory

# The "%.17g" kernel.  A float x = mant * 2**(e-53) with 10**k <= |x| < 10**(k+1)
# has the 17 digits round(mant * 5**q * 2**(e-53+q)), q = 16 - k.  In the range
# below, q <= 27, so 5**q < 2**63 and mant * 5**q < 2**116 is exact in two
# uint64 words, and the shift 53 - e - q lies in [1, 63].
_G17_MIN, _G17_MAX = 1e-10, 1e15
_G17_WIDTH = 28  # sign, "0.000", 17 digits and a point, "e-XX"
_U64_1, _U64_32, _U64_64 = np.uint64(1), np.uint64(32), np.uint64(64)
_LOW32, _HALF = np.uint64(0xFFFFFFFF), np.uint64(1 << 63)
_E8, _E16, _E17 = np.uint64(10**8), np.uint64(10**16), np.uint64(10**17)
_POW5 = 5 ** np.arange(28, dtype=np.uint64)
_POW5_LO, _POW5_HI = _POW5 & _LOW32, _POW5 >> _U64_32
_POW10_8 = (10 ** np.arange(7, -1, -1)).astype(np.uint32)[:, None]
_DIGIT = np.array([0, -1, *range(1, 17)], np.int8)[:, None]  # the digit in each body slot
_RANK = (_DIGIT + 1).view(np.uint8)  # 0 for the point's slot
_LEAD = np.frombuffer(b"0.000", np.uint8)[:, None]
_LEAD_K = np.array([-1, -1, -2, -3, -4], np.int8)[:, None]  # each shown for k <= it
_G17_PADDED = b"%%-%d.17g" % _G17_WIDTH  # a cell outside the kernel's range, space-padded
_SPACE = np.uint8(ord(" "))
_NULL = np.frombuffer(b"null".ljust(_G17_WIDTH, b"\0"), np.uint8)


def _digits17(mant, e, q):
    """floor(mant * 5**q / 2**s), s = 53 - e - q, and whether the remainder
    rounds it up (half to even), from the 128-bit product in 32-bit limbs."""
    m0, m1 = mant & _LOW32, mant >> _U64_32
    p0, p1 = _POW5_LO[q], _POW5_HI[q]
    low = m0 * p0
    mid = m0 * p1 + m1 * p0
    lo = low + (mid << _U64_32)
    hi = m1 * p1 + (mid >> _U64_32) + (lo < low)
    s = (53 - e - q).astype(np.uint64)
    t = _U64_64 - s
    d = (hi << t) | (lo >> s)
    # the remainder, moved to the top bits, against half: above it, or at
    # it with d odd, rounds up
    return d, (lo << t) + (d & _U64_1) > _HALF


def _g17(x: np.ndarray, null: bool = False) -> np.ndarray:
    """The text of "%.17g" % v for each float v of x, padded with NULs, which
    may sit anywhere in a cell: the writer drops them.  Returns a uint8
    matrix whose column i holds cell i.  Cells with 1e-10 <= |v| < 1e15 are
    computed exactly in integers, and so are zeros (laid out as 1 is, with
    the digit 0): d0, a slot for the point (empty where "0." leads), then
    d1 ... d16.  Only a block holding a cell with |v| >= 10 moves d1 ... dk
    left into that slot and puts the point after them, and only one holding
    a cell in scientific notation writes exponents; the bytes are those of
    "%.17g" % v either way.  The rest (non-finite values, the extremes) are
    formatted by one % over all of them and written into their columns; with
    null set, a non-finite one is null."""
    n = len(x)
    a = np.abs(x)
    fast = (a >= _G17_MIN) & (a < _G17_MAX)
    zero = a == 0.0
    a[~fast] = 1.0
    m, e = np.frexp(a)
    mant = (m * 2.0**53).astype(np.uint64)
    k = np.floor(np.log10(a)).astype(np.int64)  # may be one off next to 10**k
    d, up = _digits17(mant, e, 16 - k)
    off = np.flatnonzero(d - _E16 >= _E17 - _E16)  # d outside [1e16, 1e17)
    if off.size:
        k[off] += np.where(d[off] < _E16, -1, 1)
        d[off], up[off] = _digits17(mant[off], e[off], 16 - k[off])
    # no double in the range lies within half a unit of the 17th digit below
    # a power of ten, so rounding never carries d up to 10**17
    d += up
    d[zero] = 0
    k = k.astype(np.int8)

    # body slots: d0, the point's, d1 ... d16.  Digit j of an 8-digit half h
    # is t[h, j] - 10 t[h, j-1], t[h, j] = h // 10**(7-j), exact in the low
    # bytes.  sig counts the digits up to the last nonzero one.
    out = np.empty((_G17_WIDTH, n), np.uint8)
    body = out[6:24]
    body[0] = d // _E16
    rest = d - body[0] * _E16
    halves = np.empty((2, 1, n), np.uint32)
    halves[0, 0] = rest // _E8
    halves[1, 0] = rest - halves[0, 0] * _E8
    t = (halves // _POW10_8).astype(np.uint8)
    digits = out[8:24].reshape(2, 8, n)
    digits[:, 0] = t[:, 0]
    np.subtract(t[:, 1:], t[:, :-1] * np.uint8(10), out=digits[:, 1:])
    sig = ((body != 0).view(np.uint8) * _RANK).max(axis=0).view(np.int8)

    # %g: fixed notation for -4 <= k < 17, else d.dddde-XX (only k < -4 here).
    # Digits before the point: k + 1, 1 in scientific notation, none for
    # k < 0, where "0." and -k-1 zeros come first.  Trailing zeros after the
    # point are dropped, and the point with them if no digit follows it.
    sci = k < -4
    whole = np.maximum(k + np.int8(1), sci.view(np.int8))
    body += np.uint8(48)
    body *= (_DIGIT < np.maximum(sig, whole)).view(np.uint8)
    dot = ((whole > 0) & (sig > whole)).view(np.uint8) * np.uint8(46)
    body[1] = dot  # after d0 for k = 0 and d.dddde-XX; NUL where "0." leads
    if k.max() > 0:
        # |x| >= 10 in the block: dj, j < whole, moves from slot j + 1 to j,
        # and the point (or NUL) goes to slot whole, or stays in slot 1
        body[1:15] += (_DIGIT[2:16] < whole).view(np.uint8) * (body[2:16] - body[1:15])
        out.reshape(-1)[(np.maximum(whole, 1).astype(np.intp) + 6) * n + np.arange(n)] = dot
    out[0] = np.signbit(x).view(np.uint8) * np.uint8(45)
    out[1:6] = _LEAD * (np.where(sci, np.int8(0), k) <= _LEAD_K).view(np.uint8)
    if sci.any():  # the exponent rows, NUL but in scientific notation
        shown = sci.view(np.uint8)
        exp_k = (-k).view(np.uint8)
        tens = exp_k // np.uint8(10)
        out[24] = shown * np.uint8(101)
        out[25] = shown * np.uint8(45)
        out[26] = shown * (tens + np.uint8(48))
        out[27] = shown * (exp_k - tens * np.uint8(10) + np.uint8(48))
    else:
        out[24:] = 0

    slow = np.flatnonzero(~(fast | zero))
    if slow.size:
        v = x[slow]
        padded = np.frombuffer(_G17_PADDED * slow.size % tuple(v.tolist()), np.uint8)
        text = (padded * (padded != _SPACE)).reshape(-1, _G17_WIDTH)  # spaces to NULs
        if null:
            text[~np.isfinite(v)] = _NULL
        out[:, slow] = text.T
    return out


class _Writer:
    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.out = Path(cfg.out)
        self.meta = {"version": __version__, "config_hash": _config_hash(cfg)}

    def json(self, name: str, payload: dict) -> Path:
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / name
        body = {key: None if isinstance(value, float) and not math.isfinite(value) else value
                for key, value in payload.items()}
        body["meta"] = self.meta
        path.write_text(json.dumps(body, indent=2, allow_nan=False) + "\n")
        return path

    def table(self, stem: str, names: list[str], columns) -> Path:
        """Write a table given column by column: each column is an array of
        floats or a sequence of str.  Floats are written as %.17g (in JSON,
        non-finite ones as null) by _g17, strings as they are (JSON-quoted
        in JSON; a csv string may not hold NUL).  Rows are laid out in one
        uint8 matrix of at most _BLOCK_ROWS rows, each cell at a fixed byte
        offset between separator bytes written once; each block of rows
        writes its cells into it and is written with its NULs dropped."""
        as_json = self.cfg.format == "json"
        columns = [np.asarray(c) for c in columns]
        texts = {}  # a str column's text, NUL-padded, a row per cell
        for j, column in enumerate(columns):
            if column.dtype.kind == "f":
                columns[j] = column.astype(np.float64, copy=False)
                continue
            cells = [(json.dumps(s) if as_json else str(s)).encode()
                     for s in column.tolist()]
            if any(b"\0" in c for c in cells):
                raise ValueError(f"column {names[j]!r} holds a NUL character")
            text = np.array(cells, dtype=bytes)
            texts[j] = text.view(np.uint8).reshape(len(cells), text.itemsize)
        floats = [j for j in range(len(columns)) if j not in texts]
        widths = [texts[j].shape[1] if j in texts else _G17_WIDTH for j in range(len(columns))]

        if as_json:
            path = self.out / f"{stem}.json"
            head, tail = json.dumps(
                {"meta": self.meta, "columns": names, "rows": []}, indent=2
            ).rsplit("[]", 1)
            opening, closing = head + "[", "]" + tail + "\n"
            # each row is followed by ", ", cut after the last one
            before, between, after = b"[", b", ", b"], "
        else:
            path = self.out / f"{stem}.csv"
            opening = (f"# magnetodisk={self.meta['version']} "
                       f"config_hash={self.meta['config_hash']}\n"
                       + ",".join(names) + "\n")
            closing = ""
            before, between, after = b"", b",", b"\n"
        seps = [before, *[between] * (len(columns) - 1), after]
        # the byte after each separator: where cell j starts, and last the row's end
        ends = np.cumsum([len(sep) + width for sep, width in zip(seps, [0, *widths])])
        n_rows = len(columns[0])
        rows = np.empty((min(n_rows, _BLOCK_ROWS), ends[-1]), np.uint8)
        for sep, end in zip(seps, ends):
            rows[:, end - len(sep):end] = np.frombuffer(sep, np.uint8)

        self.out.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(opening.encode())
            # the fewest blocks of at most _BLOCK_ROWS rows, of near-equal
            # size: no short last block pays a whole _g17 call for a few rows
            blocks = -(-n_rows // _BLOCK_ROWS)
            for k in range(blocks):
                start, stop = n_rows * k // blocks, n_rows * (k + 1) // blocks
                size = stop - start
                block = rows[:size]
                for j, text in texts.items():
                    block[:, ends[j]:ends[j] + widths[j]] = text[start:stop]
                if floats:
                    cells = _g17(np.concatenate([columns[j][start:stop] for j in floats]),
                                 null=as_json)
                    for i, j in enumerate(floats):
                        block[:, ends[j]:ends[j] + _G17_WIDTH] = cells[:, i * size:(i + 1) * size].T
                text = block.tobytes().translate(None, b"\0")
                fh.write(text[:-2] if as_json and stop == n_rows else text)
            fh.write(closing.encode())
        return path


def cmd_eigen(cfg: RunConfig, grid: RadialGrid, params: ModelParams, pair: EigenPair) -> int:
    writer = _Writer(cfg)
    writer.json("eigen.json", {"gamma0": pair.gamma0, "n": cfg.n, "grading": cfg.grading,
                               "residual": pair.residual, "iterations": pair.iterations})
    writer.table("phi0", ["r", "phi0"], [grid.nodes, pair.phi0.values])
    return 0


def _start(cfg: RunConfig, pair: EigenPair) -> Profile | None:
    """The start --init-eps gives, init_eps * phi0, else None (the default start)."""
    if cfg.init_eps is None:
        return None
    with np.errstate(over="ignore"):  # an overflow is one stderr line, no warning
        values = cfg.init_eps * pair.phi0.values
    if not np.all(np.isfinite(values)):  # as minimize would find its energy
        raise ValueError("initial profile has non-finite energy")
    return Profile(pair.phi0.grid, values)


def _solve(cfg: RunConfig, grid: RadialGrid, params: ModelParams,
           pair: EigenPair) -> tuple[SolveReport, float, Profile]:
    """The minimizer, lambda (as given, else sqrt(2 mu): only the CLI reads
    it) and the displacement w."""
    report = minimize(grid, params, _start(cfg, pair), eigenpair=pair)
    # 2 sqrt(mu/2) is sqrt(2 mu) bit for bit where mu/2 is a normal float,
    # and does not overflow where 2 mu would
    lam = cfg.lam if cfg.lam is not None else (
        2.0 * math.sqrt(params.mu / 2.0) if params.mu > 1.0 else math.sqrt(2.0 * params.mu))
    return report, lam, reconstruct_w(report.minimizer, lam)


def _solve_status(report: SolveReport, params: ModelParams) -> int:
    if not report.converged:
        print(f"minimize did not converge at mu={params.mu}", file=sys.stderr)
        return 1
    return 0


def cmd_minimize(cfg: RunConfig, grid: RadialGrid, params: ModelParams, pair: EigenPair) -> int:
    report, lam, w = _solve(cfg, grid, params, pair)
    writer = _Writer(cfg)
    writer.json(
        "report.json",
        {
            "mu": params.mu,
            "lambda": lam,
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
    return _solve_status(report, params)


def cmd_sweep(cfg: RunConfig, grid: RadialGrid, params: ModelParams, pair: EigenPair,
              mus: np.ndarray) -> int:
    init = _start(cfg, pair) if mus[-1] > pair.gamma0 / 2.0 else None  # used above gamma0/2 only
    diagram = trace_branches(grid, params, mus, eigenpair=pair, init=init)
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


def _lattice(samples: int) -> tuple[np.ndarray, np.ndarray]:
    """The samples x samples lattice on [-1, 1]^2, its points in the disk."""
    axis = np.linspace(-1.0, 1.0, samples)
    xg, yg = np.meshgrid(axis, axis)
    xs, ys = xg.ravel(), yg.ravel()
    keep = xs**2 + ys**2 <= 1.0
    return xs[keep], ys[keep]


def cmd_fields(cfg: RunConfig, grid: RadialGrid, params: ModelParams, pair: EigenPair,
               xs: np.ndarray, ys: np.ndarray) -> int:
    report, _, w = _solve(cfg, grid, params, pair)
    m = magnetization_grid(report.minimizer, xs, ys)
    wvals = np.interp(np.hypot(xs, ys), grid.nodes, w.values)

    writer = _Writer(cfg)
    writer.table("fields", ["x", "y", "m1", "m2", "m3", "w"], [xs, ys, *m.T, wvals])
    return _solve_status(report, params)


# each subcommand's function and help text
_COMMANDS = {
    "eigen": (cmd_eigen, "solve the threshold eigenproblem"),
    "minimize": (cmd_minimize, "minimize the energy at fixed mu"),
    "sweep": (cmd_sweep, "trace solution branches over a mu range"),
    "fields": (cmd_fields, "reconstruct magnetization and displacement on the disk"),
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
    for name, (_, text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--n", type=int, help="mesh cells (default 512)")
        sp.add_argument("--grading", type=float, help="mesh grading (default 2)")
        sp.add_argument("--mu", type=float, help="field strength parameter")
        sp.add_argument("--mu-range", dest="mu_range", type=_mu_range,
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
                        help="start from init_eps * phi0; sweep uses it for "
                             "its first step above gamma0/2 only (default: "
                             "the default start of the README's Library "
                             "section)")
        sp.add_argument("--samples", type=int,
                        help="lattice points per axis for fields output")
    return parser


def _reason(exc: Exception) -> str:
    return f"out of memory: {exc}" if isinstance(exc, MemoryError) else str(exc)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        # mu from --mu or --lambda, else the low end of --mu-range, else 0;
        # sweep reads only tol and max_iter, but mu = LO rejects a negative LO
        lo = cfg.mu_range[0] if cfg.mu_range is not None else 0.0
        mu = cfg.mu if cfg.mu is not None else lo
        params = ModelParams(mu=mu, tol=cfg.tol, max_iter=cfg.max_iter)
        grid = build_grid(cfg.n, cfg.grading)
        # the other arrays the configuration sizes: one too large is a usage error
        inputs = (_lattice(cfg.samples) if cfg.command == "fields" else
                  (np.linspace(*cfg.mu_range),) if cfg.command == "sweep" else ())
    except (ValueError, TypeError, MemoryError) as exc:
        print(f"error: {_reason(exc)}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[cfg.command][0](cfg, grid, params, smallest_eigenpair(grid), *inputs)
    except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
        # every input passed the checks above, so a ValueError here comes
        # from the numbers, e.g. a start whose energy is not finite
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(_reason(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
