"""The column-wise table writer against the per-row writer it replaced.

reference_table below is the per-row path (one format call per cell, the
JSON text built recursively), kept here as the reference: every table the
writer produces must match it byte for byte, in csv and in json.
"""

import numpy as np
import pytest

from magnetodisk.cli import _BLOCK_ROWS, RunConfig, _Writer


def _fmt(x):
    return format(float(x), ".17g")


def _json_text(obj, indent=0):
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
        return _fmt(x) if np.isfinite(x) else "null"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        import json

        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def reference_table(out, meta, fmt, stem, names, rows):
    if fmt == "csv":
        path = out / f"{stem}.csv"
        lines = [
            f"# magnetodisk={meta['version']} config_hash={meta['config_hash']}",
            ",".join(names),
        ]
        for row in rows:
            lines.append(",".join(_fmt(x) if isinstance(x, (float, np.floating)) else str(x)
                                  for x in row))
        path.write_text("\n".join(lines) + "\n")
    else:
        path = out / f"{stem}.json"
        payload = {"meta": meta, "columns": names, "rows": [list(row) for row in rows]}
        path.write_text(_json_text(payload) + "\n")
    return path


def as_rows(columns):
    return zip(*(c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns))


def assert_same_bytes(tmp_path, fmt, names, columns):
    new, ref = tmp_path / "new", tmp_path / "ref"
    ref.mkdir()
    writer = _Writer(RunConfig(command="eigen", out=str(new), format=fmt))
    got = writer.table("t", names, columns)
    want = reference_table(ref, writer.meta, fmt, "t", names, as_rows(columns))
    assert got.name == want.name
    assert got.read_bytes() == want.read_bytes()


def floats(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)


FORMATS = pytest.mark.parametrize("fmt", ["csv", "json"])


@FORMATS
def test_float_columns(tmp_path, fmt):
    x = np.linspace(0.0, 1.0, 257) ** 2
    assert_same_bytes(tmp_path, fmt, ["r", "a", "b"], [x, floats(257), np.sin(x) / 3.0])


@FORMATS
def test_diagram_layout_with_a_str_column(tmp_path, fmt):
    mu = [1.5, 1.55, 1.55, 1.55, 1.6]
    branch = ["trivial", "trivial", "plus", "minus", 'quote"and,comma']
    beta = [0.0, 0.0, 0.125, -0.125, 1e-300]
    energy = [0.0, 0.0, -2.5e-4, -2.5000000000000001e-4, -np.pi]
    assert_same_bytes(tmp_path, fmt, ["mu", "branch", "beta", "energy"],
                      [mu, branch, beta, energy])


@FORMATS
def test_nonfinite_values_and_negative_zero(tmp_path, fmt):
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.0])
    assert_same_bytes(tmp_path, fmt, ["a", "b"], [special, special[::-1].copy()])
    if fmt == "json":
        text = (tmp_path / "new" / "t.json").read_text()
        assert '"rows": [[null, 1], [null, 4.9' in text and "[-0, -0]" in text
        assert "nan" not in text and "inf" not in text


@FORMATS
@pytest.mark.parametrize("n_rows", [0, 1])
def test_empty_and_one_row(tmp_path, fmt, n_rows):
    assert_same_bytes(tmp_path, fmt, ["x", "branch"], [np.full(n_rows, 0.1), ["plus"] * n_rows])


@FORMATS
@pytest.mark.parametrize("n_rows", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
def test_block_boundaries(tmp_path, fmt, n_rows):
    assert_same_bytes(tmp_path, fmt, ["r", "v"], [floats(n_rows, 1), floats(n_rows, 2)])


@FORMATS
def test_large_table(tmp_path, fmt):
    n_rows = 65537
    values = floats(n_rows, 3)
    values[::1000] = np.nan
    assert_same_bytes(tmp_path, fmt, ["r", "v"], [np.linspace(0.0, 1.0, n_rows), values])
