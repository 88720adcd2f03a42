"""The column-wise table writer against a per-row writer.

reference_table below writes a table row by row, one format call per cell,
with the JSON header from json.dumps: every table the writer produces must
match it byte for byte, in csv and in json.  The writer's float kernel _g17
is checked against format(x, ".17g") itself.
"""

import json
import math
from decimal import Decimal

import numpy as np
import pytest

import magnetodisk.cli as cli
from magnetodisk.cli import _BLOCK_ROWS, _G17_MAX, _G17_MIN, RunConfig, _g17, _Writer


def _fmt(x):
    return format(float(x), ".17g")


def _json_cell(x):
    if isinstance(x, str):
        return json.dumps(x)
    return _fmt(x) if math.isfinite(x) else "null"


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
        # the document with "rows" null, then the rows on one line in its place
        text = json.dumps({"meta": meta, "columns": names, "rows": None}, indent=2)
        body = ", ".join("[" + ", ".join(map(_json_cell, row)) + "]" for row in rows)
        path.write_text(text.replace('"rows": null', f'"rows": [{body}]') + "\n")
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


# _g17 lays a block out with the point right after d0 while every cell has
# |x| < 10; a cell >= 10 in the block makes it move digits left past the
# point's slot, and a cell below 1e-4 makes it write exponents.  Each case is
# one block (257 rows) of one kind, negative cells included; "any" mixes
# magnitudes from 1e-300 to 1e300.
INTEGERS = [10.0, 100.0, 12340.0, 1e14, 123456789012345.0]
NEXT_TO_TEN = [9.999999999999996, 9.999999999999998, 10.000000000000002]  # and 10.0 above
SCIENTIFIC = [9.9999999999999991e-5, 2.5e-7, 1e-10]


@FORMATS
@pytest.mark.parametrize("cells", [floats(253), [], SCIENTIFIC, INTEGERS + NEXT_TO_TEN,
                                   INTEGERS + NEXT_TO_TEN + SCIENTIFIC],
                         ids=["any", "below_ten", "scientific", "ten_and_up", "both"])
def test_float_columns(tmp_path, fmt, cells):
    r = np.linspace(0.0, 1.0, 257)
    a = np.sin(3.0 * r) * 9.999999999999998  # 0, and 1e-4 <= |x| < 10
    a[1:4] = [1e-4, -0.5, 9.999999999999998]
    a[4:4 + len(cells)] = cells
    assert_same_bytes(tmp_path, fmt, ["r", "a", "v"], [r, a, -a[::-1].copy()])


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
@pytest.mark.parametrize("n_rows", [1, _BLOCK_ROWS + 1])
def test_tables_with_no_cell_in_the_kernel_range(tmp_path, fmt, n_rows):
    # every block holds only cells left to %: the kernel runs on placeholders
    values = np.resize([np.nan, np.inf, -np.inf, 1e-300, -2.5e300, 5e-324], n_rows)
    assert_same_bytes(tmp_path, fmt, ["a", "branch", "b"],
                      [values, ["plus"] * n_rows, values[::-1].copy()])


@FORMATS
@pytest.mark.parametrize("n_rows", [0, 1])
def test_empty_and_one_row(tmp_path, fmt, n_rows):
    assert_same_bytes(tmp_path, fmt, ["x", "branch"], [np.full(n_rows, 0.1), ["plus"] * n_rows])


@FORMATS
@pytest.mark.parametrize("n_rows", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
def test_block_boundaries(tmp_path, fmt, n_rows):
    assert_same_bytes(tmp_path, fmt, ["r", "v"], [floats(n_rows, 1), floats(n_rows, 2)])


@pytest.mark.parametrize("n_rows", [_BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1, 65537])
def test_blocks_are_the_fewest_and_near_equal(tmp_path, monkeypatch, n_rows):
    # ceil(n_rows / _BLOCK_ROWS) blocks, one _g17 call each, whose sizes
    # differ by at most a row: a row past a full block is not a block of its own
    sizes = []
    g17 = cli._g17

    def recorded(x, null=False):
        sizes.append(len(x) // 2)  # two float columns
        return g17(x, null)

    monkeypatch.setattr(cli, "_g17", recorded)
    _Writer(RunConfig(command="eigen", out=str(tmp_path))).table(
        "t", ["r", "v"], [floats(n_rows, 1), floats(n_rows, 2)])
    assert len(sizes) == -(-n_rows // _BLOCK_ROWS)
    assert sum(sizes) == n_rows
    assert max(sizes) - min(sizes) <= 1 and max(sizes) <= _BLOCK_ROWS


@FORMATS
def test_large_table(tmp_path, fmt):
    # cells outside the kernel's range in every block, a str column, and
    # 65537 rows, which the writer splits into 17 blocks of 3855 or 3856 rows
    # (one row past 16 full blocks)
    n_rows = 65537
    values = floats(n_rows, 3)
    values[::1000] = np.nan
    branch = ["plus", "minus", "trivial"] * (n_rows // 3) + ["plus"] * (n_rows % 3)
    assert_same_bytes(tmp_path, fmt, ["r", "branch", "v"],
                      [np.linspace(0.0, 1.0, n_rows), branch, values])


def in_range(n, seed=0):
    """Floats the kernel formats itself, log-uniform over its range, both
    signs; every fifth one has few digits, so trailing zeros are dropped."""
    rng = np.random.default_rng(seed)
    values = 10.0 ** rng.uniform(math.log10(_G17_MIN), math.log10(_G17_MAX), n)
    values[::5] = np.round(values[::5] * 1e6) / 1e6 + 1.0
    return values * rng.choice([-1.0, 1.0], n)


@FORMATS
@pytest.mark.parametrize("n_rows", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 65537])
def test_in_range_tables(tmp_path, fmt, n_rows):
    assert_same_bytes(tmp_path, fmt, ["r", "branch", "v"],
                      [in_range(n_rows, 4), ["plus", "minus"] * (n_rows // 2) + ["x"] * (n_rows % 2),
                       in_range(n_rows, 5)])


@FORMATS
def test_empty_str_column(tmp_path, fmt):
    assert_same_bytes(tmp_path, fmt, ["x", "branch"], [np.zeros(0), np.array([], dtype=str)])


def test_csv_str_cell_with_nul_is_refused(tmp_path):
    writer = _Writer(RunConfig(command="sweep", out=str(tmp_path / "x")))
    with pytest.raises(ValueError, match="NUL"):
        writer.table("t", ["mu", "branch"], [[1.5, 1.6], ["plus", "mi\0nus"]])
    assert not (tmp_path / "x").exists()


def test_json_str_cell_with_nul_is_escaped(tmp_path):
    # json.dumps writes it as \u0000, so no NUL reaches the text
    assert_same_bytes(tmp_path, "json", ["mu", "branch"], [[1.5, 1.6], ["plus", "mi\0nus"]])


def assert_g17(values, null=False):
    """_g17 gives format(v, ".17g") for every v (null for a non-finite one
    with null set), cell by cell."""
    values = np.asarray(values, dtype=np.float64)
    want = [format(v, ".17g") if not null or math.isfinite(v) else "null"
            for v in values.tolist()]
    got = []
    for start in range(0, len(values), 1 << 16):  # bounds the kernel's temporaries
        cells = _g17(values[start:start + (1 << 16)], null)
        newline = np.full((1, cells.shape[1]), ord("\n"), np.uint8)
        got += np.vstack([cells, newline]).T.tobytes().translate(None, b"\0").decode().split()
    wrong = [(v, w, g) for v, w, g in zip(values.tolist(), want, got) if w != g]
    assert len(got) == len(want) and not wrong, wrong[:5]


def neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


def test_g17_matches_format_on_a_million_log_uniform_values():
    rng = np.random.default_rng(12)
    n = 10**6
    values = 10.0 ** rng.uniform(math.log10(_G17_MIN), math.log10(_G17_MAX), n)
    assert_g17(values * rng.choice([-1.0, 1.0], n))


@pytest.mark.parametrize("lo, hi", [(1e-4, 10.0), (_G17_MIN, 10.0), (1e-4, math.inf), (0.0, math.inf)],
                         ids=["below_ten", "scientific", "ten_and_up", "both"])
def test_g17_matches_format_next_to_powers_of_ten_and_the_range_bounds(lo, hi):
    # the kernel's first guess of the decimal exponent is one off next to a
    # power of ten; a 17-digit rounding that carried would show there too.
    # The magnitudes in [lo, hi) select the block layout (see INTEGERS).
    powers = [float(f"1e{j}") for j in range(-10, 16)]
    nines = [float(f"9.99999999999999999e{j}") for j in range(-11, 15)]
    values = neighbours(powers + nines + INTEGERS + NEXT_TO_TEN + [_G17_MIN, _G17_MAX])
    values = values[(values >= lo) & (values < hi)]
    assert_g17(np.concatenate([values, -values]))


def test_g17_rounds_exact_halfway_cases_to_even():
    # m 2**-j with m odd has exactly j decimals; with 18 significant digits,
    # the last a 5, the 17-digit rounding is a tie (m 5**j < 10**18 needs
    # j <= 25, m < 2**53 needs j >= 3)
    rng = np.random.default_rng(13)
    values = []
    for j in range(3, 26):
        lo, hi = -(-10**17 // 5**j), min((10**18 - 1) // 5**j, 2**53 - 1)
        for m in 2 * rng.integers(lo // 2, (hi - 1) // 2 + 1, 40) + 1:
            x = math.ldexp(int(m), -j)
            digits = Decimal(x).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
            values.append(x)
    assert _G17_MIN <= min(values) and max(values) < _G17_MAX
    assert_g17(np.concatenate([values, np.negative(values)]))


@pytest.mark.parametrize("null", [False, True])
def test_g17_formats_zeros_and_the_cells_outside_its_range(null):
    # signed zeros, and the cells left to %: non-finite values, subnormal and
    # extreme magnitudes, and the widest text %.17g writes
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, 1e-300, 1e16, 123456789012345678.0, 1e22,
               -1.2345678901234567e-300, 0.5]
    assert_g17(np.array(special), null)
