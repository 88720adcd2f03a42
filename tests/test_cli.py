import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import magnetodisk
from magnetodisk.cli import main


def run(*args):
    return main([str(a) for a in args])


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# magnetodisk=")
    assert "config_hash=" in lines[0]
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return columns, rows


def test_eigen_command(tmp_path):
    out = tmp_path / "run"
    assert run("eigen", "--n", 128, "--out", out) == 0
    payload = json.loads((out / "eigen.json").read_text())
    assert payload["gamma0"] > 1.0
    assert payload["n"] == 128
    assert payload["meta"]["version"]
    assert len(payload["meta"]["config_hash"]) == 12

    columns, rows = read_csv(out / "phi0.csv")
    assert columns == ["r", "phi0"]
    assert len(rows) == 129
    assert float(rows[0][1]) == 0.0

    fine = tmp_path / "fine"
    assert run("eigen", "--n", 1024, "--out", fine) == 0
    gamma_fine = json.loads((fine / "eigen.json").read_text())["gamma0"]
    assert abs(payload["gamma0"] - gamma_fine) < 1e-3  # measured 2.4e-4


def test_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("eigen", "--n", 96, "--out", out) == 0
    assert (a / "eigen.json").read_bytes() == (b / "eigen.json").read_bytes()
    assert (a / "phi0.csv").read_bytes() == (b / "phi0.csv").read_bytes()


def fresh_python(*args, blas_threads="1"):
    """Run python with the package importable, in a new interpreter."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
               PYTHONPATH=str(Path(magnetodisk.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, check=True)


def test_eigen_outputs_do_not_depend_on_blas_threads(tmp_path):
    # at this size a BLAS dot splits across threads and sums in another order;
    # minimize and sweep cover the r dr reductions of grid and solver
    commands = {
        "eigen": (["eigen"], ("eigen.json", "phi0.csv")),
        "minimize": (["minimize", "--mu", "2"], ("report.json", "profile.csv")),
        "sweep": (["sweep", "--mu-range", "1.5:2.2:4"], ("summary.json", "diagram.csv")),
    }
    for command, (args, names) in commands.items():
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{command}{threads}"
            fresh_python("-m", "magnetodisk.cli", *args, "--n", "20000", "--out", str(out),
                         blas_threads=threads)
            outs.append(out)
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_cli_import_leaves_scipy_interpolate_unloaded():
    probe = "import sys, magnetodisk.cli; print('scipy.interpolate' in sys.modules)"
    assert fresh_python("-c", probe).stdout.strip() == "False"


def test_minimize_subcritical(tmp_path):
    assert run("minimize", "--mu", 1.0, "--n", 64, "--out", tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["trivial"] is True
    assert report["energy"] == 0.0
    assert report["converged"] is True
    columns, rows = read_csv(tmp_path / "profile.csv")
    assert columns == ["r", "h", "w"]
    assert len(rows) == 65
    assert all(float(row[1]) == 0.0 for row in rows)


def test_minimize_supercritical(tmp_path):
    assert run("minimize", "--mu", 2.5, "--n", 64, "--out", tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["energy"] < 0.0
    assert report["trivial"] is False
    assert report["mu"] == 2.5
    _, rows = read_csv(tmp_path / "profile.csv")
    angles = np.array([float(row[1]) for row in rows])
    assert angles[0] == 0.0
    assert np.all(angles[1:] > 0.0)
    assert np.all(angles[1:] <= np.pi / 2.0)


def test_minimize_accepts_lambda_alone(tmp_path):
    assert run("minimize", "--lambda", 2.0, "--n", 64, "--out", tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["mu"] == 2.0
    assert report["lambda"] == 2.0


def test_minimize_failure_exit_code(tmp_path):
    code = run("minimize", "--mu", 2.5, "--n", 64, "--max-iter", 1,
               "--out", tmp_path)
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is False  # outputs are still written


def test_sweep_below_threshold(tmp_path):
    assert run("sweep", "--mu-range", "0.1:0.5:3", "--n", 64, "--out", tmp_path) == 0
    columns, rows = read_csv(tmp_path / "diagram.csv")
    assert columns == ["mu", "branch", "beta", "energy"]
    assert [row[1] for row in rows] == ["trivial"] * 3
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["threshold"] is None
    assert summary["slope"] is None
    assert summary["truncated_at"] is None


def test_sweep_across_threshold(tmp_path):
    assert run("sweep", "--mu-range", "1.5:2.0:6", "--n", 64, "--out", tmp_path) == 0
    _, rows = read_csv(tmp_path / "diagram.csv")
    branches = {row[1] for row in rows}
    assert branches == {"trivial", "plus", "minus"}
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["gamma0"] > 1.0
    assert summary["cbar"] > 0.0
    assert summary["threshold"] is not None
    assert summary["threshold"] > summary["gamma0"] / 2.0
    assert abs(summary["slope"] - 0.5) < 0.1


def test_sweep_truncation_exit_code(tmp_path):
    code = run("sweep", "--mu-range", "1.5:2.0:6", "--n", 64, "--max-iter", 1,
               "--out", tmp_path)
    assert code == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["truncated_at"] is not None


def test_fields_command(tmp_path):
    assert run("fields", "--mu", 2.5, "--n", 64, "--samples", 11,
               "--out", tmp_path) == 0
    columns, rows = read_csv(tmp_path / "fields.csv")
    assert columns == ["x", "y", "m1", "m2", "m3", "w"]
    data = np.array([[float(v) for v in row] for row in rows])
    assert np.all(data[:, 0] ** 2 + data[:, 1] ** 2 <= 1.0 + 1e-12)
    norms = data[:, 2] ** 2 + data[:, 3] ** 2 + data[:, 4] ** 2
    assert np.abs(norms - 1.0).max() <= 1e-12
    assert np.all(np.isfinite(data))


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 64, "mu": 2.5}))
    out = tmp_path / "out"
    assert run("minimize", "--config", cfg, "--n", 128, "--out", out) == 0
    _, rows = read_csv(out / "profile.csv")
    assert len(rows) == 129  # flag wins over the file value


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.json"
    out = tmp_path / "out"
    # the subcommand comes from the command line only
    for key in ("bogus", "command"):
        cfg.write_text(json.dumps({"mu": 2.5, key: 1}))
        assert run("minimize", "--config", cfg, "--out", out) == 2
        assert not out.exists()  # nothing may be written on invalid input


@pytest.mark.parametrize(
    "args",
    [
        ("minimize",),  # mu missing
        ("fields",),
        ("sweep",),  # mu_range missing
        ("sweep", "--mu-range", "2.0:1.0:5"),  # lo >= hi
        ("sweep", "--mu-range=-0.5:1.0:5"),  # negative mu
        ("minimize", "--mu", 2.0, "--lambda", 1.0),  # inconsistent pair
        ("minimize", "--mu", 1.0, "--mu-range", "1:2:3"),  # both given
        ("minimize", "--mu", -1.0),
        ("minimize", "--mu", 1.0, "--n", 1),
        ("minimize", "--mu", 1.0, "--grading", 0.5),
        ("eigen", "--tol", 0.0),
        ("fields", "--mu", 2.0, "--samples", 2),  # no lattice point inside the disk
    ],
)
def test_invalid_configs_exit_2(tmp_path, args):
    assert run(*args, "--out", tmp_path / "x") == 2
    assert not (tmp_path / "x").exists()


def test_malformed_mu_range_in_config_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mu_range": "1.0:2.0"}))
    assert run("sweep", "--config", cfg, "--out", tmp_path / "x") == 2


def test_malformed_mu_range_flag_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as info:
        run("sweep", "--mu-range", "nope", "--out", tmp_path)
    assert info.value.code == 2


def test_verify_is_not_a_subcommand(tmp_path):
    # the invariant suite is tests/test_acceptance.py
    with pytest.raises(SystemExit) as info:
        run("verify", "--n", 96, "--out", tmp_path / "x")
    assert info.value.code == 2
    assert not (tmp_path / "x").exists()


def test_json_table_format(tmp_path):
    assert run("eigen", "--n", 64, "--format", "json", "--out", tmp_path) == 0
    table = json.loads((tmp_path / "phi0.json").read_text())
    assert table["columns"] == ["r", "phi0"]
    assert len(table["rows"]) == 65
    assert table["meta"]["config_hash"]
    values = [row[1] for row in table["rows"]]
    assert values[0] == 0.0
    assert max(values) > 0.0


def test_values_round_trip_through_text(tmp_path):
    # 17 significant digits reproduce the binary double exactly
    assert run("eigen", "--n", 256, "--out", tmp_path) == 0
    from magnetodisk import build_grid, smallest_eigenpair

    pair = smallest_eigenpair(build_grid(256, 2.0))
    payload = json.loads((tmp_path / "eigen.json").read_text())
    assert payload["gamma0"] == pair.gamma0
    _, rows = read_csv(tmp_path / "phi0.csv")
    got = np.array([float(row[1]) for row in rows])
    assert np.array_equal(got, pair.phi0.values)


def _json_cell_matches(text, value):
    if isinstance(value, str):
        return text == value
    if value is None:  # JSON writes non-finite floats as null
        return not np.isfinite(float(text))
    return float(text) == value


@pytest.mark.parametrize(
    "args, stem",
    [
        (("eigen", "--n", 64), "phi0"),
        (("minimize", "--mu", 2.5, "--n", 64), "profile"),
        (("sweep", "--mu-range", "1.5:2.0:6", "--n", 64), "diagram"),
        (("fields", "--mu", 2.5, "--n", 64, "--samples", 11), "fields"),
    ],
)
def test_json_table_holds_the_csv_numbers(tmp_path, args, stem):
    from magnetodisk import __version__
    from magnetodisk.cli import _build_parser, _config_hash, resolve_config

    csv_out, json_out = tmp_path / "csv", tmp_path / "json"
    assert run(*args, "--out", csv_out) == 0
    json_argv = [str(a) for a in (*args, "--format", "json", "--out", json_out)]
    assert main(json_argv) == 0

    columns, rows = read_csv(csv_out / f"{stem}.csv")
    table = json.loads((json_out / f"{stem}.json").read_text())
    assert list(table) == ["meta", "columns", "rows"]
    assert table["columns"] == columns
    cfg = resolve_config(_build_parser().parse_args(json_argv))
    assert table["meta"] == {"version": __version__, "config_hash": _config_hash(cfg)}
    assert len(table["rows"]) == len(rows)
    for text_row, json_row in zip(rows, table["rows"]):
        assert len(json_row) == len(text_row)
        assert all(_json_cell_matches(t, v) for t, v in zip(text_row, json_row))
