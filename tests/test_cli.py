import importlib
import json
import math
import platform
import pkgutil
from pathlib import Path

import numpy as np
import pytest

from magnetodisk import (
    ModelParams, build_grid, magnetization_grid, minimize, reconstruct_w, smallest_eigenpair)
from magnetodisk import bifurcation, cli, solver
from magnetodisk.cli import main

from conftest import fresh_python


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


# every subcommand, at gradings where numpy's SIMD power differs from libm's
# pow, on a sweep long enough for cbar and the slope fit to see numpy's SIMD
# log, and at n = 20000, where a BLAS dot would split across threads
EVERY_COMMAND = {
    "eigen": ["eigen", "--n", "20000"],
    "eigen-1.5": ["eigen", "--n", "4096", "--grading", "1.5"],
    "eigen-3.5": ["eigen", "--n", "4096", "--grading", "3.5"],
    "eigen-4": ["eigen", "--n", "65536", "--grading", "4"],
    "minimize": ["minimize", "--mu", "2", "--n", "20000"],
    "minimize-1000": ["minimize", "--mu", "1000", "--n", "1024"],
    "sweep": ["sweep", "--mu-range", "1.5:2.2:4", "--n", "20000"],
    "sweep-200": ["sweep", "--mu-range", "1.5:2.2:200", "--n", "256"],
    "fields": ["fields", "--mu", "2", "--n", "1024", "--samples", "41"],
}

# the BLAS thread count, numpy's SIMD level (as on a CPU without AVX-512, and
# without AVX2) and OpenBLAS's kernels for another CPU
SETTINGS = {
    "default": {},
    "blas-threads": {"OPENBLAS_NUM_THREADS": "2"},
    "no-x86-v4": {"NPY_DISABLE_CPU_FEATURES": "X86_V4"},
    "no-x86-v3": {"NPY_DISABLE_CPU_FEATURES": "X86_V3"},
}
if platform.machine().lower() in ("x86_64", "amd64"):
    SETTINGS["prescott"] = {"OPENBLAS_CORETYPE": "Prescott"}


def test_outputs_do_not_depend_on_the_cpu_or_blas_threads(tmp_path):
    probe = f"""
import sys
from magnetodisk import cli
for name, args in {EVERY_COMMAND!r}.items():
    assert cli.main(args + ["--out", sys.argv[1] + "/" + name]) == 0, args
"""
    for setting, env in SETTINGS.items():
        fresh_python("-c", probe, str(tmp_path / setting), env=env)
    default = tmp_path / "default"
    files = sorted(p.relative_to(default) for p in default.glob("*/*"))
    assert {f.parent.name for f in files} == set(EVERY_COMMAND)
    changed = {setting: [str(f) for f in files
                         if (tmp_path / setting / f).read_bytes() != (default / f).read_bytes()]
               for setting in SETTINGS}
    assert changed == {setting: [] for setting in SETTINGS}


def test_cli_import_leaves_scipy_interpolate_unloaded(tmp_path):
    # grid binds pttrf/pttrs from scipy's LAPACK extension without importing
    # scipy.linalg, and fields reads h and w with np.interp
    probe = f"""
import sys
from magnetodisk import cli
for args in (["eigen", "--n", "64"], ["minimize", "--mu", "2", "--n", "64"],
             ["sweep", "--mu-range", "1.5:2.2:3", "--n", "64"],
             ["fields", "--mu", "2", "--n", "64", "--samples", "5"]):
    assert cli.main(args + ["--out", {str(tmp_path)!r} + "/" + args[0]]) == 0, args
print(sorted(m for m in ("scipy.linalg", "scipy.interpolate") if m in sys.modules))
"""
    assert fresh_python("-c", probe).stdout.splitlines()[-1] == "[]"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "eigen", "fields", "minimize", "sweep"]


# the test-side certificates and helpers that left the package
MOVED_TO_TESTS = (
    "boundary_slope", "check_reduction_identity", "coupled_energy", "derivative",
    "displacement_equation_residual", "energy", "euler_residual", "fold", "gradient",
    "l2_norm", "nonlinear_split", "predicted_amplitude", "random_profile",
    "verify_trivial_uniqueness",
)


def test_package_exports_resolve_and_leave_the_test_helpers_out():
    import magnetodisk

    assert all(hasattr(magnetodisk, name) for name in magnetodisk.__all__)
    assert len(set(magnetodisk.__all__)) == len(magnetodisk.__all__)
    assert [name for name in MOVED_TO_TESTS if hasattr(magnetodisk, name)] == []
    assert not set(MOVED_TO_TESTS) & set(magnetodisk.__all__)
    # neither a subcommand nor the README example runs these
    modules = (magnetodisk, magnetodisk.eigen, magnetodisk.operators)
    for name in ("assemble_pencil", "cbar", "energy_of_values", "gradient_values",
                 "second_eigenpair"):
        assert [m.__name__ for m in modules if hasattr(m, name) or name in m.__all__] == []
    # the Newton matrix is built by the solver's private functions
    assert not hasattr(magnetodisk.solver, "hessian_bands")
    assert magnetodisk.solver.__all__ == ["SolveReport", "minimize"]
    # a stale entry would break a star import of its module
    for info in pkgutil.iter_modules(magnetodisk.__path__):
        m = importlib.import_module(f"magnetodisk.{info.name}")
        assert [name for name in m.__all__ if not hasattr(m, name)] == [], info.name
        assert len(set(m.__all__)) == len(m.__all__), info.name


def test_the_readme_library_example_runs():
    # the example runs as written, against this checkout's package, so a
    # signature change cannot leave it stale
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    result = fresh_python("-c", blocks[0].split("```", 1)[0], check=False, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
    assert len(result.stdout.splitlines()) == 2


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
    # a start that underflows to E = 0 at the h = 0 saddle is not converged
    assert run("minimize", "--mu", 2, "--n", 64, "--init-eps", 1e-200,
               "--out", tmp_path / "flat") == 1


def test_sweep_below_threshold(tmp_path):
    assert run("sweep", "--mu-range", "0.1:0.5:3", "--n", 64, "--out", tmp_path) == 0
    columns, rows = read_csv(tmp_path / "diagram.csv")
    assert columns == ["mu", "branch", "beta", "energy"]
    assert [row[1] for row in rows] == ["trivial"] * 3
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["threshold"] is None
    assert summary["slope"] is None
    assert summary["truncated_at"] is None


@pytest.mark.filterwarnings("error")  # no RuntimeWarning lines on stderr either
def test_sweep_below_threshold_needs_no_start(tmp_path, capsys):
    # below gamma0/2 the trivial point is certified, not solved, so a start
    # whose energy overflows is never built; a range that crosses the
    # threshold still starts from it there, and fails on it
    below = tmp_path / "below"
    assert run("sweep", "--mu-range", "0.1:0.5:3", "--n", 64, "--init-eps", 1e200,
               "--out", below) == 0
    _, rows = read_csv(below / "diagram.csv")
    assert [row[1] for row in rows] == ["trivial"] * 3
    assert json.loads((below / "summary.json").read_text())["truncated_at"] is None
    assert capsys.readouterr().err == ""

    across = tmp_path / "across"
    assert run("sweep", "--mu-range", "1.5:2.0:6", "--n", 64, "--init-eps", 1e200,
               "--out", across) == 1
    assert capsys.readouterr().err == "numerical failure: initial profile has non-finite energy\n"
    assert not across.exists()


@pytest.mark.filterwarnings("error")  # no RuntimeWarning lines on stderr either
@pytest.mark.parametrize("args", [("sweep", "--mu-range", "0.1:0.5:3"),
                                  ("sweep", "--mu-range", "1.5:2.0:6"),
                                  ("minimize", "--mu", 2.0), ("fields", "--mu", 2.0)],
                         ids=["sweep-below", "sweep-across", "minimize", "fields"])
def test_a_start_that_overflows_phi0_fails_like_its_energy(tmp_path, capsys, args):
    # 1.5e308 is finite and positive, but 1.5e308 * max phi0 overflows: a
    # sweep below gamma0/2 never uses the start, the rest fail on its energy
    below = args[2] == "0.1:0.5:3"
    assert run(*args, "--n", 64, "--init-eps", 1.5e308, "--out", tmp_path / "x") == int(not below)
    assert capsys.readouterr().err == (
        "" if below else "numerical failure: initial profile has non-finite energy\n")
    assert (tmp_path / "x").exists() == below


@pytest.mark.filterwarnings("error")  # no RankWarning on stderr either
@pytest.mark.parametrize("mu_range, fitted", [("10:10.000000000000002:2", False),
                                              ("20:20.000000000000004:3", False),
                                              ("20:20.00001:3", True)])
def test_sweep_over_mu_one_ulp_apart_fits_without_warnings(tmp_path, capsys, mu_range, fitted):
    # the first range's two log deltas are equal, so no line fits them; the
    # second's differ in their last bit, less than the rounding error of
    # 2 mu - gamma0 and its log, so a slope fitted to them would be noise;
    # the third's differ by 5e-7, far above it
    assert run("sweep", "--mu-range", mu_range, "--n", 64, "--out", tmp_path) == 0
    assert capsys.readouterr().err == ""
    slope = json.loads((tmp_path / "summary.json").read_text())["slope"]
    assert (slope is not None) == fitted


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
    # m and w at each lattice point are the P1 functions of the nodal h and w
    xs, ys = data[:, 0], data[:, 1]
    grid = build_grid(64)
    h = minimize(grid, ModelParams(mu=2.5), eigenpair=smallest_eigenpair(grid)).minimizer
    w = reconstruct_w(h, np.sqrt(5.0))
    assert np.array_equal(data[:, 5], np.interp(np.hypot(xs, ys), grid.nodes, w.values))
    assert np.array_equal(data[:, 2:5], magnetization_grid(h, xs, ys))


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
        ("minimize", "--mu", "nan"),
        ("minimize", "--mu", "inf"),
        ("minimize", "--lambda", "nan"),
        ("minimize", "--mu", 2.0, "--tol", "nan"),
        ("minimize", "--mu", 2.0, "--tol", "inf"),
        ("minimize", "--mu", 2.0, "--init-eps", "nan"),
        ("sweep", "--mu-range", "1:2:3", "--tol", "nan"),
        ("sweep", "--mu-range", "1:2:3", "--lambda", 2.0),  # lambda sets mu
        ("eigen", "--mu", "nan"),
        ("minimize", "--mu", 2.0, "--lambda", "nan"),
        ("minimize", "--lambda", 1e200),  # lambda^2 overflows
    ],
)
def test_invalid_configs_exit_2(tmp_path, capsys, args):
    assert run(*args, "--out", tmp_path / "x") == 2
    assert not (tmp_path / "x").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")  # no RuntimeWarning lines on stderr either
def test_overflowing_start_is_a_numerical_failure(tmp_path, capsys):
    # a finite init_eps whose start has non-finite energy
    code = run("fields", "--mu", 2.0, "--n", 64, "--init-eps", 1e308, "--out", tmp_path / "x")
    assert code == 1
    assert not (tmp_path / "x").exists()
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")  # no RuntimeWarning lines on stderr either
def test_overflowing_gradient_is_a_failed_solve(tmp_path, capsys):
    # the start's energy is finite, its gradient norm and descent slope are not
    assert run("minimize", "--mu", 1e300, "--n", 64, "--out", tmp_path) == 1
    assert capsys.readouterr().err == "minimize did not converge at mu=1e+300\n"
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["residual"] is None and not report["converged"]
    assert report["iterations"] == 0


@pytest.mark.filterwarnings("error")  # no RuntimeWarning lines on stderr either
def test_grading_that_collapses_nodes_exits_2(tmp_path, capsys):
    assert run("eigen", "--n", 64, "--grading", 1e6, "--out", tmp_path / "x") == 2
    assert not (tmp_path / "x").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")  # no RuntimeWarning lines on stderr either
def test_grading_whose_r1_squared_underflows_exits_2(tmp_path, capsys):
    assert run("eigen", "--n", 64, "--grading", 100, "--out", tmp_path / "x") == 2
    assert not (tmp_path / "x").exists()
    assert capsys.readouterr().err == (
        "error: grading 100.0 at n=64: r_1^2 = 0, where 1/r^2 overflows\n")


def test_minimize_from_a_huge_start_ends_with_a_truthful_report(tmp_path):
    # every trial of the first step lies far outside [0, pi/2]; the fold must
    # not take one sweep per pi of amplitude
    code = fresh_python("-m", "magnetodisk.cli", "minimize", "--mu", "2", "--n", "64",
                        "--init-eps", "1e100", "--out", str(tmp_path), check=False,
                        timeout=60).returncode
    report = json.loads((tmp_path / "report.json").read_text())
    assert code in (0, 1)
    assert (code == 0) <= (report["converged"] and report["residual"] <= 1e-8)
    assert report["energy"] >= -np.pi * 2.0 / 4.0


@pytest.mark.parametrize(
    "values",
    [{"tol": "x"}, {"mu": "2"}, {"mu": 2, "max_iter": 1.5}, {"mu_range": [1, 2, "x"]}],
)
def test_config_file_values_of_the_wrong_type_exit_2(tmp_path, capsys, values):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values))
    command = "sweep" if "mu_range" in values else "minimize"
    assert run(command, "--config", cfg, "--n", 64, "--out", tmp_path / "x") == 2
    assert not (tmp_path / "x").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_file_accepts_integral_floats(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 64.0, "mu": 2, "max_iter": 500.0}))
    assert run("minimize", "--config", cfg, "--out", tmp_path / "a") == 0
    assert run("minimize", "--mu", 2, "--n", 64, "--out", tmp_path / "b") == 0
    for name in ("report.json", "profile.csv"):  # the same config hash too
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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


@pytest.mark.parametrize("out", ["afile", "afile/sub", "link", "link/sub"])
def test_out_through_a_file_exits_2_before_solving(tmp_path, capsys, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("kept\n")
    (tmp_path / "link").symlink_to(tmp_path / "nowhere" / "x")  # dangling
    assert run("eigen", "--n", 16, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and out.split("/")[0] in err
    assert (tmp_path / "afile").read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "link"]


def _same(document, values):
    """Each value of document equals its in-process value: floats bit for bit,
    a non-finite float as null."""
    for key, want in values.items():
        got = document[key]
        if isinstance(want, float):
            assert (got is None if not np.isfinite(want) else got.hex() == want.hex()), key
        else:
            assert got == want and type(got) is type(want), key


def test_json_documents_hold_the_in_process_values_bitwise(tmp_path, grid64, pair64):
    from magnetodisk import amplitude_fit_slope, detected_threshold, trace_branches

    assert run("eigen", "--n", 256, "--out", tmp_path / "e") == 0
    grid = build_grid(256, 2.0)
    pair = smallest_eigenpair(grid)
    _same(json.loads((tmp_path / "e" / "eigen.json").read_text()),
          {"gamma0": pair.gamma0, "n": 256, "grading": 2.0, "residual": pair.residual,
           "iterations": pair.iterations})

    assert run("minimize", "--mu", 2.5, "--n", 256, "--out", tmp_path / "m") == 0
    report = minimize(grid, ModelParams(mu=2.5), eigenpair=pair)
    _same(json.loads((tmp_path / "m" / "report.json").read_text()),
          {"mu": 2.5, "lambda": np.sqrt(5.0), "energy": report.energy,
           "residual": report.residual, "iterations": report.iterations,
           "converged": report.converged, "fold_applied": report.fold_applied,
           "bc_residual": report.bc_residual, "trivial": report.trivial})

    assert run("sweep", "--mu-range", "1.5:2.0:6", "--n", 64, "--out", tmp_path / "s") == 0
    diagram = trace_branches(grid64, ModelParams(mu=1.5), np.linspace(1.5, 2.0, 6),
                             eigenpair=pair64)
    _same(json.loads((tmp_path / "s" / "summary.json").read_text()),
          {"gamma0": diagram.gamma0, "cbar": diagram.cbar,
           "threshold": detected_threshold(diagram), "slope": amplitude_fit_slope(diagram),
           "mu_step": diagram.mu_step, "truncated_at": diagram.truncated_at})


@pytest.mark.parametrize("args, stem, code, outside", [
    (("minimize", "--mu", 1e300, "--n", 16), "profile", 1, 16),  # w reaches 1.5e149
    (("eigen", "--n", 65536), "phi0", 0, 0),
], ids=["overflow", "eigen-65536"])
def test_csv_and_json_cells_are_the_text_of_format_17g(tmp_path, args, stem, code, outside):
    # `outside` cells lie outside the %.17g kernel's range and are formatted by %
    assert run(*args, "--out", tmp_path) == code
    assert run(*args, "--format", "json", "--out", tmp_path) == code
    _, rows = read_csv(tmp_path / f"{stem}.csv")
    assert len(rows) == int(args[args.index("--n") + 1]) + 1
    cells = [cell for row in rows for cell in row]
    assert [cell for cell in cells if cell != format(float(cell), ".17g")] == []
    assert sum(not 1e-10 <= abs(float(cell)) < 1e15 for cell in cells if float(cell)) == outside
    text = (tmp_path / f"{stem}.json").read_text()
    body = text[text.index('"rows": [[') + len('"rows": [['):text.rindex("]]")]
    assert [row.split(", ") for row in body.split("], [")] == rows
    assert len(json.loads(text)["rows"]) == len(rows)


def _refuse(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_an_infinite_residual_is_written_as_null(tmp_path, capsys):
    assert run("minimize", "--mu", 1e300, "--n", 16, "--out", tmp_path) == 1
    capsys.readouterr()
    report = json.loads((tmp_path / "report.json").read_text(), parse_constant=_refuse)
    assert report["residual"] is None and report["converged"] is False


def _hash(*argv):
    from magnetodisk.cli import _build_parser, _config_hash, resolve_config

    return _config_hash(resolve_config(_build_parser().parse_args([str(a) for a in argv])))


# a value for every RunConfig key but out, other than the one in BASE_CONFIG
OTHER_VALUES = {
    "command": "minimize", "n": 513, "grading": 2.5, "mu": 2.0, "mu_range": (1.0, 2.0, 3),
    "lam": 2.0, "seed": 1, "tol": 1e-9, "max_iter": 501, "init_eps": 0.2,
    "format": "json", "samples": 43,
}


def test_config_hash_ignores_out_and_reads_every_other_key():
    from dataclasses import fields, replace

    from magnetodisk.cli import RunConfig, _config_hash

    assert set(OTHER_VALUES) == {f.name for f in fields(RunConfig)} - {"out"}
    base = RunConfig(command="sweep")
    assert _config_hash(replace(base, out="elsewhere")) == _config_hash(base)
    hashes = {_config_hash(base)}
    for key, value in OTHER_VALUES.items():
        assert getattr(base, key) != value
        hashes.add(_config_hash(replace(base, **{key: value})))
    assert len(hashes) == 1 + len(OTHER_VALUES)


def test_config_file_numbers_hash_like_the_flags(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"n": 64.0, "grading": 2}')
    assert _hash("eigen", "--config", cfg) == _hash("eigen", "--n", 64, "--grading", 2)


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 745. GiB for an array")


def test_out_of_memory_building_the_grid_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_grid", _out_of_memory)
    out = tmp_path / "out"
    assert run("eigen", "--n", 16, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1
    assert not out.exists()


def test_out_of_memory_in_a_subcommand_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "magnetization_grid", _out_of_memory)
    assert run("fields", "--mu", 2, "--n", 16, "--samples", 5, "--out", tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("out of memory: Unable to allocate") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")  # no RuntimeWarning lines on stderr either
@pytest.mark.parametrize("mu", [8.9e307, 1e308, 1.7976931348623157e308])
def test_lambda_is_finite_where_2_mu_overflows(tmp_path, capsys, mu):
    # the solve fails there, but its partial outputs are still written
    assert run("minimize", "--mu", mu, "--n", 16, "--out", tmp_path) == 1
    assert capsys.readouterr().err == f"minimize did not converge at mu={mu}\n"
    lam = json.loads((tmp_path / "report.json").read_text(), parse_constant=_refuse)["lambda"]
    assert math.isfinite(lam) and abs(lam / 2.0 * (lam / mu) - 1.0) <= 1e-15
    if math.isfinite(2.0 * mu):
        assert lam == math.sqrt(2.0 * mu)
    columns, rows = read_csv(tmp_path / "profile.csv")
    assert columns == ["r", "h", "w"] and len(rows) == 17


def _solved(*args, **kwargs):
    raise AssertionError("solved before the lattice or the mu grid was built")


@pytest.mark.parametrize("args", [("fields", "--mu", 2, "--samples", 10**7),
                                  ("sweep", "--mu-range", "1.5:2.2:1000000000000")],
                         ids=["fields", "sweep"])
def test_a_lattice_or_mu_grid_out_of_memory_fails_before_the_solve(
        tmp_path, capsys, monkeypatch, args):
    linspace = np.linspace

    def refusing(start, stop, num=50, **kwargs):
        if num > 10**6:
            _out_of_memory()
        return linspace(start, stop, num, **kwargs)

    monkeypatch.setattr(np, "linspace", refusing)
    monkeypatch.setattr(cli, "smallest_eigenpair", _solved)  # every solve needs its pair
    out = tmp_path / "out"
    assert run(*args, "--n", 16, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1
    assert not out.exists()


def test_a_mu_grid_past_numpy_s_size_limit_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "smallest_eigenpair", _solved)
    out = tmp_path / "out"
    assert run("sweep", "--mu-range", f"1.5:2.2:{10**23}", "--n", 16, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("args", [("eigen",), ("minimize", "--mu", 2.5),
                                  ("fields", "--mu", 2.5, "--samples", 5),
                                  ("sweep", "--mu-range", "1.5:2.0:6")],
                         ids=["eigen", "minimize", "fields", "sweep"])
def test_every_subcommand_builds_the_eigenpair_once(tmp_path, monkeypatch, args):
    # main builds the threshold pair and hands it on; the solver and the
    # branch tracer take it from their caller and have no way to build one
    built = []
    build = cli.smallest_eigenpair
    monkeypatch.setattr(cli, "smallest_eigenpair", lambda grid: built.append(grid) or build(grid))
    assert run(*args, "--n", 64, "--out", tmp_path) == 0
    assert len(built) == 1
    assert not hasattr(solver, "smallest_eigenpair")
    assert not hasattr(bifurcation, "smallest_eigenpair")
