"""Tests for the command-line interface and the experiment runner."""

import ast
import csv
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from cdmd import (
    EXPERIMENTS,
    ExperimentConfig,
    InvalidInput,
    LorenzParams,
    ParseError,
    centered_dmd,
    exact_dmd,
    lorenz_rk4,
    reconstruct,
    run_experiment,
    split_snapshots,
)
from cdmd import experiments
from cdmd.cli import load_matrix, main, save_matrix
from cdmd.dmd import COMPANION_MAX_T


def _traced_peak(fn, *args):
    """Peak bytes ``fn(*args)`` allocates while tracemalloc traces (NumPy arrays included)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.txt"
    save_matrix(np.array([[1.0, 3.0, 7.0, 15.0], [1.0, 5.0, 17.0, 53.0]]), path)
    return path


class TestMatrixIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((3, 4))
        path = tmp_path / "m.txt"
        save_matrix(M, path)
        assert np.array_equal(load_matrix(path), M)

    def test_golden_fixture(self, golden_file):
        assert np.array_equal(load_matrix(golden_file), [[1, 3, 7, 15], [1, 5, 17, 53]])

    @pytest.mark.parametrize(
        "text",
        ["2 2\n1 2\n\n \t \n3 4\n", "2 2\r\n1 2\r\n3 4\r\n", "\n\n2 2\n\n1 2\n3 4"],
        ids=["blank_lines_between_rows", "crlf", "leading_blank_lines_no_final_newline"],
    )
    def test_layout_variants(self, tmp_path, text):
        path = tmp_path / "m.txt"
        path.write_bytes(text.encode())
        assert np.array_equal(load_matrix(path), [[1, 2], [3, 4]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["2 3\n", "2 3\n\n  \n"], ids=["header_only", "header_and_blank_lines"])
    def test_header_only_file(self, tmp_path, text):
        # No body reaches np.loadtxt, which would warn about an empty input.
        path = tmp_path / "m.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match="header promises 2 rows but file has 0"):
            load_matrix(path)

    def test_io_holds_no_copy_of_the_text(self, tmp_path):
        # A 64 x 1000 recording: the text is parsed as it is read and written
        # one row at a time. Holding the whole text took 6.3 x X1.nbytes to read
        # and 4.1 x to write.
        M = np.random.default_rng(0).standard_normal((64, 1001))
        block = M[:, :-1].nbytes
        path = tmp_path / "m.txt"
        assert _traced_peak(save_matrix, M, path) < 0.5 * block
        assert _traced_peak(load_matrix, path) < 2 * block
        assert np.array_equal(load_matrix(path), M)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 2\n3 4\n5 6\n")
        with pytest.raises(ParseError):
            load_matrix(path)

    def test_column_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3\n1 2 3\n4 5\n")
        with pytest.raises(ParseError):
            load_matrix(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("two by two\n1 2\n3 4\n")
        with pytest.raises(ParseError):
            load_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_matrix(tmp_path / "nope.txt")

    def test_non_numeric_entry(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 2\n3 x\n")
        with pytest.raises(ParseError, match="row 2"):
            load_matrix(path)

    @pytest.mark.parametrize("token", ["1_0", "\uff11"], ids=["underscore", "fullwidth_digit"])
    def test_python_only_float_syntax_rejected(self, tmp_path, token):
        # float() accepts these; the matrix format takes only what np.loadtxt parses.
        path = tmp_path / "bad.txt"
        path.write_text(f"2 2\n1 2\n3 {token}\n", encoding="utf-8")
        with pytest.raises(ParseError, match="row 2"):
            load_matrix(path)

    def test_special_values_parse(self, tmp_path):
        path = tmp_path / "special.txt"
        path.write_text("1 6\nnan inf -inf -0 1e-400 .5\n")
        got = load_matrix(path)
        assert got.shape == (1, 6)
        assert np.isnan(got[0, 0]) and np.array_equal(got[0, 1:], [np.inf, -np.inf, 0.0, 0.0, 0.5])

    def test_golden_bytes_special_values(self, tmp_path):
        path = tmp_path / "special.txt"
        save_matrix([[np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, 1 / 3, 1.2345678901234568e17]], path)
        assert path.read_text() == (
            "1 8\n"
            "nan inf -inf -0 4.9406564584124654e-324 1e+308 0.33333333333333331 1.2345678901234568e+17\n"
        )

    def test_complex_with_imaginary_part_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput):
                save_matrix(np.array([[1 + 2j, 3]]), path)
        assert not path.exists()

    def test_three_dimensional_array_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        with pytest.raises(InvalidInput):
            save_matrix(np.zeros((2, 2, 2)), path)
        assert not path.exists()

    def test_complex_with_zero_imaginary_part_written_as_real(self, tmp_path):
        path = tmp_path / "c.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            save_matrix(np.array([[1 + 0j, -2.5], [0.25, 3]]), path)
        assert path.read_text() == "2 2\n1 -2.5\n0.25 3\n"


def test_import_leaves_scipy_unloaded(tmp_path):
    # cdmd needs only NumPy: neither importing the package and the CLI nor
    # running the experiments that compare spectra with match_spectra loads SciPy.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = (
        "import sys, cdmd, cdmd.cli\n"
        "if 'scipy' in sys.modules: sys.exit(1)\n"
        "for name in ('fig2_spectra', 'fig5_fixed_freq', 'fig7_video'):\n"
        "    cdmd.run_experiment(cdmd.ExperimentConfig(name, output_dir=sys.argv[1]))\n"
        "sys.exit(2 if 'scipy' in sys.modules else 0)\n"
    )
    assert subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, timeout=120).returncode == 0


SRC_MODULES = sorted(p for p in (Path(__file__).resolve().parents[1] / "src" / "cdmd").glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    # Every name a module binds with a module-level import is read somewhere in it.
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update({(a.asname or a.name).split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update({a.asname or a.name: node.lineno for a in node.names})
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


#: NumPy functions that run an SVD of their argument.
SVD_FUNCTIONS = {"svd", "pinv", "cond", "matrix_rank"}


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda p: p.name)
def test_svd_only_through_linalg_svd(path):
    # Every SVD goes through linalg._svd, which factors a wide matrix through its
    # transpose: no module names an ``svd`` anywhere else, nor calls
    # or imports from NumPy another function that runs one.
    tree = ast.parse(path.read_text())
    inside = set()
    if path.name == "linalg.py":
        (svd_def,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_svd"]
        inside = set(ast.walk(svd_def))
    uses = [
        node
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in SVD_FUNCTIONS)
        or (
            isinstance(node, ast.ImportFrom)
            and any(a.name == "svd" or (node.level == 0 and a.name in SVD_FUNCTIONS) for a in node.names)
        )
    ]
    assert not [f"{path.name}:{node.lineno}" for node in uses if node not in inside]
    assert path.name != "linalg.py" or any(node in inside for node in uses)


class TestSubcommands:
    def test_dmd_json(self, golden_file, tmp_path, capsys):
        out = tmp_path / "res.json"
        assert main(["dmd", "--input", str(golden_file), "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        assert res["method"] == "dmd" and res["rank_used"] == 2
        assert "version" in res

    def test_centered_dmd_recovers_golden(self, golden_file, tmp_path):
        out = tmp_path / "res.json"
        assert main(["centered-dmd", "--input", str(golden_file), "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        eigs = sorted(e["re"] for e in res["eigenvalues"])
        assert np.allclose(eigs, [2.0, 3.0], atol=1e-9)
        assert np.allclose(res["bias"], [1.0, 2.0], atol=1e-9)
        assert np.allclose(res["fixed_point"], [-1.0, -1.0], atol=1e-9)

    def test_companion(self, golden_file, tmp_path):
        out = tmp_path / "res.json"
        assert main(["companion", "--input", str(golden_file), "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        assert len(res["coefficients"]) == 3

    def test_freq_sub_unit_lambda(self, golden_file, tmp_path):
        out = tmp_path / "res.json"
        code = main(["freq-sub", "--input", str(golden_file), "--lambda", "1,0", "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())
        eigs = sorted(e["re"] for e in res["eigenvalues"])
        assert np.allclose(eigs, [2.0, 3.0], atol=1e-8)

    def test_companion_size_guard_exits_one(self, tmp_path, capsys):
        path = tmp_path / "long.txt"
        save_matrix(np.random.default_rng(0).standard_normal((1, COMPANION_MAX_T + 2)), path)
        assert main(["companion", "--input", str(path)]) == 1
        assert f"at most {COMPANION_MAX_T} snapshot pairs" in capsys.readouterr().err

    def test_companion_nonfinite_last_column_exits_one(self, tmp_path):
        # The last column is the regressed snapshot, checked with the rest of the trajectory.
        path = tmp_path / "nan.txt"
        save_matrix(np.array([[1.0, 2.0, 4.0, np.nan], [1.0, 3.0, 9.0, 27.0]]), path)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        argv = [sys.executable, "-m", "cdmd.cli", "companion", "--input", str(path)]
        run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 1
        assert run.stderr == "error: snapshot matrices contain non-finite entries\n"

    def test_invalid_rank_exits_one(self, golden_file, capsys):
        assert main(["dmd", "--input", str(golden_file), "--rank", "99"]) == 1

    @pytest.mark.parametrize("tol", ["0", "2"])
    def test_tol_outside_unit_interval_exits_one(self, golden_file, capsys, tol):
        assert main(["dmd", "--input", str(golden_file), "--tol", tol]) == 1
        assert f"rel_tol must lie in (0, 1), got {float(tol)}" in capsys.readouterr().err

    def test_parse_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2\n1 2\n")
        assert main(["dmd", "--input", str(bad)]) == 1

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["dmd"], ["centered-dmd"], ["companion"], ["freq-sub", "--lambda", "1,0"]],
        ids=["dmd", "centered-dmd", "companion", "freq-sub"],
    )
    def test_decomposition_seed_rejected(self, argv, golden_file, capsys):
        # Decompositions are deterministic, so only `experiment` takes --seed.
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--input", str(golden_file), "--seed", "0"])
        assert exc.value.code == 2


class TestExperiments:
    def test_fast_experiments_pass(self, tmp_path, capsys):
        for name in ("fig2_spectra", "fig4_dft", "fig5_fixed_freq", "fig7_video"):
            code = main(["experiment", name, "--seed", "0", "--out", str(tmp_path / name)])
            assert code == 0, capsys.readouterr().out
            summary = json.loads((tmp_path / name / f"{name}_summary.json").read_text())
            assert summary["experiment"] == name
            assert all(a["passed"] for a in summary["assertions"])
            assert summary["seed"] == 0 and "version" in summary and "config" in summary

    def test_fig3_reduced_realizations(self, tmp_path):
        cfg = ExperimentConfig("fig3_noise", seed=1, overrides={"realizations": 15}, output_dir=tmp_path)
        summary = run_experiment(cfg)
        assert (tmp_path / "fig3_noise.csv").exists()
        slopes = [summary["metrics"]["slope_centered"], summary["metrics"]["slope_uncentered"]]
        assert all(abs(s - 1.0) < 0.2 for s in slopes)

    def test_determinism(self, tmp_path):
        a = run_experiment(ExperimentConfig("fig2_spectra", seed=5, output_dir=tmp_path / "a"))
        b = run_experiment(ExperimentConfig("fig2_spectra", seed=5, output_dir=tmp_path / "b"))
        a["config"]["output_dir"] = b["config"]["output_dir"] = ""
        assert a == b
        assert (tmp_path / "a" / "fig2_a.csv").read_text() == (tmp_path / "b" / "fig2_a.csv").read_text()

    def test_fig6_reconstruction_csv_bytes(self, tmp_path):
        # Golden bytes: each value written as str(np.float64), which is repr(float).
        run_experiment(ExperimentConfig("fig6_lorenz", overrides={"noise_seeds": 1}, output_dir=tmp_path))
        X = lorenz_rk4(LorenzParams())
        pair = split_snapshots(X)
        clean, cen = exact_dmd(pair, r=3), centered_dmd(pair, r=3)
        table = np.column_stack([
            np.arange(X.shape[1]) * LorenzParams().dt,
            X.T,
            np.real(reconstruct(clean, X[:, 0], X.shape[1])).T,
            np.real(reconstruct(cen, X[:, 0], X.shape[1])).T,
        ])
        header = "t,x,y,z,x_dmd,y_dmd,z_dmd,x_centered,y_centered,z_centered"
        expected = "".join(line + "\r\n" for line in [header, *(",".join(str(v) for v in row) for row in table)])
        assert (tmp_path / "fig6_reconstruction.csv").read_bytes() == expected.encode()

    def test_csv_bytes_match_csv_writer(self, tmp_path, golden_file, monkeypatch):
        # Every CSV an experiment writes, at seed 0, has the bytes csv.writer
        # gives for the same header and rows.
        written = []
        write_csv = experiments._write_csv

        def spy(path, header, rows):
            rows = list(rows)
            written.append((path, header, rows))
            write_csv(path, header, rows)

        monkeypatch.setattr(experiments, "_write_csv", spy)
        for name in EXPERIMENTS:
            overrides = {"input": str(golden_file)} if name == "custom" else {}
            run_experiment(ExperimentConfig(name, overrides=overrides, output_dir=tmp_path / name))
        assert len({path.name for path, _, _ in written}) == len(written) == 12
        for path, header, rows in written:
            expected = tmp_path / "expected.csv"
            with open(expected, "w", newline="") as f:
                writer = csv.writer(f)
                writer.writerow(header)
                writer.writerows(rows)
            assert path.read_bytes() == expected.read_bytes(), path.name

    @pytest.mark.parametrize(
        "name, setting, message",
        [
            ("fig3_noise", "realizations=abc", "experiment 'fig3_noise': parameter 'realizations' must be int, got 'abc'"),
            ("fig5_fixed_freq", "lambda=foo", "experiment 'fig5_fixed_freq': parameter 'lambda' must be complex, got 'foo'"),
            ("fig3_noise", "realisations=2", "experiment 'fig3_noise' has no parameter 'realisations'; it takes: realizations"),
            ("fig2_spectra", "eta=0.1", "experiment 'fig2_spectra' has no parameter 'eta'; it takes: none"),
        ],
        ids=["malformed-int", "malformed-complex", "unknown-key", "no-parameters"],
    )
    def test_bad_override_rejected(self, name, setting, message, tmp_path, capsys):
        # Checked before the runner starts: nothing is written.
        assert main(["experiment", name, "--set", setting, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "name, setting, message",
        [
            ("fig5_fixed_freq", "lambda=nan", "forcing_lambda must be finite, got (nan+0j)"),
            ("fig5_fixed_freq", "lambda=inf", "forcing_lambda must be finite, got (inf+0j)"),
            ("fig6_lorenz", "noise_seeds=0", "fig6_lorenz needs noise_seeds >= 1, got 0"),
            ("fig7_video", "height=0", "need frames of at least 1 x 1 pixels, got 0 x 16"),
            ("fig7_video", "width=-1", "need frames of at least 1 x 1 pixels, got 16 x -1"),
        ],
        ids=["nan-lambda", "inf-lambda", "no-noise-seeds", "no-rows", "negative-width"],
    )
    def test_degenerate_setting_rejected(self, name, setting, message, tmp_path, capsys):
        # Refused before any fit, with an error: line and no summary.
        assert main(["experiment", name, "--set", setting, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("*_summary.json"))

    @pytest.mark.parametrize("option", [["--input", "m.txt"], ["--rank", "2"]], ids=["input", "rank"])
    def test_custom_options_rejected_elsewhere(self, option, tmp_path, capsys):
        # `experiment` takes custom's matrix and rank as --set input=... and --set rank=... alone.
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "fig2_spectra", *option, "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_unknown_experiment_rejected(self):
        with pytest.raises(InvalidInput, match="unknown experiment 'nope'"):
            ExperimentConfig("nope")

    def test_custom_requires_input(self, tmp_path, capsys):
        assert main(["experiment", "custom", "--out", str(tmp_path)]) == 1

    def test_custom_runs(self, golden_file, tmp_path):
        code = main(["experiment", "custom", "--set", f"input={golden_file}", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "custom_summary.json").read_text())
        assert summary["metrics"]["consistency_residual"] > 1e-3
