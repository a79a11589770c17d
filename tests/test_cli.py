import gzip
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import s2ml.data
from helpers import corrupt_gzip
from s2ml.cli import MODEL_MAGIC, ModelFormatError, main, read_model, write_model
from s2ml.data import load_dataset
from s2ml.harness import CSV_HEADER, read_trace_csv
from s2ml.problems import ProblemConfig, make_problem
from s2ml.solvers import METHODS, SolverConfig, run_solver


def truncated_gzip(source, dest) -> str:
    """Write the first half of the gzipped ``source`` to ``dest``."""
    packed = gzip.compress(Path(source).read_bytes())
    Path(dest).write_bytes(packed[:len(packed) // 2])
    return str(dest)


@pytest.fixture()
def train(data_dir):
    return str(data_dir / "train1000.libsvm")


@pytest.fixture()
def test_split(data_dir):
    return str(data_dir / "test200.libsvm")


class TestModelFile:
    def test_round_trip_small(self, tmp_path):
        p = tmp_path / "m.txt"
        w = np.array([0.5, -1.0])
        write_model(p, w, ProblemConfig(kind="logistic", lam=1.0))
        text = p.read_text().splitlines()
        assert text[0] == MODEL_MAGIC
        assert text[1] == "kind=logistic lambda=1 bias=0 dim=2"
        assert len(text) == 4
        back_w, back_cfg = read_model(p)
        assert np.array_equal(back_w, w)
        assert back_cfg == ProblemConfig(kind="logistic", lam=1.0)

    def test_round_trip_large_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        w = rng.standard_normal(10_000) * 10.0 ** rng.integers(-8, 9, size=10_000)
        p = tmp_path / "m.txt"
        write_model(p, w, ProblemConfig(kind="svm-l2", lam=0.125, add_bias=True))
        back_w, back_cfg = read_model(p)
        assert np.array_equal(back_w, w)
        assert back_cfg.kind == "svm-l2" and back_cfg.add_bias

    def test_truncated_file_names_expected_count(self, tmp_path):
        p = tmp_path / "m.txt"
        write_model(p, np.arange(5.0), ProblemConfig(kind="logistic", lam=1.0))
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ModelFormatError, match="expected 7 lines"):
            read_model(p)

    def test_extra_lines_rejected(self, tmp_path):
        p = tmp_path / "m.txt"
        write_model(p, np.arange(2.0), ProblemConfig(kind="logistic", lam=1.0))
        p.write_text(p.read_text() + "0.5\n")
        with pytest.raises(ModelFormatError, match="expected 4 lines"):
            read_model(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("s2ml-model v2\nkind=logistic lambda=1 bias=0 dim=0\n")
        with pytest.raises(ModelFormatError, match="header"):
            read_model(p)

    def test_malformed_description_rejected(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text(MODEL_MAGIC + "\nkind=ridge lambda=1 bias=0 dim=0\n")
        with pytest.raises(ModelFormatError, match="description"):
            read_model(p)

    def test_registered_kind_round_trip(self, tmp_path, monkeypatch):
        # the description's kinds come from PROBLEM_KINDS, escaped: "svm-l2+"
        # as a bare pattern would match "svm-l22", not itself
        from s2ml.problems import PROBLEM_KINDS, SquaredHingeProblem
        monkeypatch.setitem(PROBLEM_KINDS, "svm-l2+", SquaredHingeProblem)
        p = tmp_path / "m.txt"
        config = ProblemConfig(kind="svm-l2+", lam=0.5)
        write_model(p, np.array([1.0, -2.0]), config)
        back_w, back_cfg = read_model(p)
        assert np.array_equal(back_w, [1.0, -2.0]) and back_cfg == config
        p.write_text(p.read_text().replace("svm-l2+", "svm-l22"))
        with pytest.raises(ModelFormatError, match="description"):
            read_model(p)

    def test_unresolved_lambda_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="resolved lambda"):
            write_model(tmp_path / "m.txt", np.zeros(1), ProblemConfig(kind="logistic"))


class TestTrain:
    def test_happy_path(self, tmp_path, train, capsys):
        out = tmp_path / "model.txt"
        rc = main(["train", "--data", train, "--problem", "logistic",
                   "--solver", "tron", "--lambda", "0.01", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        w, cfg = read_model(out)
        assert cfg == ProblemConfig(kind="logistic", lam=0.01)
        assert w.size == load_dataset(train).n_cols
        err = capsys.readouterr().err
        assert "tron" in err and "model" in err

    def test_lambda_defaults_to_one_over_n(self, tmp_path, train):
        out = tmp_path / "model.txt"
        rc = main(["train", "--data", train, "--out", str(out), "--max-iters", "3"])
        assert rc == 0
        _, cfg = read_model(out)
        assert cfg.lam == 1.0 / 1000

    def test_invalid_solver_exits_1(self, train, capsys):
        rc = main(["train", "--data", train, "--solver", "bogus"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "bogus" in err and "usage" in err

    def test_missing_data_flag_exits_1(self, capsys):
        rc = main(["train"])
        assert rc == 1
        assert "--data" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope.libsvm")])
        assert rc == 2

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.libsvm"
        bad.write_text("+1 0:1\n")
        rc = main(["train", "--data", str(bad)])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    def test_index_beyond_int64_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.libsvm"
        bad.write_text("+1 1:1\n-1 99999999999999999999:1\n")
        rc = main(["train", "--data", str(bad)])
        assert rc == 2
        assert "line 2: feature index '99999999999999999999' out of range" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("path", ["fast", "line-parser"])
    def test_truncated_gzip_exits_2(self, tmp_path, train, monkeypatch, capsys, path):
        if path == "line-parser":
            monkeypatch.setattr(s2ml.data, "_parse_fast", lambda path, n_cols: None)
        cut = truncated_gzip(train, tmp_path / "train.libsvm.gz")
        rc = main(["train", "--data", cut, "--out", str(tmp_path / "m.txt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("s2ml: error: ") and cut in err
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("kind", ["body", "crc", "length"])
    def test_corrupt_gzip_exits_2(self, tmp_path, train, capsys, kind):
        bad = tmp_path / "train.libsvm.gz"
        bad.write_bytes(corrupt_gzip(Path(train).read_bytes(), kind))
        rc = main(["train", "--data", str(bad), "--out", str(tmp_path / "m.txt")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"s2ml: error: {bad}: ")
        assert not (tmp_path / "m.txt").exists()

    def test_huge_feature_index_exits_2(self, tmp_path, capsys):
        # 10**15 columns load as a sparse matrix; the 8 * 10**15-byte weight
        # vector exceeds the address space, so its allocation fails at once
        path = tmp_path / "huge.libsvm"
        path.write_text("+1 1000000000000000:1\n-1 1:1\n")
        rc = main(["train", "--data", str(path), "--out", str(tmp_path / "m.txt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("s2ml: error: out of memory")
        assert "dimension 1000000000000000" in err

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_gradient_norm_is_not_convergence(self, tmp_path, method,
                                                          capsys):
        # the gradient at w = 0 is finite, but its 2-norm overflows to inf,
        # and inf <= grad_tol * inf would pass the relative test
        path = tmp_path / "huge.libsvm"
        path.write_text("+1 1:1e308\n-1 2:1e308\n+1 1:1e308 2:1e308\n")
        problem = make_problem(ProblemConfig(), load_dataset(path))
        w, termination = run_solver(problem, SolverConfig(method=method))
        assert termination == "non_finite" and not np.any(w)
        out = tmp_path / "model.txt"
        rc = main(["train", "--data", str(path), "--solver", method,
                   "--out", str(out)])
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()


class TestBenchmark:
    def test_end_to_end_outputs(self, tmp_path, train, test_split, capsys):
        out_dir = tmp_path / "results"
        rc = main(["benchmark", "--data", train, "--test-data", test_split,
                   "--solver", "tron", "--solver", "stron",
                   "--max-iters", "15", "--grad-tol", "1e-8",
                   "--out-dir", str(out_dir)])
        assert rc == 0
        csv_path = out_dir / "traces.csv"
        assert csv_path.exists()
        assert (out_dir / "gap.svg").exists()
        assert (out_dir / "accuracy.svg").exists()
        first = csv_path.read_text().splitlines()[0]
        assert first == CSV_HEADER
        traces = read_trace_csv(csv_path)
        assert set(traces) == {"tron", "stron"}

    def test_train_accuracy_reproduced_by_benchmark(self, tmp_path, train):
        # train and benchmark share defaults, so the benchmark's final record
        # on the training set must equal the saved model's accuracy exactly
        out = tmp_path / "model.txt"
        args = ["--data", train, "--lambda", "0.01", "--max-iters", "25",
                "--grad-tol", "1e-8"]
        assert main(["train", *args, "--out", str(out)]) == 0
        out_dir = tmp_path / "bench"
        assert main(["benchmark", *args, "--test-data", train, "--solver", "tron",
                     "--out-dir", str(out_dir)]) == 0
        w, cfg = read_model(out)
        data = load_dataset(train)
        problem = make_problem(cfg, data)
        expect = problem.predict_accuracy(data, w)
        records = read_trace_csv(out_dir / "traces.csv")["tron"][0]
        assert records[-1].test_accuracy == expect

    def test_gap_svg_only_without_test_data(self, tmp_path, train):
        out_dir = tmp_path / "results"
        rc = main(["benchmark", "--data", train, "--solver", "lbfgs",
                   "--max-iters", "5", "--out-dir", str(out_dir)])
        assert rc == 0
        assert (out_dir / "gap.svg").exists()
        assert not (out_dir / "accuracy.svg").exists()

    def test_truncated_gzip_exits_2(self, tmp_path, train, capsys):
        cut = truncated_gzip(train, tmp_path / "train.libsvm.gz")
        rc = main(["benchmark", "--data", cut, "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"s2ml: error: {cut}: ")

    def test_reps_recorded(self, tmp_path, train):
        out_dir = tmp_path / "results"
        rc = main(["benchmark", "--data", train, "--solver", "stron",
                   "--max-iters", "4", "--reps", "2", "--out-dir", str(out_dir)])
        assert rc == 0
        traces = read_trace_csv(out_dir / "traces.csv")
        assert len(traces["stron"]) == 2

    def test_unwritable_data_dir_still_completes(self, tmp_path, data_dir, train,
                                                 monkeypatch):
        # the temp-file write is refused as in a read-only directory; a
        # monkeypatch, because a chmod does not stop a test run as root
        write_text = Path.write_text

        def refuse(path, *args, **kwargs):
            if path.name.endswith(".tmp"):
                raise PermissionError(13, "Permission denied", str(path))
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", refuse)
        out_dir = tmp_path / "results"
        with pytest.warns(RuntimeWarning, match="Permission denied"):
            rc = main(["benchmark", "--data", train, "--solver", "tron",
                       "--solver", "lbfgs", "--max-iters", "8", "--out-dir", str(out_dir)])
        assert rc == 0
        traces = read_trace_csv(out_dir / "traces.csv")
        assert [len(traces[name][0]) for name in ("tron", "lbfgs")] == [9, 9]
        assert all(np.isfinite(r.optimality_gap) for reps in traces.values()
                   for r in reps[0])
        assert not list(data_dir.glob("*.tmp")) and not list(data_dir.glob("*.fstar"))

    def test_process_never_imports_scipy_optimize(self, tmp_path, train):
        # a fresh interpreter: the test process itself imports scipy.optimize
        script = textwrap.dedent(f"""
            import sys
            import s2ml.solvers as solvers
            from s2ml.cli import main

            root_finds = []
            brentq = solvers._brentq

            def counted(*args, **kwargs):
                root_finds.append(args)
                return brentq(*args, **kwargs)

            solvers._brentq = counted
            rc = main(["benchmark", "--data", {train!r}, "--solver", "tron",
                       "--tr-radius0", "1e-3", "--max-iters", "5",
                       "--out-dir", {str(tmp_path / "out")!r}])
            assert rc == 0, rc
            assert root_finds, "no boundary step took the root find"
            loaded = [m for m in sys.modules if m.split(".")[:2] == ["scipy", "optimize"]]
            assert not loaded, loaded
        """)
        src = str(Path(s2ml.data.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("kind, loads_special", [("svm-l2", False), ("logistic", True)])
def test_scipy_special_loaded_only_for_logistic(tmp_path, train, kind, loads_special):
    # a fresh interpreter: the test process itself imports scipy.special
    script = textwrap.dedent(f"""
        import sys
        from s2ml.cli import main
        from s2ml.problems import ProblemConfig

        ProblemConfig(kind={kind!r})  # loads it, before any solver runs
        assert ("scipy.special" in sys.modules) is {loads_special}
        rc = main(["train", "--data", {train!r}, "--problem", {kind!r},
                   "--max-iters", "3", "--out", {str(tmp_path / "model.txt")!r}])
        assert rc == 0, rc
        print("scipy.special" in sys.modules)
    """)
    src = str(Path(s2ml.data.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-1] == str(loads_special)


def test_import_loads_no_network_or_sax_modules():
    # a fresh interpreter: pytest itself may have imported them
    script = ("import sys, s2ml.cli; print(' '.join(m for m in "
              "('urllib.request', 'http.client', 'xml.sax') if m in sys.modules))")
    src = str(Path(s2ml.data.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


class TestFstarAndPlot:
    def test_fstar_prints_and_caches(self, data_dir, train, capsys):
        rc = main(["fstar", "--data", train, "--lambda", "0.01"])
        assert rc == 0
        printed = float(capsys.readouterr().out.strip())
        assert np.isfinite(printed)
        assert list(data_dir.glob("*.fstar"))

    @pytest.mark.parametrize("text", ["garbage", "", "nan", "-inf", "inf"])
    def test_fstar_rejects_a_cache_that_is_no_finite_number(self, tmp_path, data_dir,
                                                            train, capsys, text):
        assert main(["fstar", "--data", train, "--lambda", "0.01"]) == 0
        capsys.readouterr()
        [cache] = data_dir.glob("*.fstar")
        cache.write_text(text + "\n")
        assert main(["fstar", "--data", train, "--lambda", "0.01"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{cache}: cached f* {text!r} is not a finite number" in err

    def test_plot_from_csv(self, tmp_path, train, test_split):
        bench_dir = tmp_path / "bench"
        assert main(["benchmark", "--data", train, "--test-data", test_split,
                     "--solver", "tron", "--max-iters", "8",
                     "--out-dir", str(bench_dir)]) == 0
        plot_dir = tmp_path / "plots"
        rc = main(["plot", "--data", str(bench_dir / "traces.csv"),
                   "--out-dir", str(plot_dir)])
        assert rc == 0
        assert (plot_dir / "gap.svg").exists()
        assert (plot_dir / "accuracy.svg").exists()

    @pytest.mark.parametrize("gaps, rc", [(["nan", "0.5", "0.25"], 0),
                                          (["0.5", "inf", "0.25"], 0),
                                          (["nan", "inf", "-inf"], 2)],
                             ids=["nan-first", "inf-middle", "none-finite"])
    def test_plot_skips_non_finite_gaps(self, tmp_path, capsys, gaps, rc):
        path = tmp_path / "traces.csv"
        rows = [f"tron,0,{i},{0.1 * (i + 1)},1.5,{gap},0.9,1.0,0"
                for i, gap in enumerate(gaps)]
        path.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
        assert main(["plot", "--data", str(path), "--out-dir", str(tmp_path)]) == rc
        if rc == 2:
            assert "no data for metric 'optimality_gap'" in capsys.readouterr().err
            return
        text = (tmp_path / "gap.svg").read_text()
        assert "nan" not in text and "inf" not in text
        [line] = ElementTree.fromstring(text).iter("{http://www.w3.org/2000/svg}polyline")
        assert len(line.get("points").split()) == 2

    def test_plot_missing_file_exits_2(self, tmp_path):
        assert main(["plot", "--data", str(tmp_path / "nope.csv")]) == 2

    @staticmethod
    def _traces(tmp_path, solver, reps):
        path = tmp_path / "traces.csv"
        rows = [f"{solver},{rep},{i},{0.1 * (i + 1)},1.5,{0.5 / (i + 1)},,1.0,0"
                for rep in reps for i in range(2)]
        path.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
        return path

    def test_plot_escapes_solver_names(self, tmp_path):
        name = "a<b&c"
        path = self._traces(tmp_path, name, [0])
        assert main(["plot", "--data", str(path), "--out-dir", str(tmp_path)]) == 0
        root = ElementTree.parse(tmp_path / "gap.svg").getroot()
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[-1] == name

    @pytest.mark.parametrize("reps", [[-1], [0, 2]], ids=["negative", "gap"])
    def test_plot_rejects_out_of_sequence_rep(self, tmp_path, capsys, reps):
        path = self._traces(tmp_path, "tron", reps)
        assert main(["plot", "--data", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"rep {reps[-1]}" in err
        assert not (tmp_path / "gap.svg").exists()

    @pytest.mark.parametrize("field, text", [(1, "x"), (5, "x"), (8, "1.5")],
                             ids=["rep", "gap", "rows_touched"])
    def test_plot_rejects_malformed_field(self, tmp_path, capsys, field, text):
        path = self._traces(tmp_path, "tron", [0])
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[field] = text
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert main(["plot", "--data", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: line 3: " in err and repr(text) in err
        assert not (tmp_path / "gap.svg").exists()


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, train):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# experiment description\n"
            f"data = {train}\n"
            "solver = tron\n"
            "solver = lbfgs\n"
            "lambda = 0.05\n"
            "max-iters = 3\n")
        out_dir = tmp_path / "results"
        rc = main(["benchmark", "--config", str(cfg), "--out-dir", str(out_dir)])
        assert rc == 0
        assert set(read_trace_csv(out_dir / "traces.csv")) == {"tron", "lbfgs"}

    def test_cli_flags_override_config(self, tmp_path, train):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"data = {train}\nsolver = tron\nmax-iters = 3\n")
        out_dir = tmp_path / "results"
        rc = main(["benchmark", "--config", str(cfg), "--solver", "newton-cg",
                   "--out-dir", str(out_dir)])
        assert rc == 0
        assert set(read_trace_csv(out_dir / "traces.csv")) == {"newton-cg"}

    def test_unknown_key_exits_1(self, tmp_path, train, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("frobnicate = yes\n")
        rc = main(["benchmark", "--config", str(cfg), "--data", train])
        assert rc == 1
        assert "frobnicate" in capsys.readouterr().err

    def test_inapplicable_key_exits_1(self, tmp_path, train, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("out = model.txt\n")  # a train-only flag
        rc = main(["benchmark", "--config", str(cfg), "--data", train])
        assert rc == 1
        assert "does not apply" in capsys.readouterr().err

    def test_bad_value_exits_1(self, tmp_path, train, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("lambda = abc\n")
        rc = main(["train", "--config", str(cfg), "--data", train])
        assert rc == 1

    def test_train_uses_last_config_solver(self, tmp_path, train, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("solver = tron\nsolver = lbfgs\nmax-iters = 2\n")
        out = tmp_path / "m.txt"
        rc = main(["train", "--config", str(cfg), "--data", train,
                   "--out", str(out)])
        assert rc == 0
        assert "lbfgs finished" in capsys.readouterr().err

    @pytest.mark.parametrize("command,line,flag", [
        ("train", "cg-rtol = 1.5", "--cg-rtol"),
        ("train", "lambda = -1", "--lambda"),
        ("benchmark", "reps = 0", "--reps"),
        ("train", "solver = bogus", None),
        ("train", "problem = bogus", None),
    ], ids=["cg-rtol", "lambda", "reps", "solver", "problem"])
    def test_out_of_range_value_exits_1(self, tmp_path, train, command, line,
                                        flag, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(line + "\n")
        rc = main([command, "--config", str(cfg), "--data", train,
                   "--max-iters", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "bogus" in err if flag is None else flag in err


BAD_FLAG_CASES = [
    (["--solver", "bogus"], "--solver"),
    (["--problem", "bogus"], "--problem"),
    (["--lambda", "-0.5"], "--lambda"),
    (["--grad-tol", "0"], "--grad-tol"),
    (["--max-iters", "-2"], "--max-iters"),
    (["--max-iters", "two"], "--max-iters"),
    (["--cg-max-iters", "0"], "--cg-max-iters"),
    (["--cg-rtol", "1.5"], "--cg-rtol"),
    (["--tr-radius0", "-1"], "--tr-radius0"),
    (["--lbfgs-memory", "0"], "--lbfgs-memory"),
    (["--batch0-frac", "0"], "--batch0-frac"),
    (["--batch-growth", "0.5"], "--batch-growth"),
    (["--reps", "0"], "--reps"),
    (["--frobnicate"], "--frobnicate"),
]


class TestFlagGrammar:
    @pytest.mark.parametrize("extra,flag", BAD_FLAG_CASES, ids=[f for _, f in BAD_FLAG_CASES])
    def test_invalid_values_exit_1_and_name_the_flag(self, train, extra, flag, capsys):
        rc = main(["benchmark", "--data", train, *extra])
        assert rc == 1
        assert flag in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "train" in capsys.readouterr().out

    def test_no_subcommand_exits_1(self, capsys):
        assert main([]) == 1

    def test_valid_combinations_run(self, tmp_path, train):
        out_dir = tmp_path / "r"
        rc = main(["benchmark", "--data", train, "--solver", "stron",
                   "--batch0-frac", "0.25", "--batch-growth", "2",
                   "--cg-max-iters", "10", "--cg-rtol", "0.5",
                   "--tr-radius0", "2.0", "--seed", "7", "--max-iters", "4",
                   "--out-dir", str(out_dir)])
        assert rc == 0
