import contextlib
import gzip
import os
import re
import runpy
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import s2ml.cli
import s2ml.data
import s2ml.harness
from helpers import corrupt_gzip, fail_accuracy_at
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

    @pytest.mark.parametrize("lines, message", [
        ([], "missing model description line"),
        (["kind=logistic lambda=abc bias=0 dim=0"], "bad lambda 'abc'"),
        (["kind=logistic lambda=-1 bias=0 dim=0"], "bad lambda '-1'"),
        (["kind=logistic lambda=inf bias=0 dim=0"], "bad lambda 'inf'"),
        (["kind=logistic lambda=1 bias=0 dim=2", "0.5", "half"],
         "line 4: malformed coefficient 'half'"),
        (["kind=logistic lambda=1 bias=0 dim=2", "0.5", "nan"],
         "line 4: non-finite coefficient 'nan'"),
        (["\udcff"], "line 2: byte 0xff is not UTF-8"),
    ], ids=["header-only", "lambda", "negative-lambda", "infinite-lambda", "coefficient",
            "nan", "not-utf8"])
    def test_malformed_body_rejected(self, tmp_path, lines, message):
        p = tmp_path / "m.txt"  # "\udcff" is written as the lone byte 0xff
        p.write_text("\n".join([MODEL_MAGIC, *lines]) + "\n", errors="surrogateescape")
        with pytest.raises(ModelFormatError, match=re.escape(f"{p}: {message}")):
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

    def test_out_directory_is_created(self, tmp_path, train):
        out = tmp_path / "new" / "sub" / "model.txt"
        rc = main(["train", "--data", train, "--max-iters", "3", "--out", str(out)])
        assert rc == 0
        w, cfg = read_model(out)
        assert cfg == ProblemConfig(kind="logistic", lam=1.0 / 1000)
        assert w.size == load_dataset(train).n_cols

    def test_invalid_solver_exits_1(self, train, capsys):
        rc = main(["train", "--data", train, "--solver", "bogus"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "bogus" in err and "usage" in err

    def test_missing_data_flag_exits_1(self, capsys):
        rc = main(["train"])
        assert rc == 1
        assert "--data" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "fstar"])
    def test_file_without_rows_names_the_file(self, tmp_path, capsys, command):
        empty = tmp_path / "empty.libsvm"
        empty.write_text("# no rows\n")
        assert main([command, "--data", str(empty)]) == 2
        assert capsys.readouterr().err == f"s2ml: error: {empty}: no data rows\n"

    @pytest.mark.parametrize("with_data", [False, True])
    def test_usage_error_prints_the_subcommand_usage(self, train, capsys, with_data):
        rc = main(["train", *(["--data", train] if with_data else []), "--max-iters", "-1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("usage: s2ml train ")

    @pytest.mark.parametrize("command, bad", [
        ("train", ["--lambda", "-1"]), ("train", ["--max-iters", "-1"]), ("train", ["--config"]),
        ("fstar", ["--lambda", "-1"]), ("fstar", ["--config"]),
    ], ids=["train-lambda", "train-max-iters", "train-config", "fstar-lambda", "fstar-config"])
    @pytest.mark.parametrize("exists", [False, True], ids=["missing-data", "data"])
    def test_bad_value_is_refused_before_any_data_is_read(
            self, tmp_path, train, monkeypatch, capsys, command, bad, exists):
        config = tmp_path / "bad.cfg"
        config.write_text("lambda = -1\n")
        bad = [*bad, str(config)] if bad == ["--config"] else bad
        loads = []

        def load_dataset(*args, **kwargs):
            loads.append(args)
            raise OSError("load_dataset was called")
        if exists:
            monkeypatch.setattr(s2ml.cli, "load_dataset", load_dataset)
        data = train if exists else str(tmp_path / "missing.libsvm")
        assert main([command, "--data", data, *bad]) == 1
        assert capsys.readouterr().err.startswith(f"usage: s2ml {command} ")
        assert loads == []

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
            monkeypatch.setattr(s2ml.data, "_parse_block", lambda chunk: None)
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

    def test_unconverged_run_warns_and_writes_traces(self, tmp_path, train):
        out_dir = tmp_path / "results"
        args = ["benchmark", "--data", train, "--solver", "tron", "--reps", "2",
                "--out-dir", str(out_dir)]
        for extra, expect in [(["--max-iters", "1"], [
                                  f"tron rep {rep} stopped: max_iters" for rep in (0, 1)]),
                              ([], [])]:  # the defaults converge
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main([*args, *extra]) == 0
            assert [(w.category, str(w.message)) for w in caught] == [
                (RuntimeWarning, message) for message in expect]
            assert len(read_trace_csv(out_dir / "traces.csv")["tron"]) == 2

    def test_warning_printed_in_s2ml_form(self, tmp_path, train):
        # a fresh interpreter, so the warning goes through the default
        # display rather than pytest's capture
        src = str(Path(s2ml.data.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "s2ml.cli", "benchmark", "--data", train,
             "--solver", "tron", "--max-iters", "1", "--out-dir", str(tmp_path / "out")],
            env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        warning, complete = done.stderr.splitlines()
        assert warning == "s2ml: warning: tron rep 0 stopped: max_iters"
        assert complete.startswith("s2ml: benchmark complete; ")
        before = warnings.formatwarning  # main restores the display it replaced
        with pytest.warns(RuntimeWarning, match="stopped: max_iters"):
            assert main(["benchmark", "--data", train, "--solver", "tron",
                         "--max-iters", "1", "--out-dir", str(tmp_path / "out")]) == 0
        assert warnings.formatwarning is before

    def test_failing_metric_exits_2_without_traces(self, tmp_path, train, test_split,
                                                   capsys, monkeypatch):
        fail_accuracy_at(monkeypatch, 4)
        out_dir = tmp_path / "results"
        rc = main(["benchmark", "--data", train, "--test-data", test_split,
                   "--solver", "tron", "--solver", "lbfgs", "--out-dir", str(out_dir)])
        assert rc == 2
        assert capsys.readouterr().err == "s2ml: error: out of memory: metric failed\n"
        assert not (out_dir / "traces.csv").exists()

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
        with pytest.warns(RuntimeWarning, match="stopped: max_iters"):
            rc = main(["benchmark", "--data", train, "--solver", "lbfgs",
                       "--max-iters", "5", "--out-dir", str(out_dir)])
        assert rc == 0
        assert (out_dir / "gap.svg").exists()
        assert not (out_dir / "accuracy.svg").exists()

    @pytest.mark.parametrize("stop", [["--grad-tol", "1"], ["--max-iters", "0"]],
                             ids=["grad-tol-1", "max-iters-0"])
    def test_run_stopped_at_iteration_zero_plots(self, tmp_path, train, stop):
        # one record per run, so every point of the plot sits at one instant
        out_dir = tmp_path / "results"
        with (pytest.warns(RuntimeWarning, match="stopped: max_iters")
              if stop[0] == "--max-iters" else contextlib.nullcontext()):
            rc = main(["benchmark", "--data", train, "--solver", "tron", *stop,
                       "--out-dir", str(out_dir)])
        assert rc == 0
        assert len(read_trace_csv(out_dir / "traces.csv")["tron"][0]) == 1
        assert main(["plot", "--data", str(out_dir / "traces.csv"),
                     "--out-dir", str(tmp_path / "plots")]) == 0
        for svg in (out_dir / "gap.svg", tmp_path / "plots" / "gap.svg"):
            text = svg.read_text()
            assert "nan" not in text and "inf" not in text
            root = ElementTree.fromstring(text)
            assert len(list(root.iter("{http://www.w3.org/2000/svg}polyline"))) == 1

    def test_cached_f_star_below_the_optimum_warns(self, data_dir, train):
        args = ["benchmark", "--data", train, "--solver", "tron", "--lambda", "0.01",
                "--out-dir", str(data_dir / "results")]
        assert main(args) == 0
        [cache] = data_dir.glob("*.fstar")
        cold = cache.read_text()
        first = read_trace_csv(data_dir / "results" / "traces.csv")["tron"][0]
        cache.write_text("-5\n")
        stale = re.escape(f"{cache}: cached f* '-5' lies below") + ".*; recomputing$"
        with pytest.warns(RuntimeWarning, match=stale):
            assert main(args) == 0
        assert cache.read_text() == cold
        gaps = read_trace_csv(data_dir / "results" / "traces.csv")["tron"][0]
        assert abs(gaps[-1].optimality_gap) < 1e-9  # measured against the recomputed f*
        assert [(r.objective, r.optimality_gap) for r in gaps] == \
            [(r.objective, r.optimality_gap) for r in first]

    def test_cached_f_star_below_zero_warns_with_bias(self, data_dir, train):
        # with a bias f is not strongly convex, but no f is ever below 0
        args = ["benchmark", "--data", train, "--solver", "tron", "--bias",
                "--lambda", "0.01", "--out-dir", str(data_dir / "results")]
        assert main(args) == 0
        [cache] = data_dir.glob("*.fstar")
        cold = cache.read_text()
        cache.write_text("-5\n")
        with pytest.warns(RuntimeWarning) as caught:
            assert main(args) == 0
        assert [str(w.message) for w in caught] == [
            f"{cache}: cached f* '-5' lies below the lower bound 0; recomputing"]
        assert cache.read_text() == cold
        gaps = read_trace_csv(data_dir / "results" / "traces.csv")["tron"][0]
        assert abs(gaps[-1].optimality_gap) < 1e-9  # measured against the recomputed f*

    def test_truncated_gzip_exits_2(self, tmp_path, train, capsys):
        cut = truncated_gzip(train, tmp_path / "train.libsvm.gz")
        rc = main(["benchmark", "--data", cut, "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"s2ml: error: {cut}: ")

    @pytest.mark.parametrize("text, message", [
        (b"+1 1:1\n-1 2:x\n", "line 2: feature value 'x' is not numeric"),
        (b"+1 1:1\r\n-1 2:\xff\n", "line 2: byte 0xff is not UTF-8"),
    ], ids=["malformed", "not-utf8"])
    def test_bad_test_data_names_the_file(self, tmp_path, train, capsys, text, message):
        bad = tmp_path / "bad.libsvm"
        bad.write_bytes(text)
        rc = main(["benchmark", "--data", train, "--test-data", str(bad),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"s2ml: error: {bad}: {message}\n"

    @pytest.mark.parametrize("text", [b"", b"# comments only\n\n"], ids=["empty", "comments"])
    @pytest.mark.parametrize("flag", ["--data", "--test-data"])
    def test_file_without_rows_is_refused_before_any_run(self, tmp_path, train, test_split,
                                                         capsys, flag, text):
        empty = tmp_path / "empty.libsvm"
        empty.write_bytes(text)
        paths = {"--data": train, "--test-data": test_split, flag: str(empty)}
        out_dir = tmp_path / "out"
        rc = main(["benchmark", *(x for item in paths.items() for x in item),
                   "--out-dir", str(out_dir)])
        assert rc == 2
        assert capsys.readouterr().err == f"s2ml: error: {empty}: no data rows\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("command, flag, below, written", [
        ("benchmark", "--out-dir", "sub", "sub/traces.csv"),
        ("train", "--out", "m.txt", "m.txt"),
    ], ids=["benchmark", "train"])
    def test_output_below_a_file_is_refused_before_any_run(
            self, data_dir, train, monkeypatch, capsys, command, flag, below, written):
        afile = data_dir / "afile"
        afile.write_text("")
        calls = []
        real = s2ml.harness.run_solver

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(s2ml.harness, "run_solver", spy)
        monkeypatch.setattr(s2ml.cli, "run_solver", spy)
        rc = main([command, "--data", train, "--max-iters", "2", flag, str(afile / below)])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"s2ml: error: {afile / written}: {afile} is not a directory\n"
        assert calls == [] and not list(data_dir.glob("*.fstar"))

    @pytest.mark.parametrize("command, flag, made", [
        ("benchmark", "--out-dir", "out/traces.csv"),
        ("train", "--out", "out"),
    ], ids=["benchmark", "train"])
    def test_output_that_is_a_directory_is_refused_before_any_run(
            self, data_dir, train, monkeypatch, capsys, command, flag, made):
        (data_dir / made).mkdir(parents=True)
        before = sorted(data_dir.rglob("*"))
        calls = []
        real = s2ml.harness.run_solver

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(s2ml.harness, "run_solver", spy)
        monkeypatch.setattr(s2ml.cli, "run_solver", spy)
        rc = main([command, "--data", train, "--max-iters", "2", flag, str(data_dir / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"s2ml: error: {data_dir / made}: is a directory\n"
        assert calls == [] and sorted(data_dir.rglob("*")) == before

    @pytest.mark.parametrize("plot, with_test_data", [
        ("gap.svg", False), ("gap.svg", True), ("accuracy.svg", True),
    ], ids=["gap", "gap-test-data", "accuracy"])
    def test_plot_that_is_a_directory_is_refused_before_any_data_is_read(
            self, data_dir, train, test_split, monkeypatch, capsys, plot, with_test_data):
        out_dir = data_dir / "out"
        (out_dir / plot).mkdir(parents=True)
        before = sorted(data_dir.rglob("*"))
        loads, calls = [], []
        monkeypatch.setattr(s2ml.harness, "load_dataset",
                            lambda *args, **kwargs: loads.append(args))
        monkeypatch.setattr(s2ml.harness, "run_solver",
                            lambda *args, **kwargs: calls.append(args))
        test_flags = ["--test-data", test_split] if with_test_data else []
        rc = main(["benchmark", "--data", train, *test_flags, "--max-iters", "2",
                   "--out-dir", str(out_dir)])
        assert rc == 2
        assert capsys.readouterr().err == f"s2ml: error: {out_dir / plot}: is a directory\n"
        assert loads == [] and calls == []
        assert not (out_dir / "traces.csv").exists()
        assert sorted(data_dir.rglob("*")) == before

    def test_reps_recorded(self, tmp_path, train):
        out_dir = tmp_path / "results"
        with pytest.warns(RuntimeWarning, match="stopped: max_iters"):
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
        with pytest.warns(RuntimeWarning, match="Permission denied"), \
                pytest.warns(RuntimeWarning, match="stopped: max_iters"):
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

    # "\udcff\udcfe1" is written as the bytes ff fe 31 (not UTF-8)
    @pytest.mark.parametrize("text", ["garbage", "", "nan", "-inf", "inf", "\udcff\udcfe1"])
    def test_fstar_rejects_a_cache_that_is_no_finite_number(self, tmp_path, data_dir,
                                                            train, capsys, text):
        # the cache is not used: it is recomputed and rewritten as on a miss
        assert main(["fstar", "--data", train, "--lambda", "0.01"]) == 0
        printed = capsys.readouterr().out
        [cache] = data_dir.glob("*.fstar")
        cold = cache.read_bytes()
        cache.write_bytes((text + "\n").encode("utf-8", "surrogateescape"))
        with pytest.warns(RuntimeWarning) as caught:
            assert main(["fstar", "--data", train, "--lambda", "0.01"]) == 0
        assert [str(w.message) for w in caught] == [
            f"{cache}: cached f* {text!r} is not a finite number; recomputing"]
        assert capsys.readouterr().out == printed
        assert cache.read_bytes() == cold

    @pytest.mark.parametrize("text, flags, why", [
        ("-5", [], "lies below the lower bound"),
        ("-5", ["--bias"], "lies below the lower bound"),
        ("-5", ["--lambda", "0"], "lies below the lower bound"),
        ("1000", [], "lies above the objective"),
    ], ids=["below", "below-bias", "below-lambda-0", "above"])
    def test_fstar_rejects_a_cache_that_cannot_be_the_optimum(self, data_dir, train,
                                                             capsys, text, flags, why):
        # checked at w = 0: 0 <= f* <= f(0), and f* >= f(0) - ||grad f(0)||^2
        # / (2 lambda) when lambda > 0 and there is no bias
        args = ["fstar", "--data", train, *flags]
        assert main(args) == 0
        printed = capsys.readouterr().out
        [cache] = data_dir.glob("*.fstar")
        cold = cache.read_bytes()
        cache.write_text(text + "\n")
        with pytest.warns(RuntimeWarning) as caught:
            assert main(args) == 0
        [message] = [str(w.message) for w in caught]
        assert re.fullmatch(re.escape(f"{cache}: cached f* {text!r} {why} ")
                            + r"\S+; recomputing", message)
        assert capsys.readouterr().out == printed
        assert cache.read_bytes() == cold

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

    @pytest.mark.parametrize("plot, accuracy", [
        ("gap.svg", ""), ("gap.svg", "0.9"), ("accuracy.svg", "0.9"),
    ], ids=["gap", "gap-with-accuracy", "accuracy"])
    def test_plot_that_is_a_directory_is_refused_before_any_is_written(
            self, tmp_path, capsys, plot, accuracy):
        path = tmp_path / "traces.csv"
        rows = [f"tron,0,{i},{0.1 * (i + 1)},1.5,{0.5 / (i + 1)},{accuracy},1.0,0"
                for i in range(2)]
        path.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
        out_dir = tmp_path / "plots"
        (out_dir / plot).mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        assert main(["plot", "--data", str(path), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"s2ml: error: {out_dir / plot}: is a directory\n"
        assert sorted(tmp_path.rglob("*")) == before

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

    def test_plot_non_utf8_byte_exits_2(self, tmp_path, capsys):
        path = self._traces(tmp_path, "tron", [0])
        path.write_bytes(path.read_bytes().replace(b"tron", b"tr\xffn"))
        assert main(["plot", "--data", str(path), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"s2ml: error: {path}: line 2: byte 0xff is not UTF-8\n"
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
        with pytest.warns(RuntimeWarning, match="stopped: max_iters"):
            rc = main(["benchmark", "--config", str(cfg), "--out-dir", str(out_dir)])
        assert rc == 0
        assert set(read_trace_csv(out_dir / "traces.csv")) == {"tron", "lbfgs"}

    def test_cli_flags_override_config(self, tmp_path, train):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"data = {train}\nsolver = tron\nmax-iters = 3\n")
        out_dir = tmp_path / "results"
        with pytest.warns(RuntimeWarning, match="stopped: max_iters"):
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

    def test_line_without_equals_exits_1(self, tmp_path, train, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# comment\nsolver tron\n")
        rc = main(["train", "--config", str(cfg), "--data", train])
        assert rc == 1
        assert f"{cfg}:2: expected 'key = value'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, bias", [("yes", True), ("on", True), ("0", False),
                                            ("off", False), ("maybe", None)])
    def test_bias_value(self, tmp_path, train, capsys, text, bias):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"max-iters = 0\nbias = {text}\n")
        out = tmp_path / "m.txt"
        rc = main(["train", "--config", str(cfg), "--data", train, "--out", str(out)])
        if bias is None:
            assert rc == 1
            assert f"{cfg}:2: expected a boolean, got 'maybe'" in capsys.readouterr().err
            return
        assert rc == 0
        assert read_model(out)[1].add_bias is bias

    def test_non_utf8_byte_exits_1(self, tmp_path, train, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(b"max-iters = 2\nlambda = 0.1\xff\n")
        rc = main(["train", "--config", str(cfg), "--data", train])
        assert rc == 1
        assert f"{cfg}:2: byte 0xff is not UTF-8" in capsys.readouterr().err

    def test_bad_value_exits_1(self, tmp_path, train, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("lambda = abc\n")
        rc = main(["train", "--config", str(cfg), "--data", train])
        assert rc == 1

    @pytest.mark.parametrize("key, choices", [("solver", "tron, stron, newton-cg, lbfgs"),
                                              ("problem", "logistic, svm-l2")])
    def test_value_outside_the_choices_names_the_line(self, tmp_path, train, capsys,
                                                      key, choices):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"max-iters = 2\n{key} = foo\n")
        rc = main(["train", "--config", str(cfg), "--data", train])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: s2ml train ")
        assert err.endswith(f"s2ml: error: {cfg}:2: {key} = 'foo' is not one of {choices}\n")

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
        ("train", "seed = -1", "--seed"),
    ], ids=["cg-rtol", "lambda", "reps", "solver", "problem", "seed"])
    def test_out_of_range_value_exits_1(self, tmp_path, train, command, line,
                                        flag, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(line + "\n")
        rc = main([command, "--config", str(cfg), "--data", train,
                   "--max-iters", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "bogus" in err if flag is None else flag in err

    @pytest.mark.parametrize("command, line, message", [
        ("train", "max-iters = -1", "max-iters must be >= 0"),
        ("fstar", "lambda = -1", "lambda must be finite and >= 0"),
        ("benchmark", "reps = 0", "reps must be >= 1"),
    ], ids=["max-iters", "lambda", "reps"])
    def test_out_of_range_value_names_its_line(self, tmp_path, train, capsys,
                                               command, line, message):
        # the error blames the config line, not a flag that was never given
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"# defaults\n{line}\n")
        rc = main([command, "--config", str(cfg), "--data", train])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: s2ml {command} ")
        assert err.endswith(f"s2ml: error: {cfg}:2: {message}\n")

    def test_flag_over_the_config_keeps_its_name(self, tmp_path, train, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("max-iters = 5\n")
        rc = main(["train", "--config", str(cfg), "--data", train, "--max-iters", "-1"])
        assert rc == 1
        assert capsys.readouterr().err.endswith("s2ml: error: --max-iters must be >= 0\n")


@pytest.mark.filterwarnings("ignore:'s2ml.cli' found in sys.modules:RuntimeWarning")
def test_module_runs_as_a_script(train, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["s2ml", "fstar", "--data", train])
    with pytest.raises(SystemExit) as done:
        runpy.run_module("s2ml.cli", run_name="__main__")
    assert done.value.code == 0
    assert np.isfinite(float(capsys.readouterr().out))


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
    (["--lambda", "inf"], "--lambda"),
    (["--batch-growth", "inf"], "--batch-growth"),
    (["--seed", "-1"], "--seed"),
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
        with pytest.warns(RuntimeWarning, match="stopped: max_iters"):
            rc = main(["benchmark", "--data", train, "--solver", "stron",
                       "--batch0-frac", "0.25", "--batch-growth", "2",
                       "--cg-max-iters", "10", "--cg-rtol", "0.5",
                       "--tr-radius0", "2.0", "--seed", "7", "--max-iters", "4",
                       "--out-dir", str(out_dir)])
        assert rc == 0
