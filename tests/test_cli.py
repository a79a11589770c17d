from pathlib import Path

import numpy as np
import pytest

from s2ml.cli import MODEL_MAGIC, ModelFormatError, main, read_model, write_model
from s2ml.data import load_dataset
from s2ml.harness import CSV_HEADER, read_trace_csv
from s2ml.problems import ProblemConfig, make_problem
from s2ml.solvers import METHODS, SolverConfig, run_solver


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

    def test_reps_recorded(self, tmp_path, train):
        out_dir = tmp_path / "results"
        rc = main(["benchmark", "--data", train, "--solver", "stron",
                   "--max-iters", "4", "--reps", "2", "--out-dir", str(out_dir)])
        assert rc == 0
        traces = read_trace_csv(out_dir / "traces.csv")
        assert len(traces["stron"]) == 2


class TestFstarAndPlot:
    def test_fstar_prints_and_caches(self, data_dir, train, capsys):
        rc = main(["fstar", "--data", train, "--lambda", "0.01"])
        assert rc == 0
        printed = float(capsys.readouterr().out.strip())
        assert np.isfinite(printed)
        assert list(data_dir.glob("*.fstar"))

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

    def test_plot_missing_file_exits_2(self, tmp_path):
        assert main(["plot", "--data", str(tmp_path / "nope.csv")]) == 2


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
