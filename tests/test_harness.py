import hashlib
import math
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import s2ml.harness as harness
from helpers import QuadraticProblem, classification_dataset
from s2ml.data import serialize_dataset
from s2ml.harness import (CSV_HEADER, ConvergenceError, ExperimentSpec,
                          TraceRecord, compute_f_star, dataset_digest,
                          read_trace_csv, render_convergence_svg,
                          run_experiment, write_trace_csv)
from s2ml.problems import ProblemConfig, make_problem
from s2ml.solvers import SolverConfig, run_solver
from s2ml.data import dataset_from_rows

LN2 = 0.6931471805599453


def write_split(tmp_path, name, dataset):
    p = tmp_path / name
    p.write_text(serialize_dataset(dataset))
    return p


def small_instance(seed=0, n=60, d=8):
    rng = np.random.default_rng(seed)
    return classification_dataset(rng, n, d, d)


class TestComputeFStar:
    def test_degenerate_null_feature(self):
        data = dataset_from_rows([(1, [(1, 0.0)])])
        problem = make_problem(ProblemConfig(kind="logistic", lam=1.0), data)
        assert compute_f_star(problem) == pytest.approx(LN2, abs=1e-15)

    def test_quadratic_reaches_zero(self):
        problem = QuadraticProblem(np.diag([1.0, 3.0]), c=[2.0, -1.0])
        assert compute_f_star(problem) == pytest.approx(0.0, abs=1e-12)

    def test_cross_solver_agreement(self):
        data = small_instance(1, n=200, d=20)
        problem = make_problem(ProblemConfig(kind="logistic", lam=0.01), data)
        f_star = compute_f_star(problem)
        w, _ = run_solver(problem, SolverConfig(method="lbfgs", grad_tol=1e-10,
                                                max_iters=500))
        assert abs(problem.objective(w) - f_star) < 1e-9

    def test_file_cache_round_trip(self, tmp_path):
        data = small_instance(2)
        problem = make_problem(ProblemConfig(kind="logistic", lam=0.1), data)
        value = compute_f_star(problem, cache_dir=tmp_path)
        files = list(tmp_path.glob("*.fstar"))
        assert len(files) == 1
        assert float(files[0].read_text()) == value
        # prove the file is the source on a cold read
        files[0].write_text("1.5\n")
        assert compute_f_star(problem, cache_dir=tmp_path) == 1.5

    def test_failed_cache_write_leaves_no_file(self, tmp_path, monkeypatch):
        # a crash between writing and renaming must not leave a partial cache
        def fail(src, dst):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(os, "replace", fail)
        problem = make_problem(ProblemConfig(kind="logistic", lam=0.1),
                               small_instance(3))
        with pytest.raises(OSError, match="simulated"):
            compute_f_star(problem, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_nonconvergence_raises(self):
        class Hopeless(QuadraticProblem):
            # gradient never vanishes: simulates an unattained minimum
            def gradient(self, w, rows=None):
                return np.ones(self.dim)

        with pytest.raises(ConvergenceError, match="regularization|iteration cap"):
            compute_f_star(Hopeless(np.eye(2)))

    def test_digest_distinguishes_data(self):
        a = small_instance(4)
        b = small_instance(5)
        assert dataset_digest(a) != dataset_digest(b)
        assert dataset_digest(a) == dataset_digest(a)


class TestRunExperiment:
    def test_iter0_gap_uses_shared_f_star(self, tmp_path):
        data = small_instance(6)
        train = write_split(tmp_path, "train.libsvm", data)
        spec = ExperimentSpec(
            problem=ProblemConfig(kind="logistic", lam=0.1),
            solvers=[SolverConfig(method="tron", max_iters=0)],
            train_path=train)
        traces = run_experiment(spec)
        assert set(traces) == {"tron"}
        records = traces["tron"][0]
        assert len(records) == 1 and records[0].iter == 0
        problem = make_problem(ProblemConfig(kind="logistic", lam=0.1), data)
        f_star = compute_f_star(problem, cache_dir=tmp_path)
        f0 = problem.objective(np.zeros(problem.dim))
        assert records[0].optimality_gap == f0 - f_star

    def test_deterministic_reps_identical(self, tmp_path):
        train = write_split(tmp_path, "train.libsvm", small_instance(7))
        spec = ExperimentSpec(
            problem=ProblemConfig(kind="logistic", lam=0.05),
            solvers=[SolverConfig(method="tron", grad_tol=1e-8)],
            train_path=train, repetitions=2)
        traces = run_experiment(spec)
        rep0, rep1 = traces["tron"]
        assert [(r.iter, r.objective, r.grad_norm) for r in rep0] == \
               [(r.iter, r.objective, r.grad_norm) for r in rep1]

    def test_accuracy_does_not_change_objective_column(self, tmp_path):
        data = small_instance(8)
        train = write_split(tmp_path, "train.libsvm", data)
        test = write_split(tmp_path, "test.libsvm", small_instance(9))
        base = dict(problem=ProblemConfig(kind="logistic", lam=0.05),
                    solvers=[SolverConfig(method="tron", grad_tol=1e-8)],
                    train_path=train)
        with_test = run_experiment(ExperimentSpec(test_path=test, **base))
        without = run_experiment(ExperimentSpec(**base))
        a = [r.objective for r in with_test["tron"][0]]
        b = [r.objective for r in without["tron"][0]]
        assert a == b
        accs = [r.test_accuracy for r in with_test["tron"][0]]
        assert all(x is not None and 0.0 <= x <= 1.0 for x in accs)
        assert all(r.test_accuracy is None for r in without["tron"][0])

    def test_gap_non_increasing_and_above_floor(self, tmp_path):
        train = write_split(tmp_path, "train.libsvm", small_instance(10))
        spec = ExperimentSpec(
            problem=ProblemConfig(kind="logistic", lam=0.05),
            solvers=[SolverConfig(method="tron", grad_tol=1e-9)],
            train_path=train)
        records = run_experiment(spec)["tron"][0]
        gaps = [r.optimality_gap for r in records]
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))
        assert all(g >= -1e-9 for g in gaps)
        walls = [r.wall_time_s for r in records]
        assert all(b >= a for a, b in zip(walls, walls[1:]))
        rows = [r.rows_touched for r in records]
        assert all(b >= a for a, b in zip(rows, rows[1:]))

    def test_stochastic_seeds_differ_per_rep(self, tmp_path):
        train = write_split(tmp_path, "train.libsvm", small_instance(11, n=100))
        spec = ExperimentSpec(
            problem=ProblemConfig(kind="logistic", lam=0.02),
            solvers=[SolverConfig(method="stron", grad_tol=1e-8, batch0_frac=0.2)],
            train_path=train, repetitions=2)
        traces = run_experiment(spec)
        rep0, rep1 = traces["stron"]
        assert [r.objective for r in rep0] != [r.objective for r in rep1]

    def test_duplicate_methods_get_unique_names(self, tmp_path):
        train = write_split(tmp_path, "train.libsvm", small_instance(12))
        spec = ExperimentSpec(
            problem=ProblemConfig(kind="logistic", lam=0.1),
            solvers=[SolverConfig(method="tron", max_iters=1),
                     SolverConfig(method="tron", max_iters=2)],
            train_path=train)
        assert set(run_experiment(spec)) == {"tron", "tron-2"}

    def test_dimension_mismatch_rejected(self, tmp_path):
        train = write_split(tmp_path, "train.libsvm", small_instance(13, d=4))
        wide = write_split(tmp_path, "test.libsvm", small_instance(14, d=9))
        spec = ExperimentSpec(
            problem=ProblemConfig(kind="logistic", lam=0.1),
            solvers=[SolverConfig(method="tron", max_iters=1)],
            train_path=train, test_path=wide)
        with pytest.raises(ValueError, match="columns"):
            run_experiment(spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="repetitions"):
            ExperimentSpec(problem=ProblemConfig(), solvers=[SolverConfig()],
                           train_path="x", repetitions=0)
        with pytest.raises(ValueError, match="at least one solver"):
            ExperimentSpec(problem=ProblemConfig(), solvers=[], train_path="x")
        with pytest.raises(ValueError, match="f_star"):
            ExperimentSpec(problem=ProblemConfig(), solvers=[SolverConfig()],
                           train_path="x", f_star="guess")

    def test_explicit_f_star_skips_reference_run(self, tmp_path):
        data = small_instance(15)
        train = write_split(tmp_path, "train.libsvm", data)
        spec = ExperimentSpec(
            problem=ProblemConfig(kind="logistic", lam=0.1),
            solvers=[SolverConfig(method="tron", max_iters=0)],
            train_path=train, f_star=0.25)
        records = run_experiment(spec)["tron"][0]
        problem = make_problem(ProblemConfig(kind="logistic", lam=0.1), data)
        assert records[0].optimality_gap == \
            problem.objective(np.zeros(problem.dim)) - 0.25


def sample_record(i, acc=None):
    return TraceRecord(iter=i, wall_time_s=0.25 * i, objective=1.0 / (i + 1),
                       optimality_gap=10.0 ** (-i), test_accuracy=acc,
                       grad_norm=0.5 ** i, rows_touched=100 * i)


class TestTraceCsv:
    def test_header_exact(self, tmp_path):
        p = tmp_path / "t.csv"
        write_trace_csv({}, p)
        assert p.read_text() == CSV_HEADER + "\n"

    def test_single_record_round_trip(self, tmp_path):
        p = tmp_path / "t.csv"
        traces = {"tron": [[sample_record(0, acc=0.75)]]}
        write_trace_csv(traces, p)
        text = p.read_text().splitlines()
        assert len(text) == 2 and text[0] == CSV_HEADER
        assert read_trace_csv(p) == traces

    def test_absent_accuracy_is_empty_field(self, tmp_path):
        p = tmp_path / "t.csv"
        write_trace_csv({"tron": [[sample_record(1)]]}, p)
        line = p.read_text().splitlines()[1]
        fields = line.split(",")
        assert fields[6] == ""
        back = read_trace_csv(p)
        assert back["tron"][0][0].test_accuracy is None

    def test_large_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        records = [TraceRecord(iter=i,
                               wall_time_s=float(rng.exponential()),
                               objective=float(rng.normal()),
                               optimality_gap=float(10.0 ** -rng.uniform(0, 15)),
                               test_accuracy=None if i % 3 == 0 else float(rng.random()),
                               grad_norm=float(rng.exponential()),
                               rows_touched=int(rng.integers(0, 10 ** 9)))
                   for i in range(1000)]
        traces = {"tron": [records[:500]], "stron": [records[500:]]}
        p = tmp_path / "t.csv"
        write_trace_csv(traces, p)
        assert read_trace_csv(p) == traces

    def test_multi_rep_layout(self, tmp_path):
        traces = {"lbfgs": [[sample_record(0)], [sample_record(0), sample_record(1)]]}
        p = tmp_path / "t.csv"
        write_trace_csv(traces, p)
        back = read_trace_csv(p)
        assert len(back["lbfgs"]) == 2
        assert len(back["lbfgs"][1]) == 2

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(p)


class TestSvg:
    def traces_two_solvers(self):
        return {
            "tron": [[sample_record(0, acc=0.7), sample_record(4, acc=0.9)]],
            "stron": [[sample_record(1, acc=0.6), sample_record(8, acc=0.95)]],
        }

    def test_polyline_per_solver(self, tmp_path):
        p = tmp_path / "gap.svg"
        render_convergence_svg(self.traces_two_solvers(), "optimality_gap", p)
        text = p.read_text()
        assert text.count("<polyline") == 2
        assert text.startswith("<?xml")
        assert "</svg>" in text

    def test_decade_tick_labels(self, tmp_path):
        traces = {"tron": [[sample_record(i) for i in range(9)]]}  # 1e0 .. 1e-8
        p = tmp_path / "gap.svg"
        render_convergence_svg(traces, "optimality_gap", p)
        text = p.read_text()
        for k in range(-8, 1):
            assert f">1e{k}<" in text

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_convergence_svg(self.traces_two_solvers(), "optimality_gap", a)
        render_convergence_svg(self.traces_two_solvers(), "optimality_gap", b)
        da = hashlib.sha256(a.read_bytes()).hexdigest()
        db = hashlib.sha256(b.read_bytes()).hexdigest()
        assert da == db

    def test_accuracy_metric_linear(self, tmp_path):
        p = tmp_path / "acc.svg"
        render_convergence_svg(self.traces_two_solvers(), "test_accuracy", p)
        assert p.read_text().count("<polyline") == 2

    def test_degenerate_range_rejected(self, tmp_path):
        traces = {"tron": [[sample_record(0), sample_record(0)]]}
        with pytest.raises(ValueError, match="degenerate"):
            render_convergence_svg(traces, "optimality_gap", tmp_path / "x.svg")

    def test_gap_clamped_at_floor(self, tmp_path):
        low = TraceRecord(iter=1, wall_time_s=1.0, objective=0.0,
                          optimality_gap=1e-30, test_accuracy=None,
                          grad_norm=0.0, rows_touched=1)
        traces = {"tron": [[sample_record(0), low]]}
        p = tmp_path / "gap.svg"
        render_convergence_svg(traces, "optimality_gap", p)
        assert ">1e-16<" in p.read_text()

    def test_unknown_metric_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="metric"):
            render_convergence_svg(self.traces_two_solvers(), "loss", tmp_path / "x.svg")


def _spy_run_solver(monkeypatch):
    """Record every (problem, config, callback) the harness passes on."""
    seen = []
    real = harness.run_solver

    def spy(problem, config, callback=None):
        seen.append((problem, config, callback))
        return real(problem, config, callback)

    monkeypatch.setattr(harness, "run_solver", spy)
    return seen


def _solved(problem):
    """A final iterate of the kind a benchmarked solver hands over."""
    w, termination = run_solver(problem, SolverConfig(method="lbfgs", grad_tol=1e-6))
    assert termination == "converged"
    return w


class CountingHv:
    """A problem proxy that counts Hessian-vector applies."""

    def __init__(self, problem):
        self._problem = problem
        self.applies = 0

    def __getattr__(self, name):
        return getattr(self._problem, name)

    def make_hess_vec(self, w, rows=None):
        hv = self._problem.make_hess_vec(w, rows)

        def counted(v):
            self.applies += 1
            return hv(v)

        return counted


class TestWarmFStar:
    @pytest.mark.parametrize("kind", ["logistic", "svm-l2"])
    @pytest.mark.parametrize("bias", [False, True])
    def test_warm_agrees_with_cold(self, monkeypatch, kind, bias):
        problem = make_problem(ProblemConfig(kind=kind, lam=1e-3, add_bias=bias),
                               small_instance(20, n=300, d=30))
        cold = compute_f_star(problem)
        seen = _spy_run_solver(monkeypatch)
        warm = compute_f_star(problem, start=_solved(problem))
        assert isinstance(seen[0][0], harness._Shifted)  # the warm run was taken
        assert abs(warm - cold) <= 1e-14 * abs(cold)

    def test_warm_point_meets_the_cold_certificate(self, monkeypatch):
        problem = make_problem(ProblemConfig(kind="logistic", lam=1e-3),
                               small_instance(21, n=300, d=30))
        start = _solved(problem)
        seen = _spy_run_solver(monkeypatch)
        w = harness._reference_point(problem, start)
        assert seen[0][1] is not harness._FSTAR_SOLVER
        g0 = np.linalg.norm(problem.gradient(np.zeros(problem.dim)))
        assert np.linalg.norm(problem.gradient(w)) <= 1e-12 * g0
        assert not np.array_equal(w, start)

    @pytest.mark.parametrize("start", ["nan", "zero", "far"])
    def test_poor_start_falls_back_to_cold(self, monkeypatch, start):
        problem = make_problem(ProblemConfig(kind="logistic", lam=1e-3),
                               small_instance(22, n=300, d=30))
        cold = compute_f_star(problem)
        w0 = {"nan": np.full(problem.dim, np.nan), "zero": np.zeros(problem.dim),
              "far": np.full(problem.dim, 1e3)}[start]
        g0 = np.linalg.norm(problem.gradient(np.zeros(problem.dim)))
        assert not np.linalg.norm(problem.gradient(w0)) < g0
        seen = _spy_run_solver(monkeypatch)
        assert compute_f_star(problem, start=w0) == cold
        assert seen == [(problem, harness._FSTAR_SOLVER, None)]

    def test_unmoved_solvers_fall_back_to_cold(self, tmp_path, monkeypatch):
        train = write_split(tmp_path, "train.libsvm", small_instance(23))
        spec = ExperimentSpec(
            problem=ProblemConfig(kind="logistic", lam=0.1),
            solvers=[SolverConfig(method="tron", max_iters=0),
                     SolverConfig(method="lbfgs", max_iters=0)],
            train_path=train)
        seen = _spy_run_solver(monkeypatch)
        run_experiment(spec)
        reference = [(p, c) for p, c, cb in seen if cb is None]
        assert len(reference) == 1
        problem, config = reference[0]
        assert config is harness._FSTAR_SOLVER
        assert not isinstance(problem, harness._Shifted)

    def test_warm_run_needs_fewer_hessian_products(self):
        problem = make_problem(ProblemConfig(kind="logistic", lam=1e-4),
                               small_instance(24, n=400, d=40))
        start = _solved(problem)
        cold, warm = CountingHv(problem), CountingHv(problem)
        assert compute_f_star(cold) == pytest.approx(
            compute_f_star(warm, start=start), rel=1e-14)
        assert 0 < warm.applies < cold.applies


class TestReferenceFromIterates:
    def _spec(self, tmp_path, **kw):
        train = write_split(tmp_path, "train.libsvm", small_instance(25))
        return ExperimentSpec(problem=ProblemConfig(kind="logistic", lam=0.05),
                              train_path=train, **kw)

    def test_stale_cache_warns_naming_the_file(self, tmp_path):
        spec = self._spec(tmp_path, solvers=[SolverConfig(method="tron", grad_tol=1e-8)])
        best = run_experiment(spec)["tron"][0][-1].objective
        cache, = tmp_path.glob("*.fstar")
        # a cached value equal to the best final objective is no sign of staleness
        cache.write_text(f"{best:.17g}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_experiment(spec)
        cache.write_text(f"{best + 1e-3:.17g}\n")
        with pytest.warns(RuntimeWarning, match=re.escape(str(cache))):
            traces = run_experiment(spec)
        assert traces["tron"][0][-1].optimality_gap < 0

    def test_hook_contract(self, tmp_path, monkeypatch):
        # the benchmark probe swaps in wrappers with exactly these signatures
        # and fails a process whose call counts differ
        real_run, real_f_star = harness.run_solver, harness.compute_f_star
        calls = []
        depth = []

        def run_solver(problem, config, callback=None):
            calls.append(("run_solver", bool(depth), callback is None))
            return real_run(problem, config, callback)

        def compute_f_star(*args, **kwargs):
            calls.append(("compute_f_star",))
            depth.append(1)
            try:
                return real_f_star(*args, **kwargs)
            finally:
                depth.pop()

        monkeypatch.setattr(harness, "run_solver", run_solver)
        monkeypatch.setattr(harness, "compute_f_star", compute_f_star)
        spec = self._spec(tmp_path, repetitions=2, solvers=[
            SolverConfig(method=m) for m in ("tron", "stron", "lbfgs")])
        run_experiment(spec)
        assert calls.count(("compute_f_star",)) == 1
        runs = [c for c in calls if c[0] == "run_solver"]
        assert len(runs) == len(spec.solvers) * spec.repetitions + 1
        # one reference run, inside compute_f_star, after every timed run
        assert runs[-1] == ("run_solver", True, True)
        assert all(c == ("run_solver", False, False) for c in runs[:-1])
