"""Acceptance checks: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget. Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion lines."""

import time
import xml.etree.ElementTree as ET
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from helpers import (ball_min_brute_force, classification_dataset,
                     dense_bfgs_direction, fd_gradient, fd_hess_vec,
                     model_value, random_rows)
from s2ml.cli import main
from s2ml.data import (dataset_from_rows, load_dataset, parse_libsvm_line,
                       serialize_dataset)
from s2ml.harness import CSV_HEADER, compute_f_star, read_trace_csv, write_trace_csv
from s2ml.problems import ProblemConfig, make_problem
from s2ml.solvers import SolverConfig, lbfgs_direction, run_solver, steihaug_cg

FIXTURES = Path(__file__).parent / "fixtures"
LN2 = 0.6931471805599453


class criterion:
    """Times a criterion body, prints its verdict, enforces the budget."""

    def __init__(self, name, budget_s):
        self.name = name
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is not None:
            print(f"[FAIL] {self.name} ({elapsed:.2f}s)")
            return False
        print(f"[PASS] {self.name} ({elapsed:.2f}s)")
        if elapsed >= self.budget_s:
            raise AssertionError(
                f"{self.name}: runtime {elapsed:.2f}s exceeds {self.budget_s}s")
        return False


def random_instance(rng, kind, lam):
    n = int(rng.integers(4, 61))
    d = int(rng.integers(2, 13))
    data = classification_dataset(rng, n, d, max(1, d // 2))
    problem = make_problem(ProblemConfig(kind=kind, lam=lam), data)
    return problem, rng.normal(size=problem.dim) * 0.7


def test_gradient_correctness():
    with criterion("gradient correctness (finite differences)", 5.0):
        rng = np.random.default_rng(100)
        lams = [0.0, 0.1, 1.0]
        for i in range(50):
            for kind in ("logistic", "svm-l2"):
                problem, w = random_instance(rng, kind, lams[i % 3])
                g = problem.gradient(w)
                fd = fd_gradient(problem, w, h=1e-6)
                denom = max(float(np.abs(g).max()), 1e-8)
                rel = float(np.abs(fd - g).max()) / denom
                assert rel < 1e-6, (kind, i, rel)


def test_hessian_vector_correctness():
    with criterion("Hessian-vector correctness, symmetry, linearity", 5.0):
        rng = np.random.default_rng(101)
        lams = [0.0, 0.1, 1.0]
        done = 0
        while done < 50:
            kind = ("logistic", "svm-l2")[done % 2]
            problem, w = random_instance(rng, kind, lams[done % 3])
            if kind == "svm-l2" and float(np.abs(problem.margins(w) - 1.0).min()) < 1e-3:
                continue  # keep the kink at arm's length
            v = rng.normal(size=problem.dim)
            hv_op = problem.make_hess_vec(w)
            hv = hv_op(v)
            fd = fd_hess_vec(problem, w, v, h=1e-5)
            denom = max(float(np.abs(hv).max()), 1e-8)
            assert float(np.abs(fd - hv).max()) / denom < 1e-5
            u = rng.normal(size=problem.dim)
            a, b = 1.75, -0.4
            lin = hv_op(a * u + b * v)
            combo = a * hv_op(u) + b * hv_op(v)
            scale = max(float(np.abs(lin).max()), 1e-12)
            assert float(np.abs(lin - combo).max()) / scale < 1e-12
            left, right = float(u @ hv_op(v)), float(v @ hv_op(u))
            assert abs(left - right) <= 1e-12 * max(1.0, abs(left))
            done += 1


def test_steihaug_oracle_equivalence():
    with criterion("trust-region subproblem vs 2-D brute force", 10.0):
        rng = np.random.default_rng(102)
        for _ in range(200):
            A = rng.normal(size=(2, 2))
            H = 0.5 * (A + A.T)
            g = rng.normal(size=2)
            if np.linalg.norm(g) < 1e-6:
                continue
            radius = float(rng.uniform(0.1, 3.0))
            s, _, _ = steihaug_cg(lambda v: H @ v, g, radius, rtol=1e-12, max_iters=10)
            assert np.linalg.norm(s) <= radius + 1e-12
            best = ball_min_brute_force(H, g, radius, grid=400)
            assert abs(model_value(H, g, s) - best) < 1e-6


def test_lbfgs_two_loop_equivalence():
    with criterion("L-BFGS two-loop vs dense inverse-Hessian", 5.0):
        rng = np.random.default_rng(103)
        for _ in range(200):
            d = int(rng.integers(2, 13))
            m = int(rng.integers(1, 9))
            pairs = deque()
            while len(pairs) < m:
                s = rng.normal(size=d)
                y = rng.normal(size=d)
                if float(s @ y) > 0.1 * np.linalg.norm(s) * np.linalg.norm(y):
                    pairs.append((s, y))
            g = rng.normal(size=d)
            fast = lbfgs_direction(pairs, g)
            dense = dense_bfgs_direction(list(pairs), g)
            scale = max(float(np.abs(dense).max()), 1e-12)
            assert float(np.abs(fast - dense).max()) / scale < 1e-10


def test_solver_agreement():
    with criterion("four solvers agree on a strictly convex instance", 10.0):
        rng = np.random.default_rng(104)
        data = classification_dataset(rng, 200, 20, 20)
        problem = make_problem(ProblemConfig(kind="logistic", lam=0.01), data)
        finals = {}
        for method in ("tron", "stron", "newton-cg", "lbfgs"):
            snaps = []
            w, _ = run_solver(problem, SolverConfig(method=method, grad_tol=1e-10,
                                                    max_iters=500, rng_seed=7),
                              snaps.append)
            finals[method] = problem.objective(w)
            if method == "tron":
                acc = [s.objective for s in snaps if s.step_accepted]
                assert all(b <= a for a, b in zip(acc, acc[1:])), \
                    "tron accepted objectives increased"
        spread = max(finals.values()) - min(finals.values())
        assert spread < 1e-8, finals


def test_stron_degeneracy():
    with criterion("full-batch stron is bit-identical to tron", 5.0):
        rng = np.random.default_rng(105)
        data = classification_dataset(rng, 150, 12, 12)
        problem = make_problem(ProblemConfig(kind="logistic", lam=0.02), data)
        tron_trace, stron_trace = [], []
        run_solver(problem, SolverConfig(method="tron", grad_tol=1e-9, rng_seed=5),
                   tron_trace.append)
        run_solver(problem, SolverConfig(method="stron", grad_tol=1e-9, rng_seed=5,
                                         batch0_frac=1.0), stron_trace.append)
        assert [(s.iter, s.objective) for s in tron_trace] == \
               [(s.iter, s.objective) for s in stron_trace]


def test_hessian_subsampling_cost_advantage():
    with criterion("subsampled Hessian reaches the gap with fewer rows", 60.0):
        rng = np.random.default_rng(106)
        n, d = 5000, 200
        data = classification_dataset(rng, n, d, 20)
        problem = make_problem(ProblemConfig(kind="logistic", lam=1.0 / n), data)
        f_star = compute_f_star(problem)
        target = 1e-3

        def rows_to_gap(method, seed):
            snaps = []
            t0 = time.perf_counter()
            run_solver(problem, SolverConfig(method=method, grad_tol=1e-8,
                                             max_iters=300, rng_seed=seed),
                       snaps.append)
            elapsed = time.perf_counter() - t0
            cum = 0
            wall = None
            for s in snaps:
                cum += s.rows_touched
                if s.objective - f_star <= target:
                    return cum, elapsed
            raise AssertionError(f"{method} never reached gap {target}")

        tron_rows, tron_time = rows_to_gap("tron", 0)
        wins = 0
        for seed in (0, 1, 2):
            stron_rows, stron_time = rows_to_gap("stron", seed)
            win = stron_rows <= tron_rows
            wins += win
            print(f"  seed {seed}: stron rows {stron_rows} vs tron rows {tron_rows} "
                  f"({'<=' if win else '>'}); wall-clock {stron_time:.2f}s vs "
                  f"{tron_time:.2f}s (reported, not asserted)")
        assert wins >= 2, f"subsampling won only {wins}/3 seeds"


def test_data_round_trip():
    with criterion("LIBSVM round trip and fixture edge cases", 5.0):
        rng = np.random.default_rng(107)
        for _ in range(500):
            n = int(rng.integers(0, 10))
            d = int(rng.integers(1, 9))
            ds = dataset_from_rows(random_rows(rng, n, d))
            text = serialize_dataset(ds)
            back = dataset_from_rows(
                parse_libsvm_line(line) for line in text.splitlines())
            assert back == ds
            assert serialize_dataset(back) == text

        ds = load_dataset(FIXTURES / "comments.libsvm")
        assert ds.n_rows == 3 and list(ds.labels) == [1, -1, 1]

        with pytest.warns(UserWarning, match="mapped to -1"):
            ds = load_dataset(FIXTURES / "zero_labels.libsvm")
        assert list(ds.labels) == [-1, 1, -1]

        ds = load_dataset(FIXTURES / "unordered.libsvm")
        ds.validate()
        assert list(ds.features.col_indices[:2]) == [0, 2]

        from s2ml.data import LibsvmParseError
        with pytest.raises(LibsvmParseError, match="duplicate"):
            load_dataset(FIXTURES / "duplicates.libsvm")


def test_cli_end_to_end(tmp_path, data_dir):
    with criterion("benchmark subcommand end to end", 10.0):
        out_dir = tmp_path / "results"
        rc = main(["benchmark", "--data", str(data_dir / "train1000.libsvm"),
                   "--test-data", str(data_dir / "test200.libsvm"),
                   "--solver", "tron", "--solver", "stron",
                   "--max-iters", "20", "--grad-tol", "1e-8",
                   "--out-dir", str(out_dir)])
        assert rc == 0
        csv_path = out_dir / "traces.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        for name in ("gap.svg", "accuracy.svg"):
            root = ET.parse(out_dir / name).getroot()
            assert root.tag.endswith("svg")
        traces = read_trace_csv(csv_path)
        rewritten = tmp_path / "again.csv"
        write_trace_csv(traces, rewritten)
        assert rewritten.read_bytes() == csv_path.read_bytes()


def test_anchor_values():
    with criterion("objective anchors at w = 0", 5.0):
        rng = np.random.default_rng(108)
        datasets = [classification_dataset(rng, int(rng.integers(2, 200)),
                                           int(rng.integers(1, 30)), 5)
                    for _ in range(10)]
        datasets.append(load_dataset(FIXTURES / "train1000.libsvm"))
        datasets.append(load_dataset(FIXTURES / "test200.libsvm"))
        for data in datasets:
            logistic = make_problem(ProblemConfig(kind="logistic", lam=0.0), data)
            svm = make_problem(ProblemConfig(kind="svm-l2", lam=0.0), data)
            assert abs(logistic.objective(np.zeros(logistic.dim)) - LN2) < 1e-15
            assert abs(svm.objective(np.zeros(svm.dim)) - 1.0) < 1e-15
