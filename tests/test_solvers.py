from collections import deque
from pathlib import Path

import numpy as np
import pytest

from helpers import (QuadraticProblem, ball_min_brute_force, classification_dataset,
                     dense_bfgs_direction, model_value)
from s2ml.problems import ProblemConfig, make_problem
from s2ml.solvers import (LbfgsMemory, SolverConfig, SolverState, init_state,
                          lbfgs_direction, lbfgs_step, newton_cg_step, run_solver,
                          steihaug_cg, stron_step, tron_step)

FIXTURE_TRAIN = str(Path(__file__).parent / "fixtures" / "train1000.libsvm")


def make_state(problem, config, w0):
    w = np.asarray(w0, dtype=np.float64)
    g = problem.gradient(w)
    return SolverState(w=w, grad=g, obj=problem.objective(w),
                       grad_norm0=float(np.linalg.norm(g)),
                       tr_radius=config.tr_radius0,
                       rng=np.random.default_rng(config.rng_seed),
                       batch_size=problem.n_rows,
                       lbfgs_pairs=deque(maxlen=config.lbfgs_memory))


def logistic_problem(seed, n, d, lam, nnz=None):
    rng = np.random.default_rng(seed)
    data = classification_dataset(rng, n, d, nnz or d)
    return make_problem(ProblemConfig(kind="logistic", lam=lam), data)


class TestConfigValidation:
    def test_defaults_valid(self):
        SolverConfig()

    @pytest.mark.parametrize("kwargs", [
        {"method": "sgd"},
        {"grad_tol": 0.0},
        {"cg_rtol": 1.0},
        {"cg_rtol": 0.0},
        {"tr_radius0": -1.0},
        {"batch0_frac": 0.0},
        {"batch0_frac": 1.5},
        {"batch_growth": 0.5},
        {"lbfgs_memory": 0},
        {"max_iters": -1},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestSteihaug:
    def test_newton_step_inside_region(self):
        s, status = steihaug_cg(lambda v: v, np.array([1.0, 0.0]), 10.0)
        assert status == "interior"
        assert np.allclose(s, [-1.0, 0.0], atol=1e-15)

    def test_newton_step_clipped(self):
        s, status = steihaug_cg(lambda v: v, np.array([1.0, 0.0]), 0.5)
        assert status == "boundary"
        assert np.allclose(s, [-0.5, 0.0], atol=1e-15)

    def test_negative_curvature_reaches_disk_minimum(self):
        H = np.diag([1.0, -1.0])
        g = np.array([1.0, 0.1])
        s, status = steihaug_cg(lambda v: H @ v, g, 1.0, rtol=1e-10, max_iters=10)
        assert status == "neg_curvature"
        assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)
        best = ball_min_brute_force(H, g, 1.0)
        assert model_value(H, g, s) <= best + 1e-6

    def test_iteration_cap_status(self):
        H = np.diag([1.0, 10.0, 100.0])
        g = np.array([1.0, 1.0, 1.0])
        s, status = steihaug_cg(lambda v: H @ v, g, 1e6, rtol=1e-14, max_iters=1)
        assert status == "max_iters"
        assert np.linalg.norm(s) > 0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            steihaug_cg(lambda v: v, np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            steihaug_cg(lambda v: v, np.ones(2), 0.0)

    def test_extreme_radius_scales(self):
        H = np.diag([2.0, 0.5])
        g = np.array([1.0, -3.0])
        for radius in (1e-12, 1e-3, 1.0, 1e9):
            s, _ = steihaug_cg(lambda v: H @ v, g, radius, rtol=1e-10, max_iters=10)
            assert np.all(np.isfinite(s))
            assert np.linalg.norm(s) <= radius * (1 + 1e-12)

    def test_radius_and_cauchy_invariants(self):
        rng = np.random.default_rng(21)
        for _ in range(150):
            d = int(rng.integers(2, 9))
            A = rng.normal(size=(d, d))
            H = 0.5 * (A + A.T)
            if rng.random() < 0.5:
                H = H.T @ H + 0.1 * np.eye(d)  # definite half the time
            g = rng.normal(size=d)
            if np.linalg.norm(g) < 1e-9:
                continue
            radius = float(rng.uniform(0.05, 4.0))
            rtol = float(rng.choice([0.5, 0.1, 1e-4]))
            s, status = steihaug_cg(lambda v: H @ v, g, radius,
                                    rtol=rtol, max_iters=25)
            assert np.linalg.norm(s) <= radius + 1e-12
            # Cauchy point: best step along -g inside the ball
            gHg = float(g @ (H @ g))
            gnorm = float(np.linalg.norm(g))
            tau_max = radius / gnorm
            tau = tau_max if gHg <= 0 else min(tau_max, gnorm * gnorm / gHg)
            cauchy = model_value(H, g, -tau * g)
            assert model_value(H, g, s) <= min(0.0, cauchy) + 1e-12


class TestTronStep:
    def test_exact_newton_on_quadratic(self):
        problem = QuadraticProblem(np.eye(2))
        config = SolverConfig(method="tron", tr_radius0=10.0)
        state = make_state(problem, config, [3.0, 4.0])
        snap = tron_step(problem, state, config)
        assert snap.step_accepted
        assert np.allclose(state.w, [0.0, 0.0], atol=1e-15)
        assert snap.objective == 0.0
        assert state.tr_radius == 10.0  # interior step: no expansion

    def test_boundary_step_expands_radius(self):
        problem = QuadraticProblem(np.eye(2))
        config = SolverConfig(method="tron", tr_radius0=1.0)
        state = make_state(problem, config, [3.0, 4.0])
        w_old = state.w
        snap = tron_step(problem, state, config)
        assert snap.step_accepted
        # step of unit length along -w/||w||
        assert np.allclose(state.w, [3.0 - 0.6, 4.0 - 0.8], atol=1e-12)
        assert state.tr_radius == 4.0
        assert snap.tr_radius == 4.0
        assert snap.step_norm == pytest.approx(np.linalg.norm(state.w - w_old),
                                               rel=1e-15)

    def test_monotone_descent_until_tiny_gradient(self):
        problem = logistic_problem(0, 50, 5, lam=1.0)
        g0 = float(np.linalg.norm(problem.gradient(np.zeros(problem.dim))))
        config = SolverConfig(method="tron", grad_tol=1e-10 / g0, max_iters=200)
        snaps = []
        w, term = run_solver(problem, config, snaps.append)
        assert term == "converged"
        assert float(np.linalg.norm(problem.gradient(w))) < 1e-10
        # strictly decreasing until the gradient reaches 1e-10, then flat at
        # the floating-point plateau; never increasing anywhere
        accepted = [s for s in snaps if s.step_accepted]
        before = [s.objective for s in accepted if s.grad_norm >= 1e-10]
        assert all(b < a for a, b in zip(before, before[1:]))
        everything = [s.objective for s in accepted]
        assert all(b <= a for a, b in zip(everything, everything[1:]))

    def test_lying_oracle_is_rejection_not_crash(self):
        class Hostile(QuadraticProblem):
            # zero-curvature oracle sends the step far past the true optimum
            def make_hess_vec(self, w, rows=None):
                return lambda v: np.zeros_like(v)

        problem = Hostile(np.eye(2))
        config = SolverConfig(method="tron", tr_radius0=1e6)
        state = make_state(problem, config, [1e5, 0.0])
        radius_before = state.tr_radius
        snap = tron_step(problem, state, config)
        assert not snap.step_accepted
        assert state.tr_radius == 0.5 * radius_before
        assert (snap.tr_radius, snap.step_norm) == (state.tr_radius, 0.0)

    def test_model_denominator_breakdown_rejects_with_plain_halving(self):
        class Inconsistent(QuadraticProblem):
            # identity during the subproblem solve, huge on the model-value
            # product: drives the predicted decrease negative
            def make_hess_vec(self, w, rows=None):
                calls = {"n": 0}

                def hv(v):
                    calls["n"] += 1
                    return np.asarray(v) * (1.0 if calls["n"] == 1 else 1e9)

                return hv

        problem = Inconsistent(np.eye(2))
        config = SolverConfig(method="tron", tr_radius0=10.0)
        state = make_state(problem, config, [3.0, 4.0])
        snap = tron_step(problem, state, config)
        assert not snap.step_accepted
        # breakdown halves the radius itself, not min(radius, step norm)
        assert state.tr_radius == 5.0
        assert np.allclose(state.w, [3.0, 4.0])


class TestStronStep:
    def test_batch_sequence(self):
        problem = logistic_problem(1, 100, 4, lam=0.1)
        config = SolverConfig(method="stron", batch0_frac=0.1, batch_growth=1.5)
        state = init_state(problem, config)
        seq = [state.batch_size]
        for _ in range(7):
            stron_step(problem, state, config)
            seq.append(state.batch_size)
        assert seq == [10, 15, 23, 35, 53, 80, 100, 100]

    def test_full_batch_degenerates_to_tron(self):
        problem = logistic_problem(2, 60, 6, lam=0.05)
        a, b = [], []
        run_solver(problem, SolverConfig(method="tron", grad_tol=1e-8, rng_seed=9),
                   a.append)
        run_solver(problem, SolverConfig(method="stron", grad_tol=1e-8, rng_seed=9,
                                         batch0_frac=1.0), b.append)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert (x.iter, x.objective, x.grad_norm, x.tr_radius,
                    x.step_norm, x.step_accepted) == \
                   (y.iter, y.objective, y.grad_norm, y.tr_radius,
                    y.step_norm, y.step_accepted)

    def test_reaches_tron_objective(self):
        problem = logistic_problem(3, 200, 20, lam=0.01)
        w_t, _ = run_solver(problem, SolverConfig(method="tron", grad_tol=1e-9,
                                                  max_iters=300))
        w_s, _ = run_solver(problem, SolverConfig(method="stron", grad_tol=1e-9,
                                                  max_iters=300, rng_seed=17))
        assert abs(problem.objective(w_s) - problem.objective(w_t)) < 1e-6

    def test_hessian_rows_counted_per_batch(self):
        problem = logistic_problem(4, 100, 5, lam=0.1)
        config = SolverConfig(method="stron", batch0_frac=0.1)
        state = init_state(problem, config)
        snap = stron_step(problem, state, config)
        assert snap.rows_touched == (snap.cg_iters_used + 1) * 10


class TestNewtonCg:
    def test_one_step_on_quadratic(self):
        problem = QuadraticProblem(np.eye(2))
        config = SolverConfig(method="newton-cg")
        state = make_state(problem, config, [3.0, 4.0])
        snap = newton_cg_step(problem, state, config)
        assert snap.step_accepted
        assert snap.cg_iters_used == 1
        assert np.allclose(state.w, [0.0, 0.0], atol=1e-15)
        # full step accepted: length equals the Newton step length
        assert snap.step_norm == pytest.approx(5.0)
        assert snap.tr_radius is None

    def test_steepest_descent_fallback(self):
        class NegativeOracle(QuadraticProblem):
            def make_hess_vec(self, w, rows=None):
                return lambda v: -np.asarray(v)

        problem = NegativeOracle(np.eye(2))
        config = SolverConfig(method="newton-cg")
        state = make_state(problem, config, [3.0, 4.0])
        w0 = state.w.copy()
        snap = newton_cg_step(problem, state, config)
        assert snap.step_accepted
        # the step must be along -g = -w0
        step = state.w - w0
        cosine = float(step @ (-w0)) / (np.linalg.norm(step) * np.linalg.norm(w0))
        assert cosine == pytest.approx(1.0, abs=1e-12)

    def test_gradient_drops_eight_orders(self):
        problem = logistic_problem(5, 50, 5, lam=1.0)
        config = SolverConfig(method="newton-cg", grad_tol=1e-8, max_iters=30,
                              cg_rtol=1e-4)
        snaps = []
        w, term = run_solver(problem, config, snaps.append)
        assert term == "converged"
        assert snaps[-1].iter <= 30

    def test_line_search_exhaustion_rejects(self):
        class Liar(QuadraticProblem):
            # gradient points uphill, so no halving can satisfy the test
            def gradient(self, w, rows=None):
                return -super().gradient(w, rows)

        problem = Liar(np.eye(2))
        config = SolverConfig(method="newton-cg")
        state = make_state(problem, config, [1.0, 1.0])
        snap = newton_cg_step(problem, state, config)
        assert not snap.step_accepted
        assert snap.step_norm == 0.0
        assert np.allclose(state.w, [1.0, 1.0])


class TestLbfgs:
    def test_empty_memory_is_steepest_descent(self):
        g = np.array([0.3, -1.2, 4.0])
        assert np.array_equal(lbfgs_direction(deque(), g), -g)

    def test_two_loop_matches_dense_recursion(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            d = int(rng.integers(2, 13))
            m = int(rng.integers(1, 6))
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

    @staticmethod
    def curvature_pairs(rng, d, count):
        pairs = []
        while len(pairs) < count:
            s = rng.normal(size=d)
            y = rng.normal(size=d)
            if float(s @ y) > 0.1 * np.linalg.norm(s) * np.linalg.norm(y):
                pairs.append((s, y))
        return pairs

    def test_memory_ring_matches_dense_recursion(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            d = int(rng.integers(2, 13))
            m = int(rng.integers(1, 6))
            pairs = self.curvature_pairs(rng, d, m + int(rng.integers(1, 3 * m + 2)))
            memory = LbfgsMemory(m)
            for pair in pairs:
                memory.append(pair)
            g = rng.normal(size=d)
            fast = memory.direction(g)
            dense = dense_bfgs_direction(pairs[-m:], g)
            scale = max(float(np.abs(dense).max()), 1e-12)
            assert float(np.abs(fast - dense).max()) / scale < 1e-10
            assert np.array_equal(lbfgs_direction(memory, g), fast)

    def test_memory_iterates_kept_pairs_oldest_first(self):
        rng = np.random.default_rng(33)
        pairs = self.curvature_pairs(rng, 5, 7)
        memory = LbfgsMemory(3)
        assert len(memory) == 0 and list(memory) == []
        for n, pair in enumerate(pairs, start=1):
            memory.append(pair)
            kept = pairs[max(0, n - 3):n]
            assert len(memory) == len(kept)
            got = list(memory)
            assert len(got) == len(kept)
            for (s, y), (s_ref, y_ref) in zip(got, kept):
                assert np.array_equal(s, s_ref) and np.array_equal(y, y_ref)

    def test_converges_on_ill_scaled_quadratic(self):
        problem = QuadraticProblem(np.diag([1.0, 10.0]), c=[1.0, 1.0])
        g0 = float(np.linalg.norm(problem.gradient(np.zeros(2))))
        config = SolverConfig(method="lbfgs", grad_tol=1e-10 / g0, max_iters=20)
        snaps = []
        w, term = run_solver(problem, config, snaps.append)
        assert term == "converged"
        assert float(np.linalg.norm(problem.gradient(w))) < 1e-10
        assert snaps[-1].iter <= 20

    def test_curvature_safeguard_discards_pairs(self):
        problem = QuadraticProblem(np.eye(2), c=[1.0, 0.0])
        config = SolverConfig(method="lbfgs")
        state = make_state(problem, config, [0.0, 0.0])
        lbfgs_step(problem, state, config)
        for s, y in state.lbfgs_pairs:
            assert float(s @ y) > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y)


class TestRunSolver:
    def test_grad_tol_one_stops_at_iteration_zero(self):
        problem = logistic_problem(6, 20, 4, lam=0.5)
        snaps = []
        w, term = run_solver(problem, SolverConfig(grad_tol=1.0), snaps.append)
        assert term == "converged"
        assert len(snaps) == 1 and snaps[0].iter == 0
        assert np.all(w == 0.0)

    def test_max_iters_zero(self):
        problem = logistic_problem(7, 20, 4, lam=0.5)
        w, term = run_solver(problem, SolverConfig(max_iters=0))
        assert term == "max_iters"
        assert np.all(w == 0.0)

    def test_fixture_regression_converges(self):
        from s2ml.data import load_dataset
        data = load_dataset(FIXTURE_TRAIN)
        problem = make_problem(ProblemConfig(kind="logistic"), data)  # lam = 1/n
        w, term = run_solver(problem, SolverConfig(method="tron", grad_tol=1e-6,
                                                   max_iters=200))
        assert term == "converged"

    def test_trajectory_reproducible_bit_for_bit(self):
        problem = logistic_problem(8, 80, 8, lam=0.02)
        for method in ("tron", "stron", "newton-cg", "lbfgs"):
            config = SolverConfig(method=method, grad_tol=1e-8, rng_seed=123)
            a, b = [], []
            run_solver(problem, config, a.append)
            run_solver(problem, config, b.append)
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert x.objective == y.objective
                assert x.grad_norm == y.grad_norm
                assert np.array_equal(x.w, y.w)

    def test_callback_failure_aborts_cleanly(self):
        problem = logistic_problem(9, 30, 4, lam=0.1)

        def boom(snap):
            if snap.iter >= 2:
                raise RuntimeError("sink failed")

        with pytest.warns(RuntimeWarning, match="callback"):
            w, term = run_solver(problem, SolverConfig(grad_tol=1e-8), boom)
        assert term == "stalled"

    def test_all_methods_agree_on_strictly_convex_instance(self):
        problem = logistic_problem(10, 120, 10, lam=0.05)
        finals = []
        for method in ("tron", "stron", "newton-cg", "lbfgs"):
            w, _ = run_solver(problem, SolverConfig(method=method, grad_tol=1e-10,
                                                    max_iters=400))
            finals.append(problem.objective(w))
        assert max(finals) - min(finals) < 1e-8

    def test_all_methods_handle_bias_feature(self):
        rng = np.random.default_rng(11)
        data = classification_dataset(rng, 120, 10, 10)
        problem = make_problem(
            ProblemConfig(kind="logistic", lam=0.05, add_bias=True), data)
        finals = []
        for method in ("tron", "stron", "newton-cg", "lbfgs"):
            w, term = run_solver(problem, SolverConfig(method=method,
                                                       grad_tol=1e-10,
                                                       max_iters=400))
            assert w.shape == (11,)
            finals.append(problem.objective(w))
        assert max(finals) - min(finals) < 1e-8

    def test_degenerate_datasets_converge(self):
        from s2ml.data import dataset_from_rows
        one_class = dataset_from_rows(
            [(1, [(1, 1.0)]), (1, [(2, 1.0)]), (1, [(1, 0.5), (2, -0.5)])])
        problem = make_problem(ProblemConfig(kind="logistic", lam=0.1), one_class)
        _, term = run_solver(problem, SolverConfig(method="tron", grad_tol=1e-10))
        assert term == "converged"
        empty_rows = dataset_from_rows([(1, []), (-1, [])], n_cols=3)
        problem = make_problem(ProblemConfig(kind="logistic", lam=1.0), empty_rows)
        w, term = run_solver(problem, SolverConfig(method="tron"))
        assert term == "converged"
        assert np.all(w == 0.0)  # null features: penalty pins the optimum at 0
