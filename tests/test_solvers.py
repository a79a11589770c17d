import contextlib
import hashlib
import math
import signal
import struct
import warnings
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from helpers import (QuadraticProblem, ball_min_brute_force, classification_dataset,
                     dense_bfgs_direction, full_row_hess_vec, model_value)
from s2ml import solvers
from s2ml.data import Dataset, Features
from s2ml.problems import GATHER_MAX_ACTIVE, ProblemConfig, make_problem
from s2ml.solvers import (LbfgsMemory, SolverConfig, SolverState, init_state,
                          lbfgs_direction, lbfgs_step, newton_cg_step, run_solver,
                          steihaug_cg, stron_step, tron_step)

FIXTURE_TRAIN = str(Path(__file__).parent / "fixtures" / "train1000.libsvm")


def make_state(problem, config, w0):
    w = np.asarray(w0, dtype=np.float64)
    g = problem.gradient(w)
    return SolverState(w=w, grad=g, obj=problem.objective(w),
                       grad_norm0=float(np.linalg.norm(g)),
                       tr_radius=(config.tr_radius0
                                  if config.method in ("tron", "stron") else None),
                       rng=np.random.default_rng(config.rng_seed),
                       batch_size=problem.n_rows,
                       lbfgs_pairs=LbfgsMemory(config.lbfgs_memory))


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
        {"grad_tol": math.inf},
        {"tr_radius0": math.inf},
        {"batch_growth": math.inf},
        {"rng_seed": -1},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


@contextlib.contextmanager
def deadline(seconds):
    """Fail the body with TimeoutError, instead of hanging the suite, when it
    runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Hessian products that turn non-finite: NaN, and +inf or -inf curvature
NON_FINITE = {"nan": lambda v: np.full_like(v, math.nan),
              "inf": lambda v: math.inf * v,
              "-inf": lambda v: -math.inf * v}


def failing_hv(H, bad_call, bad):
    """``v -> H @ v`` up to call ``bad_call`` (1-based), ``bad(v)`` from then
    on; the list it returns counts the calls."""
    calls = []

    def hv(v):
        calls.append(v)
        return bad(v) if len(calls) >= bad_call else H @ v
    return hv, calls


class TestSteihaug:
    def test_newton_step_inside_region(self):
        s, status, _ = steihaug_cg(lambda v: v, np.array([1.0, 0.0]), 10.0)
        assert status == "interior"
        assert np.allclose(s, [-1.0, 0.0], atol=1e-15)

    def test_newton_step_clipped(self):
        s, status, _ = steihaug_cg(lambda v: v, np.array([1.0, 0.0]), 0.5)
        assert status == "boundary"
        assert np.allclose(s, [-0.5, 0.0], atol=1e-15)

    def test_negative_curvature_reaches_disk_minimum(self):
        H = np.diag([1.0, -1.0])
        g = np.array([1.0, 0.1])
        s, status, _ = steihaug_cg(lambda v: H @ v, g, 1.0, rtol=1e-10, max_iters=10)
        assert status == "neg_curvature"
        assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)
        best = ball_min_brute_force(H, g, 1.0)
        assert model_value(H, g, s) <= best + 1e-6

    def test_iteration_cap_status(self):
        H = np.diag([1.0, 10.0, 100.0])
        g = np.array([1.0, 1.0, 1.0])
        s, status, _ = steihaug_cg(lambda v: H @ v, g, 1e6, rtol=1e-14, max_iters=1)
        assert status == "max_iters"
        assert np.linalg.norm(s) > 0
        # the cap on the boundary path: the first step already crosses the
        # sphere, and one iteration returns the boundary Cauchy point
        radius = 0.01
        cauchy = -radius * math.sqrt(3.0) + 0.5 * radius ** 2 * 111.0 / 3.0
        for max_iters in (1, 2):
            s, status, _ = steihaug_cg(lambda v: H @ v, g, radius, rtol=1e-14,
                                    max_iters=max_iters)
            assert status == "max_iters"
            assert np.linalg.norm(s) == pytest.approx(radius, rel=1e-12)
            if max_iters == 1:
                assert model_value(H, g, s) == pytest.approx(cauchy, rel=1e-12)
                assert model_value(H, g, s) == pytest.approx(-0.0154705, abs=1e-7)
            else:
                assert model_value(H, g, s) <= cauchy + 1e-15

    def test_preconditions(self):
        with pytest.raises(ValueError):
            steihaug_cg(lambda v: v, np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            steihaug_cg(lambda v: v, np.ones(2), 0.0)
        for rtol in (-0.1, 1.0, math.nan):
            with pytest.raises(ValueError, match="rtol"):
                steihaug_cg(lambda v: v, np.ones(2), 1.0, rtol=rtol)

    def test_exact_breakdown_past_the_boundary(self):
        # every CG quantity is exact in binary: ||g|| = 5, alpha = 25/16
        # crosses the sphere, ||r1|| = 3.75, beta = 0.5625 and the second
        # direction (0, -4.6875, 0) has zero curvature
        H = np.diag([1.0, 0.0, 0.0])
        g = np.array([4.0, 3.0, 0.0])
        s, status, _ = steihaug_cg(lambda v: H @ v, g, 1.0, rtol=0.1)
        assert status == "boundary"
        assert np.allclose(s, [-0.8, -0.6, 0.0], rtol=0.0, atol=1e-15)
        assert model_value(H, g, s) == pytest.approx(-4.68, rel=1e-15)

    @staticmethod
    def boundary_cauchy_value(H, g, radius):
        """Model value of the best step along -g inside the ball."""
        gHg = float(g @ (H @ g))
        gnorm = float(np.linalg.norm(g))
        tau = radius / gnorm if gHg <= 0 else min(radius / gnorm, gnorm * gnorm / gHg)
        return model_value(H, g, -tau * g)

    def test_curvature_at_roundoff_is_a_breakdown(self):
        # in exact arithmetic the second direction (0, -2, 0) has zero
        # curvature; the rounded ||r1||^2 leaves kappa near 5e-32, and a
        # step rr / kappa of 4e31 used to overflow the recurrences
        H = np.diag([1.0, 0.0, 0.0])
        g = np.array([1.0, 1.0, 0.0])
        s, status, _ = steihaug_cg(lambda v: H @ v, g, 1.0, rtol=0.1)
        assert status == "boundary"
        assert np.all(np.isfinite(s))
        assert np.linalg.norm(s) == pytest.approx(1.0, rel=1e-15)
        cauchy = self.boundary_cauchy_value(H, g, 1.0)
        assert model_value(H, g, s) <= cauchy + 1e-15

    def test_singular_integer_hessians(self):
        # H = A'A with A an integer k x d matrix, k < d: exact zero
        # curvature directions that CG meets only up to roundoff
        rng = np.random.default_rng(1)
        for _ in range(300):
            d = int(rng.integers(2, 7))
            A = rng.integers(-3, 4, size=(int(rng.integers(1, d)), d)).astype(float)
            H = A.T @ A
            g = rng.integers(-3, 4, size=d).astype(float)
            if not np.any(g):
                continue
            radius = float(rng.uniform(0.1, 2.0))
            s, _, _ = steihaug_cg(lambda v: H @ v, g, radius, rtol=0.1)
            assert np.all(np.isfinite(s))
            assert np.linalg.norm(s) <= radius * (1 + 1e-12)
            cauchy = self.boundary_cauchy_value(H, g, radius)
            assert model_value(H, g, s) <= min(0.0, cauchy) + 1e-12 * max(1.0, abs(cauchy))

    @pytest.mark.parametrize("bad", NON_FINITE.values(), ids=NON_FINITE.keys())
    @pytest.mark.parametrize("radius", [0.1, 100.0])
    @pytest.mark.parametrize("bad_call", range(1, 7))
    def test_non_finite_product_returns(self, bad, radius, bad_call):
        # at radius 0.1 the first step crosses the sphere, so a later bad
        # product comes past the boundary, where it used to reach the root
        # find's bracket and double it forever
        H = np.diag([1.0, 5.0, 30.0])
        g = np.array([1.0, -2.0, 3.0])
        hv, calls = failing_hv(H, bad_call, bad)
        with deadline(5.0):
            s, status, products = steihaug_cg(hv, g, radius, rtol=1e-6)
        assert np.all(np.isfinite(s))
        assert np.linalg.norm(s) <= radius * (1 + 1e-12)
        assert products == len(calls)
        if len(calls) >= bad_call:  # the bad product came before convergence
            assert len(calls) == bad_call and status == "non_finite"

    def test_products_count_every_hessian_call(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            d = int(rng.integers(2, 9))
            A = rng.normal(size=(d, d))
            H = 0.5 * (A + A.T)
            g = rng.normal(size=d)
            hv, calls = failing_hv(H, math.inf, None)
            radius = float(rng.uniform(0.05, 4.0))
            _, _, products = steihaug_cg(hv, g, radius, rtol=1e-4, max_iters=6)
            assert 1 <= products == len(calls) <= 6

    @pytest.mark.parametrize("g", [np.array([3e-170, -4e-170]), np.full(26, 1.5e-162)],
                             ids=["both-squares", "sum-of-squares"])
    def test_underflowing_gradient_square_takes_the_boundary(self, g):
        # g.g underflows to 0, where the CG recurrences would divide by it;
        # in the second case ||g||^2 (5.8e-323) does not, but every square does
        s, status, products = steihaug_cg(lambda v: v, g, 2.0)
        assert (status, products) == ("boundary", 0)
        unit = (g / np.abs(g).max()) / np.linalg.norm(g / np.abs(g).max())
        assert np.allclose(s, -2.0 * unit, rtol=1e-15, atol=0.0)

    def test_underflowing_residual_stops_the_solve(self):
        # ||g|| is about 5e-157; the residual falls below 1e-162, where its
        # square underflows, and the solve returns there instead of dividing
        # by that square
        H = np.diag(np.logspace(0, 3, 25))
        g = np.random.default_rng(3).normal(size=25) * 1e-157
        s, status, _ = steihaug_cg(lambda v: H @ v, g, 10.0, rtol=1e-8, max_iters=50)
        assert status == "interior" and np.all(np.isfinite(s))

    def test_ball_min_tiny_radius_doubles_the_bracket(self):
        # radius / ||g|| = 1e-28: the first upper bracket still gives a step
        # longer than the radius, so the bracket is doubled before the root find
        h, neg = solvers._ball_min(np.array([[1.0]]), 1.0, 1e-28)
        assert not neg
        assert np.linalg.norm(h) == pytest.approx(1e-28, rel=1e-15)

    def test_extreme_radius_scales(self):
        H = np.diag([2.0, 0.5])
        g = np.array([1.0, -3.0])
        for radius in (1e-12, 1e-3, 1.0, 1e9):
            s, _, _ = steihaug_cg(lambda v: H @ v, g, radius, rtol=1e-10, max_iters=10)
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
            s, status, _ = steihaug_cg(lambda v: H @ v, g, radius,
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

    def test_plateau_rejection_shrinks_to_the_step(self):
        class Plateau(QuadraticProblem):
            # a model decrease at roundoff, a higher trial objective and a
            # gradient whose norm does not fall
            def objective(self, w, rows=None):
                return 2.0 if np.any(w) else 1.0

            def gradient(self, w, rows=None):
                seen.append(np.array(w))
                return np.full(self.dim, 1e-20)

        seen = []
        problem = Plateau(np.eye(2))
        config = SolverConfig(method="tron", tr_radius0=1.0)
        state = make_state(problem, config, [0.0, 0.0])
        g = state.grad
        snap = tron_step(problem, state, config)
        assert not snap.step_accepted
        assert np.array_equal(state.w, [0.0, 0.0])
        # the plateau test read the gradient at the trial point w + s = -g
        assert np.array_equal(seen[-1], -g)
        assert state.tr_radius == 0.5 * min(1.0, float(np.linalg.norm(g)))

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

    @pytest.mark.parametrize("bad", NON_FINITE.values(), ids=NON_FINITE.keys())
    @pytest.mark.parametrize("bad_call", range(1, 5))
    def test_non_finite_product_stops_cg(self, bad, bad_call):
        # CG returns the progress made before the bad product, which the
        # line search then accepts (the steepest descent step for call 1)
        H = np.diag([1.0, 5.0, 30.0, 200.0])

        class Failing(QuadraticProblem):
            def make_hess_vec(self, w, rows=None):
                return hv

        hv, calls = failing_hv(H, bad_call, bad)
        problem = Failing(H)
        config = SolverConfig(method="newton-cg", cg_rtol=1e-12)
        state = make_state(problem, config, [1.0, -2.0, 3.0, -4.0])
        f0 = state.obj
        x, used = solvers._cg_solve(hv, state.grad, config.cg_rtol, config.cg_max_iters)
        assert used == len(calls) == bad_call
        assert np.all(np.isfinite(x))
        calls.clear()
        with deadline(5.0):
            snap = newton_cg_step(problem, state, config)
        assert snap.cg_iters_used == bad_call
        assert snap.step_accepted and state.obj < f0

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

    def test_memory_needs_a_slot(self):
        with pytest.raises(ValueError, match="maxlen"):
            LbfgsMemory(0)

    def test_memory_allocates_at_the_first_append(self):
        # every run builds a memory, so one that no pair reaches costs nothing
        assert len(LbfgsMemory(10**8)) == 0
        problem = logistic_problem(5, 40, 4, lam=0.1)
        _, term = run_solver(problem, SolverConfig(method="tron", lbfgs_memory=10**8))
        assert term == "converged"

    def test_non_descent_direction_falls_back_to_steepest_descent(self):
        problem = QuadraticProblem(np.eye(2), c=[-1.0, -1.0])
        config = SolverConfig(method="lbfgs")
        state = make_state(problem, config, [0.0, 0.0])
        # a pair with s.y < 0 turns the two-loop direction uphill
        state.lbfgs_pairs.append((np.array([1.0, 0.0]), np.array([-1.0, 0.0])))
        g = state.grad
        assert float(lbfgs_direction(state.lbfgs_pairs, g) @ g) >= 0.0
        snap = lbfgs_step(problem, state, config)
        assert snap.step_accepted
        assert np.array_equal(state.w, -g)

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

    @staticmethod
    def fail_callback_at(fail_at):
        """Run with a callback that raises its own exception at iteration
        ``fail_at``; the exception, type and message, reaches the caller."""
        problem = logistic_problem(9, 30, 4, lam=0.1)
        seen = []

        class SinkFailed(Exception):
            pass

        def boom(snap):
            seen.append(snap.iter)
            if snap.iter == fail_at:
                raise SinkFailed(f"sink failed at {snap.iter}")

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning in its place
            with pytest.raises(SinkFailed, match=f"^sink failed at {fail_at}$"):
                run_solver(problem, SolverConfig(grad_tol=1e-8), boom)
        assert seen == list(range(fail_at + 1))

    def test_callback_failure_aborts_cleanly(self):
        self.fail_callback_at(2)

    def test_callback_failure_at_iteration_zero(self):
        self.fail_callback_at(0)

    @pytest.mark.parametrize("method", ["tron", "stron"])
    def test_nan_hessian_stalls(self, method):
        # every solve breaks down at its first product and returns a finite
        # boundary step, which the ratio test rejects; the radius halves but
        # stays positive, so the run stalls and raises nothing
        class NanHessian(QuadraticProblem):
            def make_hess_vec(self, w, rows=None):
                return NON_FINITE["nan"]

        problem = NanHessian(np.diag([1.0, 5.0, 30.0]), c=[1.0, -2.0, 3.0])
        snaps = []
        with deadline(5.0):
            w, term = run_solver(problem, SolverConfig(method=method), snaps.append)
        assert term == "stalled" and not np.any(w)
        assert all(not s.step_accepted and s.cg_iters_used == 1 and s.tr_radius > 0.0
                   for s in snaps[1:])

    @pytest.mark.parametrize("kind", ["logistic", "svm-l2"])
    @pytest.mark.parametrize("scale, bias", [
        pytest.param(scale, bias, id=f"{scale}-bias" if bias else f"{scale}")
        for bias in (False, True)
        for scale in (1e-300, 1e-200, 1e-160, 1e-150, 1.0, 1e150, 1e200, 1e300)])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_feature_scale_never_misreports(self, kind, scale, bias):
        # at 1e-200 the plain ||grad f(0)|| underflows to 0, and every method
        # used to report "converged" at iteration 0
        def scaled_norm(v):
            big = float(np.max(np.abs(v)))
            return big * float(np.linalg.norm(v / big)) if big > 0.0 else 0.0

        base = classification_dataset(np.random.default_rng(5), 50, 5, 5)
        X = base.features
        data = Dataset(Features((X.data * scale, X.indices, X.indptr), shape=X.shape),
                       base.labels)
        problem = make_problem(ProblemConfig(kind=kind, lam=1e-4, add_bias=bias), data)
        g0 = scaled_norm(problem.gradient(np.zeros(problem.dim)))
        for method in solvers.METHODS:
            config = SolverConfig(method=method, max_iters=100)
            with deadline(10.0):
                w, term = run_solver(problem, config)
            g = problem.gradient(w)
            if term == "converged":
                assert g0 > 0.0 and scaled_norm(g) <= config.grad_tol * g0
            if term == "non_finite":
                assert not (math.isfinite(problem.objective(w))
                            and math.isfinite(np.linalg.norm(g)))

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


def trajectory_sha256(problem, config):
    """sha256 over every snapshot of one run, w's bytes included."""
    digest = hashlib.sha256()

    def record(snap):
        radius = math.nan if snap.tr_radius is None else snap.tr_radius
        digest.update(struct.pack("<qddqqd?", snap.iter, snap.objective, snap.grad_norm,
                                  snap.rows_touched, snap.cg_iters_used,
                                  radius, snap.step_accepted))
        digest.update(snap.w.tobytes())

    w, termination = run_solver(problem, config, record)
    return digest.hexdigest(), termination, w


class TestActiveRowTrajectories:
    def test_bias_trajectories_match_the_full_row_operator(self):
        # The squared-hinge Hv gathers the rows with margin < 1; its bias
        # entry, a sequential sum down the ones column, must keep the bits of
        # the all-row operator over an independently built [X, 1], because an
        # inactive row only adds +-0 to that sum.
        rng = np.random.default_rng(41)
        data = classification_dataset(rng, 400, 12, 8)
        config = ProblemConfig(kind="svm-l2", lam=1e-3, add_bias=True)
        for method in ("tron", "stron"):
            solver = SolverConfig(method=method, grad_tol=1e-10)
            problem = make_problem(config, data)
            got, termination, w = trajectory_sha256(problem, solver)
            reference = make_problem(config, data)
            reference.make_hess_vec = (
                lambda w, rows=None, _p=reference: full_row_hess_vec(_p, w, rows))
            assert (got, termination) == trajectory_sha256(reference, solver)[:2]
            assert termination == "converged"
            assert np.mean(problem.margins(w) < 1.0) < GATHER_MAX_ACTIVE


class TestMemoTrajectories:
    @pytest.mark.parametrize("kind", ["logistic", "svm-l2"])
    @pytest.mark.parametrize("bias", [False, True])
    def test_memoized_gradient_keeps_every_trajectory(self, kind, bias):
        # the tight tolerance runs tron and stron into the plateau test,
        # whose gradient at the trial point the commit then reuses
        rng = np.random.default_rng(42)
        data = classification_dataset(rng, 150, 10, 6)
        config = ProblemConfig(kind=kind, lam=1e-3, add_bias=bias)
        for method in ("tron", "stron", "newton-cg", "lbfgs"):
            solver = SolverConfig(method=method, grad_tol=1e-14, max_iters=200)
            reference = make_problem(config, data)
            reference.gradient = (
                lambda w, rows=None: make_problem(config, data).gradient(w, rows))
            got = trajectory_sha256(make_problem(config, data), solver)[:2]
            assert got == trajectory_sha256(reference, solver)[:2]


def _brentq_outcome(fn, f, a, b, **kw):
    """The root's bit pattern, or the type of the exception raised."""
    try:
        return float(fn(f, a, b, **kw)).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc)


class _Floor:
    """Wraps f and records the smallest nonzero |f| it returned: older scipy
    releases test signs with the product of two values, which underflows
    below about 1e-150, so such cases are not comparable."""

    def __init__(self, f):
        self.f, self.least = f, math.inf

    def __call__(self, x):
        fx = self.f(x)
        if fx != 0.0:
            self.least = min(self.least, abs(fx))
        return fx


class TestBrentq:
    """``_brentq`` returns the same double as scipy's ``brentq``, or raises
    the same exception type; scipy.optimize is imported here only."""

    def _assert_matches(self, cases):
        """Compare every case; return the outcomes of those compared."""
        from scipy.optimize import brentq

        compared = []
        for f, a, b, kw in cases:
            f = _Floor(f)
            ours = _brentq_outcome(solvers._brentq, f, a, b, **kw)
            if f.least < 1e-150:
                continue
            assert ours == _brentq_outcome(brentq, f, a, b, **kw), (a, b, kw)
            compared.append(ours)
        return compared

    def test_ball_min_secular_equations(self, monkeypatch):
        # the equations _ball_min hands to the root find, captured at the call
        cases = []

        class Captured(Exception):
            pass

        def capture(f, a, b, **kw):
            cases.append((f, a, b, kw))
            raise Captured

        monkeypatch.setattr(solvers, "_brentq", capture)
        rng = np.random.default_rng(2024)
        while len(cases) < 6_000:
            k = int(rng.integers(1, 13))
            # CG coefficients: alpha < 0 where CG met negative curvature
            signs = np.where(rng.random(k) < 0.2, -1.0, 1.0)
            alphas = list(signs * 10.0 ** rng.uniform(-4, 4, size=k))
            betas = list(10.0 ** rng.uniform(-4, 2, size=k - 1))
            with contextlib.suppress(Captured):
                solvers._ball_min(solvers._tridiag(alphas, betas),
                                  10.0 ** rng.uniform(-6, 6), 10.0 ** rng.uniform(-8, 8))
        monkeypatch.undo()
        assert len(self._assert_matches(cases)) >= 5_950

    def test_generic_brackets(self):
        rng = np.random.default_rng(7)
        families = [
            lambda r, q: lambda x: (x - r) * (1.0 + q * (x - r) ** 2),
            lambda r, q: lambda x: math.tanh(q * (x - r)),
            lambda r, q: lambda x: math.exp(min(x, 700.0)) - math.exp(r),
            lambda r, q: lambda x: x ** 3 - r ** 3,
            lambda r, q: lambda x: math.cos(q * x) - math.cos(q * r),
            lambda r, q: lambda x: math.atan(x - r) + q * (x - r) ** 3,
        ]
        cases = []
        for _ in range(6_000):
            r = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 2))
            q = float(10.0 ** rng.uniform(-2, 2))
            f = families[int(rng.integers(len(families)))](r, q)
            a = r - float(10.0 ** rng.uniform(-6, 1))
            b = r + float(10.0 ** rng.uniform(-6, 1))
            if rng.random() < 0.1:  # a bracket on one side of the root
                a, b = b, b + float(10.0 ** rng.uniform(-3, 1))
            if rng.random() < 0.5:
                a, b = b, a
            kw = {}
            if rng.random() < 0.1:
                kw["maxiter"] = int(rng.integers(1, 4))
            if rng.random() < 0.2:
                kw["xtol"] = float(10.0 ** rng.uniform(-10, -3))
            cases.append((f, a, b, kw))
        outcomes = self._assert_matches(cases)
        assert len(outcomes) >= 5_950
        assert {ValueError, RuntimeError} <= set(outcomes)

    def test_errors(self):
        with pytest.raises(ValueError, match="different signs"):
            solvers._brentq(lambda x: x * x + 1.0, -1.0, 1.0)
        with pytest.raises(RuntimeError, match="2 iterations"):
            solvers._brentq(lambda x: x ** 3 - 2.0, 0.0, 10.0, maxiter=2)
        assert solvers._brentq(lambda x: x - 1.0, 1.0, 3.0) == 1.0

    def test_root_at_the_right_end(self):
        assert self._assert_matches([(lambda x: x - 1.0, 0.0, 1.0, {})]) == [(1.0).hex()]
