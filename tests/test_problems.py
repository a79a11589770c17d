import math

import numpy as np
import pytest

from helpers import fd_gradient, fd_hess_vec, random_dataset
from s2ml.data import dataset_from_rows
from s2ml.problems import ProblemConfig, make_problem

LN2 = 0.6931471805599453

# log(1 + exp(-2)) + 0.25 evaluated at 40 decimal digits
ONE_POINT_LOGISTIC = 0.3769280110429725


def single_point(x_entries, label):
    return dataset_from_rows([(label, x_entries)])


def rows_problem(kind, rows, lam, n_cols=None, add_bias=False):
    data = dataset_from_rows(rows, n_cols=n_cols)
    return make_problem(ProblemConfig(kind=kind, lam=lam, add_bias=add_bias), data)


def random_problem(rng, kind, lam, n=None, d=None, add_bias=False):
    n = n or int(rng.integers(2, 61))
    d = d or int(rng.integers(1, 13))
    data = random_dataset(rng, n, d)
    problem = make_problem(ProblemConfig(kind=kind, lam=lam, add_bias=add_bias), data)
    return problem, rng.normal(size=problem.dim)


class TestConfig:
    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            ProblemConfig(lam=-1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown problem kind"):
            ProblemConfig(kind="hinge")

    def test_lambda_defaults_to_one_over_n(self):
        rng = np.random.default_rng(0)
        data = random_dataset(rng, 25, 4)
        problem = make_problem(ProblemConfig(kind="logistic"), data)
        assert problem.lam == 1.0 / 25

    def test_empty_dataset_rejected(self):
        data = dataset_from_rows([])
        with pytest.raises(ValueError, match="no rows"):
            make_problem(ProblemConfig(kind="logistic"), data)


class TestObjective:
    def test_logistic_anchor_at_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            problem, _ = random_problem(rng, "logistic", 0.0)
            w0 = np.zeros(problem.dim)
            assert abs(problem.objective(w0) - LN2) < 1e-15

    def test_svm_anchor_at_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            problem, _ = random_problem(rng, "svm-l2", 0.0)
            w0 = np.zeros(problem.dim)
            assert abs(problem.objective(w0) - 1.0) < 1e-15

    def test_logistic_one_point(self):
        problem = rows_problem("logistic", [(1, [(1, 2.0)])], lam=0.5)
        got = problem.objective(np.array([1.0]))
        assert got == pytest.approx(ONE_POINT_LOGISTIC, rel=1e-15)

    def test_extreme_margins_finite(self):
        problem = rows_problem("logistic", [(1, [(1, 1.0)]), (-1, [(1, 1.0)])], lam=0.0)
        for scale in (1e3, 1e5, 1e8):
            val = problem.objective(np.array([scale]))
            assert math.isfinite(val)
            val = problem.objective(np.array([-scale]))
            assert math.isfinite(val)

    def test_regularizer_always_full_on_batches(self):
        problem = rows_problem("logistic", [(1, [(1, 1.0)]), (-1, [(2, 1.0)])], lam=2.0)
        w = np.array([0.5, -0.25])
        reg = 0.5 * 2.0 * float(w @ w)
        full = problem.objective(w)
        part = problem.objective(w, rows=np.array([0]))
        m0 = 1.0 * 0.5
        assert part == pytest.approx(math.log1p(math.exp(-m0)) + reg, rel=1e-14)
        assert full == pytest.approx(
            0.5 * (part - reg) + 0.5 * (problem.objective(w, rows=np.array([1])) - reg) + reg,
            rel=1e-14)

    def test_batch_partition_consistency(self):
        rng = np.random.default_rng(3)
        for kind in ("logistic", "svm-l2"):
            problem, w = random_problem(rng, kind, 0.3, n=40, d=6)
            reg = 0.5 * problem.lam * float(w[: 6] @ w[: 6]) if not problem.add_bias \
                else 0.0
            perm = rng.permutation(40)
            parts = [np.sort(perm[:13]), np.sort(perm[13:29]), np.sort(perm[29:])]
            total = sum(len(p) * (problem.objective(w, rows=p) - reg) for p in parts)
            assert problem.objective(w) == pytest.approx(total / 40 + reg, rel=1e-12)

    def test_deterministic_bit_for_bit(self):
        rng = np.random.default_rng(4)
        problem, w = random_problem(rng, "logistic", 0.1, n=50, d=8)
        assert problem.objective(w) == problem.objective(w)
        assert np.array_equal(problem.gradient(w), problem.gradient(w))


class TestGradient:
    def test_logistic_single_point(self):
        problem = rows_problem("logistic", [(1, [(1, 2.0)])], lam=0.0, n_cols=2)
        g = problem.gradient(np.zeros(2))
        assert np.allclose(g, [-1.0, 0.0], atol=1e-16)

    def test_svm_single_point(self):
        problem = rows_problem("svm-l2", [(-1, [(1, 1.0)])], lam=0.0)
        g = problem.gradient(np.zeros(1))
        assert np.allclose(g, [2.0], atol=1e-16)

    @pytest.mark.parametrize("kind", ["logistic", "svm-l2"])
    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
    def test_matches_finite_differences(self, kind, lam):
        rng = np.random.default_rng(hash((kind, lam)) % 2 ** 32)
        for _ in range(5):
            problem, w = random_problem(rng, kind, lam, n=30, d=8)
            g = problem.gradient(w)
            fd = fd_gradient(problem, w)
            denom = max(float(np.abs(g).max()), 1e-8)
            assert float(np.abs(fd - g).max()) / denom < 1e-6

    def test_bias_coordinate_not_regularized(self):
        problem = rows_problem("logistic", [(1, [(1, 1.0)])], lam=10.0, add_bias=True)
        w = np.array([0.0, 3.0])  # only the bias is nonzero
        g = problem.gradient(w)
        fd = fd_gradient(problem, w)
        assert np.allclose(g, fd, atol=1e-6)
        # objective must not include the bias in the penalty
        assert problem.objective(w) < 10.0

    def test_batch_gradient(self):
        rng = np.random.default_rng(6)
        problem, w = random_problem(rng, "logistic", 0.2, n=20, d=5)
        rows = np.array([1, 4, 7, 19])
        g = problem.gradient(w, rows=rows)
        fd = fd_gradient(problem, w, rows=rows)
        assert np.allclose(g, fd, rtol=1e-6, atol=1e-9)


class TestHessVec:
    def test_logistic_single_point(self):
        problem = rows_problem("logistic", [(1, [(1, 2.0)])], lam=0.0, n_cols=2)
        hv = problem.make_hess_vec(np.zeros(2))(np.array([1.0, 0.0]))
        assert np.allclose(hv, [1.0, 0.0], atol=1e-16)

    def test_zero_vector(self):
        rng = np.random.default_rng(7)
        for kind in ("logistic", "svm-l2"):
            problem, w = random_problem(rng, kind, 0.5)
            hv = problem.make_hess_vec(w)(np.zeros(problem.dim))
            assert np.all(hv == 0.0)

    @pytest.mark.parametrize("kind", ["logistic", "svm-l2"])
    def test_matches_fd_of_gradient(self, kind):
        rng = np.random.default_rng(8)
        done = 0
        while done < 5:
            problem, w = random_problem(rng, kind, 0.1, n=25, d=7)
            if kind == "svm-l2":
                margins = problem.margins(w)
                if np.abs(margins - 1.0).min() < 1e-3:
                    continue  # stay away from the kink
            v = rng.normal(size=problem.dim)
            hv = problem.make_hess_vec(w)(v)
            fd = fd_hess_vec(problem, w, v)
            denom = max(float(np.abs(hv).max()), 1e-8)
            assert float(np.abs(fd - hv).max()) / denom < 1e-5
            done += 1

    def test_linearity_and_symmetry(self):
        rng = np.random.default_rng(9)
        for kind in ("logistic", "svm-l2"):
            problem, w = random_problem(rng, kind, 0.3, n=30, d=9)
            hv = problem.make_hess_vec(w)
            u = rng.normal(size=problem.dim)
            v = rng.normal(size=problem.dim)
            a, b = 0.37, -1.21
            lin = hv(a * u + b * v)
            combo = a * hv(u) + b * hv(v)
            scale = max(float(np.abs(lin).max()), 1e-12)
            assert float(np.abs(lin - combo).max()) / scale < 1e-12
            left = float(u @ hv(v))
            right = float(v @ hv(u))
            assert abs(left - right) <= 1e-12 * max(abs(left), 1.0)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(10)
        for kind in ("logistic", "svm-l2"):
            for lam in (0.0, 0.5):
                problem, w = random_problem(rng, kind, lam, n=20, d=6)
                hv = problem.make_hess_vec(w)
                for _ in range(10):
                    v = rng.normal(size=problem.dim)
                    quad = float(v @ hv(v))
                    bias_free = v[:-1] if problem.add_bias else v
                    assert quad >= lam * float(bias_free @ bias_free) - 1e-12


class TestPredictAccuracy:
    def test_zero_weights_predict_positive(self):
        data = dataset_from_rows(
            [(1, [(1, 1.0)]), (1, [(1, 2.0)]), (1, [(2, 1.0)]), (-1, [(1, 1.0)])])
        problem = make_problem(ProblemConfig(kind="logistic", lam=1.0), data)
        assert problem.predict_accuracy(data, np.zeros(problem.dim)) == 0.75

    def test_separating_weights(self):
        data = dataset_from_rows([(1, [(1, 1.0)]), (-1, [(1, -2.0)])])
        problem = make_problem(ProblemConfig(kind="svm-l2", lam=1.0), data)
        assert problem.predict_accuracy(data, np.array([1.0])) == 1.0

    def test_against_per_row_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            data = random_dataset(rng, 25, 6)
            problem = make_problem(ProblemConfig(kind="logistic", lam=1.0), data)
            w = rng.normal(size=problem.dim)
            dense = data.features.csr.toarray()
            correct = 0
            for i in range(data.n_rows):
                score = float(dense[i] @ w)
                pred = 1 if score >= 0 else -1
                correct += pred == data.labels[i]
            assert problem.predict_accuracy(data, w) == correct / data.n_rows

    def test_dimension_mismatch(self):
        data = dataset_from_rows([(1, [(1, 1.0)])])
        other = dataset_from_rows([(1, [(3, 1.0)])])
        problem = make_problem(ProblemConfig(kind="logistic", lam=1.0), data)
        with pytest.raises(ValueError, match="columns"):
            problem.predict_accuracy(other, np.zeros(1))


class TestRowsValidation:
    def test_rejects_unsorted(self):
        rng = np.random.default_rng(13)
        problem, w = random_problem(rng, "logistic", 0.1, n=10, d=3)
        with pytest.raises(ValueError, match="sorted"):
            problem.objective(w, rows=np.array([3, 1]))

    def test_rejects_empty(self):
        rng = np.random.default_rng(14)
        problem, w = random_problem(rng, "logistic", 0.1, n=10, d=3)
        with pytest.raises(ValueError, match="non-empty"):
            problem.objective(w, rows=np.array([], dtype=np.int64))

    def test_rejects_out_of_range(self):
        rng = np.random.default_rng(15)
        problem, w = random_problem(rng, "logistic", 0.1, n=10, d=3)
        with pytest.raises(ValueError, match="within"):
            problem.objective(w, rows=np.array([0, 10]))

    def test_wrong_weight_length(self):
        rng = np.random.default_rng(16)
        problem, _ = random_problem(rng, "logistic", 0.1, n=10, d=3)
        with pytest.raises(ValueError, match="length"):
            problem.objective(np.zeros(problem.dim + 1))


class CountingMatrix:
    """Stands in for a problem's CSR matrix and counts ``X @ v`` products."""

    def __init__(self, X):
        self.X = X
        self.products = 0

    def __matmul__(self, v):
        self.products += 1
        return self.X @ v

    def __getitem__(self, rows):
        return self.X[rows]

    @property
    def T(self):
        return self.X.T


class TestMarginMemo:
    @pytest.mark.parametrize("kind", ["logistic", "svm-l2"])
    @pytest.mark.parametrize("add_bias", [False, True])
    def test_reuse_is_bit_identical(self, kind, add_bias):
        rng = np.random.default_rng(21)
        data = random_dataset(rng, 40, 7)
        config = ProblemConfig(kind=kind, lam=0.1, add_bias=add_bias)
        problem = make_problem(config, data)
        w = rng.normal(size=problem.dim)
        v = rng.normal(size=problem.dim)
        problem.objective(w)
        g = problem.gradient(w)
        hv = problem.make_hess_vec(w)(v)
        assert np.array_equal(g, make_problem(config, data).gradient(w))
        assert np.array_equal(hv, make_problem(config, data).make_hess_vec(w)(v))

    def test_in_place_mutation_recomputes(self):
        rng = np.random.default_rng(22)
        problem, w = random_problem(rng, "logistic", 0.1, n=30, d=6)
        fresh = make_problem(problem.config, problem.data)
        problem.objective(w)
        w[2] += 0.5
        assert problem.objective(w) == fresh.objective(w)
        w[0] = -0.0 if w[0] == 0.0 else 0.0
        assert np.array_equal(problem.gradient(w), fresh.gradient(w))
        w[:] = 0.0
        problem.objective(w)
        w[:] = -0.0  # equal as floats, different bits
        problem._X = CountingMatrix(problem._X)
        problem.objective(w)
        assert problem._X.products == 1

    def test_margins_are_read_only(self):
        rng = np.random.default_rng(23)
        problem, w = random_problem(rng, "svm-l2", 0.1, n=30, d=6)
        before = problem.objective(w)
        m = problem.margins(w)
        with pytest.raises(ValueError):
            m[0] = 1e6
        assert problem.objective(w) == before
        assert np.array_equal(problem.gradient(w),
                              make_problem(problem.config, problem.data).gradient(w))

    def test_row_calls_bypass_the_memo(self):
        rng = np.random.default_rng(24)
        problem, w = random_problem(rng, "logistic", 0.1, n=30, d=6)
        rows = np.array([0, 3, 9])
        problem._X = counted = CountingMatrix(problem._X)
        problem.objective(w)
        assert counted.products == 1
        fresh = make_problem(problem.config, problem.data)
        for _ in range(2):  # a row batch neither reads nor replaces the memo
            assert problem.objective(w, rows=rows) == fresh.objective(w, rows=rows)
            assert np.array_equal(problem.gradient(w, rows=rows),
                                  fresh.gradient(w, rows=rows))
        assert counted.products == 1
        problem.gradient(w)
        problem.make_hess_vec(w)
        assert counted.products == 1

    def test_one_product_per_lbfgs_evaluation_point(self):
        # each line-search trial of lbfgs is a new point and pays for one
        # X @ w; the gradient at the accepted point reuses it, so an
        # iteration whose unit step is accepted costs exactly one product
        from s2ml.solvers import SolverConfig, run_solver
        rng = np.random.default_rng(25)
        problem, _ = random_problem(rng, "logistic", 0.05, n=60, d=10)
        problem._X = counted = CountingMatrix(problem._X)
        calls = {"objective": 0, "gradient": 0}
        for name in calls:
            def wrapped(w, rows=None, _name=name, _fn=getattr(problem, name)):
                calls[_name] += 1
                return _fn(w, rows)
            setattr(problem, name, wrapped)
        seen = []
        run_solver(problem, SolverConfig(method="lbfgs", grad_tol=1e-8),
                   lambda snap: seen.append((snap.step_accepted, counted.products,
                                             calls["objective"], calls["gradient"])))
        assert len(seen) > 5 and all(accepted for accepted, *_ in seen)
        assert seen[0][1:] == (1, 1, 1)
        per_iter = np.diff(np.array([counts for _, *counts in seen]), axis=0)
        products, trials, gradients = per_iter.T
        assert np.array_equal(products, trials)
        assert np.all(gradients == 1)
        assert np.sum(trials == 1) >= len(trials) - 1
