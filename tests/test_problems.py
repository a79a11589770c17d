import math

import numpy as np
import pytest

from helpers import (CountingMatrix, fd_gradient, fd_hess_vec, full_row_hess_vec,
                     random_dataset)
from s2ml.data import dataset_from_rows
from s2ml.harness import dataset_digest
from s2ml.problems import GATHER_MAX_ACTIVE, ProblemConfig, make_problem

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

    @pytest.mark.parametrize("lam, resolved", [(None, 1.0 / 25), (0, 0.0)])
    def test_config_carries_the_resolved_lambda(self, lam, resolved):
        data = random_dataset(np.random.default_rng(0), 25, 4)
        problem = make_problem(ProblemConfig(kind="svm-l2", lam=lam, add_bias=True), data)
        assert problem.config == ProblemConfig(kind="svm-l2", lam=resolved, add_bias=True)
        assert type(problem.config.lam) is float

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

    def test_bias_column_leaves_the_data_and_the_penalty_alone(self):
        # the problem multiplies a copy of the features with a last column of
        # ones; the dataset's arrays and digest stay as they were, and the
        # gradient's and Hv's bias entries carry no lam term
        rng = np.random.default_rng(7)
        data = random_dataset(rng, 30, 5)
        X = data.features
        before = [arr.copy() for arr in (X.indptr, X.indices, X.data)]
        digest = dataset_digest(data)
        lam = 0.3
        problem, free = (make_problem(ProblemConfig(kind="svm-l2", lam=value, add_bias=True),
                                      data) for value in (lam, 0.0))
        w, v = rng.normal(size=6), rng.normal(size=6)
        g, g_free = problem.gradient(w), free.gradient(w)
        hv, hv_free = problem.make_hess_vec(w)(v), free.make_hess_vec(w)(v)
        assert problem.data.features is X
        for arr, old in zip((X.indptr, X.indices, X.data), before):
            assert arr.dtype == old.dtype and np.array_equal(arr, old)
        assert dataset_digest(data) == digest
        assert g[-1] == g_free[-1] and hv[-1] == hv_free[-1]
        assert np.allclose(g[:-1] - g_free[:-1], lam * w[:-1], rtol=1e-12, atol=1e-15)
        assert np.allclose(hv[:-1] - hv_free[:-1], lam * v[:-1], rtol=1e-12, atol=1e-15)

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
            dense = data.features.toarray()
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


class RowLoggingMatrix:
    """Stands in for a problem's CSR matrix and logs which original rows
    reach ``X @ v`` and ``X.T @ u``; a row gather is logged too, and returns
    a logging matrix over the gathered rows that writes to the same log."""

    def __init__(self, X, row_ids=None, log=None):
        self.X = X
        self.row_ids = np.arange(X.shape[0]) if row_ids is None else row_ids
        self.log = [] if log is None else log  # (product, original row ids)

    def __matmul__(self, v):
        self.log.append(("X", self.row_ids))
        return self.X @ v

    def __getitem__(self, rows):
        self.log.append(("gather", self.row_ids[rows]))
        return RowLoggingMatrix(self.X[rows], self.row_ids[rows], self.log)

    @property
    def T(self):
        return _LoggingTranspose(self)


class _LoggingTranspose:
    def __init__(self, matrix):
        self.matrix = matrix

    def __matmul__(self, u):
        self.matrix.log.append(("XT", self.matrix.row_ids))
        return self.matrix.X.T @ u


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
        g = problem.gradient(w)
        with pytest.raises(ValueError):
            g[0] = 1e6
        assert g.tobytes() == \
            make_problem(problem.config, problem.data).gradient(w).tobytes()

    def test_row_calls_bypass_the_memo(self):
        rng = np.random.default_rng(24)
        problem, w = random_problem(rng, "logistic", 0.1, n=30, d=6)
        rows = np.array([0, 3, 9])
        problem._X = counted = CountingMatrix(problem._X)
        problem._XT = counted_t = CountingMatrix(problem._XT)
        problem.objective(w)
        assert counted.products == 1
        fresh = make_problem(problem.config, problem.data)
        batches = []
        for _ in range(2):  # a row batch at the memoized point slices the memo
            assert problem.objective(w, rows=rows) == fresh.objective(w, rows=rows)
            batches.append(problem.gradient(w, rows=rows))
            assert np.array_equal(batches[-1], fresh.gradient(w, rows=rows))
        assert batches[0] is not batches[1]  # a row-batch gradient is not kept
        assert counted.products == 1
        g = problem.gradient(w)
        problem.make_hess_vec(w)
        assert counted.products == 1
        # the full-data gradient is kept: a second call makes no X^T product
        assert counted_t.products == 1
        assert problem.gradient(w) is g
        assert counted_t.products == 1

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


def margin_problem(rng, margins, add_bias=False, d=6):
    """svm-l2 problem whose margins at the returned w are exactly
    ``margins``: row i holds y_i * margins[i] in column 1 (w = e_1) and
    random values in the other columns, which Hv products still reach."""
    rows = []
    for mi in margins:
        label = 1 if rng.random() < 0.5 else -1
        extra = [(j, float(rng.normal())) for j in range(2, d + 1) if rng.random() < 0.7]
        rows.append((label, [(1, label * float(mi))] + extra))
    problem = rows_problem("svm-l2", rows, 0.1, n_cols=d, add_bias=add_bias)
    w = np.zeros(problem.dim)
    w[0] = 1.0
    assert np.array_equal(problem.margins(w), np.asarray(margins, dtype=np.float64))
    return problem, w


def mixed_margins(rng, n, n_active):
    """n margins, n_active of them below 1 (active) at random positions; the
    inactive ones include the kink margin == 1."""
    m = rng.choice([1.0, 1.25, 3.0], size=n)
    m[rng.choice(n, size=n_active, replace=False)] = rng.uniform(-2.0, 0.99, size=n_active)
    return m


class TestActiveRowOperator:
    """The squared-hinge operator multiplies only the rows with margin < 1
    once they are at most GATHER_MAX_ACTIVE of the evaluated rows, and must
    equal the all-row formula bit for bit."""

    def assert_matches_reference(self, rng, problem, w, rows=None):
        hv = problem.make_hess_vec(w, rows)
        ref = full_row_hess_vec(problem, w, rows)
        for _ in range(4):
            v = rng.normal(size=problem.dim)
            assert hv(v).tobytes() == ref(v).tobytes()

    def logged_rows(self, problem, w, rows=None):
        """Original row ids that reach each product of one Hv apply."""
        problem.margins(w, rows)  # fill the memo before logging
        problem._X = logged = RowLoggingMatrix(problem._X)
        problem._XT = logged.T
        hv = problem.make_hess_vec(w, rows)
        logged.log.clear()  # drop the operator's row gather
        hv(np.ones(problem.dim))
        return logged.log

    @pytest.mark.parametrize("add_bias", [False, True])
    def test_mixed_margins(self, add_bias):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(20, 200))
            n_active = int(rng.integers(1, int(GATHER_MAX_ACTIVE * n) + 1))
            problem, w = margin_problem(rng, mixed_margins(rng, n, n_active), add_bias)
            self.assert_matches_reference(rng, problem, w)

    @pytest.mark.parametrize("add_bias", [False, True])
    @pytest.mark.parametrize("share", ["all", "none"])
    def test_all_or_no_rows_active(self, add_bias, share):
        rng = np.random.default_rng(32)
        n = 50
        margins = rng.uniform(-2.0, 0.99, n) if share == "all" else rng.uniform(1.0, 3.0, n)
        problem, w = margin_problem(rng, margins, add_bias)
        self.assert_matches_reference(rng, problem, w)
        expected = np.arange(n) if share == "all" else np.array([], dtype=np.int64)
        for _, ids in self.logged_rows(problem, w):
            assert np.array_equal(ids, expected)

    @pytest.mark.parametrize("add_bias", [False, True])
    def test_row_batch(self, add_bias):
        rng = np.random.default_rng(33)
        margins = mixed_margins(rng, 120, 40)
        problem, w = margin_problem(rng, margins, add_bias)
        rows = np.sort(rng.choice(120, size=60, replace=False))
        assert np.mean(margins[rows] < 1.0) <= GATHER_MAX_ACTIVE
        self.assert_matches_reference(rng, problem, w, rows)
        active = rows[margins[rows] < 1.0]
        for product, ids in self.logged_rows(problem, w, rows):
            assert np.array_equal(ids, active), product

    @pytest.mark.parametrize("add_bias", [False, True])
    @pytest.mark.parametrize("offset, gathered", [(-1, True), (0, True), (1, False)])
    def test_around_the_cut_off(self, add_bias, offset, gathered):
        # the largest active count at or below the cut-off share of 40 rows,
        # one row fewer, and one row more
        n_active = int(GATHER_MAX_ACTIVE * 40) + offset
        rng = np.random.default_rng(34 + offset)
        margins = mixed_margins(rng, 40, n_active)
        problem, w = margin_problem(rng, margins, add_bias)
        self.assert_matches_reference(rng, problem, w)
        log = self.logged_rows(problem, w)
        expected = np.flatnonzero(margins < 1.0) if gathered else np.arange(40)
        assert [product for product, _ in log] == ["X", "XT"]
        for _, ids in log:
            assert np.array_equal(ids, expected)

    def test_logistic_keeps_every_row(self):
        rng = np.random.default_rng(35)
        problem, w = random_problem(rng, "logistic", 0.1, n=40, d=6)
        self.assert_matches_reference(rng, problem, w)
        for _, ids in self.logged_rows(problem, w):
            assert np.array_equal(ids, np.arange(40))


class TestRowBatchesSliceTheMemo:
    """A row batch takes its margins from the full-data memo, and its
    Hessian-vector operator gathers its rows from the full matrix once."""

    @staticmethod
    def log_products(problem):
        problem._X = logged = RowLoggingMatrix(problem._X)
        problem._XT = logged.T
        return logged.log

    @pytest.mark.parametrize("kind", ["logistic", "svm-l2"])
    @pytest.mark.parametrize("add_bias", [False, True])
    def test_batch_margins_are_the_memo_sliced(self, kind, add_bias):
        rng = np.random.default_rng(41)
        problem, w = random_problem(rng, kind, 0.1, n=50, d=7, add_bias=add_bias)
        rows = np.sort(rng.choice(50, size=17, replace=False))
        X, y = problem.data.features, problem.data.labels.astype(np.float64)
        log = self.log_products(problem)
        for point in (w, 2.0 * w):
            wf, b = (point[:-1], float(point[-1])) if add_bias else (point, 0.0)
            by_hand = y[rows] * (X[rows] @ wf + b)
            log.clear()
            # a miss computes and keeps the full-data margins, n rows ...
            assert problem.margins(point, rows).tobytes() == by_hand.tobytes()
            assert [(p, ids.tolist()) for p, ids in log] == [("X", list(range(50)))]
            # ... and then a full-data call and a second batch are free
            problem.objective(point)
            assert problem.margins(point, rows).tobytes() == by_hand.tobytes()
            assert len(log) == 1

    @pytest.mark.parametrize("kind", ["logistic", "svm-l2"])
    def test_batch_operator_at_the_memoized_point_makes_no_product(self, kind):
        rng = np.random.default_rng(42)
        problem, w = random_problem(rng, kind, 0.1, n=50, d=6)
        rows = np.sort(rng.choice(50, size=20, replace=False))
        problem.objective(w)
        log = self.log_products(problem)
        problem.make_hess_vec(w, rows)
        assert [p for p, _ in log] == ["gather"]

    @pytest.mark.parametrize("add_bias", [False, True])
    @pytest.mark.parametrize("n_active", [40, 110])
    def test_one_gather_from_the_full_matrix(self, add_bias, n_active):
        rng = np.random.default_rng(43)
        margins = mixed_margins(rng, 120, n_active)
        problem, w = margin_problem(rng, margins, add_bias)  # fills the memo
        rows = np.sort(rng.choice(120, size=60, replace=False))
        gathered = np.mean(margins[rows] < 1.0) <= GATHER_MAX_ACTIVE
        assert gathered == (n_active == 40)
        log = self.log_products(problem)
        problem.make_hess_vec(w, rows)
        [(product, ids)] = log
        assert product == "gather"
        assert np.array_equal(ids, rows[margins[rows] < 1.0] if gathered else rows)
