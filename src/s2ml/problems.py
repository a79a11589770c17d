"""Regularized loss objectives for binary linear classification.

A problem binds an immutable dataset and exposes the objective value,
gradient, Hessian-vector product, and prediction accuracy that the solvers
consume. Losses are averaged over the evaluated rows (so a row batch is an
unbiased estimate of the full mean); the L2 penalty ``0.5 * lam * ||w||^2``
is always added in full and never touches the bias coordinate: the bias is
one more feature, a last column of ones in a copy of the features that the
problem builds once (the dataset's matrix is left as it is), so only the
penalty knows where it is. Evaluations are pure functions of their
arguments, reproducible bit for bit on one machine with one BLAS build and
BLAS thread count: dense dot products go through BLAS, which splits long
reductions (about 20k entries and up) over its threads.

A problem remembers the full-data margins ``y * (X @ w)`` at the last point
it was called with, keyed by a copy of w's bit pattern, and the full-data
gradient there once it is asked for; a miss clears both. So ``gradient``
after ``objective`` at the same point, or ``make_hess_vec`` after an
accepted step, skips the product with X, a second ``gradient`` skips the
one with ``X.T`` too, and each returns exactly what a fresh evaluation
would. ``-0.0``, NaN payloads and in-place changes to w never alias another
point, and the remembered margins and gradient are read-only. A row batch
slices the margins (scipy sums each row of ``X @ w`` in stored order, so
the bits match a batch product) and its gradient is not remembered; a miss
computes and keeps all n rows, which stron's batch calls at its iterate do
only after a rejected step.

The full-data transpose ``X.T`` is bound once per problem, so no gradient
or Hessian-vector product rebuilds scipy's CSC wrapper per call. The
Hessian-vector operator multiplies only the active rows, those with nonzero
curvature (for the squared hinge, margin < 1), once they are at most
``GATHER_MAX_ACTIVE`` of the evaluated rows: it binds a gathered copy of
them when it is built. Every entry of ``X.T @ u``, the bias entry too, is a
sum over the rows in order; a dropped row adds only ``val * 0 = +-0`` to it
and the kept rows keep their order, so the products are bit-identical to
the all-row ones on finite data. The one edge case that changes is not a
regression: a non-finite ``X @ v`` on an inactive row used to give NaN
(``0 * inf``) and is now skipped. The solvers' ``rows_touched`` still counts
every row of the batch, active or not.

Adding a new loss means subclassing :class:`Problem` with the three
pointwise hooks and registering the class in ``PROBLEM_KINDS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .data import Dataset

__all__ = [
    "ProblemConfig",
    "Problem",
    "LogisticRegressionProblem",
    "SquaredHingeProblem",
    "PROBLEM_KINDS",
    "make_problem",
]

# The Hessian-vector operator gathers its active rows when they are at most
# this share of the evaluated rows. On perfbench's svm-gz-tall data a gather
# at this share repays its copy after about 3.5 operator applies, against 8
# at 0.85 and 11 at 0.9; CG applies one operator 4-27 times there.
GATHER_MAX_ACTIVE = 0.75


@dataclass(frozen=True)
class ProblemConfig:
    """Loss kind, L2 weight, and the optional constant-1 bias feature.

    ``lam=None`` resolves to ``1/n_rows`` when the problem is built.
    """

    kind: str = "logistic"
    lam: float | None = None
    add_bias: bool = False

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}; "
                             f"expected one of {sorted(PROBLEM_KINDS)}")
        if self.lam is not None and not (0.0 <= float(self.lam) < math.inf):
            raise ValueError("lam must be finite and >= 0")
        if self.kind == "logistic":
            # load expit's module with the config, so that its one-off import
            # (about 0.1 s) never lands in a solver's timed run
            import scipy.special  # noqa: F401


class Problem:
    """Differentiable objective over a fixed dataset.

    Subclasses must define the pointwise loss through ``_loss``,
    ``_dmargin`` (derivative of the loss in the margin m = y * score) and
    ``_curvature`` (second derivative, or a generalized substitute at
    kinks); this class has no stubs for them.

    All evaluation methods accept ``rows``: either ``None`` for the full
    dataset or a sorted array of distinct row indices. ``config.lam`` is ``lam``.
    """

    def __init__(self, config: ProblemConfig, data: Dataset):
        if data.n_rows == 0:
            raise ValueError("dataset has no rows")
        self.data = data
        self.lam = float(config.lam) if config.lam is not None else 1.0 / data.n_rows
        self.config = replace(config, lam=self.lam)
        self.add_bias = config.add_bias
        X = data.features
        if self.add_bias:  # a copy with a last column of ones; data.features is kept
            n, d = X.shape
            ends = X.indptr[1:]
            X = sp.csr_matrix((np.insert(X.data, ends, 1.0), np.insert(X.indices, ends, d),
                               X.indptr.astype(np.int64) + np.arange(n + 1)),
                              shape=(n, d + 1))
        self._X = X
        self._XT = X.T  # bound once: X.T builds a new CSC wrapper per call
        self._y = data.labels.astype(np.float64)
        self._memo = None  # [bits of w, margins, full-data gradient or None]

    @property
    def kind(self) -> str:
        return self.config.kind

    @property
    def n_rows(self) -> int:
        return self.data.n_rows

    @property
    def dim(self) -> int:
        return self.data.n_cols + (1 if self.add_bias else 0)

    def _eval(self, w, rows):
        """Check w and the rows and return ``(rows, y, wf, m)``: y and the
        memoized margins m = y * (X @ w) (see the module docstring), both
        sliced to the rows, and wf = w[:n_cols], the penalized part of w."""
        w = self._weights(w)
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            if rows.ndim != 1 or rows.size == 0:
                raise ValueError("rows must be a non-empty 1-d index array")
            if rows[0] < 0 or rows[-1] >= self.n_rows or np.any(np.diff(rows) <= 0):
                raise ValueError("rows must be sorted, distinct and within [0, n_rows)")
        bits = w.view(np.uint64)
        if self._memo is None or not np.array_equal(self._memo[0], bits):
            self._memo = None  # free the old margins before computing new ones
            m = self._y * (self._X @ w)
            m.flags.writeable = False
            self._memo = [bits.copy(), m, None]
        sel = slice(None) if rows is None else rows
        return rows, self._y[sel], w[:self.data.n_cols], self._memo[1][sel]

    def _weights(self, w):
        """w as float64, checked to have length ``dim``."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.dim,):
            raise ValueError(f"expected weight vector of length {self.dim}, "
                             f"got shape {w.shape}")
        return w

    def margins(self, w, rows=None) -> np.ndarray:
        """m_i = y_i * (w . x_i [+ bias]) over the selected rows; read-only
        for a full-data call."""
        return self._eval(w, rows)[3]

    def objective(self, w, rows=None) -> float:
        _, _, wf, m = self._eval(w, rows)
        return float(np.mean(self._loss(m)) + 0.5 * self.lam * (wf @ wf))

    def gradient(self, w, rows=None) -> np.ndarray:
        rows, y, wf, m = self._eval(w, rows)
        if rows is None and self._memo[2] is not None:
            return self._memo[2]
        c = self._dmargin(m) * y / m.size
        XT = self._XT if rows is None else self._X[rows].T
        g = XT @ c
        g[:wf.size] += self.lam * wf
        if rows is None:
            g.flags.writeable = False
            self._memo[2] = g
        return g

    def make_hess_vec(self, w, rows=None):
        """Bind the Hessian-vector product at ``w`` (H is never formed).

        The pointwise curvature is computed once, so the returned operator
        is cheap to apply repeatedly, e.g. inside conjugate gradients. When
        at most ``GATHER_MAX_ACTIVE`` of the evaluated rows have nonzero
        curvature (squared hinge: margin < 1), the operator binds a copy of
        those rows and multiplies only them; its results are bit-identical
        to the all-row product (see the module docstring), and the mean is
        still taken over all evaluated rows. It gathers rows at most once.
        Each v it is handed is converted and checked like ``w``.
        """
        rows, _, _, m = self._eval(w, rows)
        h = self._curvature(m) / m.size
        active = np.flatnonzero(h)
        if active.size <= GATHER_MAX_ACTIVE * h.size:
            # from here on, rows are the rows the operator multiplies
            rows, h = (active if rows is None else rows[active]), h[active]
        X = self._X if rows is None else self._X[rows]  # the one gather
        XT = self._XT if rows is None else X.T
        lam, n_cols = self.lam, self.data.n_cols

        def hess_vec(v):
            v = self._weights(v)
            out = XT @ (h * (X @ v))
            out[:n_cols] += lam * v[:n_cols]
            return out

        return hess_vec

    def predict_accuracy(self, data: Dataset, w) -> float:
        """Fraction of rows with sign(score) == label; sign(0) counts as +1."""
        if data.n_cols != self.data.n_cols:
            raise ValueError(f"dataset has {data.n_cols} feature columns, "
                             f"expected {self.data.n_cols}")
        w = self._weights(w)
        scores = data.features @ w[:data.n_cols] + (w[data.n_cols] if self.add_bias else 0.0)
        pred = np.where(scores >= 0.0, 1, -1)
        return float(np.mean(pred == data.labels))


class LogisticRegressionProblem(Problem):
    """Mean log-loss log(1 + exp(-m)) plus L2 penalty.

    Evaluated through ``logaddexp``/``expit`` so extreme margins neither
    overflow nor lose the small branch.
    """

    def _loss(self, m):
        return np.logaddexp(0.0, -m)

    def _dmargin(self, m):
        from scipy.special import expit  # loaded by the logistic config
        return -expit(-m)

    def _curvature(self, m):
        from scipy.special import expit
        return expit(m) * expit(-m)


class SquaredHingeProblem(Problem):
    """Mean squared hinge max(0, 1-m)^2 (L2-loss SVM) plus L2 penalty.

    The curvature hook is the generalized Hessian taken on the strict
    active set ``m < 1``.
    """

    def _loss(self, m):
        r = np.maximum(1.0 - m, 0.0)
        return r * r

    def _dmargin(self, m):
        return -2.0 * np.maximum(1.0 - m, 0.0)

    def _curvature(self, m):
        return np.where(m < 1.0, 2.0, 0.0)


PROBLEM_KINDS = {
    "logistic": LogisticRegressionProblem,
    "svm-l2": SquaredHingeProblem,
}


def make_problem(config: ProblemConfig, data: Dataset) -> Problem:
    return PROBLEM_KINDS[config.kind](config, data)
