"""Regularized loss objectives for binary linear classification.

A problem binds an immutable dataset and exposes the objective value,
gradient, Hessian-vector product, and prediction accuracy that the solvers
consume. Losses are averaged over the evaluated rows (so a row batch is an
unbiased estimate of the full mean); the L2 penalty ``0.5 * lam * ||w||^2``
is always added in full and never touches the bias coordinate. Evaluations
are pure functions of their arguments, run single-threaded with a fixed
reduction order, and are therefore reproducible bit for bit.

A problem remembers the margins ``y * (X @ w)`` of its last full-data call
(``rows=None``), keyed by a copy of w's bit pattern, so ``gradient`` after
``objective`` at the same point, or ``make_hess_vec`` after an accepted
step, skips the product with X and returns exactly what a fresh
evaluation would. ``-0.0``, NaN payloads and in-place changes to w never
alias another point, the remembered margins are read-only, and row-batch
calls neither read nor replace them.

Adding a new loss means subclassing :class:`Problem` with the three
pointwise hooks and registering the class in ``PROBLEM_KINDS``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import Dataset

__all__ = [
    "ProblemConfig",
    "Problem",
    "LogisticRegressionProblem",
    "SquaredHingeProblem",
    "PROBLEM_KINDS",
    "make_problem",
]


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
        if self.lam is not None and not (float(self.lam) >= 0.0):
            raise ValueError("lam must be >= 0")


class Problem:
    """Differentiable objective over a fixed dataset.

    Subclasses define the pointwise loss through ``_loss``, ``_dmargin``
    (derivative of the loss in the margin m = y * score) and ``_curvature``
    (second derivative, or a generalized substitute at kinks).

    All evaluation methods accept ``rows``: either ``None`` for the full
    dataset or a sorted array of distinct row indices.
    """

    def __init__(self, config: ProblemConfig, data: Dataset):
        if data.n_rows == 0:
            raise ValueError("dataset has no rows")
        self.config = config
        self.data = data
        self.lam = float(config.lam) if config.lam is not None else 1.0 / data.n_rows
        self.add_bias = config.add_bias
        self._X = data.features.csr
        self._y = data.labels.astype(np.float64)
        self._memo = None  # (bit pattern of w, margins) of the last full-data call

    @property
    def kind(self) -> str:
        return self.config.kind

    @property
    def n_rows(self) -> int:
        return self.data.n_rows

    @property
    def dim(self) -> int:
        return self.data.n_cols + (1 if self.add_bias else 0)

    # -- pointwise hooks -------------------------------------------------
    def _loss(self, m: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _dmargin(self, m: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _curvature(self, m: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- shared machinery ------------------------------------------------
    def _eval(self, w, rows):
        """Select the rows, split off the bias and return ``(X, y, wf, m)``
        with the margins m = y * (X @ wf + bias); full-data margins come
        from the one-entry memo described in the module docstring."""
        w = np.asarray(w, dtype=np.float64)
        wf, b = self._split(w)
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            if rows.ndim != 1 or rows.size == 0:
                raise ValueError("rows must be a non-empty 1-d index array")
            if rows[0] < 0 or rows[-1] >= self.n_rows or np.any(np.diff(rows) <= 0):
                raise ValueError("rows must be sorted, distinct and within [0, n_rows)")
            X, y = self._X[rows], self._y[rows]
            return X, y, wf, y * (X @ wf + b)
        bits = w.view(np.uint64)
        if self._memo is None or not np.array_equal(self._memo[0], bits):
            self._memo = None  # free the old margins before computing new ones
            m = self._y * (self._X @ wf + b)
            m.flags.writeable = False
            self._memo = (bits.copy(), m)
        return self._X, self._y, wf, self._memo[1]

    def _split(self, w):
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.dim,):
            raise ValueError(f"expected weight vector of length {self.dim}, "
                             f"got shape {w.shape}")
        if self.add_bias:
            return w[:-1], float(w[-1])
        return w, 0.0

    def margins(self, w, rows=None) -> np.ndarray:
        """m_i = y_i * (w . x_i [+ bias]) over the selected rows; read-only
        for a full-data call."""
        return self._eval(w, rows)[3]

    def objective(self, w, rows=None) -> float:
        _, _, wf, m = self._eval(w, rows)
        return float(np.mean(self._loss(m)) + 0.5 * self.lam * (wf @ wf))

    def gradient(self, w, rows=None) -> np.ndarray:
        X, y, wf, m = self._eval(w, rows)
        c = self._dmargin(m) * y / m.size
        gf = X.T @ c + self.lam * wf
        if self.add_bias:
            return np.concatenate([gf, [c.sum()]])
        return gf

    def make_hess_vec(self, w, rows=None):
        """Bind the Hessian-vector product at ``w`` (H is never formed).

        The pointwise curvature is computed once, so the returned operator
        is cheap to apply repeatedly, e.g. inside conjugate gradients.
        """
        X, _, _, m = self._eval(w, rows)
        h = self._curvature(m) / m.size
        lam = self.lam
        bias = self.add_bias

        def hess_vec(v):
            vf, vb = self._split(v)
            t = X @ vf
            if bias:
                t = t + vb
            u = h * t
            out = X.T @ u + lam * vf
            if bias:
                return np.concatenate([out, [u.sum()]])
            return out

        return hess_vec

    def predict_accuracy(self, data: Dataset, w) -> float:
        """Fraction of rows with sign(score) == label; sign(0) counts as +1."""
        if data.n_cols != self.data.n_cols:
            raise ValueError(f"dataset has {data.n_cols} feature columns, "
                             f"expected {self.data.n_cols}")
        wf, b = self._split(w)
        scores = data.features.csr @ wf + b
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
        return -expit(-m)

    def _curvature(self, m):
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
