"""Regularized loss objectives for binary linear classification.

A problem binds an immutable dataset and exposes the objective value,
gradient, Hessian-vector product, and prediction accuracy that the solvers
consume. Losses are averaged over the evaluated rows (so a row batch is an
unbiased estimate of the full mean); the L2 penalty ``0.5 * lam * ||w||^2``
is always added in full and never touches the bias coordinate. Evaluations
are pure functions of their arguments, reproducible bit for bit on one
machine with one BLAS build and BLAS thread count: dense dot products go
through BLAS, which splits long reductions (about 20k entries and up) over
its threads.

A problem remembers the full-data margins ``y * (X @ w)`` at the last point
it was called with, keyed by a copy of w's bit pattern, so ``gradient``
after ``objective`` at the same point, or ``make_hess_vec`` after an
accepted step, skips the product with X and returns exactly what a fresh
evaluation would. ``-0.0``, NaN payloads and in-place changes to w never
alias another point, and the remembered margins are read-only. A row batch
slices them (scipy sums each row of ``X @ w`` in stored order, so the bits
match a batch product); a miss computes and keeps all n rows, which stron's
batch calls at its iterate do only after a rejected step.

The full-data transpose ``X.T`` is bound once per problem, so no gradient
or Hessian-vector product rebuilds scipy's CSC wrapper per call. The
Hessian-vector operator multiplies only the active rows, those with nonzero
curvature (for the squared hinge, margin < 1), once they are at most
``GATHER_MAX_ACTIVE`` of the evaluated rows: it binds a gathered copy of
them when it is built. A dropped row adds only ``val * 0 = +-0`` to each
sum and the kept rows keep their order, so the products are bit-identical
to the all-row ones on finite data; the bias entry is summed in all-row
order for the same reason. The one edge case that changes is not a
regression: a non-finite ``X @ v`` on an inactive row used to give NaN
(``0 * inf``) and is now skipped. The solvers' ``rows_touched`` still counts
every row of the batch, active or not.

Adding a new loss means subclassing :class:`Problem` with the three
pointwise hooks and registering the class in ``PROBLEM_KINDS``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        if self.lam is not None and not (float(self.lam) >= 0.0):
            raise ValueError("lam must be >= 0")
        if self.kind == "logistic":
            # load expit's module with the config, so that its one-off import
            # (about 0.1 s) never lands in a solver's timed run
            import scipy.special  # noqa: F401


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
        self._X = data.features
        self._XT = self._X.T  # bound once: X.T builds a new CSC wrapper per call
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
        """Check the rows, split off the bias and return ``(rows, y, wf, m)``:
        y and the memoized margins m = y * (X @ wf + bias) (see the module
        docstring), both sliced to the rows."""
        w = np.asarray(w, dtype=np.float64)
        wf, b = self._split(w)
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            if rows.ndim != 1 or rows.size == 0:
                raise ValueError("rows must be a non-empty 1-d index array")
            if rows[0] < 0 or rows[-1] >= self.n_rows or np.any(np.diff(rows) <= 0):
                raise ValueError("rows must be sorted, distinct and within [0, n_rows)")
        bits = w.view(np.uint64)
        if self._memo is None or not np.array_equal(self._memo[0], bits):
            self._memo = None  # free the old margins before computing new ones
            m = self._y * (self._X @ wf + b)
            m.flags.writeable = False
            self._memo = (bits.copy(), m)
        sel = slice(None) if rows is None else rows
        return rows, self._y[sel], wf, self._memo[1][sel]

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
        rows, y, wf, m = self._eval(w, rows)
        c = self._dmargin(m) * y / m.size
        XT = self._XT if rows is None else self._X[rows].T
        gf = XT @ c + self.lam * wf
        if self.add_bias:
            return np.concatenate([gf, [c.sum()]])
        return gf

    def make_hess_vec(self, w, rows=None):
        """Bind the Hessian-vector product at ``w`` (H is never formed).

        The pointwise curvature is computed once, so the returned operator
        is cheap to apply repeatedly, e.g. inside conjugate gradients. When
        at most ``GATHER_MAX_ACTIVE`` of the evaluated rows have nonzero
        curvature (squared hinge: margin < 1), the operator binds a copy of
        those rows and multiplies only them; its results are bit-identical
        to the all-row product (see the module docstring), and the mean is
        still taken over all evaluated rows. It gathers rows at most once.
        """
        rows, _, _, m = self._eval(w, rows)
        h = self._curvature(m) / m.size
        active = np.flatnonzero(h)
        gathered = active.size <= GATHER_MAX_ACTIVE * h.size
        if gathered:  # from here on, rows are the rows the operator multiplies
            rows, h = (active if rows is None else rows[active]), h[active]
        X = self._X if rows is None else self._X[rows]  # the one gather
        XT = self._XT if rows is None else X.T
        lam = self.lam
        bias = self.add_bias
        n = m.size

        def hess_vec(v):
            vf, vb = self._split(v)
            t = X @ vf
            if bias:
                t = t + vb
            u = h * t
            out = XT @ u + lam * vf
            if bias:
                if gathered:
                    # numpy's pairwise sum groups a shorter array differently,
                    # so sum in all-row order to keep the all-row sum's bits
                    u_all = np.zeros(n)
                    u_all[active] = u
                    u = u_all
                return np.concatenate([out, [u.sum()]])
            return out

        return hess_vec

    def predict_accuracy(self, data: Dataset, w) -> float:
        """Fraction of rows with sign(score) == label; sign(0) counts as +1."""
        if data.n_cols != self.data.n_cols:
            raise ValueError(f"dataset has {data.n_cols} feature columns, "
                             f"expected {self.data.n_cols}")
        wf, b = self._split(w)
        scores = data.features @ wf + b
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
