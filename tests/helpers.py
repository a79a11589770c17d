"""Shared test utilities: random instances, independent oracles, and a tiny
quadratic problem implementing the solver protocol."""

from __future__ import annotations

import gzip

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize_scalar

from s2ml.data import Dataset, dataset_from_rows
from s2ml.problems import Problem


def random_rows(rng, n, d, allow_empty=True, nonzero_values=False):
    """Random (label, entries) pairs with sorted 1-based indices."""
    rows = []
    for _ in range(n):
        lo = 0 if allow_empty else 1
        k = int(rng.integers(lo, d + 1))
        idx = np.sort(rng.choice(d, size=k, replace=False))
        vals = rng.normal(size=k)
        if nonzero_values:
            vals[vals == 0.0] = 1.0
        label = 1 if rng.random() < 0.5 else -1
        rows.append((label, [(int(j) + 1, float(v)) for j, v in zip(idx, vals)]))
    return rows


def random_dataset(rng, n, d, **kw) -> Dataset:
    return dataset_from_rows(random_rows(rng, n, d, **kw), n_cols=d)


# the byte flipped for each kind of corrupt gzip stream: one in the deflate
# body (zlib rejects the stream), the CRC-32 and the length trailer fields
CORRUPT_GZIP_BYTE = {"body": 12, "crc": -8, "length": -4}


def corrupt_gzip(raw: bytes, kind: str) -> bytes:
    """``raw`` gzipped, with the byte of ``CORRUPT_GZIP_BYTE[kind]`` flipped."""
    packed = bytearray(gzip.compress(raw, mtime=0))
    packed[CORRUPT_GZIP_BYTE[kind]] ^= 0xFF
    return bytes(packed)


def classification_dataset(rng, n, d, nnz, noise=0.5) -> Dataset:
    """Labels follow a planted weight vector plus noise (non-separable)."""
    w_true = rng.normal(size=d)
    nnz = min(nnz, d)
    rows = []
    for _ in range(n):
        k = int(rng.integers(max(1, nnz // 2), nnz + 1))
        idx = np.sort(rng.choice(d, size=k, replace=False))
        vals = rng.normal(size=k)
        z = vals @ w_true[idx] / np.sqrt(k)
        label = 1 if z + noise * rng.normal() > 0 else -1
        rows.append((label, [(int(j) + 1, float(v)) for j, v in zip(idx, vals)]))
    return dataset_from_rows(rows, n_cols=d)


class QuadraticProblem:
    """F(w) = 0.5 (w - c)' A (w - c); implements the solver protocol."""

    n_rows = 1

    def __init__(self, A, c=None):
        self.A = np.asarray(A, dtype=np.float64)
        self.dim = self.A.shape[0]
        self.c = np.zeros(self.dim) if c is None else np.asarray(c, dtype=np.float64)

    def objective(self, w, rows=None):
        r = np.asarray(w, dtype=np.float64) - self.c
        return float(0.5 * r @ (self.A @ r))

    def gradient(self, w, rows=None):
        return self.A @ (np.asarray(w, dtype=np.float64) - self.c)

    def make_hess_vec(self, w, rows=None):
        return lambda v: self.A @ np.asarray(v, dtype=np.float64)


class CountingMatrix:
    """Stands in for a problem's CSR matrix (or its transpose) and counts ``X @ v`` products."""

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


def fail_accuracy_at(monkeypatch, call: int) -> list:
    """Make ``Problem.predict_accuracy`` raise ``MemoryError("metric
    failed")`` at its ``call``-th call (1-based); the list returned counts
    the calls."""
    accuracy = Problem.predict_accuracy
    calls = []

    def failing(self, data, w):
        calls.append(w)
        if len(calls) == call:
            raise MemoryError("metric failed")
        return accuracy(self, data, w)

    monkeypatch.setattr(Problem, "predict_accuracy", failing)
    return calls


def full_row_hess_vec(problem, w, rows=None):
    """A problem's Hessian-vector operator over every evaluated row, straight
    from H v = X' diag(curvature) X v / n + lam v_f: the reference the
    active-row operator must match bit for bit. With a bias, X gains a last
    column of ones (built here by ``sp.hstack``) and the penalty skips it."""
    X = problem.data.features
    if problem.add_bias:
        X = sp.hstack([X, np.ones((X.shape[0], 1))], format="csr")
    if rows is not None:
        X = X[rows]
    m = problem.margins(w, rows)
    h = problem._curvature(m) / m.size
    n_cols = problem.data.n_cols

    def hess_vec(v):
        v = np.asarray(v, dtype=np.float64)
        out = X.T @ (h * (X @ v))
        out[:n_cols] += problem.lam * v[:n_cols]
        return out

    return hess_vec


def fd_gradient(problem, w, h=1e-6, rows=None):
    """Central finite differences of the objective."""
    w = np.asarray(w, dtype=np.float64)
    out = np.empty_like(w)
    for j in range(w.size):
        wp, wm = w.copy(), w.copy()
        wp[j] += h
        wm[j] -= h
        out[j] = (problem.objective(wp, rows) - problem.objective(wm, rows)) / (2 * h)
    return out


def fd_hess_vec(problem, w, v, h=1e-5, rows=None):
    """Central finite differences of the gradient along v."""
    w = np.asarray(w, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return (problem.gradient(w + h * v, rows) - problem.gradient(w - h * v, rows)) / (2 * h)


def dense_bfgs_direction(pairs, g):
    """Direction from the explicitly assembled inverse-Hessian update.

    Starts from gamma * I (gamma from the newest pair) and applies the
    rank-two inverse update pair by pair, oldest first.
    """
    g = np.asarray(g, dtype=np.float64)
    d = g.size
    s_last, y_last = pairs[-1]
    H = np.eye(d) * (float(s_last @ y_last) / float(y_last @ y_last))
    eye = np.eye(d)
    for s, y in pairs:
        rho = 1.0 / float(y @ s)
        V = eye - rho * np.outer(s, y)
        H = V @ H @ V.T + rho * np.outer(s, s)
    return -(H @ g)


def model_value(H, g, s):
    s = np.asarray(s, dtype=np.float64)
    return float(g @ s + 0.5 * s @ (H @ s))


def ball_min_brute_force(H, g, radius, grid=400):
    """Minimum of the quadratic model over the 2-D disk, found by a dense
    grid plus local polish; independent of the solver's own machinery."""
    H = np.asarray(H, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    xs = np.linspace(-radius, radius, grid)
    X, Y = np.meshgrid(xs, xs)
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    pts = pts[(pts ** 2).sum(axis=1) <= radius * radius]
    vals = pts @ g + 0.5 * np.einsum("ij,jk,ik->i", pts, H, pts)
    best = float(vals.min())

    # boundary sweep plus 1-D polish around the best angle
    def on_circle(t):
        s = radius * np.array([np.cos(t), np.sin(t)])
        return model_value(H, g, s)

    thetas = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    bpts = radius * np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    bvals = bpts @ g + 0.5 * np.einsum("ij,jk,ik->i", bpts, H, bpts)
    k = int(np.argmin(bvals))
    step = 2.0 * np.pi / thetas.size
    res = minimize_scalar(on_circle, bounds=(thetas[k] - 2 * step, thetas[k] + 2 * step),
                          method="bounded", options={"xatol": 1e-13})
    best = min(best, float(res.fun))

    # interior stationary point, when it is a minimum inside the disk
    evals = np.linalg.eigvalsh(H)
    if evals[0] > 0:
        hn = np.linalg.solve(H, -g)
        if np.linalg.norm(hn) <= radius:
            best = min(best, model_value(H, g, hn))
    return best
