"""Seeded, vectorized LIBSVM data generator for the benchmark workloads.

A scaled-up relative of ``tests/fixtures/generate.py``: rows draw their
columns from a Zipf popularity law, values are either rcv1-style tf-idf
(positive, unit row norm, 7 significant digits) or standard normal (4
significant digits), and labels come from a planted weight vector with
Gaussian label noise. The text is assembled with numpy byte arithmetic, so
generation time stays small next to the measured run; it is never timed.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

LABEL_NOISE = 0.25  # label noise, in units of the planted margin's std


@dataclass(frozen=True)
class DataSpec:
    n_train: int
    n_test: int
    n_cols: int
    nnz_min: int            # draws per row, before duplicate columns merge
    nnz_max: int
    values: str             # "tfidf" or "normal"
    gzip: bool
    zipf_s: float = 1.0     # column popularity ~ rank ** -zipf_s


def _digits(a: np.ndarray, width: int) -> np.ndarray:
    """Zero-padded ASCII digits of non-negative ints, shape (len(a), width)."""
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((a[:, None] // powers) % 10 + ord("0")).astype(np.uint8)


def _ndigits(a: np.ndarray) -> np.ndarray:
    n = np.ones(a.shape, dtype=np.int64)
    for k in range(1, 19):
        n += a >= 10 ** k
    return n


def _scientific(v: np.ndarray, sig: int):
    """Format floats as ``[-]d.ddde[+-]XX``.

    Returns the chars, shape (n, width) with a leading sign slot, the mask of
    chars to keep, and the decimal value each string denotes.
    """
    a = np.abs(v)
    e = np.floor(np.log10(a)).astype(np.int64)
    m = np.rint(a / 10.0 ** (e - sig + 1)).astype(np.int64)
    over = m >= 10 ** sig
    m[over] //= 10
    e[over] += 1
    width = 1 + 1 + 1 + (sig - 1) + 1 + 1 + 2
    out = np.empty((v.size, width), dtype=np.uint8)
    out[:, 0] = ord("-")
    d = _digits(m, sig)
    out[:, 1] = d[:, 0]
    out[:, 2] = ord(".")
    out[:, 3:2 + sig] = d[:, 1:]
    out[:, 2 + sig] = ord("e")
    out[:, 3 + sig] = np.where(e < 0, ord("-"), ord("+"))
    out[:, 4 + sig:] = _digits(np.abs(e), 2)
    keep = np.ones(out.shape, dtype=bool)
    keep[:, 0] = v < 0
    exact = np.sign(v) * m * 10.0 ** (e - sig + 1)
    return out, keep, exact


def to_libsvm(labels: np.ndarray, X: sp.csr_matrix, sig: int) -> bytes:
    """Render ``label idx:val ...`` lines, values at ``sig`` significant digits."""
    n, nnz = X.shape[0], X.nnz
    if np.any(np.diff(X.indptr) == 0):
        raise ValueError("every row needs at least one entry")
    vchars, vkeep, _ = _scientific(X.data, sig)
    idx = X.indices.astype(np.int64) + 1
    iw = int(_ndigits(np.array([X.shape[1]]))[0])
    # entry record: " " idx ":" value "\n"
    width = 1 + iw + 1 + vchars.shape[1] + 1
    rec = np.zeros((n + nnz, width), dtype=np.uint8)
    keep = np.zeros(rec.shape, dtype=bool)
    label_pos = X.indptr[:-1] + np.arange(n)
    entry_pos = np.setdiff1d(np.arange(n + nnz), label_pos, assume_unique=True)
    rec[label_pos, 0] = np.where(labels > 0, ord("+"), ord("-"))
    rec[label_pos, 1] = ord("1")
    keep[label_pos, :2] = True
    er = rec[entry_pos]
    ek = keep[entry_pos]
    er[:, 0] = ord(" ")
    er[:, 1:1 + iw] = _digits(idx, iw)
    ek[:, 0] = True
    ek[:, 1:1 + iw] = np.arange(iw) >= (iw - _ndigits(idx))[:, None]
    er[:, 1 + iw] = ord(":")
    ek[:, 1 + iw] = True
    er[:, 2 + iw:-1] = vchars
    ek[:, 2 + iw:-1] = vkeep
    er[:, -1] = ord("\n")
    ek[X.indptr[1:] - 1, -1] = True  # newline after each row's last entry
    rec[entry_pos] = er
    keep[entry_pos] = ek
    return rec[keep].tobytes()


def _sample_rows(rng, n: int, spec: DataSpec, col_of_rank: np.ndarray,
                 cdf: np.ndarray):
    k = rng.integers(spec.nnz_min, spec.nnz_max + 1, size=n)
    rows = np.repeat(np.arange(n, dtype=np.int64), k)
    ranks = np.minimum(np.searchsorted(cdf, rng.random(rows.size)), spec.n_cols - 1)
    key = np.unique(rows * spec.n_cols + col_of_rank[ranks])
    return key // spec.n_cols, key % spec.n_cols


def _split(rng, n: int, spec: DataSpec, col_of_rank, cdf, idf, w_true):
    rows, cols = _sample_rows(rng, n, spec, col_of_rank, cdf)
    if spec.values == "tfidf":
        tf = rng.geometric(0.5, size=rows.size).astype(np.float64)
        v = tf * idf[cols]
        v /= np.sqrt(np.bincount(rows, weights=v * v, minlength=n))[rows]
        sig = 7
    else:
        v = rng.normal(size=rows.size)
        v[v == 0.0] = 0.5
        sig = 4
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    X = sp.csr_matrix((v, cols, indptr), shape=(n, spec.n_cols))
    # round first so the planted margin is the one the loader will see
    _, _, X.data = _scientific(X.data, sig)
    z = X @ w_true
    return X, z, sig


def generate(spec: DataSpec, seed: int, out_dir: Path, variant: int = 0) -> dict:
    """Write ``train.libsvm[.gz]`` and ``test.libsvm[.gz]`` plus
    ``meta.json`` into ``out_dir``; returns the metadata. ``variant`` picks
    one of several independent data sets drawn from the same seed."""
    rng = np.random.default_rng([seed, variant, 0x5E2])
    d = spec.n_cols
    p = np.arange(1, d + 1, dtype=np.float64) ** -spec.zipf_s
    p /= p.sum()
    cdf = np.cumsum(p)
    col_of_rank = rng.permutation(d)
    # the last column is the most popular, so the training file always spans
    # all d columns: s2ml rejects a test file wider than its training file
    top = int(np.flatnonzero(col_of_rank == d - 1)[0])
    col_of_rank[[0, top]] = col_of_rank[[top, 0]]
    idf = np.empty(d)
    idf[col_of_rank] = 1.0 + np.log(p[0] / p)
    w_true = rng.normal(size=d)

    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {"seed": seed, "variant": variant, "spec": spec.__dict__}
    scale = None
    for name, n in (("train", spec.n_train), ("test", spec.n_test)):
        X, z, sig = _split(rng, n, spec, col_of_rank, cdf, idf, w_true)
        if scale is None:
            scale = float(np.std(z))
        y = np.where(z + LABEL_NOISE * scale * rng.normal(size=n) >= 0.0, 1, -1)
        text = to_libsvm(y, X, sig)
        path = out_dir / (f"{name}.libsvm.gz" if spec.gzip else f"{name}.libsvm")
        path.write_bytes(gzip.compress(text, compresslevel=6, mtime=0)
                         if spec.gzip else text)
        meta[name] = {"path": path.name, "rows": n, "nnz": int(X.nnz),
                      "cols_seen": int(X.indices.max()) + 1,
                      "label_sum": int(y.sum()), "value_sum": float(X.data.sum()),
                      "text_bytes": len(text),
                      "planted_accuracy": float(np.mean(np.where(z >= 0.0, 1, -1) == y))}
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=1) + "\n")
    return meta
