"""LIBSVM-format data handling on a compact CSR representation.

Datasets are parsed from the standard sparse text format (``label idx:val``
with 1-based, ascending indices), validated, and stored immutably so that
many solver runs can share one copy. Input files may be plain text or
gzip-compressed (detected by magic bytes).
"""

from __future__ import annotations

import gzip
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

__all__ = [
    "LibsvmParseError",
    "SparseMatrix",
    "Dataset",
    "parse_libsvm_line",
    "load_dataset",
    "dataset_from_rows",
    "serialize_dataset",
]


class LibsvmParseError(ValueError):
    """Malformed LIBSVM input; carries the 1-based line number when known."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Compressed sparse row matrix: float64 values, 0-based column indices.

    Invariants (checked by :meth:`validate`): ``row_offsets`` is
    non-decreasing with ``row_offsets[0] == 0`` and
    ``row_offsets[-1] == len(values) == len(col_indices)``; within each row
    column indices strictly increase; all column indices are < ``n_cols``.
    The arrays are frozen on construction.
    """

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "row_offsets",
                           np.ascontiguousarray(self.row_offsets, dtype=np.int64))
        object.__setattr__(self, "col_indices",
                           np.ascontiguousarray(self.col_indices, dtype=np.int64))
        object.__setattr__(self, "values",
                           np.ascontiguousarray(self.values, dtype=np.float64))
        for arr in (self.row_offsets, self.col_indices, self.values):
            arr.setflags(write=False)

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def validate(self) -> None:
        """Raise ValueError if any CSR invariant is violated."""
        ro, ci, v = self.row_offsets, self.col_indices, self.values
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if ro.shape != (self.n_rows + 1,):
            raise ValueError("row_offsets must have length n_rows + 1")
        if ci.shape != v.shape:
            raise ValueError("col_indices and values must have equal length")
        if ro[0] != 0 or ro[-1] != v.size:
            raise ValueError("row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(ro) < 0):
            raise ValueError("row_offsets must be non-decreasing")
        if ci.size:
            if ci.min() < 0 or ci.max() >= self.n_cols:
                raise ValueError("column index out of range")
            # d[j] compares col_indices[j+1] with col_indices[j]; pairs that
            # straddle a row start carry no ordering constraint.
            d = np.diff(ci)
            mask = np.ones(d.shape, dtype=bool)
            starts = ro[1:-1]
            starts = starts[(starts >= 1) & (starts <= ci.size - 1)]
            mask[starts - 1] = False
            if not np.all(d[mask] > 0):
                raise ValueError("column indices within a row must strictly increase")

    @cached_property
    def csr(self) -> sp.csr_matrix:
        """scipy view over the same arrays, used for mat-vec kernels."""
        return sp.csr_matrix(
            (self.values, self.col_indices, self.row_offsets),
            shape=(self.n_rows, self.n_cols), copy=False)

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix)
                and self.n_rows == other.n_rows
                and self.n_cols == other.n_cols
                and np.array_equal(self.row_offsets, other.row_offsets)
                and np.array_equal(self.col_indices, other.col_indices)
                and np.array_equal(self.values, other.values))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable feature matrix plus binary labels in {-1, +1}."""

    features: SparseMatrix
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels",
                           np.ascontiguousarray(self.labels, dtype=np.int64))
        self.labels.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.features.n_rows

    @property
    def n_cols(self) -> int:
        return self.features.n_cols

    def validate(self) -> None:
        self.features.validate()
        if self.labels.shape != (self.features.n_rows,):
            raise ValueError("labels must have one entry per row")
        if self.labels.size and not np.all(np.abs(self.labels) == 1):
            raise ValueError("labels must be -1 or +1")

    def __eq__(self, other):
        return (isinstance(other, Dataset)
                and self.features == other.features
                and np.array_equal(self.labels, other.labels))


def _parse_label_token(tok: str, lineno: int | None) -> tuple[int, bool]:
    if ":" in tok:
        raise LibsvmParseError(f"first token {tok!r} is not a label", lineno)
    try:
        val = float(tok)
    except ValueError:
        raise LibsvmParseError(f"label {tok!r} is not numeric", lineno) from None
    if val == 1.0:
        return 1, False
    if val == -1.0:
        return -1, False
    if val == 0.0:
        return -1, True
    raise LibsvmParseError(f"label {tok!r} is outside {{-1, +1, 0}}", lineno)


def _parse_line(line: str, lineno: int | None):
    text = line.split("#", 1)[0].strip()
    if not text:
        raise LibsvmParseError("no content before comment/end of line", lineno)
    tokens = text.split()
    label, was_zero = _parse_label_token(tokens[0], lineno)
    entries = []
    for tok in tokens[1:]:
        idx_s, sep, val_s = tok.partition(":")
        if not sep:
            raise LibsvmParseError(f"expected index:value, got {tok!r}", lineno)
        try:
            idx = int(idx_s)
        except ValueError:
            raise LibsvmParseError(
                f"feature index {idx_s!r} is not an integer", lineno) from None
        if idx < 1:
            raise LibsvmParseError(f"feature index {idx} must be >= 1", lineno)
        try:
            val = float(val_s)
        except ValueError:
            raise LibsvmParseError(
                f"feature value {val_s!r} is not numeric", lineno) from None
        if not math.isfinite(val):
            raise LibsvmParseError(f"feature value {val_s!r} is not finite", lineno)
        entries.append((idx, val))
    return label, was_zero, entries


def parse_libsvm_line(line: str, lineno: int | None = None):
    """Parse one LIBSVM line into ``(label, entries)``.

    ``#`` starts a comment. The leading token must be a label ("+1", "1",
    "-1", or "0", which maps to -1); the rest are ``index:value`` pairs with
    1-based indices, returned in file order (ordering and duplicates are
    enforced at matrix assembly, not here). ``lineno``, when given, is
    attached to any :class:`LibsvmParseError`.
    """
    label, _, entries = _parse_line(line, lineno)
    return label, entries


def _assemble_entries(entries, lineno: int | None):
    """Sort a row's entries by index, reject duplicates, shift to 0-based."""
    if not entries:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    idx = np.array([e[0] for e in entries], dtype=np.int64)
    val = np.array([e[1] for e in entries], dtype=np.float64)
    order = np.argsort(idx, kind="stable")
    idx = idx[order]
    val = val[order]
    dup = np.nonzero(idx[1:] == idx[:-1])[0]
    if dup.size:
        raise LibsvmParseError(f"duplicate feature index {int(idx[dup[0]])}", lineno)
    return idx - 1, val


def _assemble(rows, n_cols: int | None) -> Dataset:
    """Build a validated Dataset from ``(lineno, label, entries)`` triples.

    Each row's entries are sorted and checked as soon as it arrives, so a
    caller may stream rows without holding them all as Python objects.
    ``lineno`` labels any error raised for that row.
    """
    labels: list[int] = []
    col_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    for lineno, label, entries in rows:
        if label not in (-1, 1):
            raise LibsvmParseError(f"label {label!r} is outside {{-1, +1}}", lineno)
        idx0, vals = _assemble_entries(entries, lineno)
        labels.append(label)
        col_parts.append(idx0)
        val_parts.append(vals)
    offsets = np.zeros(len(labels) + 1, dtype=np.int64)
    if col_parts:
        np.cumsum([c.size for c in col_parts], out=offsets[1:])
    cols = np.concatenate(col_parts) if col_parts else np.empty(0, dtype=np.int64)
    vals = np.concatenate(val_parts) if val_parts else np.empty(0, dtype=np.float64)
    seen = int(cols.max()) + 1 if cols.size else 0
    width = max(n_cols or 0, seen)
    ds = Dataset(
        SparseMatrix(n_rows=len(labels), n_cols=width, row_offsets=offsets,
                     col_indices=cols, values=vals),
        np.asarray(labels, dtype=np.int64))
    ds.validate()
    return ds


def dataset_from_rows(rows, n_cols: int | None = None) -> Dataset:
    """Assemble a Dataset from ``(label, entries)`` pairs (as produced by
    :func:`parse_libsvm_line`). Out-of-order indices are sorted; duplicate
    indices within a row are an error, reported with the row's 1-based
    ordinal as its line number."""
    return _assemble(((ordinal, label, entries) for ordinal, (label, entries)
                      in enumerate(rows, start=1)), n_cols)


def _read_lines(path: Path) -> list[str]:
    with open(path, "rb") as fh:
        magic = fh.read(2)
    opener = gzip.open if magic == b"\x1f\x8b" else open
    with opener(path, "rt", encoding="utf-8") as fh:
        return fh.read().splitlines()


def load_dataset(path, n_cols_hint: int | None = None) -> Dataset:
    """Load a LIBSVM file (plain or gzipped) into an immutable Dataset.

    Parameters
    ----------
    path : path-like
        File to read. ``#`` comments and blank lines are skipped.
    n_cols_hint : int, optional
        Lower bound on the number of feature columns; the result has
        ``n_cols = max(n_cols_hint, largest index seen)``.

    Label "0" is accepted and mapped to -1 (one warning per file). Errors
    carry the offending 1-based line number.
    """
    path = Path(path)
    zero_seen = False

    def rows():
        nonlocal zero_seen
        for lineno, raw in enumerate(_read_lines(path), start=1):
            if not raw.split("#", 1)[0].strip():
                continue
            label, was_zero, entries = _parse_line(raw, lineno)
            zero_seen = zero_seen or was_zero
            yield lineno, label, entries

    ds = _assemble(rows(), n_cols_hint)
    if zero_seen:
        warnings.warn(f"{path}: label '0' mapped to -1", stacklevel=2)
    return ds


def _format_value(v: float) -> str:
    # repr() is the shortest round-trippable decimal; drop a redundant ".0".
    s = repr(float(v))
    return s[:-2] if s.endswith(".0") else s


def serialize_dataset(ds: Dataset) -> str:
    """Render a Dataset in canonical LIBSVM form.

    Labels are written "+1"/"-1", entries as ascending 1-based ``i:v`` with
    single spaces and shortest round-trippable values, one row per line.
    Parsing the output reproduces the dataset exactly.
    """
    m = ds.features
    out = []
    for i in range(m.n_rows):
        a, b = int(m.row_offsets[i]), int(m.row_offsets[i + 1])
        parts = ["+1" if ds.labels[i] > 0 else "-1"]
        parts.extend(f"{int(j) + 1}:{_format_value(x)}"
                     for j, x in zip(m.col_indices[a:b], m.values[a:b]))
        out.append(" ".join(parts))
    return "\n".join(out) + ("\n" if out else "")
