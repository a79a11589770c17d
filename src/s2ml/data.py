"""LIBSVM-format data handling on a compact CSR representation.

Datasets are parsed from the standard sparse text format (``label idx:val``
with 1-based, ascending indices), validated, and stored immutably so that
many solver runs can share one copy. Input files may be plain text or
gzip-compressed (detected by magic bytes). Files in plain form take a
vectorized parse; any other file goes through the line parser, which gives
the same arrays and is the only source of errors.
"""

from __future__ import annotations

import gzip
import math
import warnings
from array import array
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "LibsvmParseError",
    "SparseMatrix",
    "Dataset",
    "parse_libsvm_line",
    "load_dataset",
    "dataset_from_rows",
    "serialize_dataset",
]


_INDEX, _VALUE = itemgetter(0), itemgetter(1)
_MAX_INDEX = np.iinfo(np.int64).max


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
        if idx > _MAX_INDEX:
            raise LibsvmParseError(f"feature index {idx_s!r} out of range", lineno)
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


def _build(labels, offsets, cols, vals, n_cols: int | None) -> Dataset:
    """The validated Dataset over int64 labels and CSR arrays whose int64
    column indices are still 1-based (shifted here, in place)."""
    cols -= 1
    seen = int(cols.max()) + 1 if cols.size else 0
    width = max(n_cols or 0, seen)
    ds = Dataset(
        SparseMatrix(n_rows=labels.size, n_cols=width, row_offsets=offsets,
                     col_indices=cols, values=vals),
        labels)
    ds.validate()
    return ds


def _assemble(rows, n_cols: int | None) -> Dataset:
    """Build a validated Dataset from ``(lineno, label, entries)`` triples.

    Each row's entries are sorted stably by index and checked for
    duplicates as soon as it arrives, then appended to flat buffers, so a
    caller may stream rows without holding them all as Python objects.
    ``lineno`` labels any error raised for that row.
    """
    labels: list[int] = []
    offsets = array("q", [0])
    cols = array("q")  # 1-based until _build
    vals = array("d")
    for lineno, label, entries in rows:
        if label not in (-1, 1):
            raise LibsvmParseError(f"label {label!r} is outside {{-1, +1}}", lineno)
        entries = sorted(entries, key=_INDEX)
        idx = list(map(_INDEX, entries))
        if len(set(idx)) < len(idx):
            dup = next(a for a, b in zip(idx, idx[1:]) if a == b)
            raise LibsvmParseError(f"duplicate feature index {int(dup)}", lineno)
        labels.append(label)
        cols.extend(idx)
        vals.extend(map(_VALUE, entries))
        offsets.append(len(cols))
    return _build(np.asarray(labels, dtype=np.int64),
                  np.frombuffer(offsets, dtype=np.int64),
                  np.frombuffer(cols, dtype=np.int64),
                  np.frombuffer(vals, dtype=np.float64), n_cols)


def dataset_from_rows(rows, n_cols: int | None = None) -> Dataset:
    """Assemble a Dataset from ``(label, entries)`` pairs (as produced by
    :func:`parse_libsvm_line`); indices must be integers and values real
    numbers. Out-of-order indices are sorted; duplicate indices within a row
    are an error, reported with the row's 1-based ordinal as its line
    number."""
    return _assemble(((ordinal, label, entries) for ordinal, (label, entries)
                      in enumerate(rows, start=1)), n_cols)


def _read(path: Path) -> bytes:
    """The bytes of a file, gunzipped when it starts with the gzip magic."""
    with open(path, "rb") as fh:
        gzipped = fh.read(2) == b"\x1f\x8b"
        fh.seek(0)
        if not gzipped:
            return fh.read()
        with gzip.GzipFile(fileobj=fh) as gz:
            return gz.read()


def _parse_lines(data: bytes, n_cols: int | None) -> tuple[Dataset, bool]:
    """The line parser over a file's bytes: ``(dataset, whether a label 0
    was seen)``. It splits lines as a text-mode read would (universal
    newlines), skips comments and blank lines, sorts each row, and raises
    LibsvmParseError with the 1-based line number on anything malformed."""
    zero_seen = False

    def rows():
        nonlocal zero_seen
        lines = data.decode("utf-8").splitlines()
        for lineno, raw in enumerate(lines, start=1):
            if not raw.split("#", 1)[0].strip():
                continue
            label, was_zero, entries = _parse_line(raw, lineno)
            zero_seen = zero_seen or was_zero
            yield lineno, label, entries

    ds = _assemble(rows(), n_cols)
    return ds, zero_seen


# The vectorized parse takes only bytes the line parser reads the same way:
# spaces, "\n" and token bytes (printable ASCII other than "#").
_TOKEN_BYTE = np.zeros(256, dtype=bool)
_TOKEN_BYTE[0x21:0x7F] = True
_TOKEN_BYTE[ord("#")] = False
_SEPARATOR = np.zeros(256, dtype=bool)
_SEPARATOR[[ord(" "), ord("\n")]] = True
_ALLOWED = _TOKEN_BYTE | _SEPARATOR
_NEWLINE, _COLON, _ZERO = (np.uint8(ord(c)) for c in "\n:0")
_BLOCK_BYTES = 1 << 18  # bounds the parse's scratch arrays to a few MB
_MAX_TOKEN = 32         # longer tokens (serialize_dataset writes none) fall back
_MAX_DIGITS = 15        # longer indices fall back; 15 digits cannot overflow int64


def _blocks(data: bytes):
    """``(start, end)`` spans of about ``_BLOCK_BYTES`` that end at line ends."""
    start = 0
    while start < len(data):
        end = data.rfind(b"\n", start, start + _BLOCK_BYTES) + 1
        if end <= start:  # no line end in the span: take the whole line
            end = data.find(b"\n", start + _BLOCK_BYTES) + 1 or len(data)
        yield start, end
        start = end


def _token_chars(b: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """The tokens at ``starts`` as rows of a zero-padded uint8 array, or None
    when one is longer than ``_MAX_TOKEN``. ``b`` must extend
    ``_MAX_TOKEN`` bytes past the last token."""
    width = int(lengths.max(initial=1))
    if width > _MAX_TOKEN:
        return None
    chars = sliding_window_view(b, width)[starts]
    chars *= np.arange(width) < lengths[:, None]
    return chars


def _floats(chars: np.ndarray):
    """Parse zero-padded tokens with numpy's bytes-to-float64 cast, which
    converts each as Python's ``float()`` does; None if it rejects one."""
    try:
        return chars.view(f"S{chars.shape[1]}")[:, 0].astype(np.float64)
    except ValueError:
        return None


def _indices(chars: np.ndarray, lengths: np.ndarray):
    """The values of zero-padded tokens of 1 to ``_MAX_DIGITS`` ASCII digits
    (leading zeros allowed, as ``int()`` allows them); None for any other
    token."""
    width = chars.shape[1]
    if width > _MAX_DIGITS:
        return None
    digits = chars - _ZERO  # non-digits, padding included, wrap to >= 10
    inside = np.arange(width) < lengths[:, None]
    if np.any(inside & (digits > 9)):
        return None
    digits *= inside
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    # Horner over the left-aligned digits, then drop the padding's powers
    return (digits.astype(np.int64) @ powers) // powers[lengths - 1]


def _parse_block(b: np.ndarray, m: int):
    """Parse ``b[:m]``, whole lines the last of which ends in "\\n";
    ``b`` holds ``_MAX_TOKEN`` more bytes of padding.

    Returns ``(labels as floats, entries per row, 1-based indices, values)``
    as the line parser would read them, or None for anything else.
    """
    t = b[:m]
    if not _ALLOWED[t].all():
        return None
    sep = _SEPARATOR[t]
    line_starts = np.concatenate(([0], np.flatnonzero(t == _NEWLINE)[:-1] + 1))
    # each line starts with its label: no leading space, no blank line
    if sep[line_starts].any():
        return None
    # t starts with a token and ends with a separator, so the edges between
    # tokens and separators run end, start, end, ..., start, end
    edges = np.flatnonzero(sep[1:] != sep[:-1]) + 1
    del sep
    starts = np.concatenate(([0], edges[1::2]))
    ends = edges[0::2]
    label_tok = np.searchsorted(starts, line_starts)
    is_entry = np.ones(starts.size, dtype=bool)
    is_entry[label_tok] = False
    entry_tok = np.flatnonzero(is_entry)
    es, ee = starts[entry_tok], ends[entry_tok]
    colons = np.flatnonzero(t == _COLON)
    # one ":" per entry, not at either end of it, and none in a label
    if colons.size != es.size or np.any(colons <= es) or np.any(colons >= ee - 1):
        return None

    chars = _token_chars(b, es, colons - es)
    idx = None if chars is None else _indices(chars, colons - es)
    if idx is None or np.any(idx < 1):
        return None
    # within a row the indices strictly increase (the line parser sorts them)
    row_start = ~is_entry[entry_tok - 1]
    if not np.all((idx[1:] > idx[:-1]) | row_start[1:]):
        return None
    chars = _token_chars(b, colons + 1, ee - colons - 1)
    vals = None if chars is None else _floats(chars)
    if vals is None or not np.all(np.isfinite(vals)):
        return None
    chars = _token_chars(b, starts[label_tok], ends[label_tok] - starts[label_tok])
    labels = None if chars is None else _floats(chars)
    if labels is None or not np.all((labels == 1) | (labels == -1) | (labels == 0)):
        return None
    counts = np.diff(np.append(label_tok, starts.size)) - 1
    return labels, counts, idx, vals


def _parse_fast(held: list[bytes], n_cols: int | None) -> tuple[Dataset, bool] | None:
    """Vectorized parse of the file bytes in the one-item list ``held``:
    ``(dataset, whether a label 0 was seen)``, with the arrays the line
    parser would build, or None for any input it does not take: comments,
    blank lines, tabs or carriage returns, non-ASCII bytes, unsorted or
    duplicate indices, index forms other than plain digits, and every token
    the line parser rejects. It raises no parse error.

    Blocks cut at line ends keep its scratch memory bounded; the outputs are
    allocated once, sized by the newline and colon counts, which are exact
    when every block parses. On success it empties ``held``, so the bytes
    are freed before validation allocates its own scratch; on None they
    are left for the line parser.
    """
    data = held[0]
    if not data:
        return None
    n_rows = data.count(b"\n") + (not data.endswith(b"\n"))
    nnz = data.count(b":")
    labels = np.empty(n_rows, dtype=np.int64)
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz, dtype=np.float64)
    buf = np.frombuffer(data, dtype=np.uint8)
    zero_seen = False
    row = entry = 0
    for start, end in _blocks(data):
        m = end - start
        b = np.zeros(m + 1 + _MAX_TOKEN, dtype=np.uint8)
        b[:m] = buf[start:end]
        if b[m - 1] != _NEWLINE:  # the file's unterminated last line
            b[m] = _NEWLINE
            m += 1
        parsed = _parse_block(b, m)
        if parsed is None:
            return None
        lab, counts, idx, val = parsed
        labels[row:row + lab.size] = np.where(lab == 1, 1, -1)
        offsets[row + 1:row + 1 + lab.size] = entry + np.cumsum(counts)
        cols[entry:entry + idx.size] = idx
        vals[entry:entry + idx.size] = val
        zero_seen = zero_seen or bool(np.any(lab == 0))
        row += lab.size
        entry += idx.size
    held.clear()
    del data, buf
    return _build(labels, offsets, cols, vals, n_cols), zero_seen


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
    carry the offending 1-based line number; a truncated gzip file raises
    ``gzip.BadGzipFile`` naming the path. The file is read once; a file in
    plain form takes the vectorized parse of those bytes and any other the
    line parser; both give the same Dataset.
    """
    path = Path(path)
    try:
        held = [_read(path)]  # read once, for either parser
    except EOFError as exc:  # a gzip stream cut short
        raise gzip.BadGzipFile(f"{path}: {exc}") from exc
    ds, zero_seen = _parse_fast(held, n_cols_hint) or _parse_lines(held[0], n_cols_hint)
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
