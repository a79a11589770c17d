"""LIBSVM-format data handling on one read-only CSR matrix.

Datasets are parsed from the standard sparse text format (``label idx:val``
with 1-based, ascending indices), validated, and stored immutably so that
many solver runs can share one copy of the scipy CSR matrix
(:class:`Features`). Input files may be plain text or gzip-compressed
(detected by magic bytes). A file is parsed one block of lines at a time:
a block in plain form, with LF or CRLF line ends and every label written
"+1", "-1", "1" or "0", takes a vectorized parse, and a block in any other
form is line-parsed alone. Both hand the same arrays to one join, which
builds the matrix. The line parser is the only source of parse errors, and
each names the file.
"""

from __future__ import annotations

import gzip
import math
import warnings
import zlib
from array import array
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "LibsvmParseError",
    "Features",
    "Dataset",
    "parse_libsvm_line",
    "load_dataset",
    "dataset_from_rows",
    "serialize_dataset",
]


_INDEX, _VALUE = itemgetter(0), itemgetter(1)
_MAX_INDEX = np.iinfo(np.int64).max
_INT32_MAX = np.iinfo(np.int32).max


class LibsvmParseError(ValueError):
    """Malformed LIBSVM input; carries the 1-based line number when known."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


class Features(sp.csr_matrix):
    """CSR features: float64 values, 0-based column indices in scipy's index
    dtype (int32 when the shape fits), plus read-only LIBSVM-side names."""

    row_offsets = property(attrgetter("indptr"))
    col_indices = property(attrgetter("indices"))
    values = property(attrgetter("data"))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable feature matrix, the one the problems multiply by, plus
    binary labels in {-1, +1}; all arrays are frozen on construction."""

    features: Features
    labels: np.ndarray

    def __post_init__(self):
        m = self.features
        for arr in (m.data, m.indices, m.indptr):
            arr.setflags(write=False)
        object.__setattr__(self, "labels",
                           np.ascontiguousarray(self.labels, dtype=np.int64))
        self.labels.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_cols(self) -> int:
        return self.features.shape[1]

    def validate(self) -> None:
        """Raise ValueError unless the matrix is well-formed CSR whose rows
        strictly increase in column index, with finite values, and every
        label is -1 or +1."""
        m = self.features
        m.check_format(full_check=True)
        if not m.has_canonical_format:
            raise ValueError("column indices within a row must strictly increase")
        if not np.all(np.isfinite(m.data)):
            raise ValueError("feature values must be finite")
        if self.labels.shape != (self.n_rows,):
            raise ValueError("labels must have one entry per row")
        if self.labels.size and not np.all(np.abs(self.labels) == 1):
            raise ValueError("labels must be -1 or +1")

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return False
        a, b = self.features, other.features
        return (a.shape == b.shape
                and np.array_equal(a.indptr, b.indptr)
                and np.array_equal(a.indices, b.indices)
                and np.array_equal(a.data, b.data)
                and np.array_equal(self.labels, other.labels))


def _parse_label_token(tok: str, lineno: int | None) -> int:
    if ":" in tok:
        raise LibsvmParseError(f"first token {tok!r} is not a label", lineno)
    try:
        val = float(tok)
    except ValueError:
        raise LibsvmParseError(f"label {tok!r} is not numeric", lineno) from None
    if val in (1.0, -1.0, 0.0):
        return int(val)
    raise LibsvmParseError(f"label {tok!r} is outside {{-1, +1, 0}}", lineno)


def _parse_line(line: str, lineno: int | None):
    """``(label as 1, -1 or 0, entries)`` of one line."""
    text = line.split("#", 1)[0].strip()
    if not text:
        raise LibsvmParseError("no content before comment/end of line", lineno)
    tokens = text.split()
    label = _parse_label_token(tokens[0], lineno)
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
    return label, entries


def parse_libsvm_line(line: str, lineno: int | None = None):
    """Parse one LIBSVM line into ``(label, entries)``.

    ``#`` starts a comment. The leading token must be a label ("+1", "1",
    "-1", or "0", which maps to -1); the rest are ``index:value`` pairs with
    1-based indices, returned in file order (ordering and duplicates are
    enforced at matrix assembly, not here). ``lineno``, when given, is
    attached to any :class:`LibsvmParseError`.
    """
    label, entries = _parse_line(line, lineno)
    return label or -1, entries


def _join(blocks: list, n_cols: int | None) -> tuple[Dataset, bool]:
    """The validated Dataset over consecutive blocks of rows, and whether a
    label 0 (read as -1) was seen. Each block is four arrays: labels as 1,
    -1 or 0, entries per row, 1-based column indices and values; scipy
    picks the index dtype the matrix keeps."""
    labels, counts, cols, vals = map(np.concatenate, zip(*blocks))
    blocks.clear()  # the blocks' arrays are freed before validation
    zero = labels == 0
    labels[zero] = -1
    offsets = np.concatenate(([0], np.cumsum(counts)))
    cols -= 1
    width = max(n_cols or 0, int(cols.max()) + 1 if cols.size else 0)
    ds = Dataset(Features((vals, cols, offsets), shape=(labels.size, width)), labels)
    ds.validate()
    return ds, bool(zero.any())


def _assemble(rows):
    """The block :func:`_join` takes over ``(lineno, label, entries)``
    triples. Each row's entries are sorted stably by index and checked for
    duplicates as soon as it arrives, then appended to flat buffers, so a
    caller may stream rows without holding them all as Python objects.
    ``lineno`` labels any error raised for that row."""
    labels, counts, cols, vals = array("q"), array("q"), array("q"), array("d")
    for lineno, label, entries in rows:
        entries = sorted(entries, key=_INDEX)
        idx = list(map(_INDEX, entries))
        if len(set(idx)) < len(idx):
            dup = next(a for a, b in zip(idx, idx[1:]) if a == b)
            raise LibsvmParseError(f"duplicate feature index {int(dup)}", lineno)
        labels.append(label)
        counts.append(len(idx))
        cols.extend(idx)
        vals.extend(map(_VALUE, entries))
    return tuple(map(np.asarray, (labels, counts, cols, vals)))


def dataset_from_rows(rows, n_cols: int | None = None) -> Dataset:
    """Assemble a Dataset from ``(label, entries)`` pairs (as produced by
    :func:`parse_libsvm_line`); labels must be -1 or +1, indices integers
    and values real numbers. Out-of-order indices are sorted; a label
    outside {-1, +1} or duplicate indices within a row are an error,
    reported with the row's 1-based ordinal as its line number."""
    def checked():
        for ordinal, (label, entries) in enumerate(rows, start=1):
            if label not in (-1, 1):
                raise LibsvmParseError(f"label {label!r} is outside {{-1, +1}}", ordinal)
            yield ordinal, int(label), entries

    return _join([_assemble(checked())], n_cols)[0]


def _read(path: Path) -> bytes:
    """The bytes of a file, gunzipped when it starts with the gzip magic."""
    with open(path, "rb") as fh:
        gzipped = fh.read(2) == b"\x1f\x8b"
        fh.seek(0)
        # one call holds the packed and the unpacked bytes, less than
        # GzipFile.read's join of its chunks
        return gzip.decompress(fh.read()) if gzipped else fh.read()


def decode_utf8(data: bytes, error=LibsvmParseError, first: int = 1) -> str:
    """``data`` decoded as UTF-8. A byte that is not UTF-8 raises
    ``error(message, lineno)``, where ``lineno`` is the line that holds it
    as ``splitlines()`` numbers the lines of ``data`` from ``first``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:  # "x" stands in for the first bad byte
        lineno = first - 1 + len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise error(f"byte 0x{data[exc.start]:02x} is not UTF-8", lineno) from None


# The vectorized parse takes only bytes the line parser reads the same way:
# spaces, line ends and token bytes (printable ASCII other than "#"). So the
# only bytes it sees below "!" are the separators " ", "\r" and "\n".
_ALLOWED_BYTES = b" \r\n" + bytes(range(0x21, 0x7F)).replace(b"#", b"")
_SPACE, _CR, _NEWLINE, _COLON = (np.uint8(ord(c)) for c in " \r\n:")
_ZERO, _ONE, _PLUS, _MINUS = (np.uint8(ord(c)) for c in "01+-")
_BLOCK_BYTES = 1 << 18  # bounds the parse's scratch arrays to a few MB
_MAX_TOKEN = 32         # longer tokens (serialize_dataset writes none) fall back
_MAX_DIGITS = 15        # longer indices fall back; 15 digits cannot overflow int64


def _blocks(data: bytes):
    """``data`` in blocks cut just after a "\\n", all but the last of at
    least ``_BLOCK_BYTES``; one empty block when ``data`` is empty."""
    start = 0
    while True:
        end = data.find(b"\n", start + _BLOCK_BYTES - 1) + 1 or len(data)
        yield data[start:end]
        if end == len(data):
            return
        start = end


def _token_chars(b: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """``(chars, inside)``: the tokens at ``starts`` as rows of a zero-padded
    uint8 array and the mask of their bytes in it, or None when one is
    longer than ``_MAX_TOKEN``. ``b`` must extend ``_MAX_TOKEN`` bytes past
    the last token."""
    width = int(lengths.max(initial=1))
    if width > _MAX_TOKEN:
        return None
    inside = np.arange(width) < lengths[:, None]
    chars = sliding_window_view(b, width)[starts]
    chars *= inside
    return chars, inside


def _floats(chars: np.ndarray):
    """Parse zero-padded tokens with numpy's bytes-to-float64 cast, which
    converts each as Python's ``float()`` does; None if it rejects one."""
    try:
        return chars.view(f"S{chars.shape[1]}")[:, 0].astype(np.float64)
    except ValueError:
        return None


def _indices(chars: np.ndarray, inside: np.ndarray, lengths: np.ndarray):
    """The values of zero-padded tokens of 1 to ``_MAX_DIGITS`` ASCII digits
    (leading zeros allowed, as ``int()`` allows them), as int32 when they
    all fit; None for any other token. ``inside`` masks the tokens' bytes."""
    width = chars.shape[1]
    if width > _MAX_DIGITS:
        return None
    digits = chars - _ZERO  # non-digits, padding included, wrap to >= 10
    if np.any(inside & (digits > 9)):
        return None
    digits *= inside
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    # Horner over the left-aligned digits, then drop the padding's powers
    idx = (digits.astype(np.int64) @ powers) // powers[lengths - 1]
    # int32 when every index fits halves the blocks and their join; scipy
    # then keeps the dtype, or widens it for a shape beyond int32
    return idx.astype(np.int32) if idx.max(initial=0) <= _INT32_MAX else idx


def _labels(b: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """The label tokens at ``starts``, each "+1", "-1", "1" or "0", read by
    byte comparison as 1, -1 or 0; None when any token has another form,
    which the line parser then reads. ``b`` extends past the tokens as in
    :func:`_token_chars`."""
    first = b[starts]
    canonical = np.where(lengths == 1, (first == _ONE) | (first == _ZERO),
                         (lengths == 2) & (b[starts + 1] == _ONE)
                         & ((first == _PLUS) | (first == _MINUS)))
    if not canonical.all():
        return None
    return np.where(first == _MINUS, -1, np.where(first == _ZERO, 0, 1))


def _parse_block(chunk: bytes):
    """The vectorized parse of a block of whole lines, the last of which
    may lack its "\\n": ``(labels as 1, -1 or 0, entries per row, 1-based
    indices, values)`` as the line parser would read them, one row per
    line. It raises no parse error, and returns None for any block it does
    not take: comments, blank lines, tabs, a "\\r" with no "\\n" after it
    but at the end, non-ASCII bytes, label forms other than "+1", "-1", "1"
    and "0", unsorted or duplicate indices, index forms other than plain
    digits, and every token the line parser rejects.
    """
    if not chunk or chunk.translate(None, _ALLOWED_BYTES):
        return None
    if not chunk.endswith(b"\n"):  # the file's unterminated last line
        chunk += b"\n"
    b = np.frombuffer(chunk + bytes(_MAX_TOKEN), dtype=np.uint8)
    t = b[:len(chunk)]
    # the line parser breaks lines at a lone "\r" too
    if b"\r" in chunk and np.any((t[:-1] == _CR) & (t[1:] != _NEWLINE)):
        return None
    sep = t <= _SPACE  # " ", "\r" and "\n": no other allowed byte is below "!"
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

    tokens = _token_chars(b, es, colons - es)
    idx = None if tokens is None else _indices(*tokens, colons - es)
    if idx is None or np.any(idx < 1):
        return None
    # within a row the indices strictly increase (the line parser sorts them)
    row_start = ~is_entry[entry_tok - 1]
    if not np.all((idx[1:] > idx[:-1]) | row_start[1:]):
        return None
    tokens = _token_chars(b, colons + 1, ee - colons - 1)
    vals = None if tokens is None else _floats(tokens[0])
    if vals is None or not np.all(np.isfinite(vals)):
        return None
    labels = _labels(b, starts[label_tok], ends[label_tok] - starts[label_tok])
    if labels is None:
        return None
    counts = np.diff(np.append(label_tok, starts.size)) - 1
    return labels, counts, idx, vals


def _parse(data: bytes) -> list:
    """The blocks of a file's bytes that :func:`_join` takes. Each block
    takes the vectorized parse, or where that declines it, the line parser
    alone: it is decoded, split as a text-mode read splits lines (universal
    newlines) and numbered on from the blocks before it; comments and blank
    lines are skipped and each row is sorted. Anything malformed raises
    LibsvmParseError with its 1-based line number; a byte that is not UTF-8
    anywhere in the file is reported before any other error."""
    blocks, first = [], 1
    for chunk in _blocks(data):
        parsed = _parse_block(chunk)
        if parsed is None:
            lines = decode_utf8(chunk, first=first).splitlines()
            rows = ((lineno, *_parse_line(raw, lineno))
                    for lineno, raw in enumerate(lines, start=first)
                    if raw.split("#", 1)[0].strip())
            try:
                parsed = _assemble(rows)
            except LibsvmParseError:  # a bad byte anywhere comes first
                decode_utf8(data)
                raise
            first += len(lines)
        else:  # one row per line
            first += parsed[0].size
        blocks.append(parsed)
    return blocks


def load_dataset(path, n_cols_hint: int | None = None) -> Dataset:
    """Load a LIBSVM file (plain or gzipped) into an immutable Dataset.

    Parameters
    ----------
    path : path-like
        File to read. ``#`` comments and blank lines are skipped.
    n_cols_hint : int, optional
        Lower bound on the number of feature columns; the result has
        ``n_cols = max(n_cols_hint, largest index seen)``.

    Label "0" is accepted and mapped to -1 (one warning per file). A
    malformed file raises :class:`LibsvmParseError`, a byte that is not
    UTF-8 included, whose message starts with the path and then the
    offending 1-based line number; so does, without one, a file with no
    data rows. A truncated or corrupt gzip file raises ``gzip.BadGzipFile``
    naming the path. The file is read once and parsed one block of lines
    at a time: a block in plain form takes the vectorized parse and any
    other the line parser; both give the same Dataset.
    """
    path = Path(path)
    try:  # the bytes are freed when _parse returns, before the join
        ds, zero_seen = _join(_parse(_read(path)), n_cols_hint)
        if ds.n_rows == 0:
            raise LibsvmParseError("no data rows")
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:  # cut short or corrupt
        raise gzip.BadGzipFile(f"{path}: {exc}") from exc
    except ValueError as exc:  # the error keeps its type and line number
        exc.args = (f"{path}: {exc}",)
        raise
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
    for i in range(ds.n_rows):
        a, b = int(m.indptr[i]), int(m.indptr[i + 1])
        parts = ["+1" if ds.labels[i] > 0 else "-1"]
        parts.extend(f"{int(j) + 1}:{_format_value(x)}"
                     for j, x in zip(m.indices[a:b], m.data[a:b]))
        out.append(" ".join(parts))
    return "\n".join(out) + ("\n" if out else "")
