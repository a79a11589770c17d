import builtins
import gzip
import os
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

import s2ml.data
from helpers import corrupt_gzip, random_dataset, random_rows
from s2ml.data import (Dataset, Features, LibsvmParseError,
                       dataset_from_rows, load_dataset, parse_libsvm_line,
                       serialize_dataset)

FIXTURES = Path(__file__).parent / "fixtures"


class TestParseLine:
    def test_basic(self):
        assert parse_libsvm_line("+1 1:0.5 3:-2") == (1, [(1, 0.5), (3, -2.0)])

    def test_bare_label_variants(self):
        assert parse_libsvm_line("-1") == (-1, [])
        assert parse_libsvm_line("1 2:1") == (1, [(2, 1.0)])
        assert parse_libsvm_line("0 2:1")[0] == -1  # zero maps to -1

    def test_first_token_must_be_label(self):
        with pytest.raises(LibsvmParseError):
            parse_libsvm_line("1:0.5 +1")

    def test_comment_stripped(self):
        assert parse_libsvm_line("+1 1:2 # tail") == (1, [(1, 2.0)])

    def test_label_out_of_range(self):
        with pytest.raises(LibsvmParseError, match="outside"):
            parse_libsvm_line("3 1:1")

    def test_non_numeric_label(self):
        with pytest.raises(LibsvmParseError, match="not numeric"):
            parse_libsvm_line("spam 1:1")

    def test_missing_colon(self):
        with pytest.raises(LibsvmParseError, match="index:value"):
            parse_libsvm_line("+1 3")

    def test_bad_index(self):
        with pytest.raises(LibsvmParseError, match="not an integer"):
            parse_libsvm_line("+1 a:1")
        with pytest.raises(LibsvmParseError, match=">= 1"):
            parse_libsvm_line("+1 0:1")
        with pytest.raises(LibsvmParseError, match="'99999999999999999999' out of range"):
            parse_libsvm_line("+1 99999999999999999999:1")

    def test_bad_value(self):
        with pytest.raises(LibsvmParseError, match="not numeric"):
            parse_libsvm_line("+1 1:x")
        with pytest.raises(LibsvmParseError, match="not finite"):
            parse_libsvm_line("+1 1:nan")

    def test_lineno_carried(self):
        with pytest.raises(LibsvmParseError, match="line 17"):
            parse_libsvm_line("+1 0:1", lineno=17)

    def test_out_of_order_passed_through(self):
        # ordering is enforced at assembly, not here
        assert parse_libsvm_line("+1 3:1 1:2") == (1, [(3, 1.0), (1, 2.0)])


class TestLoad:
    def test_two_line_file(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("+1 1:1\n-1 2:1\n")
        ds = load_dataset(p)
        assert ds.n_rows == 2 and ds.n_cols == 2 and ds.features.nnz == 2
        assert list(ds.labels) == [1, -1]

    def test_hint_dominates(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("+1 1:1\n-1 2:1\n")
        assert load_dataset(p, n_cols_hint=5).n_cols == 5

    def test_hint_smaller_than_seen(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("+1 7:1\n")
        assert load_dataset(p, n_cols_hint=2).n_cols == 7

    def test_duplicate_index_rejected(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("+1 2:1 2:3\n")
        with pytest.raises(LibsvmParseError, match="duplicate feature index 2"):
            load_dataset(p)

    def test_out_of_order_sorted(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("+1 3:1 1:2\n")
        ds = load_dataset(p)
        ds.validate()
        assert list(ds.features.col_indices) == [0, 2]
        assert list(ds.features.values) == [2.0, 1.0]

    def test_error_carries_lineno(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("+1 1:1\n-1 0:2\n")
        with pytest.raises(LibsvmParseError, match="line 2"):
            load_dataset(p)

    def test_zero_label_warns_once_per_file(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("0 1:1\n0 2:1\n1 3:1\n")
        with pytest.warns(UserWarning, match="mapped to -1") as rec:
            ds = load_dataset(p)
        assert len(rec) == 1
        assert list(ds.labels) == [-1, -1, 1]

    def test_comments_and_blank_lines_skipped(self):
        ds = load_dataset(FIXTURES / "comments.libsvm")
        ds.validate()
        assert ds.n_rows == 3
        assert list(ds.labels) == [1, -1, 1]
        assert ds.features.nnz == 4

    def test_gzip_detected_by_magic(self, tmp_path):
        p = tmp_path / "d.libsvm.gz"
        with gzip.open(p, "wt") as fh:
            fh.write("+1 1:1\n-1 2:-0.5\n")
        ds = load_dataset(p)
        assert ds.n_rows == 2 and ds.features.nnz == 2

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(tmp_path / "nope.libsvm")

    def test_validator_runs_after_every_load(self, tmp_path):
        rng = np.random.default_rng(5)
        for i in range(10):
            ds = random_dataset(rng, 20, 8)
            p = tmp_path / f"r{i}.libsvm"
            p.write_text(serialize_dataset(ds))
            load_dataset(p).validate()


def _outcome(path, n_cols_hint):
    """Everything a load shows a caller: the arrays byte for byte (so that
    -0.0 and 0.0 differ) with their dtypes, or the error; and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ds = load_dataset(path, n_cols_hint)
        except ValueError as exc:  # LibsvmParseError and UnicodeDecodeError too
            result = (type(exc), str(exc), getattr(exc, "lineno", None))
        else:
            m = ds.features
            result = (ds.n_rows, ds.n_cols) + tuple(
                (a.dtype.str, a.tobytes())
                for a in (ds.labels, m.row_offsets, m.col_indices, m.values))
    return result, [(w.category, str(w.message)) for w in caught]


def _line_parser_outcome(monkeypatch, path, n_cols_hint):
    with monkeypatch.context() as mp:
        mp.setattr(s2ml.data, "_parse_fast", lambda path, n_cols: None)
        return _outcome(path, n_cols_hint)


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _edit_entry(edit):
    """A mutation that rewrites one ``index:value`` token of a random line."""
    def mutate(rng, lines):
        i = int(rng.integers(len(lines)))
        toks = lines[i].split(" ")
        if len(toks) > 1:
            k = int(rng.integers(1, len(toks)))
            idx, _, val = toks[k].partition(":")
            toks[k] = edit(rng, idx, val)
            lines[i] = " ".join(toks)
    return mutate


def _edit_line(edit):
    def mutate(rng, lines):
        i = int(rng.integers(len(lines)))
        lines[i] = edit(rng, lines[i])
    return mutate


def _swap_entries(rng, line):
    toks = line.split(" ")
    if len(toks) > 2:
        a, b = rng.choice(np.arange(1, len(toks)), size=2, replace=False)
        toks[a], toks[b] = toks[b], toks[a]
    return " ".join(toks)


def _repeat_entry(rng, line):
    toks = line.split(" ")
    if len(toks) > 1:
        k = int(rng.integers(1, len(toks)))
        toks.insert(k, toks[k].partition(":")[0] + ":1")
    return " ".join(toks)


# "\udcff" is written as the lone byte 0xff (not UTF-8)
_MUTATIONS = [
    lambda rng, lines: lines.insert(int(rng.integers(len(lines) + 1)), "# comment"),
    _edit_line(lambda rng, line: line + _pick(rng, [" # tail", "#", " #1:2"])),
    lambda rng, lines: lines.insert(int(rng.integers(len(lines) + 1)),
                                    _pick(rng, ["", "  "])),
    _edit_line(lambda rng, line: line.replace(" ", "\t", 1) if " " in line
               else line + "\t"),
    _edit_line(lambda rng, line: _pick(rng, [" ", "  "]) + line),
    _edit_line(lambda rng, line: line + _pick(rng, [" ", "   "])),
    _edit_entry(lambda rng, idx, val: idx + ":" + _pick(
        rng, ["nan", "inf", "-inf", "1_0", "-0", "1e400", "1e-400", "0x1", "1e", "."])),
    _edit_entry(lambda rng, idx, val: _pick(
        rng, ["05", "+5", "1e2", "0", "00", "1_0", "9" * 15, "9" * 16, "9" * 20, "-3"])
        + ":" + val),
    _edit_entry(lambda rng, idx, val: _pick(rng, ["1:2:3", "1:", ":1", "1", ":"])),
    _edit_line(lambda rng, line: _pick(
        rng, ["2", "1.0", "0", "1e0", "-0", "+1", "-1.0", "nan", "1:1", "x"])
        + line[line.index(" "):] if " " in line else line),
    _edit_line(lambda rng, line: line + _pick(rng, [" 3:\u00e9", "\u00a0", "\udcff"])),
    _edit_line(_swap_entries),
    _edit_line(_repeat_entry),
]


class TestFastPath:
    """The vectorized parse gives what the line parser gives, or falls back."""

    @pytest.mark.parametrize("name", ["train1000.libsvm", "test200.libsvm", "gzip"])
    def test_taken_for_plain_files(self, tmp_path, monkeypatch, name):
        if name == "gzip":
            path = tmp_path / "train.libsvm.gz"
            path.write_bytes(gzip.compress((FIXTURES / "train1000.libsvm").read_bytes()))
        else:
            path = FIXTURES / name
        expected = [_line_parser_outcome(monkeypatch, path, hint) for hint in (None, 60)]

        def line_parser(line, lineno):
            raise AssertionError("the line parser ran")

        monkeypatch.setattr(s2ml.data, "_parse_line", line_parser)
        assert [_outcome(path, hint) for hint in (None, 60)] == expected

    @pytest.mark.parametrize("block_bytes", [None, 24])
    def test_differential_fuzz(self, tmp_path, monkeypatch, block_bytes):
        if block_bytes is not None:  # many blocks, and lines longer than one
            monkeypatch.setattr(s2ml.data, "_BLOCK_BYTES", block_bytes)
        parse_fast = s2ml.data._parse_fast
        taken = []
        monkeypatch.setattr(s2ml.data, "_parse_fast", lambda path, n_cols: (
            taken.append(parse_fast(path, n_cols)) or taken[-1]))
        rng = np.random.default_rng(20190411)
        path = tmp_path / "fuzz.libsvm"
        for case in range(500):
            d = int(rng.integers(1, 12))
            ds = random_dataset(rng, int(rng.integers(1, 8)), d,
                                allow_empty=rng.random() < 0.2)
            lines = serialize_dataset(ds).splitlines()
            # every mutation in turn, a fifth of the files clean, some doubled
            if case % 5:
                _MUTATIONS[case % len(_MUTATIONS)](rng, lines)
            if rng.random() < 0.3:
                _pick(rng, _MUTATIONS)(rng, lines)
            text = ("\r\n" if rng.random() < 0.1 else "\n").join(lines)
            if rng.random() < 0.8:
                text += "\n"
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
            for hint in (None, d + 2):
                assert _outcome(path, hint) == _line_parser_outcome(
                    monkeypatch, path, hint), text
        fast = sum(t is not None for t in taken)
        assert 0.2 * len(taken) < fast < 0.8 * len(taken)


def _text_mode_outcome(monkeypatch, tmp_path, path, n_cols_hint):
    """The line parser's outcome on a text-mode (universal newlines) read of
    the file, rewritten as plain UTF-8: the reference for the line split of
    the bytes the loader reads once. Warnings name ``path``."""
    opener = gzip.open if path.read_bytes()[:2] == b"\x1f\x8b" else open
    try:
        with opener(path, "rt", encoding="utf-8") as fh:
            text = fh.read()
    except ValueError as exc:  # UnicodeDecodeError
        return (type(exc), str(exc), None), []
    ref = tmp_path / "text-mode.libsvm"
    ref.write_bytes(text.encode("utf-8"))
    result, caught = _line_parser_outcome(monkeypatch, ref, n_cols_hint)
    return result, [(c, m.replace(str(ref), str(path))) for c, m in caught]


def _late(bad_line: str, n: int = 400) -> bytes:
    """``n`` lines in plain form with a tab in the first (so the line parser
    takes the file) and ``bad_line`` as line ``n - 1``."""
    lines = [f"{'+1' if i % 2 else '-1'} {i % 7 + 1}:0.{i}" for i in range(n)]
    lines[0] = lines[0].replace(" ", "\t")
    lines[n - 2] = bad_line
    return ("\n".join(lines) + "\n").encode("utf-8")


_FALLBACK_INPUTS = {
    "comments": (FIXTURES / "comments.libsvm").read_bytes(),
    "crlf": b"# header\r\n+1 1:1 3:0.5\r\n\r\n-1 2:-1 # tail\r\n",
    "lone-cr": b"+1 1:1\r-1 2:1\r\r0 3:2",
    "tabs": b"+1\t1:1\t2:2\n-1 \t 3:0.25\n",
    "other-line-breaks": "+1 1:1\x0c-1 2:1\u2028+1 3:1\x85-1 1:2\n".encode("utf-8"),
    "late-malformed": _late("+1 2:x"),
    "late-duplicate": _late("-1 4:1 4:2"),
    "late-bad-utf8": _late("+1 1:1") + b"-1 2:\xff\n",
    "gzip-crlf": gzip.compress(b"# c\r\n+1 1:1\r\n-1 2:2\r\n"),
    "gzip-late-malformed": gzip.compress(_late("+1 0:1")),
}


class TestReadOnce:
    """The loader reads a file's bytes once; the line parser splits those
    bytes as a text-mode read does."""

    @pytest.mark.parametrize("name", sorted(_FALLBACK_INPUTS))
    def test_line_split_matches_text_mode_read(self, tmp_path, monkeypatch, name):
        path = tmp_path / "in.libsvm"
        path.write_bytes(_FALLBACK_INPUTS[name])
        parse_fast = s2ml.data._parse_fast
        taken = []
        monkeypatch.setattr(s2ml.data, "_parse_fast", lambda held, n_cols: (
            taken.append(parse_fast(held, n_cols)) or taken[-1]))
        for hint in (None, 9):
            assert _outcome(path, hint) == _text_mode_outcome(
                monkeypatch, tmp_path, path, hint)
        assert taken == [None, None]  # the line parser ran both times

    @pytest.mark.parametrize("name", ["comments", "gzip-crlf", "plain-form"])
    def test_file_opened_once(self, tmp_path, monkeypatch, name):
        path = tmp_path / "in.libsvm"
        path.write_bytes(b"+1 1:1\n-1 2:1\n" if name == "plain-form"
                         else _FALLBACK_INPUTS[name])
        real_open = builtins.open
        opened = []

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file) == path:
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        load_dataset(path).validate()
        assert len(opened) == 1


def _gzip_inputs() -> dict[str, bytes]:
    packed = gzip.compress(b"+1 1:0.5 3:2\n-1 2:1\n" * 50)
    bad_crc = bytearray(packed)
    bad_crc[-8] ^= 0xFF  # the CRC-32 field of the trailer
    return {
        "truncated": packed[:len(packed) // 2],
        "bad-crc": bytes(bad_crc),
        "multi-member": packed + gzip.compress(b"+1 4:1\n"),
        "nul-padding": packed + b"\0" * 7,
    }


_GZIP_INPUTS = _gzip_inputs()


class TestGunzip:
    """The one-call gunzip reads what a streamed GzipFile read does, and
    fails where it fails."""

    @staticmethod
    def _outcome(read):
        try:
            return read()
        except (EOFError, OSError) as exc:  # BadGzipFile is an OSError
            return type(exc)

    @pytest.mark.parametrize("name", sorted(_GZIP_INPUTS))
    def test_read_matches_gzipfile(self, tmp_path, name):
        path = tmp_path / "in.libsvm.gz"
        path.write_bytes(_GZIP_INPUTS[name])

        def streamed():
            with gzip.GzipFile(path) as gz:
                return gz.read()

        expect = self._outcome(streamed)
        assert self._outcome(lambda: s2ml.data._read(path)) == expect
        if name == "truncated":
            assert expect is EOFError
        elif name == "bad-crc":
            assert expect is gzip.BadGzipFile
        else:
            assert isinstance(expect, bytes)

    @pytest.mark.parametrize("name", ["truncated", "bad-crc"])
    def test_load_error_names_the_path(self, tmp_path, name):
        path = tmp_path / "in.libsvm.gz"
        path.write_bytes(_GZIP_INPUTS[name])
        with pytest.raises(gzip.BadGzipFile) as info:
            load_dataset(path)
        if name == "truncated":
            assert str(info.value).startswith(f"{path}: ")


class TestCorruptGzip:
    """A gzip stream that fails to inflate raises BadGzipFile naming the
    path, whichever part of it is corrupt."""

    @pytest.mark.parametrize("kind, cause", [("body", zlib.error),
                                             ("crc", gzip.BadGzipFile),
                                             ("length", gzip.BadGzipFile)],
                             ids=["body", "crc", "length"])
    def test_error_names_the_path(self, tmp_path, kind, cause):
        path = tmp_path / "in.libsvm.gz"
        path.write_bytes(corrupt_gzip((FIXTURES / "train1000.libsvm").read_bytes(), kind))
        with pytest.raises(gzip.BadGzipFile) as info:
            load_dataset(path)
        assert str(info.value).startswith(f"{path}: ")
        assert type(info.value.__cause__) is cause


def _spy_parse_fast(monkeypatch) -> list:
    """Record what each ``_parse_fast`` call returns (None: it declined)."""
    parse_fast = s2ml.data._parse_fast
    taken = []
    monkeypatch.setattr(s2ml.data, "_parse_fast", lambda held, n_cols: (
        taken.append(parse_fast(held, n_cols)) or taken[-1]))
    return taken


def _place(byte: bytes, where: str) -> bytes:
    """40 lines in plain form with ``byte`` in the first or the last line
    (in place of the space after the label, or before the line end), or as
    the file's final byte."""
    lines = [f"{'+1' if i % 2 else '-1'} {i % 7 + 1}:0.{i} 9:{i}".encode()
             for i in range(40)]
    line = 0 if where.startswith("first") else -1
    if where.endswith("separator"):
        lines[line] = lines[line].replace(b" ", byte, 1)
    elif where.endswith("end"):
        lines[line] += byte
    text = b"\n".join(lines) + b"\n"
    return text + byte if where == "final byte" else text


class TestFastPathPreconditions:
    """The file-level byte check, the separators found as bytes <= 0x20 and
    the byte comparison of canonical labels give what the line parser
    gives."""

    @pytest.mark.parametrize("where", ["first separator", "first end",
                                       "last separator", "last end", "final byte"])
    @pytest.mark.parametrize("byte", [b"\t", b"#", b"\r", b"\x7f", b"\xc3", b"\x01"],
                             ids=["tab", "hash", "cr", "del", "c3", "soh"])
    def test_disallowed_byte_declined(self, tmp_path, monkeypatch, byte, where):
        # small blocks: the byte sits only in the first or only in the last one
        monkeypatch.setattr(s2ml.data, "_BLOCK_BYTES", 64)
        path = tmp_path / "in.libsvm"
        path.write_bytes(_place(byte, where))
        expected = [_line_parser_outcome(monkeypatch, path, hint) for hint in (None, 12)]
        taken = _spy_parse_fast(monkeypatch)
        assert [_outcome(path, hint) for hint in (None, 12)] == expected
        assert taken == [None, None]

    @pytest.mark.parametrize("block_bytes", [None, 16])
    @pytest.mark.parametrize("other", [None, "+0", "-0", "1.0", "01", "+01", "1e0"])
    def test_canonical_labels_mixed_with(self, tmp_path, monkeypatch, other, block_bytes):
        if block_bytes is not None:  # the other form in a block of its own
            monkeypatch.setattr(s2ml.data, "_BLOCK_BYTES", block_bytes)
        labels = ["+1", "-1", "1", "0", other, "-1", "+1", "1", "0"]
        path = tmp_path / "in.libsvm"
        path.write_text("".join(f"{label} {i + 1}:0.5\n"
                                for i, label in enumerate(labels) if label))
        expected = _line_parser_outcome(monkeypatch, path, None)
        taken = _spy_parse_fast(monkeypatch)
        assert _outcome(path, None) == expected
        assert taken[0] is not None

    @pytest.mark.parametrize("block_bytes", [None, 16])
    def test_only_zero_labels(self, tmp_path, monkeypatch, block_bytes):
        if block_bytes is not None:
            monkeypatch.setattr(s2ml.data, "_BLOCK_BYTES", block_bytes)
        path = tmp_path / "in.libsvm"
        path.write_bytes(b"0 1:1\n0 2:0.5 3:2\n0\n0 1:-1")
        expected = _line_parser_outcome(monkeypatch, path, None)
        taken = _spy_parse_fast(monkeypatch)
        result, caught = _outcome(path, None)
        assert (result, caught) == expected
        assert taken[0] is not None
        assert np.frombuffer(result[2][1], dtype=np.int64).tolist() == [-1] * 4
        assert caught == [(UserWarning, f"{path}: label '0' mapped to -1")]


def _dataset(n_rows, n_cols, offsets, cols, vals, labels=None):
    """A Dataset over hand-written CSR arrays, not yet validated."""
    features = Features((np.array(vals, dtype=np.float64), cols, offsets),
                        shape=(n_rows, n_cols))
    return Dataset(features, [1] * n_rows if labels is None else labels)


class TestRowsInput:
    # row inputs beyond parse_libsvm_line's (int, [(int, float)]) pairs:
    # other numeric types, unsorted rows and the duplicate-index error
    @pytest.mark.parametrize("rows, expected", [
        ([(1.0, [(2, 0.5)])], ([1], [0, 1], [1], [0.5])),
        ([(-1, [(np.int64(3), 0.5), (np.int64(1), 2.0)])],
         ([-1], [0, 2], [0, 2], [2.0, 0.5])),
        ([(1, [(1, 2), (4, -3)])], ([1], [0, 2], [0, 3], [2.0, -3.0])),
        ([(1, [(1, 1.0)]), (-1, [(9, 1.0), (2, 2.0), (5, 3.0)])],
         ([1, -1], [0, 1, 4], [0, 1, 4, 8], [1.0, 2.0, 3.0, 1.0])),
        ([(1, [(1, 1.0)]), (-1, [(7, 1.0), (4, 2.0), (7, 3.0), (4, 4.0)])],
         "line 2: duplicate feature index 4"),
    ], ids=["float-label", "numpy-int-index", "int-values", "unsorted", "duplicate"])
    def test_accepted_inputs(self, rows, expected):
        if isinstance(expected, str):
            with pytest.raises(LibsvmParseError, match=expected) as info:
                dataset_from_rows(rows)
            assert info.value.lineno == 2
            return
        labels, offsets, cols, vals = expected
        ds = dataset_from_rows(rows)
        assert ds.labels.tolist() == labels and ds.labels.dtype == np.int64
        m = ds.features
        assert m.row_offsets.tolist() == offsets
        assert m.col_indices.tolist() == cols and m.col_indices.dtype == np.int32
        assert m.values.tolist() == vals and m.values.dtype == np.float64

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            dataset_from_rows([(1, [(1, 1.0)]), (-1, [(2, value)])])
        ds = _dataset(1, 2, [0, 1], [1], [value])
        with pytest.raises(ValueError, match="finite"):
            ds.validate()

    def test_index_dtype_follows_the_shape(self, tmp_path):
        small = dataset_from_rows([(1, [(1, 0.5), (4, 2.0)])])
        assert small.features.indices.dtype == small.features.indptr.dtype == np.int32
        wide = dataset_from_rows([(1, [(3, 0.5), (3_000_000_000, -1.5)])])
        m = wide.features
        assert m.indices.dtype == m.indptr.dtype == np.int64
        assert wide.n_cols == 3_000_000_000
        assert m.indices.tolist() == [2, 2_999_999_999]
        wide.validate()
        p = tmp_path / "wide.libsvm"
        p.write_text(serialize_dataset(wide))
        back = load_dataset(p)
        assert back == wide and back.features.indices.dtype == np.int64


class TestSerialize:
    def test_single_row(self):
        ds = dataset_from_rows([(1, [(1, 0.5)])])
        assert serialize_dataset(ds) == "+1 1:0.5\n"

    def test_empty_row(self):
        ds = dataset_from_rows([(-1, [])])
        assert serialize_dataset(ds) == "-1\n"

    def test_round_trip_random(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            n = int(rng.integers(0, 12))
            d = int(rng.integers(1, 9))
            ds = dataset_from_rows(random_rows(rng, n, d), n_cols=None)
            text = serialize_dataset(ds)
            back = dataset_from_rows(
                parse_libsvm_line(line) for line in text.splitlines())
            assert back == ds

    def test_round_trip_through_file(self, tmp_path):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, 30, 10)
        p = tmp_path / "rt.libsvm"
        p.write_text(serialize_dataset(ds))
        # the file loader widens to the hint, so pass the original width
        assert load_dataset(p, n_cols_hint=ds.n_cols) == ds


class TestSparseMatrix:
    def test_validate_rejects_bad_offsets(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            _dataset(2, 2, [0, 2, 1], [0, 1], [1.0, 2.0]).validate()

    def test_validate_rejects_unsorted_row(self):
        ds = _dataset(1, 3, [0, 2], [2, 0], [1.0, 2.0])
        with pytest.raises(ValueError, match="strictly increase"):
            ds.validate()

    def test_validate_rejects_out_of_range_column(self):
        ds = _dataset(1, 2, [0, 1], [5], [1.0])
        with pytest.raises(ValueError, match="indices must be < 2"):
            ds.validate()

    def test_validate_accepts_empty_rows(self):
        _dataset(3, 4, [0, 0, 2, 2], [1, 3], [1.0, -1.0]).validate()

    def test_arrays_frozen(self):
        m = _dataset(1, 2, [0, 1], [0], [1.0]).features
        assert m.row_offsets is m.indptr and m.col_indices is m.indices
        assert m.values is m.data
        for arr in (m.data, m.indices, m.indptr):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_labels_must_be_binary(self):
        ds = _dataset(1, 1, [0, 0], [], [], labels=[2])
        with pytest.raises(ValueError, match="-1 or \\+1"):
            ds.validate()
