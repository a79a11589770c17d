import gzip
from pathlib import Path

import numpy as np
import pytest

from helpers import random_dataset, random_rows
from s2ml.data import (Dataset, LibsvmParseError, SparseMatrix,
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
        assert m.col_indices.tolist() == cols and m.col_indices.dtype == np.int64
        assert m.values.tolist() == vals and m.values.dtype == np.float64


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
        m = SparseMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 2.0])
        with pytest.raises(ValueError):
            m.validate()

    def test_validate_rejects_unsorted_row(self):
        m = SparseMatrix(1, 3, [0, 2], [2, 0], [1.0, 2.0])
        with pytest.raises(ValueError, match="strictly increase"):
            m.validate()

    def test_validate_rejects_out_of_range_column(self):
        m = SparseMatrix(1, 2, [0, 1], [5], [1.0])
        with pytest.raises(ValueError, match="out of range"):
            m.validate()

    def test_validate_accepts_empty_rows(self):
        m = SparseMatrix(3, 4, [0, 0, 2, 2], [1, 3], [1.0, -1.0])
        m.validate()

    def test_arrays_frozen(self):
        m = SparseMatrix(1, 2, [0, 1], [0], [1.0])
        with pytest.raises(ValueError):
            m.values[0] = 3.0

    def test_labels_must_be_binary(self):
        m = SparseMatrix(1, 1, [0, 0], [], [])
        ds = Dataset(m, np.array([2]))
        with pytest.raises(ValueError, match="-1 or \\+1"):
            ds.validate()

