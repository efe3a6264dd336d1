import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from basis_learner.dataset import (
    DatasetFormatError,
    SplitSpec,
    load_dense,
    make_dataset,
    split,
    target_matrix,
)


def write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestCsvLoading:
    def test_two_line_binary(self, tmp_path):
        ds = load_dense(write(tmp_path, "1,0.5,0.25\n-1,0.1,0.9\n"))
        assert (ds.m, ds.dim, ds.task) == (2, 2, "binary")
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0])

    def test_header_skipped(self, tmp_path):
        p = write(tmp_path, "label,f1\n1,0.5\n-1,0.25\n")
        ds = load_dense(p, header=True)
        assert ds.m == 2

    def test_ragged_row_names_line(self, tmp_path):
        p = write(tmp_path, "1,0.5,0.25\n-1,0.1\n")
        with pytest.raises(DatasetFormatError, match=":2:"):
            load_dense(p)

    def test_non_numeric_names_line(self, tmp_path):
        p = write(tmp_path, "1,0.5\n-1,oops\n")
        with pytest.raises(DatasetFormatError, match=":2:"):
            load_dense(p)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="empty"):
            load_dense(write(tmp_path, ""))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            load_dense(tmp_path / "nope.csv")

    def test_regression_inferred(self, tmp_path):
        ds = load_dense(write(tmp_path, "0.5,1\n0.7,2\n"))
        assert ds.task == "regression"

    def test_task_override(self, tmp_path):
        ds = load_dense(write(tmp_path, "1,1\n0,2\n"), task="regression")
        assert ds.task == "regression"


class TestSparseLoading:
    def test_indices_one_based_zeros_elsewhere(self, tmp_path):
        p = write(tmp_path, "3 1:0.5 7:1.0\n0 2:2.0\n", "d.sp")
        ds = load_dense(p, format="sparse")
        assert ds.dim == 7 and ds.task == "multiclass" and ds.n_classes == 4
        np.testing.assert_array_equal(ds.X[0], [0.5, 0, 0, 0, 0, 0, 1.0])
        np.testing.assert_array_equal(ds.X[1], [0, 2.0, 0, 0, 0, 0, 0])

    def test_dims_flag_fixes_width(self, tmp_path):
        p = write(tmp_path, "1 1:1.0\n-1 2:1.0\n", "d.sp")
        ds = load_dense(p, format="sparse", dims=5)
        assert ds.dim == 5

    def test_index_beyond_dims_rejected(self, tmp_path):
        p = write(tmp_path, "1 9:1.0\n", "d.sp")
        with pytest.raises(DatasetFormatError, match="exceeds"):
            load_dense(p, format="sparse", dims=4)

    def test_zero_index_rejected(self, tmp_path):
        p = write(tmp_path, "1 0:1.0\n", "d.sp")
        with pytest.raises(DatasetFormatError, match="1-based"):
            load_dense(p, format="sparse")

    def test_repeated_index_rejected(self, tmp_path):
        p = write(tmp_path, "1 1:0.5\n-1 2:1.0 3:0.5 2:4.0\n", "d.sp")
        with pytest.raises(DatasetFormatError, match=r"d\.sp:2: index 2 repeated"):
            load_dense(p, format="sparse")

    def test_malformed_pair_rejected(self, tmp_path):
        p = write(tmp_path, "1 3-0.5\n", "d.sp")
        with pytest.raises(DatasetFormatError, match=":1:"):
            load_dense(p, format="sparse")


class TestMakeDataset:
    def test_binary_inference(self):
        ds = make_dataset([[0.0], [1.0]], [1.0, -1.0])
        assert ds.task == "binary"

    def test_multiclass_inference(self):
        ds = make_dataset([[0.0], [1.0], [2.0]], [0.0, 2.0, 1.0])
        assert ds.task == "multiclass" and ds.n_classes == 3
        assert ds.labels.dtype == np.int64

    def test_binary_label_validation(self):
        with pytest.raises(ValueError):
            make_dataset([[0.0]], [2.0], task="binary")

    def test_multiclass_rejects_fractional(self):
        with pytest.raises(ValueError):
            make_dataset([[0.0]], [0.5], task="multiclass")

    def test_n_classes_floor(self):
        ds = make_dataset([[0.0], [1.0]], [0.0, 1.0], task="multiclass", n_classes=5)
        assert ds.n_classes == 5

    def test_n_classes_too_small(self):
        with pytest.raises(ValueError):
            make_dataset([[0.0], [1.0]], [0.0, 3.0], task="multiclass", n_classes=2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_dataset(np.zeros((0, 2)), np.zeros(0))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            make_dataset([[np.inf]], [0.0])

    def test_distinct_flag(self):
        assert make_dataset([[1.0], [2.0]], [0.1, 0.2]).distinct
        assert not make_dataset([[1.0], [1.0]], [0.1, 0.2]).distinct


class TestSplit:
    def test_tail_goes_to_validation(self):
        X = np.arange(10, dtype=float)[:, None]
        ds = make_dataset(X, X[:, 0], task="regression")
        tr, va = split(ds, SplitSpec(2))
        assert tr.m == 8 and va.m == 2
        np.testing.assert_array_equal(va.X[:, 0], [8.0, 9.0])
        np.testing.assert_array_equal(tr.X[:, 0], np.arange(8.0))

    def test_zero_count_identity(self, toy_regression):
        tr, va = split(toy_regression, SplitSpec(0))
        assert va.m == 0 and tr.m == toy_regression.m

    def test_full_count_rejected(self, toy_regression):
        with pytest.raises(ValueError):
            split(toy_regression, SplitSpec(toy_regression.m))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 29))
    def test_parts_reassemble(self, m, count):
        if count >= m:
            count = m - 1
        rng = np.random.default_rng(m * 31 + count)
        ds = make_dataset(rng.standard_normal((m, 2)), rng.standard_normal(m),
                          task="regression")
        tr, va = split(ds, SplitSpec(count))
        np.testing.assert_array_equal(np.vstack([tr.X, va.X]), ds.X)
        np.testing.assert_array_equal(np.concatenate([tr.labels, va.labels]), ds.labels)


class TestTargetMatrix:
    def test_binary_column(self):
        ds = make_dataset([[0.0], [1.0]], [1.0, -1.0])
        np.testing.assert_array_equal(target_matrix(ds), [[1.0], [-1.0]])

    def test_multiclass_indicator(self):
        ds = make_dataset([[0.0], [1.0], [2.0]], [0.0, 2.0, 2.0], n_classes=3)
        V = target_matrix(ds)
        np.testing.assert_array_equal(V, [[1, 0, 0], [0, 0, 1], [0, 0, 1]])
        assert (V.sum(axis=1) == 1).all()

    def test_regression_column(self):
        ds = make_dataset([[0.0]], [0.5], task="regression")
        np.testing.assert_array_equal(target_matrix(ds), [[0.5]])
