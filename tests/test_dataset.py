import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from basis_learner.dataset import (
    MAX_CLASSES,
    DatasetFormatError,
    LabeledDataset,
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

    @pytest.mark.parametrize("label", ["1e300", str(2**63)])
    def test_class_id_beyond_float64_integers_rejected(self, tmp_path, label):
        with pytest.raises(DatasetFormatError, match="class id .* is not below MAX_CLASSES"):
            load_dense(write(tmp_path, f"{label},0.5\n0,1.5\n"))

    def test_dims_must_match_the_width(self, tmp_path):
        p = write(tmp_path, "1,0.5,0.25\n-1,0.1,0.9\n")
        assert load_dense(p, dims=2).dim == 2
        with pytest.raises(DatasetFormatError,
                           match=re.escape(f"{p}: expected 7 features, got 2")):
            load_dense(p, dims=7)

    def test_task_override(self, tmp_path):
        ds = load_dense(write(tmp_path, "1,1\n0,2\n"), task="regression")
        assert ds.task == "regression"

    def test_non_utf8_names_byte(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"1,0.5\n-1,\xff\n")
        with pytest.raises(DatasetFormatError, match=r"d\.csv: not UTF-8 text at byte 9"):
            load_dense(p)


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

    # sizes no machine can allocate; one that might fit could exhaust memory
    @pytest.mark.parametrize("idx", [99999999999, 10**20])
    def test_unallocatable_index_rejected(self, tmp_path, idx):
        p = write(tmp_path, f"1 {idx}:1\n", "d.sp")
        with pytest.raises(DatasetFormatError, match=rf"d\.sp: 1 x {idx} .* too large"):
            load_dense(p, format="sparse")

    def test_unallocatable_dims_rejected(self, tmp_path):
        p = write(tmp_path, "1 1:1.0\n-1 2:1.0\n", "d.sp")
        with pytest.raises(DatasetFormatError, match=r"d\.sp: 2 x 100000000000 .* too large"):
            load_dense(p, format="sparse", dims=10**11)

    def test_nonpositive_dims_rejected(self, tmp_path):
        p = write(tmp_path, "1\n", "d.sp")
        with pytest.raises(ValueError, match="dims must be positive"):
            load_dense(p, format="sparse", dims=0)


class TestDataLines:
    @pytest.mark.parametrize("fmt, good, bad", [("csv", "1,2", "1,x"), ("sparse", "1 1:2", "1 1:x")])
    def test_line_numbers_count_header_and_blank_lines(self, tmp_path, fmt, good, bad):
        p = write(tmp_path, f"header\n\n{good}\n   \n{bad}\n", "d.txt")
        assert load_dense(write(tmp_path, f"header\n\n{good}\n   \n", "ok.txt"),
                          format=fmt, header=True).m == 1
        with pytest.raises(DatasetFormatError, match=r"d\.txt:5: "):
            load_dense(p, format=fmt, header=True)


# field and token material: mostly well-formed, with the corner cases a
# loader must refuse (non-finite values, junk, unallocatable indices)
NUMBERS = st.one_of(
    st.integers(-3, 3).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", " ", "1e999", "nan", "1_0", "0x1", "+", "-"]),
)
FIELDS = st.one_of(NUMBERS, st.text(max_size=4))
INDICES = st.one_of(st.integers(1, 50), st.sampled_from([99999999999, 10**20, 2**63]))
PAIRS = st.one_of(
    st.tuples(INDICES, NUMBERS).map(lambda p: f"{p[0]}:{p[1]}"),
    st.text(max_size=5),
)
CSV_TEXT = st.one_of(
    st.lists(st.lists(FIELDS, min_size=1, max_size=5).map(",".join), max_size=6).map("\n".join),
    st.text(max_size=40),
)
SPARSE_TEXT = st.one_of(
    st.lists(st.tuples(FIELDS, st.lists(PAIRS, max_size=4)).map(
        lambda r: " ".join([r[0], *r[1]])), max_size=6).map("\n".join),
    st.text(max_size=40),
)


class TestLoaderProperty:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(st.tuples(st.just("csv"), CSV_TEXT, st.none()),
                     st.tuples(st.just("sparse"), SPARSE_TEXT,
                               st.one_of(st.none(), INDICES))),
           st.booleans())
    def test_text_loads_or_raises_format_error(self, tmp_path, case, header):
        fmt, text, dims = case
        p = tmp_path / "d.txt"
        p.write_text(text, encoding="utf-8")
        try:
            ds = load_dense(p, format=fmt, header=header, dims=dims)
        except DatasetFormatError:
            return
        assert isinstance(ds, LabeledDataset)
        assert ds.X.shape[0] == ds.labels.shape[0] >= 1
        assert np.isfinite(ds.X).all()


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
        # one rule whether the task is given or inferred
        for task in ("multiclass", None):
            with pytest.raises(ValueError, match="class id 3 out of range for n_classes=2"):
                make_dataset([[0.0], [1.0]], [0.0, 3.0], task=task, n_classes=2)
            with pytest.raises(ValueError, match="class id 2 out of range for n_classes=2"):
                make_dataset([[0.0], [1.0], [2.0]], [0, 1, 2], task=task, n_classes=2)

    @pytest.mark.parametrize("given", [True, False])
    @pytest.mark.parametrize("task,labels", [("binary", [1.0, -1.0]),
                                             ("regression", [0.5, -1.5])])
    def test_n_classes_refused_unless_multiclass(self, task, labels, given):
        with pytest.raises(ValueError, match=f"n_classes given but the task is {task}"):
            make_dataset([[0.0], [1.0]], labels, task=task if given else None, n_classes=5)

    @pytest.mark.parametrize("label,text", [(1e300, "1e+300"),
                                            (2.0**63, "9.223372036854776e+18")])
    @pytest.mark.parametrize("task", [None, "multiclass"])
    def test_class_id_beyond_float64_integers_rejected(self, label, text, task):
        with pytest.raises(ValueError, match=re.escape(f"class id {text} is not below MAX_CLASSES")):
            make_dataset([[0.0], [1.0]], [label, 0.0], task=task)

    @pytest.mark.parametrize("label", [float(MAX_CLASSES), 1e9])
    @pytest.mark.parametrize("task", [None, "multiclass"])
    def test_class_id_at_or_above_cap_rejected(self, label, task):
        # a target with one column per class would hold m * (label + 1) values
        with pytest.raises(ValueError, match=re.escape(f"class id {label!r} is not below")):
            make_dataset([[0.0], [1.0]], [label, 0.0], task=task)

    def test_largest_exact_class_id_accepted(self):
        ds = make_dataset([[0.0], [1.0]], [MAX_CLASSES - 1, 0.0])
        assert ds.labels[0] == MAX_CLASSES - 1 and ds.n_classes == MAX_CLASSES
        ds = make_dataset([[0.0], [1.0]], [1.0, 0.0], n_classes=MAX_CLASSES)
        assert ds.n_classes == MAX_CLASSES

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_dataset(np.zeros((0, 2)), np.zeros(0))

    def test_rejects_no_feature_columns(self):
        # a model of input_dim 0 could be written but never loaded again
        with pytest.raises(ValueError, match="at least one feature column"):
            make_dataset(np.zeros((5, 0)), np.arange(5.0))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            make_dataset([[np.inf]], [0.0])

    def test_distinct_flag(self):
        assert make_dataset([[1.0], [2.0]], [0.1, 0.2]).distinct
        assert not make_dataset([[1.0], [1.0]], [0.1, 0.2]).distinct

    def test_signed_zeros_are_equal_rows(self):
        # -0.0 == 0.0, so rows differing only in the sign of a zero repeat
        assert not make_dataset([[0.0, 1.0], [-0.0, 1.0]], [0.1, 0.2]).distinct
        assert not make_dataset([[1.0, -0.0], [2.0, 3.0], [1.0, 0.0]], [0.1, 0.2, 0.3]).distinct

    def test_distinct_flag_matches_a_sort(self):
        # many rows, few of them repeated: the flag agrees with np.unique
        rng = np.random.default_rng(5)
        X = rng.integers(0, 2, size=(300, 12)).astype(float)
        for rows in (X[:40], X, np.unique(X, axis=0)):
            expected = np.unique(rows, axis=0).shape[0] == rows.shape[0]
            assert make_dataset(rows, np.zeros(len(rows)), task="regression").distinct == expected

    def test_non_finite_x_named(self):
        with pytest.raises(ValueError, match="X must be finite"):
            make_dataset([[0.0], [np.nan]], [0.1, 0.2])


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

    def test_repeat_in_the_validation_part(self):
        ds = make_dataset([[0.0], [1.0], [2.0], [2.0]], [0.1, 0.2, 0.3, 0.4])
        tr, va = split(ds, SplitSpec(2))
        assert not ds.distinct
        assert tr.distinct
        assert not va.distinct

    def test_repeat_across_the_cut(self):
        ds = make_dataset([[0.0], [1.0], [2.0], [1.0]], [0.1, 0.2, 0.3, 0.4])
        tr, va = split(ds, SplitSpec(2))
        assert not ds.distinct
        assert tr.distinct and va.distinct

    def test_parts_of_distinct_rows_are_distinct(self):
        ds = make_dataset(np.arange(6.0)[:, None], np.arange(6.0), task="regression")
        for count in range(6):
            assert all(part.distinct for part in split(ds, SplitSpec(count)))

    def test_parts_keep_task_and_classes(self):
        ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 2, 1, 0], n_classes=4)
        for part in split(ds, SplitSpec(1)):
            assert (part.task, part.n_classes) == ("multiclass", 4)

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


def _count_argument(where, value, tmp_path):
    if where == "n_classes":
        return make_dataset(np.eye(3), [0.0, 1.0, 2.0], task="multiclass", n_classes=value)
    if where == "validation_count":
        return split(make_dataset(np.eye(3), [0.1, 1.0, 2.0]), SplitSpec(value))
    return load_dense(write(tmp_path, "1,0.5,0.25\n-1,0.1,0.9\n"), dims=value)


class TestCountArguments:
    # a count from outside must pass linalg.is_int: a Python int, not a bool
    @pytest.mark.parametrize("where,value,msg", [
        ("n_classes", 3.5, r"n_classes must be an int, got 3\.5"),
        ("n_classes", True, "n_classes must be an int, got True"),
        ("n_classes", np.int64(3), r"n_classes must be an int, got np\.int64\(3\)"),
        ("n_classes", MAX_CLASSES + 1, f"n_classes={MAX_CLASSES + 1} is above MAX_CLASSES"),
        ("n_classes", 10**12, f"n_classes={10**12} is above MAX_CLASSES={MAX_CLASSES}"),
        ("validation_count", 2.5, r"validation_count must be an int in \[0, 2\], got 2\.5"),
        ("validation_count", True, r"validation_count must be an int in \[0, 2\], got True"),
        ("dims", 2.0, r"dims must be an int, got 2\.0"),
        ("dims", True, "dims must be an int, got True"),
    ])
    def test_refused(self, tmp_path, where, value, msg):
        with pytest.raises(ValueError, match=msg):
            _count_argument(where, value, tmp_path)


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
