"""Training data: loading, validation, splitting, label encoding.

Two on-disk formats are understood. Dense CSV has one instance per row,
label in the first field and the d feature values after it. The sparse
format is the usual ``label idx:val idx:val ...`` with 1-based indices;
unmentioned coordinates are zero.

Datasets are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import check_matrix, is_int

TASKS = ("regression", "binary", "multiclass")

# Class ids must be below this. A multiclass head fits one weight column
# per class and its target holds m x n_classes values, so an id such as
# 1e9 would ask for gigabytes; the cap also keeps every id exact in float64.
MAX_CLASSES = 10_000


class DatasetFormatError(Exception):
    """Raised for unparsable or inconsistent input files."""


@dataclass(frozen=True)
class LabeledDataset:
    """Instance matrix plus labels and the task they encode.

    ``labels`` holds reals for regression, -1/+1 for binary, and class
    ids 0..n_classes-1 for multiclass. ``distinct`` records whether all
    rows are pairwise distinct; the exact-interpolation guarantees only
    hold when it is True, but training proceeds (with a warning) either
    way.
    """

    X: np.ndarray
    labels: np.ndarray
    task: str
    n_classes: int = 0
    distinct: bool = True

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def _rows_distinct(X: np.ndarray) -> bool:
    """Whether the finite rows of X are pairwise distinct (-0.0 == 0.0). Equal
    rows hash equal once + 0.0 turns -0.0 to 0.0; only a collision is sorted."""
    m = X.shape[0]
    if m < 2 or len({hash((row + 0.0).tobytes()) for row in X}) == m:
        return True
    return np.unique(X, axis=0).shape[0] == m


def _is_class_ids(labels: np.ndarray) -> bool:
    return bool((labels == np.round(labels)).all() and labels.min() >= 0)


def make_dataset(X, labels, task: str | None = None, n_classes: int | None = None) -> LabeledDataset:
    """Validated dataset from arrays; the task is inferred when not given.

    Inference: labels all in {-1,+1} mean binary, nonnegative integers
    mean multiclass, anything else is regression. Either way the labels
    must fit the task, and ``n_classes`` may only be given for multiclass:
    then it must pass :func:`~basis_learner.linalg.is_int`, exceed every
    class id and be at most ``MAX_CLASSES``, otherwise k = max+1 (at least
    2). X must pass :func:`~basis_learner.linalg.check_matrix` and hold a
    row and a feature column.
    """
    X = check_matrix(X, "X")
    labels = np.asarray(labels, dtype=np.float64)
    if labels.ndim != 1 or labels.shape[0] != X.shape[0]:
        raise ValueError("labels must be a vector with one entry per row of X")
    if X.shape[0] < 1:
        raise ValueError("dataset must contain at least one instance")
    if X.shape[1] < 1:
        raise ValueError("dataset must have at least one feature column")
    if not np.isfinite(labels).all():
        raise ValueError("dataset contains non-finite values")

    binary = bool(np.isin(labels, (-1.0, 1.0)).all())
    if task is None:
        task = "binary" if binary else "multiclass" if _is_class_ids(labels) else "regression"
    elif task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    elif task == "binary" and not binary:
        raise ValueError("binary labels must be -1 or +1")
    elif task == "multiclass" and not _is_class_ids(labels):
        raise ValueError("multiclass labels must be nonnegative integers")
    if n_classes is not None and task != "multiclass":
        raise ValueError(f"n_classes given but the task is {task}, not multiclass")
    if n_classes is not None and not is_int(n_classes):
        raise ValueError(f"n_classes must be an int, got {n_classes!r}")

    k = 0
    if task == "multiclass":
        if labels.max() >= MAX_CLASSES:
            raise ValueError(f"class id {float(labels.max())!r} is not below MAX_CLASSES={MAX_CLASSES}")
        labels = labels.astype(np.int64)
        k = int(labels.max()) + 1
        if n_classes is not None:
            if n_classes < k:
                raise ValueError(f"class id {k - 1} out of range for n_classes={n_classes}")
            if n_classes > MAX_CLASSES:
                raise ValueError(f"n_classes={n_classes} is above MAX_CLASSES={MAX_CLASSES}")
            k = n_classes
        k = max(k, 2)
    X = np.ascontiguousarray(X)
    X.setflags(write=False)
    labels.setflags(write=False)
    return LabeledDataset(X=X, labels=labels, task=task, n_classes=k, distinct=_rows_distinct(X))


def _data_lines(lines, skip_header: bool):
    """(line number from 1, stripped text) of each line that holds data:
    blank lines and, with ``skip_header``, the first line are skipped."""
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if line and not (lineno == 1 and skip_header):
            yield lineno, line


def _parse_csv(lines, path: str, skip_header: bool):
    rows = []
    labels = []
    width = None
    for lineno, line in _data_lines(lines, skip_header):
        fields = line.split(",")
        if width is None:
            width = len(fields)
            if width < 2:
                raise DatasetFormatError(f"{path}:{lineno}: need a label and at least one feature")
        elif len(fields) != width:
            raise DatasetFormatError(
                f"{path}:{lineno}: expected {width} fields, got {len(fields)}"
            )
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise DatasetFormatError(f"{path}:{lineno}: non-numeric field") from None
        labels.append(values[0])
        rows.append(values[1:])
    return np.array(rows), labels


def _parse_sparse(lines, path: str, skip_header: bool, dims: int | None):
    entries = []  # (label, {index: value}) with 0-based indices
    labels = []
    max_idx = 0
    for lineno, line in _data_lines(lines, skip_header):
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise DatasetFormatError(f"{path}:{lineno}: non-numeric label") from None
        feat = {}
        for tok in tokens[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise DatasetFormatError(f"{path}:{lineno}: expected idx:val, got {tok!r}")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise DatasetFormatError(f"{path}:{lineno}: bad pair {tok!r}") from None
            if idx < 1:
                raise DatasetFormatError(f"{path}:{lineno}: indices are 1-based, got {idx}")
            if dims is not None and idx > dims:
                raise DatasetFormatError(
                    f"{path}:{lineno}: index {idx} exceeds the feature count {dims}"
                )
            if idx - 1 in feat:
                raise DatasetFormatError(f"{path}:{lineno}: index {idx} repeated")
            feat[idx - 1] = val
            max_idx = max(max_idx, idx)
        labels.append(label)
        entries.append(feat)
    d = dims if dims is not None else max_idx
    if entries and d == 0:
        raise DatasetFormatError(f"{path}: no feature indices seen and no dimension given")
    try:
        X = np.zeros((len(entries), d))
    except (MemoryError, ValueError):
        raise DatasetFormatError(
            f"{path}: {len(entries)} x {d} feature matrix is too large to allocate"
        ) from None
    for row, feat in zip(X, entries):
        for i, v in feat.items():
            row[i] = v
    return X, labels


def load_dense(
    path,
    format: str = "csv",
    header: bool = False,
    dims: int | None = None,
    task: str | None = None,
) -> LabeledDataset:
    """Load a dataset file in ``csv`` or ``sparse`` format.

    ``header`` skips the first line; ``dims`` fixes the dimension of
    sparse data (otherwise the largest index observed is used) and is the
    width a CSV file must have; ``task`` overrides label-based task
    inference. ``dims`` must pass :func:`~basis_learner.linalg.is_int`.
    """
    if format not in ("csv", "sparse"):
        raise ValueError(f"unknown format {format!r}")
    if dims is not None and not is_int(dims):
        raise ValueError(f"dims must be an int, got {dims!r}")
    if dims is not None and dims < 1:
        raise ValueError(f"dims must be positive, got {dims}")
    path = str(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise DatasetFormatError(f"{path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise DatasetFormatError(f"{path}: not UTF-8 text at byte {e.start}") from None
    if format == "csv":
        X, labels = _parse_csv(lines, path, header)
    else:
        X, labels = _parse_sparse(lines, path, header, dims)
    if not labels:
        raise DatasetFormatError(f"{path}: empty dataset")
    if dims is not None and X.shape[1] != dims:
        raise DatasetFormatError(f"{path}: expected {dims} features, got {X.shape[1]}")
    try:
        return make_dataset(X, np.array(labels), task=task)
    except ValueError as e:
        raise DatasetFormatError(f"{path}: {e}") from None


@dataclass(frozen=True)
class SplitSpec:
    """Validation rows are the tail of the training file, never shuffled."""

    validation_count: int


def split(ds: LabeledDataset, spec: SplitSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Split off the last ``validation_count`` rows as a validation set.

    Row order, task and class count are kept on both sides; a zero count
    gives an empty validation set. A part of distinct rows is distinct,
    else its own rows decide. The count must pass
    :func:`~basis_learner.linalg.is_int`.
    """
    n = spec.validation_count
    if not (is_int(n) and 0 <= n < ds.m):
        raise ValueError(f"validation_count must be an int in [0, {ds.m - 1}], got {n!r}")

    def part(rows: slice) -> LabeledDataset:
        X = ds.X[rows]
        return replace(ds, X=X, labels=ds.labels[rows], distinct=ds.distinct or _rows_distinct(X))

    cut = ds.m - n
    return part(slice(cut)), part(slice(cut, None))


def target_matrix(ds: LabeledDataset) -> np.ndarray:
    """Label encoding the output layer is fit against.

    Regression and binary give the m x 1 label column; multiclass gives
    the m x k indicator matrix with a single 1 per row.
    """
    if ds.task == "multiclass":
        V = np.zeros((ds.m, ds.n_classes))
        V[np.arange(ds.m), ds.labels] = 1.0
        return V
    return np.asarray(ds.labels, dtype=np.float64)[:, None]
