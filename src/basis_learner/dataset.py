"""Training data: loading, validation, splitting, label encoding.

Two on-disk formats are understood. Dense CSV has one instance per row,
label in the first field and the d feature values after it. The sparse
format is the usual ``label idx:val idx:val ...`` with 1-based indices;
unmentioned coordinates are zero.

Datasets are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TASKS = ("regression", "binary", "multiclass")


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
    if X.shape[0] < 2:
        return True
    return np.unique(X, axis=0).shape[0] == X.shape[0]


def _infer_task(labels: np.ndarray) -> tuple[str, int]:
    vals = np.unique(labels)
    if np.isin(vals, (-1.0, 1.0)).all():
        return "binary", 0
    if (labels == np.round(labels)).all() and labels.min() >= 0:
        return "multiclass", int(labels.max()) + 1
    return "regression", 0


def make_dataset(X, labels, task: str | None = None, n_classes: int | None = None) -> LabeledDataset:
    """Validated dataset from arrays; the task is inferred when not given.

    Inference: labels all in {-1,+1} mean binary, nonnegative integers
    mean multiclass with k = max+1, anything else is regression.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
    if labels.ndim != 1 or labels.shape[0] != X.shape[0]:
        raise ValueError("labels must be a vector with one entry per row of X")
    if X.shape[0] < 1:
        raise ValueError("dataset must contain at least one instance")
    if not (np.isfinite(X).all() and np.isfinite(labels).all()):
        raise ValueError("dataset contains non-finite values")

    if task is None:
        task, k = _infer_task(labels)
        if n_classes is not None:
            if task != "multiclass":
                raise ValueError("n_classes given but labels are not class ids")
            k = max(k, n_classes)
    else:
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}")
        k = 0
        if task == "binary":
            if not np.isin(np.unique(labels), (-1.0, 1.0)).all():
                raise ValueError("binary labels must be -1 or +1")
        elif task == "multiclass":
            if not ((labels == np.round(labels)).all() and labels.min() >= 0):
                raise ValueError("multiclass labels must be nonnegative integers")
            k = int(labels.max()) + 1
            if n_classes is not None:
                if n_classes < k:
                    raise ValueError(f"class id {k - 1} out of range for n_classes={n_classes}")
                k = n_classes

    if task == "multiclass":
        labels = labels.astype(np.int64)
        if k < 2:
            k = 2
    X = np.ascontiguousarray(X)
    X.setflags(write=False)
    labels.setflags(write=False)
    return LabeledDataset(X=X, labels=labels, task=task, n_classes=k, distinct=_rows_distinct(X))


def _parse_csv(lines, path: str, skip_header: bool):
    rows = []
    labels = []
    width = None
    for lineno, raw in enumerate(lines, 1):
        if lineno == 1 and skip_header:
            continue
        line = raw.strip()
        if not line:
            continue
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
    return rows, labels


def _parse_sparse(lines, path: str, skip_header: bool, dims: int | None):
    entries = []  # (label, {index: value}) with 0-based indices
    labels = []
    max_idx = 0
    for lineno, raw in enumerate(lines, 1):
        if lineno == 1 and skip_header:
            continue
        line = raw.strip()
        if not line:
            continue
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
                    f"{path}:{lineno}: index {idx} exceeds --dims {dims}"
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
    rows = []
    for feat in entries:
        row = [0.0] * d
        for i, v in feat.items():
            row[i] = v
        rows.append(row)
    return rows, labels


def load_dense(
    path,
    format: str = "csv",
    header: bool = False,
    dims: int | None = None,
    task: str | None = None,
) -> LabeledDataset:
    """Load a dataset file in ``csv`` or ``sparse`` format.

    ``header`` skips the first line; ``dims`` fixes the dimension of
    sparse data (otherwise the largest index observed is used); ``task``
    overrides label-based task inference.
    """
    if format not in ("csv", "sparse"):
        raise ValueError(f"unknown format {format!r}")
    path = str(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise DatasetFormatError(f"{path}: {e.strerror or e}") from None
    if format == "csv":
        rows, labels = _parse_csv(lines, path, header)
    else:
        rows, labels = _parse_sparse(lines, path, header, dims)
    if not rows:
        raise DatasetFormatError(f"{path}: empty dataset")
    try:
        return make_dataset(np.array(rows), np.array(labels), task=task)
    except ValueError as e:
        raise DatasetFormatError(f"{path}: {e}") from None


@dataclass(frozen=True)
class SplitSpec:
    """Validation rows are the tail of the training file, never shuffled."""

    validation_count: int


def split(ds: LabeledDataset, spec: SplitSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Split off the last ``validation_count`` rows as a validation set.

    Row order is preserved on both sides. A zero count returns the
    dataset unchanged together with an empty validation set.
    """
    n = spec.validation_count
    if n < 0 or n >= ds.m:
        raise ValueError(f"validation_count must be in [0, {ds.m - 1}], got {n}")
    cut = ds.m - n
    train = LabeledDataset(
        X=ds.X[:cut], labels=ds.labels[:cut], task=ds.task,
        n_classes=ds.n_classes, distinct=_rows_distinct(ds.X[:cut]),
    )
    valid = LabeledDataset(
        X=ds.X[cut:], labels=ds.labels[cut:], task=ds.task,
        n_classes=ds.n_classes, distinct=True,
    )
    return train, valid


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
