"""Procedurally generated datasets for tests and desk-scale experiments.

Everything is seeded and deterministic. The rectangles task renders
outline rectangles into 28x28 binary images, labeled +1 when the
rectangle is taller than wide; width and height always differ, and all
generated images are pairwise distinct.
"""

from __future__ import annotations

import numpy as np

from .dataset import LabeledDataset, make_dataset
from .linalg import is_int

# rectangle images are SIZE x SIZE pixels; each side spans at least MIN_SIDE
SIZE = 28
MIN_SIDE = 3
# a side of length s fits at SIZE - s + 1 offsets: sum the products of the
# height's and the width's offset counts over all pairs, less the squares
_OFFSETS = range(1, SIZE - MIN_SIDE + 2)
DISTINCT_IMAGES = sum(_OFFSETS) ** 2 - sum(k * k for k in _OFFSETS)


def _check_count(name: str, value, least: int) -> None:
    # a count from outside is an int (is_int) of at least ``least``
    if not (is_int(value) and value >= least):
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


def random_regression(m: int, d: int, seed: int) -> LabeledDataset:
    """Gaussian inputs with independent Gaussian targets.

    Rows are distinct with probability 1; used for interpolation checks.
    Needs ints m >= 1, d >= 1 and seed >= 0, else ``ValueError``.
    """
    _check_count("m", m, 1)
    _check_count("d", d, 1)
    _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, d))
    y = rng.standard_normal(m)
    ds = make_dataset(X, y, task="regression")
    assert ds.distinct
    return ds


def _render_outlines(boxes: np.ndarray) -> np.ndarray:
    # one flattened outline image per (top, left, h, w) row, all at once: a
    # pixel is on when it lies on a boundary row within the box's columns,
    # or on a boundary column within its rows
    top, left, h, w = boxes.T[:, :, None]
    r = np.arange(SIZE)
    bottom, right = top + h - 1, left + w - 1
    edge_rows = ((r == top) | (r == bottom))[:, :, None]
    edge_cols = ((r == left) | (r == right))[:, None, :]
    in_rows = ((r >= top) & (r <= bottom))[:, :, None]
    in_cols = ((r >= left) & (r <= right))[:, None, :]
    img = (edge_rows & in_cols) | (in_rows & edge_cols)
    return img.reshape(len(boxes), SIZE * SIZE).astype(np.float64)


def rectangles(m: int, seed: int) -> LabeledDataset:
    """Outline-rectangle images labeled by their aspect: +1 iff taller
    than wide.

    Images are ``SIZE`` x ``SIZE`` with sides of at least ``MIN_SIDE``,
    never square. Parameter tuples are sampled without replacement, so
    rows are pairwise distinct. Needs ints 1 <= m <= ``DISTINCT_IMAGES`` and
    seed >= 0, else ``ValueError``.
    """
    _check_count("m", m, 1)
    _check_count("seed", seed, 0)
    if m > DISTINCT_IMAGES:
        raise ValueError(f"only {DISTINCT_IMAGES} distinct rectangle images exist, asked for {m}")
    rng = np.random.default_rng(seed)
    # one scalar draw at a time: batched draws would change the stream
    drawn = {}  # insertion-ordered, so row i is the i-th new tuple drawn
    while len(drawn) < m:
        h = int(rng.integers(MIN_SIDE, SIZE + 1))
        w = int(rng.integers(MIN_SIDE, SIZE + 1))
        if h == w:
            continue
        top = int(rng.integers(0, SIZE - h + 1))
        left = int(rng.integers(0, SIZE - w + 1))
        drawn[(top, left, h, w)] = None
    boxes = np.array(list(drawn), dtype=np.int64)
    y = np.where(boxes[:, 2] > boxes[:, 3], 1.0, -1.0)
    return make_dataset(_render_outlines(boxes), y, task="binary")


def write_csv(ds: LabeledDataset, path) -> None:
    """Write a dataset in the CSV format the loader reads back."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(ds.m):
            label = ds.labels[i]
            lab = repr(int(label)) if float(label).is_integer() else repr(float(label))
            fh.write(lab + "," + ",".join(repr(float(v)) for v in ds.X[i]) + "\n")
