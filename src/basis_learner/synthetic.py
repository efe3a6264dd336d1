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


def _render_outline(top: int, left: int, h: int, w: int) -> np.ndarray:
    img = np.zeros((SIZE, SIZE))
    img[top, left:left + w] = 1.0
    img[top + h - 1, left:left + w] = 1.0
    img[top:top + h, left] = 1.0
    img[top:top + h, left + w - 1] = 1.0
    return img


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
    X = np.empty((m, SIZE * SIZE))
    y = np.empty(m)
    seen = set()
    i = 0
    while i < m:
        h = int(rng.integers(MIN_SIDE, SIZE + 1))
        w = int(rng.integers(MIN_SIDE, SIZE + 1))
        if h == w:
            continue
        top = int(rng.integers(0, SIZE - h + 1))
        left = int(rng.integers(0, SIZE - w + 1))
        key = (top, left, h, w)
        if key in seen:
            continue
        seen.add(key)
        X[i] = _render_outline(top, left, h, w).ravel()
        y[i] = 1.0 if h > w else -1.0
        i += 1
    return make_dataset(X, y, task="binary")


def write_csv(ds: LabeledDataset, path) -> None:
    """Write a dataset in the CSV format the loader reads back."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(ds.m):
            label = ds.labels[i]
            lab = repr(int(label)) if float(label).is_integer() else repr(float(label))
            fh.write(lab + "," + ",".join(repr(float(v)) for v in ds.X[i]) + "\n")
