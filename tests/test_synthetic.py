"""Generator tests: the rectangles task's image count and its refusal."""

import numpy as np
import pytest

from basis_learner.synthetic import DISTINCT_IMAGES, MIN_SIDE, SIZE, rectangles


def test_distinct_images_match_enumeration():
    # every (top, left, height, width) outline that fits and is not square
    sides = range(MIN_SIDE, SIZE + 1)
    count = sum(1 for h in sides for w in sides if h != w
                for _top in range(SIZE - h + 1) for _left in range(SIZE - w + 1))
    assert DISTINCT_IMAGES == count == 117_000


def test_more_images_than_exist_refused():
    with pytest.raises(ValueError, match="only 117000 distinct rectangle images exist, asked for 117001"):
        rectangles(117_001, 0)


def test_images_distinct_never_square_and_labelled_by_aspect():
    ds = rectangles(300, 5)
    assert ds.distinct
    imgs = ds.X.reshape(-1, SIZE, SIZE)
    h = imgs.any(axis=2).sum(axis=1)  # rows the outline spans
    w = imgs.any(axis=1).sum(axis=1)
    assert (h != w).all()
    np.testing.assert_array_equal(ds.labels, np.where(h > w, 1.0, -1.0))
