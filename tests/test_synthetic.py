"""Generator tests: the rectangles task's image count, and the refusals of both generators."""

import numpy as np
import pytest

from basis_learner.synthetic import DISTINCT_IMAGES, MIN_SIDE, SIZE, random_regression, rectangles


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


def test_images_are_outlines_drawn_one_at_a_time():
    # each image equals its outline drawn alone from the box it spans
    ds = rectangles(200, 6)
    for img in ds.X.reshape(-1, SIZE, SIZE):
        rows = np.flatnonzero(img.any(axis=1))
        cols = np.flatnonzero(img.any(axis=0))
        top, bottom, left, right = rows[0], rows[-1], cols[0], cols[-1]
        drawn = np.zeros((SIZE, SIZE))
        drawn[[top, bottom], left:right + 1] = 1.0
        drawn[top:bottom + 1, [left, right]] = 1.0
        assert np.array_equal(img, drawn)



REFUSED = [
    (rectangles, (-1, 0), "m must be an int >= 1, got -1"),
    (rectangles, (0, 0), "m must be an int >= 1, got 0"),
    (rectangles, (2.5, 0), r"m must be an int >= 1, got 2\.5"),
    (rectangles, (2, -1), "seed must be an int >= 0, got -1"),
    (random_regression, (2.5, 2, 0), r"m must be an int >= 1, got 2\.5"),
    (random_regression, (5, True, 0), "d must be an int >= 1, got True"),
    (random_regression, (5, 0, 0), "d must be an int >= 1, got 0"),
    (random_regression, (5, 2, -1), "seed must be an int >= 0, got -1"),
    (random_regression, (5, 2, np.int64(1)), r"seed must be an int >= 0, got np\.int64\(1\)"),
]


@pytest.mark.parametrize("make, args, msg", REFUSED,
                         ids=[f"{make.__name__}{args}" for make, args, _ in REFUSED])
def test_counts_and_seeds_are_ints(make, args, msg):
    with pytest.raises(ValueError, match=msg):
        make(*args)
