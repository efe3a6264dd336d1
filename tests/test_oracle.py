import math

import numpy as np
import pytest

from basis_learner.linalg import check_matrix
from basis_learner.oracle import (
    monomial_count,
    monomial_exponents,
    monomial_matrix,
    span_equal,
    span_rank,
)


def _orthonormal_basis(A: np.ndarray) -> tuple[np.ndarray, float]:
    """Orthonormal basis of the column span via eigh of the Gram matrix.

    Returns the basis and the largest singular value of ``A``.
    """
    if A.shape[1] == 0:
        return np.zeros((A.shape[0], 0)), 0.0
    G = A.T @ A
    w, V = np.linalg.eigh(G)
    w = np.clip(w, 0.0, None)
    smax = math.sqrt(float(w[-1])) if w.size else 0.0
    if smax == 0.0:
        return np.zeros((A.shape[0], 0)), 0.0
    cut = (max(A.shape) * np.finfo(np.float64).eps * smax) ** 2
    keep = w > cut
    Q = (A @ V[:, keep]) / np.sqrt(w[keep])
    # one refinement pass; eigh of an ill-conditioned Gram matrix loses
    # about half the digits otherwise
    Q, _ = np.linalg.qr(Q)
    return Q, smax


def gram_span_contains(A, B, tol: float = 1e-8) -> bool:
    """True when every column of ``B`` lies in the column span of ``A``.

    Independent route for cross-checking :func:`span_equal`: the basis of
    span(A) comes from an eigendecomposition of the Gram matrix, not an
    SVD. A column b passes if its residual off span(A) has norm at most
    ``tol * smax`` where smax is the largest singular value of [A | B].
    """
    A = check_matrix(A, "A")
    B = check_matrix(B, "B")
    if A.shape[0] != B.shape[0]:
        raise ValueError("A and B must have the same number of rows")
    Q, _ = _orthonormal_basis(A)
    _, scale = _orthonormal_basis(np.hstack([A, B]))
    if scale == 0.0:
        return True
    R = B - Q @ (Q.T @ B)
    return bool(np.linalg.norm(R, axis=0).max(initial=0.0) <= tol * scale)


class TestMonomials:
    def test_count_matches_binomial(self):
        assert monomial_count(2, 1) == 3
        assert monomial_count(2, 2) == 6
        assert monomial_count(3, 4) == math.comb(7, 4)

    def test_degree_one_order(self):
        # columns 1, x1, x2
        assert monomial_exponents(2, 1) == [(0, 0), (1, 0), (0, 1)]

    def test_degree_two_order(self):
        exps = monomial_exponents(2, 2)
        assert exps == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_line_values_are_vandermonde(self, line_points):
        M = monomial_matrix(line_points, 2)
        np.testing.assert_array_equal(
            M, [[1, 0, 0], [1, 1, 1], [1, 2, 4]]
        )
        assert span_rank(M) == 3

    def test_guard_refuses_huge_enumerations(self):
        with pytest.raises(ValueError):
            monomial_exponents(40, 10)

    def test_values_match_direct_evaluation(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((5, 3))
        M = monomial_matrix(X, 3)
        for j, e in enumerate(monomial_exponents(3, 3)):
            direct = np.prod(X ** np.array(e), axis=1)
            np.testing.assert_allclose(M[:, j], direct, rtol=1e-12)


class TestSpans:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1.0, True, "1e-8"])
    def test_rank_refuses_tol_that_is_not_a_finite_nonnegative_real(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative, got"):
            span_rank(np.eye(3), tol)
        with pytest.raises(ValueError, match="tol must be finite and nonnegative, got"):
            span_equal(np.eye(3), np.eye(3), tol)

    def test_invertible_column_ops_preserve_span(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((10, 4))
        T = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        assert span_equal(A, A @ T)

    def test_distinct_axes_differ(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert not span_equal(e1, e2)

    def test_subspace_not_equal(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((8, 3))
        assert not span_equal(A[:, :2], A)

    def test_vandermonde_full_rank_on_distinct_points(self):
        # degree >= m-1 on m distinct 1-d points spans everything
        X = np.linspace(-1, 1, 6)[:, None]
        assert span_rank(monomial_matrix(X, 5)) == 6

    def test_gram_route_agrees_with_rank_route(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            A = rng.standard_normal((9, 4))
            T = rng.standard_normal((4, 4)) + 3 * np.eye(4)
            B = A @ T
            assert gram_span_contains(A, B) and gram_span_contains(B, A)
            assert span_equal(A, B)
            C = np.hstack([A[:, :2], rng.standard_normal((9, 1))])
            assert span_equal(A, C) == (
                gram_span_contains(A, C) and gram_span_contains(C, A)
            )

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            span_equal(np.ones((3, 1)), np.ones((4, 1)))
