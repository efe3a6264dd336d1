import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from basis_learner.linalg import (
    check_matrix,
    randomized_range_svd,
    residual,
    thin_svd,
)


def random_matrix(seed, m, n, rank=None):
    rng = np.random.default_rng(seed)
    if rank is None:
        return rng.standard_normal((m, n))
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))


BAD_TOLS = [float("nan"), float("inf"), -float("inf"), -1.0, True, "1e-8"]


class TestThinSvd:
    def test_identity(self):
        res = thin_svd(np.eye(2))
        np.testing.assert_allclose(res.s, [1.0, 1.0])
        np.testing.assert_allclose(np.abs(res.U), np.eye(2), atol=1e-12)
        np.testing.assert_allclose(res.U, res.V, atol=1e-12)

    def test_rank_one_singular_value_is_frobenius_norm(self):
        # [[1,2],[2,4]] has rank 1, so its only singular value equals
        # sqrt(1 + 4 + 4 + 16) = 5
        res = thin_svd(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert res.rank == 1
        np.testing.assert_allclose(res.s, [5.0])

    def test_lifted_line_rank_and_reconstruction(self, line_points):
        A = np.hstack([np.ones((3, 1)), line_points])
        res = thin_svd(A)
        assert res.rank == 2
        np.testing.assert_allclose(res.U * res.s @ res.V.T, A, atol=1e-10)

    def test_empty(self):
        res = thin_svd(np.zeros((3, 0)))
        assert res.rank == 0 and res.U.shape == (3, 0)

    def test_zero_matrix_rank_zero(self):
        assert thin_svd(np.zeros((4, 3))).rank == 0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            thin_svd(np.array([[np.nan, 0.0]]))

    def test_rejects_negative_tol(self):
        with pytest.raises(ValueError):
            thin_svd(np.eye(2), tol=-1.0)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_rejects_tol_that_is_not_a_finite_nonnegative_real(self, tol):
        # nan and True once read rank 0 on the identity instead of raising
        with pytest.raises(ValueError, match="tol must be finite and nonnegative, got"):
            thin_svd(np.eye(3), tol=tol)

    def test_sign_convention_fixed(self):
        # largest-magnitude entry of each left vector is positive
        res = thin_svd(random_matrix(3, 6, 4))
        for j in range(res.rank):
            i = np.argmax(np.abs(res.U[:, j]))
            assert res.U[i, j] > 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8))
    def test_reconstruction_property(self, seed, m, n):
        A = random_matrix(seed, m, n)
        res = thin_svd(A)
        err = np.linalg.norm(A - res.U * res.s @ res.V.T)
        assert err <= 1e-6 * np.linalg.norm(A)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    def test_rank_deficient_detected(self, seed, n):
        A = random_matrix(seed, n + 3, n, rank=max(1, n - 1))
        assert thin_svd(A).rank == max(1, n - 1)


def decaying_matrix(seed, m, n, ratio=0.9):
    # m x n with singular values ratio**i and random singular vectors
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((m, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return U * ratio ** np.arange(n) @ V.T


class TestTopSvd:
    def test_gram_route_matches_thin_svd(self):
        # tall with a dropped tail (k < n <= m): the Gram eigendecomposition
        A = decaying_matrix(30, 300, 120)
        ref, res = thin_svd(A), thin_svd(A, k=20)
        assert res.U.shape == (300, 20) and res.V.shape == (120, 20)
        np.testing.assert_allclose(res.s, ref.s[:20], rtol=1e-12, atol=0)
        # sine of the largest principal angle between the two V subspaces
        Vr = ref.V[:, :20]
        assert np.linalg.norm(res.V - Vr @ (Vr.T @ res.V), 2) <= 1e-10

    def test_gram_route_follows_the_sign_rule(self):
        A = decaying_matrix(31, 300, 120)
        res = thin_svd(A, k=20)
        rows = np.argmax(np.abs(res.U), axis=0)
        assert (res.U[rows, np.arange(20)] > 0).all()
        # the same signs as thin_svd's factors, column by column
        ref = thin_svd(A)
        assert (np.sum(res.U * ref.U[:, :20], axis=0) > 0).all()
        assert (np.sum(res.V * ref.V[:, :20], axis=0) > 0).all()

    def test_gram_route_drops_zero_modes(self):
        A = random_matrix(32, 50, 12, rank=4)
        res = thin_svd(A, k=8)
        assert res.rank == 4
        np.testing.assert_allclose(res.U * res.s @ res.V.T, A, atol=1e-10)

    @pytest.mark.parametrize("m, n, k", [(40, 12, 12), (40, 12, 20), (10, 30, 5)])
    def test_other_shapes_are_thin_svd_truncated(self, m, n, k):
        # k >= n keeps every column, m < n is wide: both stay on the SVD
        A = random_matrix(33, m, n)
        ref, res = thin_svd(A), thin_svd(A, k=k)
        for got, want in zip((res.U, res.s, res.V), (ref.U[:, :k], ref.s[:k], ref.V[:, :k])):
            assert np.array_equal(got, want)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError, match="k must be at least 1"):
            thin_svd(np.eye(3), k=0)

    @pytest.mark.parametrize("k", [2.5, True, np.int64(2), "2"])
    def test_rejects_k_that_is_not_an_int(self, k):
        with pytest.raises(ValueError, match="k must be at least 1 and an int, got"):
            thin_svd(np.eye(3), k=k)

    def test_explicit_tol_keeps_the_cutoff_on_tall_input(self):
        # singular values 0.9**i: tol = 0.9**9.5 keeps 10 of them, fewer than
        # k, where the Gram route (no tol) would keep 20
        A = decaying_matrix(34, 300, 120)
        tol = 0.9**9.5
        ref, res = thin_svd(A, tol), thin_svd(A, tol, k=20)
        assert res.rank == ref.rank == 10
        for got, want in zip((res.U, res.s, res.V), (ref.U[:, :20], ref.s[:20], ref.V[:, :20])):
            assert np.array_equal(got, want)
        assert thin_svd(A, k=20).rank == 20


class TestRandomizedSvd:
    def test_wide_gap_leading_value(self):
        # diag(10, 1e-6) padded into a 50x50 matrix
        A = np.zeros((50, 50))
        A[0, 0] = 10.0
        A[1, 1] = 1e-6
        res = randomized_range_svd(A, k=1, seed=0)
        np.testing.assert_allclose(res.s[0], 10.0, rtol=1e-4)

    def test_orthonormal_input_recovers_subspace(self):
        Q = np.linalg.qr(random_matrix(5, 30, 4))[0]
        # k = min(rows, cols) = 4 leaves no room to oversample
        res = randomized_range_svd(Q, k=4, seed=1)
        # principal angles via singular values of the cross-product
        cos = np.linalg.svd(res.U.T @ Q, compute_uv=False)
        np.testing.assert_allclose(cos, 1.0, atol=1e-6)

    def test_deterministic_given_seed(self):
        A = random_matrix(7, 40, 12)
        r1 = randomized_range_svd(A, k=5, seed=123)
        r2 = randomized_range_svd(A, k=5, seed=123)
        assert np.array_equal(r1.U, r2.U)
        assert np.array_equal(r1.s, r2.s)
        assert np.array_equal(r1.V, r2.V)

    def test_different_seed_differs(self):
        A = random_matrix(7, 40, 12)
        r1 = randomized_range_svd(A, k=5, seed=1)
        r2 = randomized_range_svd(A, k=5, seed=2)
        assert not np.array_equal(r1.U, r2.U)

    def test_k_above_rank_returns_rank_many_factors(self):
        A = random_matrix(11, 20, 8, rank=3)
        res = randomized_range_svd(A, k=6, seed=0)
        assert res.rank == 3 and res.U.shape == (20, 3) and res.V.shape == (8, 3)

    def test_precondition_checked(self):
        # k = min(rows, cols) + 1 and k = 0 are refused on square, tall and wide input
        for shape in [(5, 5), (30, 6), (6, 30)]:
            for k in (min(shape) + 1, 0):
                with pytest.raises(ValueError, match=rf"k must be in \[1, min\(rows, cols\) = {min(shape)}\], got {k}"):
                    randomized_range_svd(random_matrix(13, *shape), k=k)

    @pytest.mark.parametrize("k", [1.5, True, np.int64(2)])
    def test_k_must_be_an_int(self, k):
        with pytest.raises(ValueError, match=r"k must be in \[1, min\(rows, cols\) = 4\], got"):
            randomized_range_svd(random_matrix(13, 6, 4), k)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, np.int64(3)])
    def test_seed_must_be_a_nonnegative_int(self, seed):
        with pytest.raises(ValueError, match="seed must be an int >= 0, got"):
            randomized_range_svd(random_matrix(13, 6, 4), 2, seed=seed)

    @pytest.mark.parametrize("shape", [(30, 6), (6, 30)])
    def test_k_at_min_dimension_needs_no_oversampling(self, shape):
        # the sketch spans the whole smaller side, so every factor is exact
        A = random_matrix(13, *shape)
        res = randomized_range_svd(A, k=min(shape), seed=0)
        exact = thin_svd(A)
        assert res.rank == min(shape)
        np.testing.assert_allclose(res.s, exact.s, rtol=1e-10)
        np.testing.assert_allclose((res.U * res.s) @ res.V.T, A, atol=1e-10)

    def test_agrees_with_exact_on_gapped_spectrum(self):
        rng = np.random.default_rng(21)
        U = np.linalg.qr(rng.standard_normal((60, 6)))[0]
        V = np.linalg.qr(rng.standard_normal((40, 6)))[0]
        s = np.array([100.0, 50.0, 20.0, 1.0, 0.5, 0.1])
        A = U * s @ V.T
        exact = thin_svd(A)
        approx = randomized_range_svd(A, k=3, seed=3)
        cos = np.linalg.svd(approx.U.T @ exact.U[:, :3], compute_uv=False)
        assert cos.min() >= 1.0 - 1e-3


class TestResidual:
    def test_column_of_q_goes_to_zero(self):
        Q = np.linalg.qr(random_matrix(2, 6, 3))[0]
        r = residual(Q[:, 0], Q)
        assert np.linalg.norm(r) <= 1e-10

    def test_empty_q_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(residual(v, np.zeros((3, 0))), v)

    def test_hand_projection(self):
        r = residual(np.array([1.0, 1.0]), np.array([[1.0], [0.0]]))
        np.testing.assert_allclose(r, [0.0, 1.0], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            residual(np.ones(3), np.zeros((4, 0)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        Q = np.linalg.qr(rng.standard_normal((10, 4)))[0]
        v = rng.standard_normal(10)
        r1 = residual(v, Q)
        r2 = residual(r1, Q)
        assert np.linalg.norm(r1 - r2) <= 1e-8 * max(np.linalg.norm(v), 1.0)

    def test_matrix_argument(self):
        Q = np.linalg.qr(random_matrix(4, 8, 3))[0]
        M = random_matrix(5, 8, 4)
        R = residual(M, Q)
        assert np.abs(Q.T @ R).max() <= 1e-8 * np.linalg.norm(M)


class TestCheckMatrix:
    def test_rejects_vector(self):
        with pytest.raises(ValueError):
            check_matrix(np.ones(3))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            check_matrix(np.array([[np.inf, 1.0]]))

    def test_messages_name_the_argument(self):
        with pytest.raises(ValueError, match=r"^X must be 2-dimensional, got shape \(3,\)$"):
            check_matrix(np.ones(3), "X")
        with pytest.raises(ValueError, match=r"^F must be finite, 2 of 4 entries are not$"):
            check_matrix([[np.nan, 1.0], [2.0, -np.inf]], "F")

    def test_finite_entries_whose_sum_overflows_pass(self, recwarn):
        # the test is on the entries, not on their float sum
        A = np.full((4, 3), np.finfo(np.float64).max)
        A[0, 0] = -A[0, 0]
        assert check_matrix(A) is A
        assert not recwarn.list
        A[1, 1] = np.nan
        with pytest.raises(ValueError, match=r"^matrix must be finite, 1 of 12 entries are not$"):
            check_matrix(A)

    def test_coerces_lists(self):
        A = check_matrix([[1, 2], [3, 4]])
        assert A.dtype == np.float64 and A.shape == (2, 2)
