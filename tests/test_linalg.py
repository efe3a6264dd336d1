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
        res = randomized_range_svd(Q, k=4, oversample=0, seed=1)
        # principal angles via singular values of the cross-product
        cos = np.linalg.svd(res.U.T @ Q, compute_uv=False)
        np.testing.assert_allclose(cos, 1.0, atol=1e-6)

    def test_deterministic_given_seed(self):
        A = random_matrix(7, 40, 12)
        r1 = randomized_range_svd(A, k=5, oversample=5, seed=123)
        r2 = randomized_range_svd(A, k=5, oversample=5, seed=123)
        assert np.array_equal(r1.U, r2.U)
        assert np.array_equal(r1.s, r2.s)
        assert np.array_equal(r1.V, r2.V)

    def test_different_seed_differs(self):
        A = random_matrix(7, 40, 12)
        r1 = randomized_range_svd(A, k=5, oversample=5, seed=1)
        r2 = randomized_range_svd(A, k=5, oversample=5, seed=2)
        assert not np.array_equal(r1.U, r2.U)

    def test_k_above_rank_sets_flag(self):
        A = random_matrix(11, 20, 8, rank=3)
        res = randomized_range_svd(A, k=6, seed=0, oversample=2)
        assert res.truncated and res.rank == 3

    def test_precondition_checked(self):
        with pytest.raises(ValueError):
            randomized_range_svd(np.eye(5), k=3, oversample=10)
        with pytest.raises(ValueError):
            randomized_range_svd(np.eye(5), k=0)

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

    def test_coerces_lists(self):
        A = check_matrix([[1, 2], [3, 4]])
        assert A.dtype == np.float64 and A.shape == (2, 2)
