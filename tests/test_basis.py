import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from basis_learner.basis import (
    BasisState,
    CandidateRef,
    CandidateScores,
    LayerBuildResult,
    build_basis1_exact,
    build_basis1_width,
    build_basis_t_exact,
    build_basis_t_width,
    candidate_column,
    default_tol,
    initial_state,
    lift_input,
)
from basis_learner.linalg import residual, thin_svd
from basis_learner.oracle import monomial_matrix, span_equal


def exact_state(X):
    layer1 = build_basis1_exact(lift_input(X))
    return initial_state(layer1)


def check_state_invariants(state: BasisState):
    m = state.m
    # second moment of every F column is 1
    np.testing.assert_allclose(
        np.linalg.norm(state.F, axis=0), math.sqrt(m) * np.ones(state.ncols),
        atol=1e-8,
    )
    # Q orthonormal and spanning F
    G = state.Q.T @ state.Q
    assert np.abs(G - np.eye(state.Q.shape[1])).max() <= 1e-8
    R = state.F - state.Q @ (state.Q.T @ state.F)
    assert np.abs(R).max() <= 1e-6
    assert state.ncols <= m
    lo = 0
    for a, b in state.layer_ranges:
        assert a == lo and b > a
        lo = b
    assert lo == state.ncols


class TestLiftInput:
    def test_single_value(self):
        np.testing.assert_array_equal(lift_input([[2.0]]), [[1.0, 2.0]])

    def test_zero_columns(self):
        np.testing.assert_array_equal(lift_input(np.zeros((3, 0))), np.ones((3, 1)))

    def test_line(self, line_points):
        np.testing.assert_array_equal(
            lift_input(line_points), [[1, 0], [1, 1], [1, 2]]
        )


class TestFirstLayerExact:
    def test_line_spans_and_norms(self, line_points):
        res = build_basis1_exact(lift_input(line_points))
        B = res.new_columns
        assert B.shape == (3, 2)
        np.testing.assert_allclose(np.linalg.norm(B, axis=0), math.sqrt(3))
        # columns orthogonal (they come from distinct singular directions)
        assert abs(B[:, 0] @ B[:, 1]) <= 1e-10
        assert span_equal(B, lift_input(line_points))
        # B must reproduce exactly as lifted @ W1
        np.testing.assert_array_equal(lift_input(line_points) @ res.W1, B)

    def test_duplicate_feature_drops_rank(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 1))
        X = np.hstack([x, x])  # d=2 but rank of [1 X] is 2
        res = build_basis1_exact(lift_input(X))
        assert res.width == 2

    def test_single_point(self):
        res = build_basis1_exact(lift_input([[3.0]]))
        assert res.width == 1
        np.testing.assert_allclose(np.abs(res.new_columns), [[1.0]])


class TestFirstLayerWidth:
    def test_truncates_to_gamma(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 4))  # rank of [1 X] = 5
        res = build_basis1_width(lift_input(X), gamma=3)
        assert res.width == 3

    def test_gamma_at_least_rank_matches_exact_span(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((15, 3))
        full = build_basis1_exact(lift_input(X))
        wide = build_basis1_width(lift_input(X), gamma=10)
        assert wide.width == full.width
        assert span_equal(wide.new_columns, full.new_columns)

    def test_gamma_one_on_line_is_top_singular_direction(self, line_points):
        # Gram of [1 X] is [[3,3],[3,5]]; its top eigenvector is
        # proportional to (3, 1+sqrt(10)), giving the direction below.
        res = build_basis1_width(lift_input(line_points), gamma=1)
        assert res.width == 1
        expect = np.array([3.0, 4.0 + math.sqrt(10), 5.0 + 2 * math.sqrt(10)])
        got = res.new_columns[:, 0]
        cos = abs(got @ expect) / (np.linalg.norm(got) * np.linalg.norm(expect))
        assert cos >= 1.0 - 1e-12
        np.testing.assert_allclose(np.linalg.norm(got), math.sqrt(3))

    def test_randomized_mode_matches_exact_span(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 6))
        a = build_basis1_width(lift_input(X), gamma=7, svd_mode="exact")
        b = build_basis1_width(lift_input(X), gamma=7, svd_mode="randomized", seed=5)
        assert span_equal(a.new_columns, b.new_columns)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            build_basis1_width(np.ones((2, 2)), 1, svd_mode="qr")


class TestCandidateColumn:
    def test_hadamard_by_definition(self, line_points):
        state = exact_state(line_points)
        ref = CandidateRef(prev_col=0, first_col=1)
        expect = state.F[:, 0] * state.F[:, 1]
        np.testing.assert_array_equal(candidate_column(state, ref), expect)

    def test_out_of_range(self, line_points):
        state = exact_state(line_points)
        with pytest.raises(IndexError):
            candidate_column(state, CandidateRef(5, 0))


class TestExactLayers:
    def test_line_saturates_at_three(self, line_points):
        state = exact_state(line_points)
        res = build_basis_t_exact(state)
        assert res.width == 1 and state.ncols == 3
        check_state_invariants(state)
        # next layer has nothing to add
        res2 = build_basis_t_exact(state)
        assert res2.width == 0
        assert len(state.layer_ranges) == 2

    def test_nodes_reproduce_columns(self, line_points):
        state = exact_state(line_points)
        lo, hi = state.layer_ranges[-1]
        res = build_basis_t_exact(state)
        for col, (ref, w) in zip(res.new_columns.T, res.nodes):
            raw = state.F[:, lo + ref.prev_col] * state.F[:, ref.first_col]
            np.testing.assert_allclose(col, w * raw, rtol=1e-12)

    def test_full_state_yields_empty_layer(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((4, 3))
        state = exact_state(X)  # |F| = 4 = m already
        assert state.ncols == 4
        assert build_basis_t_exact(state).width == 0

    def test_degree_span_matches_monomials(self):
        rng = np.random.default_rng(7)
        for m, d in ((12, 2), (25, 3), (9, 1)):
            X = rng.standard_normal((m, d))
            state = exact_state(X)
            for t in range(2, 5):
                if state.ncols == m:
                    break
                build_basis_t_exact(state)
                assert span_equal(state.F, monomial_matrix(X, t))
                check_state_invariants(state)

    # d=1 is excluded: saturating m points on a line needs chained products up
    # to degree m-1, and in float64 the new-direction residuals shrink below
    # any usable tol long before that (close point pairs make it worse).
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 12), st.integers(2, 3))
    def test_distinct_points_reach_full_rank(self, seed, m, d):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((m, d))
        state = exact_state(X)
        while state.ncols < m:
            if build_basis_t_exact(state).width == 0:
                break
        assert state.ncols == m
        check_state_invariants(state)


class TestWidthLayers:
    def test_width_budget_respected(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((30, 3))
        y = rng.standard_normal((30, 1))
        layer1 = build_basis1_width(lift_input(X), gamma=4)
        state = initial_state(layer1)
        for _ in range(4):
            res = build_basis_t_width(state, y, gamma=4, b=2)
            assert res.width <= 4
            if res.width == 0:
                break
            check_state_invariants(state)
        assert all(b - a <= 4 for a, b in state.layer_ranges)

    def test_single_batch_equals_gamma(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((40, 4))
        y = rng.standard_normal((40, 1))
        state = initial_state(build_basis1_width(lift_input(X), gamma=5))
        res = build_basis_t_width(state, y, gamma=5, b=5)
        assert res.width == 5

    def test_zero_residual_target_still_selects_independent(self, line_points):
        # target already in span(F): scores all zero, selection falls back
        # to candidate order but keeps adding independent columns
        state = exact_state(line_points)
        V = state.F[:, :1] @ np.ones((1, 1))
        res = build_basis_t_width(state, V, gamma=1, b=1)
        assert res.width == 1
        check_state_invariants(state)

    def test_target_aligned_candidate_wins(self):
        # y = x^3 on 4 points: the only product candidate aligned with the
        # deflated target among prev x first combos gets picked first
        X = np.arange(4.0)[:, None]
        y = (X[:, 0] ** 3)[:, None]
        state = exact_state(X)  # spans degree 1
        res = build_basis_t_width(state, y, gamma=1, b=1)
        assert res.width == 1
        # the new column must bring the residual of x^2 values to zero
        M2 = monomial_matrix(X, 2)
        assert span_equal(state.F, M2)

    def test_cubic_interpolation_with_unit_width(self):
        X = np.arange(4.0)[:, None]
        y = (X[:, 0] ** 3)[:, None]
        state = initial_state(build_basis1_width(lift_input(X), gamma=1))
        for _ in range(3):
            res = build_basis_t_width(state, y, gamma=1, b=1)
            assert res.width == 1
        # after 3 product layers the residual of y must vanish
        w, *_ = np.linalg.lstsq(state.F, y, rcond=None)
        assert np.linalg.norm(state.F @ w - y) <= 1e-8

    def test_rounds_cover_gamma_in_batches(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((50, 5))
        y = rng.standard_normal((50, 1))
        state = initial_state(build_basis1_width(lift_input(X), gamma=6))
        res = build_basis_t_width(state, y, gamma=6, b=2)  # 3 rounds
        assert res.width == 6
        check_state_invariants(state)

    def test_batch_larger_than_gamma_rejected(self, line_points):
        state = exact_state(line_points)
        with pytest.raises(ValueError):
            build_basis_t_width(state, np.ones((3, 1)), gamma=1, b=2)

    def test_saturated_state_returns_empty(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((4, 3))
        state = exact_state(X)
        res = build_basis_t_width(state, np.ones((4, 1)), gamma=3, b=1)
        assert res.width == 0


def q_state(Q):
    """State whose Q holds exactly the given orthonormal columns."""
    m, k = Q.shape
    return BasisState(F=Q.copy(), layer_ranges=[(0, k)], Q_buf=Q.copy(), rank=k)


class TestAdmit:
    def test_dependent_column_skipped(self):
        Q = np.linalg.qr(np.random.default_rng(9).standard_normal((7, 3)))[0]
        state = q_state(Q)
        assert not state.admit(Q[:, 1] * 2.5, default_tol(7))
        assert state.rank == 3

    def test_normalizes_from_empty(self):
        state = q_state(np.zeros((2, 0)))
        assert state.admit(np.array([3.0, 4.0]), default_tol(2))
        np.testing.assert_allclose(state.Q, [[0.6], [0.8]])

    def test_identical_columns_collapse(self):
        c = np.random.default_rng(1).standard_normal(6)
        state = q_state(np.zeros((6, 0)))
        assert state.admit(c, default_tol(6))
        assert not state.admit(c.copy(), default_tol(6))
        assert state.Q.shape == (6, 1)

    def test_zero_column_skipped(self):
        state = q_state(np.zeros((4, 0)))
        assert not state.admit(np.zeros(4), default_tol(4))
        assert state.Q.shape == (4, 0)

    def test_full_span_admits_nothing(self):
        # even at tol 0, where the rounding left in the residual would pass
        Q = np.linalg.qr(np.random.default_rng(2).standard_normal((3, 3)))[0]
        state = q_state(Q)
        assert not state.admit(np.ones(3), 0.0)
        assert state.rank == 3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
    def test_output_orthonormal_and_in_buffer(self, seed, q0, extra):
        rng = np.random.default_rng(seed)
        state = q_state(np.linalg.qr(rng.standard_normal((12, q0)))[0])
        for c in rng.standard_normal((extra, 12)):
            assert state.admit(c, default_tol(12))
        Q = state.Q
        assert Q.shape == (12, q0 + extra)
        assert np.shares_memory(Q, state.Q_buf)
        assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() <= 1e-8


def reference_scores(state, O_V, tol):
    """Width-mode scores from an explicit CGS2 residual of every candidate."""
    lo, hi = state.layer_ranges[-1]
    n1 = state.layer1_cols
    Q = state.Q
    scores = np.full((hi - lo) * n1, -1.0)
    for p in range(hi - lo):
        for j in range(n1):
            c = state.F[:, lo + p] * state.F[:, j]
            r = c - Q @ (Q.T @ c)
            r -= Q @ (Q.T @ r)
            nr = np.linalg.norm(r)
            if nr > tol:
                scores[p * n1 + j] = np.linalg.norm(O_V.T @ r) / nr
    return scores


def admit_top(state, scores, count, tol):
    lo, _ = state.layer_ranges[-1]
    n1 = state.layer1_cols
    for flat in np.argsort(-scores, kind="stable")[:count]:
        p, j = divmod(int(flat), n1)
        state.admit(state.F[:, lo + p] * state.F[:, j], tol)


def sign_state(m, noise):
    """Layer 1 [1, s, t] with s = +-1 plus ``noise`` times a random vector,
    so the candidate s*s is 1 plus a residual of relative size ~noise."""
    rng = np.random.default_rng(15)
    s = np.where(np.arange(m) % 2 == 0, 1.0, -1.0) + noise * rng.standard_normal(m)
    B = np.column_stack([np.ones(m), s, rng.standard_normal(m)])
    B *= math.sqrt(m) / np.linalg.norm(B, axis=0)
    return initial_state(LayerBuildResult(new_columns=B))


class TestCandidateScores:
    def test_rounds_match_explicit_cgs2(self):
        rng = np.random.default_rng(14)
        m = 60
        X = rng.standard_normal((m, 3))
        V = np.column_stack([X[:, 0] * X[:, 1], X[:, 2] ** 3]) + 0.1 * rng.standard_normal((m, 2))
        tol = default_tol(m)
        state = initial_state(build_basis1_width(lift_input(X), gamma=4))
        build_basis_t_width(state, V, gamma=6, b=3)
        scorer = CandidateScores(state)
        Vd = residual(V, state.Q)
        for _ in range(4):
            O_V = thin_svd(Vd).U
            got = scorer.round(state, O_V, tol)
            want = reference_scores(state, O_V, tol)
            np.testing.assert_array_equal(got >= 0, want >= 0)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
            admit_top(state, want, 3, tol)
            Vd = residual(Vd, state.Q)
        # admitted candidates went through the explicit path and dropped out
        assert scorer.explicit.any()
        assert (~scorer.live).sum() >= 12

    def test_near_dependent_candidate_scored_explicitly(self):
        state = sign_state(40, 1e-6)
        tol = default_tol(40)
        V = np.random.default_rng(16).standard_normal((40, 1))
        O_V = thin_svd(residual(V, state.Q)).U
        scorer = CandidateScores(state)
        got = scorer.round(state, O_V, tol)
        want = reference_scores(state, O_V, tol)
        ss = 1 * 3 + 1  # candidate s * s
        assert scorer.explicit[ss]
        assert want[ss] >= 0 and got[ss] >= 0
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_exactly_dependent_candidate_never_admitted(self):
        state = sign_state(40, 0.0)  # s * s == 1 exactly
        tol = default_tol(40)
        t = state.F[:, 2]
        res = build_basis_t_width(state, (t * t)[:, None], gamma=3, b=3)
        # of the 9 products only s*t (twice, as t*s) and t*t are independent
        refs = {(ref.prev_col, ref.first_col) for ref, _ in res.nodes}
        assert res.width == 2
        assert (2, 2) in refs and len(refs & {(1, 2), (2, 1)}) == 1
        check_state_invariants(state)

    @pytest.mark.parametrize("mode", ["exact", "width"])
    def test_q_orthonormal_within_buffer(self, mode):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((40, 3))
        y = rng.standard_normal((40, 1))
        if mode == "exact":
            state = exact_state(X)
        else:
            state = initial_state(build_basis1_width(lift_input(X), gamma=3))
        for _ in range(4):
            if mode == "exact":
                build_basis_t_exact(state)
            else:
                build_basis_t_width(state, y, gamma=5, b=2)
            Q = state.Q
            assert state.rank == state.ncols <= state.Q_buf.shape[1] <= state.m
            assert np.shares_memory(Q, state.Q_buf)
            assert np.abs(Q.T @ Q - np.eye(state.rank)).max() <= 1e-8


class TestDeterminism:
    def test_exact_rebuild_identical(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((15, 2))
        s1, s2 = exact_state(X), exact_state(X)
        build_basis_t_exact(s1)
        build_basis_t_exact(s2)
        assert np.array_equal(s1.F, s2.F)
        assert np.array_equal(s1.Q, s2.Q)

    def test_width_rebuild_identical(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((25, 4))
        y = rng.standard_normal((25, 1))
        outs = []
        for _ in range(2):
            state = initial_state(build_basis1_width(lift_input(X), gamma=4))
            build_basis_t_width(state, y, gamma=4, b=2)
            outs.append(state.F.copy())
        assert np.array_equal(outs[0], outs[1])


def test_default_tol_scales_with_m():
    assert default_tol(4) == 2e-8
