import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from basis_learner.basis import (
    BasisState,
    CandidateScores,
    build_basis1_exact,
    build_basis1_width,
    build_basis_t_exact,
    build_basis_t_width,
    default_tol,
    initial_state,
    lift_input,
)
from basis_learner import basis
from basis_learner.basis import _distinct_candidates, _scaled_projection
from basis_learner.cli import build_parser
from basis_learner.linalg import randomized_range_svd, residual, thin_svd
from basis_learner.network import layer_values
from basis_learner.oracle import monomial_matrix, span_equal
from basis_learner.trainer import TrainConfig


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
        B, W1 = build_basis1_exact(lift_input(line_points))
        assert B.shape == (3, 2)
        np.testing.assert_allclose(np.linalg.norm(B, axis=0), math.sqrt(3))
        # columns orthogonal (they come from distinct singular directions)
        assert abs(B[:, 0] @ B[:, 1]) <= 1e-10
        assert span_equal(B, lift_input(line_points))
        # B must reproduce exactly as lifted @ W1
        np.testing.assert_array_equal(lift_input(line_points) @ W1, B)

    def test_duplicate_feature_drops_rank(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 1))
        X = np.hstack([x, x])  # d=2 but rank of [1 X] is 2
        B, W1 = build_basis1_exact(lift_input(X))
        assert B.shape == (6, 2) and W1.shape == (3, 2)

    def test_single_point(self):
        B, _ = build_basis1_exact(lift_input([[3.0]]))
        assert B.shape[1] == 1
        np.testing.assert_allclose(np.abs(B), [[1.0]])

    def test_constant_node_then_centred_directions(self):
        X = np.random.default_rng(6).standard_normal((30, 4))
        A = lift_input(X)
        B, W1 = build_basis1_exact(A)
        assert B.shape == (30, 5) and W1.shape == (5, 5)
        # the constant node: weights e_0, values the ones column, bit for bit
        assert np.array_equal(W1[:, 0], np.eye(5)[:, 0])
        assert np.array_equal(B[:, 0], np.ones(30))
        # the centred directions are orthogonal to 1 and to each other
        assert np.abs(B[:, 1:].sum(axis=0)).max() <= 1e-12 * 30
        np.testing.assert_allclose(B.T @ B / 30, np.eye(5), rtol=0, atol=1e-12)
        assert np.array_equal(A @ W1, B)
        assert span_equal(B, A)
        # rank deficiency drops columns and keeps the span
        Xd = np.column_stack([X, X[:, 0] - 2.0 * X[:, 1]])
        Bd, W1d = build_basis1_exact(lift_input(Xd))
        assert Bd.shape == (30, 5) and W1d.shape == (6, 5)
        assert span_equal(Bd, lift_input(Xd))

    def test_constant_columns_give_the_constant_node_alone(self):
        # centring 0.1 or 1e5 + 0.7 leaves ulps behind, not a direction
        for X in (np.zeros((7, 3)), np.full((1000, 3), [0.1, 1e5 + 0.7, 3.0])):
            B, W1 = build_basis1_exact(lift_input(X))
            assert np.array_equal(B, np.ones((X.shape[0], 1)))
            assert np.array_equal(W1, np.eye(4, 1))


class TestFirstLayerWidth:
    def test_truncates_to_gamma(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 4))  # rank of [1 X] = 5
        B, W1 = build_basis1_width(lift_input(X), gamma=3)
        assert B.shape[1] == W1.shape[1] == 3

    def test_gamma_at_least_rank_matches_exact_span(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((15, 3))
        full, _ = build_basis1_exact(lift_input(X))
        wide, _ = build_basis1_width(lift_input(X), gamma=10)
        assert wide.shape[1] == full.shape[1]
        assert span_equal(wide, full)

    def test_gamma_one_on_line_is_top_singular_direction(self, line_points):
        # Gram of [1 X] is [[3,3],[3,5]]; its top eigenvector is
        # proportional to (3, 1+sqrt(10)), giving the direction below.
        B, _ = build_basis1_width(lift_input(line_points), gamma=1)
        assert B.shape[1] == 1
        expect = np.array([3.0, 4.0 + math.sqrt(10), 5.0 + 2 * math.sqrt(10)])
        got = B[:, 0]
        cos = abs(got @ expect) / (np.linalg.norm(got) * np.linalg.norm(expect))
        assert cos >= 1.0 - 1e-12
        np.testing.assert_allclose(np.linalg.norm(got), math.sqrt(3))

    def test_randomized_mode_matches_exact_span(self):
        # a wide lift of rank 7, which the randomized route sketches
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 6)) @ rng.standard_normal((6, 300))
        a, _ = build_basis1_width(lift_input(X), gamma=7, svd_mode="exact")
        b, _ = build_basis1_width(lift_input(X), gamma=7, svd_mode="randomized", seed=5)
        assert span_equal(a, b)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            build_basis1_width(np.ones((2, 2)), 1, svd_mode="qr")

    def test_rank_deficient_tall_lift(self):
        # [1 X] is 200 x 11 of rank 5; gamma = 8 lies between rank and
        # width, so the top directions come from the Gram matrix
        rng = np.random.default_rng(4)
        x = rng.standard_normal((200, 4))
        X = np.hstack([x, x, x[:, :2]])
        B, W1 = build_basis1_width(lift_input(X), gamma=8)
        assert B.shape[1] == W1.shape[1] <= 5
        state = initial_state((B, W1))
        assert state.layer1_cols == B.shape[1]
        np.testing.assert_allclose(B.T @ B / 200, np.eye(B.shape[1]), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m, d, gamma", [(30, 4, None), (30, 4, 5), (30, 4, 9), (6, 12, 4)])
    def test_svd_route_unchanged(self, m, d, gamma):
        # width mode with gamma >= d+1 and a wide lift (rows < d+1) take the
        # plain SVD of [1 X], bit for bit; exact mode (gamma None) takes the
        # constant node e_0, then [-x̄^T v; v] for each right singular
        # vector v of the centred X
        X = np.random.default_rng(5).standard_normal((m, d))
        A = lift_input(X)
        if gamma is None:
            got, mean = build_basis1_exact(A), X.mean(axis=0)
            V = thin_svd(X - mean).V
            V = np.vstack([np.concatenate([[1.0], -mean @ V]),
                           np.column_stack([np.zeros(d), V])])
        else:
            got, V = build_basis1_width(A, gamma), thin_svd(A).V[:, :gamma]
        want = _scaled_projection(A, V)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("m, d, gamma", [(400, 20, 30), (2500, 50, 100), (1500, 400, 50),
                                             (200, 119, 26)])
    def test_randomized_stays_exact_where_the_sketch_costs_more(self, m, d, gamma):
        # min(m, d+1)^2 <= 2 m (gamma + OVERSAMPLE): tall and narrow lifts, a
        # gamma past d+1, a lift near the crossing and one on the rule's edge
        # (120^2 = 2 * 200 * 36) all keep the exact factor, bit for bit
        A = lift_input(np.random.default_rng(6).standard_normal((m, d)))
        got = build_basis1_width(A, gamma, svd_mode="randomized", seed=3)
        want = build_basis1_width(A, gamma, svd_mode="exact")
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("m, d, gamma", [(200, 119, 25), (300, 200, 20), (60, 300, 10)])
    def test_randomized_sketches_where_cheaper(self, m, d, gamma):
        # just past the rule's edge, a square-ish lift and a wide one take
        # the seeded range finder, which lands elsewhere than the exact factor
        A = lift_input(np.random.default_rng(6).standard_normal((m, d)))
        got = build_basis1_width(A, gamma, svd_mode="randomized", seed=3)
        want = _scaled_projection(A, randomized_range_svd(A, gamma, seed=3).V)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert not np.array_equal(got[1], build_basis1_width(A, gamma, svd_mode="exact")[1])

    def test_randomized_is_the_default(self):
        assert TrainConfig().svd == "randomized"
        args = build_parser().parse_args(["train", "--data", "d", "--out", "o"])
        assert args.svd == "randomized"


class TestInitialState:
    """The state holds layer 1's weights in the order admission took B's columns."""

    def test_reordered_columns_keep_their_weights(self):
        # on a rank-3 B, admission's pivot takes c before the near-copy of a
        rng = np.random.default_rng(7)
        a, b, c = rng.standard_normal((3, 30))
        B = np.column_stack([a, a + 1e-3 * b, c])
        state = initial_state((B, np.eye(3)))
        assert state.ncols == state.layer1_cols == 3
        np.testing.assert_array_equal(state.W1, np.eye(3)[:, [0, 2, 1]])
        np.testing.assert_array_equal(state.F, B @ state.W1)
        assert state.layer_ranges == [(0, 3)]

    def test_weights_reproduce_columns(self):
        X = np.random.default_rng(8).standard_normal((12, 3))
        layer1 = build_basis1_width(lift_input(X), gamma=3)
        state = initial_state(layer1)
        np.testing.assert_array_equal(state.W1, layer1[1])
        np.testing.assert_array_equal(state.F, lift_input(X) @ state.W1)

    def test_dependent_column_refused(self):
        a, c = np.random.default_rng(9).standard_normal((2, 10))
        B = np.column_stack([a, c, 2.0 * a])
        with pytest.raises(ValueError, match="linearly independent"):
            initial_state((B, np.eye(3)))


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

    def test_nodes_reproduce_columns(self):
        # node (p, f, w) is w times previous-layer column p (0-based within
        # its layer) times layer-1 column f, and the network's layer
        # evaluator reads the triples the same way
        X = np.random.default_rng(21).standard_normal((30, 3))
        for mode in ("exact", "width"):
            state = exact_state(X)
            n1 = state.layer1_cols
            for _ in range(2):
                lo, hi = state.layer_ranges[-1]
                if mode == "exact":
                    res = build_basis_t_exact(state)
                else:
                    res = build_basis_t_width(state, X[:, :1] ** 3, gamma=6, b=2)
                assert res.width > 0 and len(res.triples()) == res.width
                start, stop = state.layer_ranges[-1]
                assert (start, stop) == (hi, hi + res.width)
                new_columns = state.F[:, start:stop]
                for col, (p, f, w) in zip(new_columns.T, res.triples()):
                    assert 0 <= p < hi - lo and 0 <= f < n1
                    np.testing.assert_array_equal(
                        col, w * (state.F[:, lo + p] * state.F[:, f]))
                np.testing.assert_array_equal(
                    layer_values(state.F[:, :n1], state.F[:, lo:hi], res), new_columns)

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


class TestLayerRecord:
    """The state is the one record of the layers built so far: each product
    build appends the layer it returns, and the ranges follow the widths."""

    @pytest.mark.parametrize("mode", ["exact", "width"])
    def test_each_build_appends_the_layer_it_returns(self, mode):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((40, 3))
        state = exact_state(X)
        for depth in range(1, 4):
            if mode == "exact":
                built = build_basis_t_exact(state)
            else:
                built = build_basis_t_width(state, rng.standard_normal((40, 1)), gamma=5, b=2)
            assert built.width > 0
            assert len(state.layers) == depth and state.layers[-1] is built
            widths = [state.layer1_cols] + [L.width for L in state.layers]
            stops = np.cumsum(widths).tolist()
            assert state.layer_ranges == list(zip([0] + stops[:-1], stops))
            assert stops[-1] == state.ncols

    @pytest.mark.parametrize("mode", ["exact", "width"])
    def test_saturated_build_appends_nothing(self, mode):
        state = exact_state(np.random.default_rng(20).standard_normal((5, 2)))
        assert build_basis_t_exact(state).width == 2 and state.ncols == 5
        layers, ranges = list(state.layers), state.layer_ranges
        if mode == "exact":
            built = build_basis_t_exact(state)
        else:
            built = build_basis_t_width(state, np.ones((5, 1)), gamma=3, b=1)
        assert built.width == 0 and built.triples() == []
        assert state.layers == layers and state.layer_ranges == ranges

    @pytest.mark.parametrize("mode", ["exact", "width"])
    def test_network_keeps_the_states_first_layers(self, mode, monkeypatch):
        from basis_learner import trainer
        from basis_learner.dataset import make_dataset

        states = []

        def recording_initial_state(layer1, tol=None):
            states.append(initial_state(layer1, tol))
            return states[-1]

        monkeypatch.setattr(trainer, "initial_state", recording_initial_state)
        rng = np.random.default_rng(22)
        X = rng.standard_normal((60, 2))
        y = X[:, 0] * X[:, 1] ** 2 + 0.3 * rng.standard_normal(60)
        ds = make_dataset(X[:45], y[:45], task="regression")
        valid = make_dataset(X[45:], y[45:], task="regression")
        cfg = trainer.TrainConfig(mode=mode, gamma=4, batch=2, max_depth=6, patience=1)
        net, trace = trainer.train(ds, valid, cfg)
        (state,) = states
        assert trace.best_depth < len(trace.records) + 1  # the run built past its best
        kept = state.layers[: trace.best_depth - 2]
        assert len(net.product_layers) == len(kept)
        assert all(a is b for a, b in zip(net.product_layers, kept))
        np.testing.assert_array_equal(trace.feature_columns, state.F[:, : net.total_nodes])
        np.testing.assert_array_equal(net.W1, state.W1)
        assert state.layer1_cols == state.W1.shape[1] == net.layer_widths[0]


def q_state(Q):
    """State whose F and Q hold exactly the given orthonormal columns, so R
    is the identity, as layer 1 of a network whose input is F itself (W1
    selects the columns)."""
    m, k = Q.shape
    W1 = np.eye(k + 1, k, -1)
    return BasisState(F_buf=Q.copy(), Q_buf=Q.copy(), R_buf=np.eye(k, order="F"),
                      W1=W1, ncols=k)


def check_recorded_r(state):
    """R is exactly upper triangular, with F = QR and R = Q^T F to rounding."""
    F, Q, R = state.F, state.Q, state.R
    assert R.base is state.R_buf and R.shape == (state.ncols, state.ncols)
    assert not np.tril(R, -1).any()
    scale = 1e-12 * np.linalg.norm(F)
    assert np.linalg.norm(F - Q @ R) <= scale
    assert np.linalg.norm(R - Q.T @ F) <= scale


class TestAdmit:
    def test_dependent_column_skipped(self):
        Q = np.linalg.qr(np.random.default_rng(9).standard_normal((7, 3)))[0]
        state = q_state(Q)
        idx, w = state.admit(Q[:, 1:2] * 2.5, default_tol(7))
        assert idx.size == w.size == 0
        assert state.ncols == 3

    def test_normalizes_from_empty(self):
        state = q_state(np.zeros((2, 0)))
        idx, w = state.admit(np.array([[3.0], [4.0]]), default_tol(2))
        assert idx.tolist() == [0] and w.tolist() == [math.sqrt(2) / 5.0]
        np.testing.assert_allclose(state.Q, [[0.6], [0.8]])
        np.testing.assert_array_equal(state.F, w[0] * np.array([[3.0], [4.0]]))

    def test_identical_columns_collapse(self):
        c = np.random.default_rng(1).standard_normal((6, 1))
        state = q_state(np.zeros((6, 0)))
        assert state.admit(c, default_tol(6))[0].tolist() == [0]
        assert state.admit(c.copy(), default_tol(6))[0].size == 0
        assert state.Q.shape == (6, 1)

    def test_identical_columns_in_one_block_collapse(self):
        c = np.random.default_rng(1).standard_normal(6)
        state = q_state(np.zeros((6, 0)))
        idx, _ = state.admit(np.column_stack([c, c]), default_tol(6))
        assert idx.tolist() == [0]
        assert state.Q.shape == (6, 1)

    def test_zero_column_skipped(self):
        state = q_state(np.zeros((4, 0)))
        assert state.admit(np.zeros((4, 1)), default_tol(4))[0].size == 0
        assert state.Q.shape == (4, 0)

    def test_full_span_admits_nothing(self):
        # even at tol 0, where the rounding left in the residual would pass
        Q = np.linalg.qr(np.random.default_rng(2).standard_normal((3, 3)))[0]
        state = q_state(Q)
        idx, w = state.admit(np.ones((3, 2)), 0.0)
        assert idx.size == w.size == 0
        assert state.ncols == 3

    def test_column_dependent_on_earlier_block_column_skipped(self):
        rng = np.random.default_rng(3)
        state = q_state(np.linalg.qr(rng.standard_normal((10, 2)))[0])
        a, b, c = rng.standard_normal((3, 10))
        # the third column is in the span of Q and the block's first two
        dep = 2.0 * a - 3.0 * b + 5.0 * state.Q[:, 0]
        idx, w = state.admit(np.column_stack([a, b, dep, c]), default_tol(10))
        np.testing.assert_array_equal(idx, [0, 1, 3])
        assert state.ncols == 2 + idx.size == 5
        np.testing.assert_array_equal(state.F[:, 4], w[2] * c)
        assert np.abs(state.Q.T @ state.Q - np.eye(5)).max() <= 1e-12
        assert np.abs(np.tril(state.Q.T @ state.F, -1)).max() <= 1e-12 * math.sqrt(10)
        check_recorded_r(state)

    def test_near_dependent_block_column_reorthogonalized(self):
        # one pass off the first column would leave ~eps / 1e-6 of it behind
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal((2, 50))
        state = q_state(np.zeros((50, 0)))
        idx, _ = state.admit(np.column_stack([a, a + 1e-6 * b]), 1e-10)
        assert idx.tolist() == [0, 1]
        assert np.abs(state.Q.T @ state.Q - np.eye(2)).max() <= 1e-14

    def test_block_saturates_partway(self):
        # at tol 0 only the saturation check keeps the last columns out
        rng = np.random.default_rng(4)
        state = q_state(np.linalg.qr(rng.standard_normal((5, 3)))[0])
        idx, _ = state.admit(rng.standard_normal((5, 4)), 0.0)
        # the first column leads; pivoting picks which other one follows
        assert idx.size == 2 and idx[0] == 0
        assert state.ncols == state.m == 5
        assert np.abs(state.Q.T @ state.Q - np.eye(5)).max() <= 1e-12

    def test_layer1_block_stored_as_given(self):
        B = np.random.default_rng(5).standard_normal((8, 3))
        state = q_state(np.zeros((8, 0)))
        idx, w = state.admit(B, default_tol(8), scale=False)
        np.testing.assert_array_equal(idx, [0, 1, 2])
        np.testing.assert_array_equal(w, [1.0] * 3)
        np.testing.assert_array_equal(state.F, B)

    def test_near_copy_waits_behind_more_independent_column(self):
        # once a is in, the near-copy keeps ~1e-3 of its norm as residual
        # and c nearly all of its own, so c is admitted before it
        rng = np.random.default_rng(7)
        a, b, c = rng.standard_normal((3, 30))
        state = q_state(np.zeros((30, 0)))
        idx, w = state.admit(np.column_stack([a, a + 1e-3 * b, c]), default_tol(30))
        np.testing.assert_array_equal(idx, [0, 2, 1])
        np.testing.assert_array_equal(state.F[:, 1], w[1] * c)
        assert np.abs(np.tril(state.Q.T @ state.F, -1)).max() <= 1e-12 * math.sqrt(30)
        check_recorded_r(state)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
    def test_output_orthonormal_and_in_buffer(self, seed, q0, extra):
        rng = np.random.default_rng(seed)
        state = q_state(np.linalg.qr(rng.standard_normal((12, q0)))[0])
        assert state.admit(rng.standard_normal((12, extra)), default_tol(12))[0].size == extra
        Q = state.Q
        assert Q.shape == state.F.shape == (12, q0 + extra)
        assert np.shares_memory(Q, state.Q_buf) and np.shares_memory(state.F, state.F_buf)
        assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() <= 1e-8


def cgs2(c, Q):
    """Explicit CGS2 residual of c off the orthonormal columns of Q."""
    r = c - Q @ (Q.T @ c)
    return r - Q @ (Q.T @ r)


def cgs2_exact_layer(state, tol):
    """F after one exact-mode layer built by scanning the candidates one at
    a time in index order, each tested by CGS2 against the full Q (this
    layer's earlier admissions included). Leaves ``state`` unchanged."""
    m, n1 = state.m, state.layer1_cols
    F, Q = list(state.F.T.copy()), list(state.Q.T.copy())
    lo, hi = state.layer_ranges[-1]
    for p in range(hi - lo):
        for j in range(n1):
            c = F[lo + p] * F[j]
            r = cgs2(c, np.array(Q).T)
            nr = np.linalg.norm(r)
            if len(Q) < m and nr > tol:
                Q.append(r / nr)
                F.append(math.sqrt(m) / np.linalg.norm(c) * c)
    return np.array(F).T


class TestExactLayerSpan:
    """Exact mode spans what a column-by-column CGS2 scan spans. Nodes are
    not compared: admission pivots, so its order differs from the scan's."""

    @pytest.mark.parametrize("seed,m,d", [(21, 30, 2), (22, 60, 3), (23, 120, 4)])
    def test_span_matches_column_cgs2(self, seed, m, d):
        X = np.random.default_rng(seed).standard_normal((m, d))
        state = exact_state(X)
        tol = default_tol(m)
        for _ in range(4):
            want_F = cgs2_exact_layer(state, tol)
            built = build_basis_t_exact(state, tol)
            lo, hi = state.layer_ranges[-1]
            assert built.width == hi - lo > 0
            assert span_equal(state.F, want_F)
            check_state_invariants(state)


def node_multisets(state):
    """Each layer's node multisets of layer-1 indices, as sorted tuples,
    built one node at a time; layer-1 node j is (j,), or () when it has
    zero weight on every input (the constant function)."""
    sets = [[(j,) if state.W1[1:, j].any() else () for j in range(state.layer1_cols)]]
    for layer in state.layers:
        sets.append([tuple(sorted(sets[-1][p] + (f,))) for p, f, _ in layer.triples()])
    return sets


def candidate_multisets(state):
    """Each next-layer candidate's multiset, in flat order p * n1 + j."""
    sets = node_multisets(state)
    return [tuple(sorted(s + f)) for s in sets[-1] for f in sets[0]]


def built_multisets(state):
    """The multisets of every node built so far."""
    return {key for layer in node_multisets(state) for key in layer}


def first_copies(state):
    """Flat indices of the first candidate of each multiset that no node
    built so far has, ascending."""
    seen, first = built_multisets(state), []
    for flat, key in enumerate(candidate_multisets(state)):
        if key not in seen:
            seen.add(key)
            first.append(flat)
    return first


def reference_scores(state, O_V, tol):
    """Width-mode scores from an explicit CGS2 residual of every first copy
    of a multiset; a later copy (t*s beside s*t) scores -1."""
    lo, hi = state.layer_ranges[-1]
    n1 = state.layer1_cols
    Q = state.Q
    scores = np.full((hi - lo) * n1, -1.0)
    for flat in first_copies(state):
        p, j = divmod(flat, n1)
        r = cgs2(state.F[:, lo + p] * state.F[:, j], Q)
        nr = np.linalg.norm(r)
        if nr > tol:
            scores[flat] = np.linalg.norm(O_V.T @ r) / nr
    return scores


def admit_top(state, scores, count, tol):
    lo, _ = state.layer_ranges[-1]
    n1 = state.layer1_cols
    for flat in np.argsort(-scores, kind="stable")[:count]:
        p, j = divmod(int(flat), n1)
        state.admit((state.F[:, lo + p] * state.F[:, j])[:, None], tol)


def sign_state(m, noise):
    """Layer 1 [1, s, t] with s = +-1 plus ``noise`` times a random vector,
    so the candidate s*s is 1 plus a residual of relative size ~noise."""
    rng = np.random.default_rng(15)
    s = np.where(np.arange(m) % 2 == 0, 1.0, -1.0) + noise * rng.standard_normal(m)
    lifted = lift_input(np.column_stack([s, rng.standard_normal(m)]))
    W1 = np.diag(math.sqrt(m) / np.linalg.norm(lifted, axis=0))
    return initial_state((lifted @ W1, W1))


def chunk_case(name):
    """A state and a target for the scoring-chunk tests."""
    rng = np.random.default_rng(21)
    if name in ("dependent", "near-dependent"):
        return sign_state(40, 0.0 if name == "dependent" else 1e-7), rng.standard_normal((40, 1))
    X = rng.standard_normal((60, 4))
    V = np.column_stack([X[:, 0] * X[:, 1] * X[:, 2], X[:, 3] ** 2])
    state = initial_state(build_basis1_width(lift_input(X), gamma=5))
    if name == "layer3":
        build_basis_t_width(state, V, gamma=6, b=2)
    return state, V


def score_rounds(state, V, cap, monkeypatch, b=2):
    """Every round ``CandidateScores.round`` takes on a copy of ``state``,
    chunked at most ``cap`` columns wide, admitting the ``b`` best after each:
    a list of (scores, live, proj2, picks), one per round."""
    monkeypatch.setattr(basis, "_SCORE_CHUNK", cap)
    state = copy.deepcopy(state)
    tol = default_tol(state.m)
    scorer = CandidateScores(state)
    rounds = []
    while True:
        V = residual(V, state.Q)
        scores = scorer.round(state, thin_svd(V).U, tol)
        take = np.argsort(-scores, kind="stable")[: min(b, np.count_nonzero(scores >= 0))]
        rounds.append((scores, scorer.live.copy(), scorer.proj2.copy(), take))
        if not take.size:
            return rounds
        scorer.live[take] = False
        basis._admit_products(state, take, tol, [])


def live_ranges(live, n1):
    """Each previous-layer column's [j0, j1) covering its live candidates, or None."""
    return [(row.argmax(), n1 - row[::-1].argmax()) if row.any() else None
            for row in live.reshape(-1, n1)]


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
        # admitted candidates scored as dependent and dropped out; later
        # copies of a multiset were never live
        assert (~scorer.live[first_copies(state)]).sum() >= 12

    def test_near_dependent_candidate_scored_explicitly(self):
        tol = default_tol(40)
        V = np.random.default_rng(16).standard_normal((40, 1))
        ss = 1 * 3 + 1  # candidate s * s
        for noise in (1e-6, 1e-7):
            state = sign_state(40, noise)
            O_V = thin_svd(residual(V, state.Q)).U
            got = CandidateScores(state).round(state, O_V, tol)
            want = reference_scores(state, O_V, tol)
            # its residual ratio is ~noise, so ||c||^2 - ||Q^T c||^2 has lost twelve
            # digits or more; the score matches only if its norm and its projection
            # onto O_V both come from an explicit residual
            assert want[ss] >= 0 and got[ss] >= 0
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_exactly_dependent_candidate_never_admitted(self):
        state = sign_state(40, 0.0)  # s * s == 1 exactly
        tol = default_tol(40)
        t = state.F[:, 2]
        res = build_basis_t_width(state, (t * t)[:, None], gamma=3, b=3)
        # of the 9 products only s*t (twice, as t*s) and t*t are independent
        refs = {(p, f) for p, f, _ in res.triples()}
        assert res.width == 2
        assert (2, 2) in refs and len(refs & {(1, 2), (2, 1)}) == 1
        check_state_invariants(state)

    @pytest.mark.parametrize("name", ["layer2", "layer3", "dependent", "near-dependent"])
    def test_chunk_cap_changes_no_decision(self, name, monkeypatch):
        # one previous-layer column per chunk, a few per chunk, and every
        # candidate in one chunk: the same live candidates and picks round
        # after round, and the same scores and proj2 up to rounding (BLAS picks
        # its kernel by shape, so a column's product can move by an ulp with
        # the width of the block it is in)
        state, V = chunk_case(name)
        n1 = state.layer1_cols
        runs = [score_rounds(state, V, cap, monkeypatch) for cap in (1, n1 + 1, 10**6)]
        for run in runs[1:]:
            assert len(run) == len(runs[0])
            for (scores, live, proj2, picks), want in zip(run, runs[0]):
                np.testing.assert_array_equal(live, want[1])
                np.testing.assert_array_equal(picks, want[3])
                np.testing.assert_array_equal(scores < 0, want[0] < 0)
                np.testing.assert_allclose(scores, want[0], rtol=1e-12, atol=1e-15)
                np.testing.assert_allclose(proj2, want[2], rtol=1e-12, atol=1e-12)
        rounds = runs[0]
        norm2 = CandidateScores(state).norm2
        ranges = [live_ranges(live, n1) for _, live, _, _ in rounds]
        if name == "layer2":
            # no multiset repeats and no constant node: column p's range is j >= p
            assert ranges[0] == [(p, n1) for p in range(n1)]
        elif name == "layer3":
            # some range holds a dead candidate, and some column runs out of live ones
            assert any((~live[p * n1 + lo : p * n1 + hi]).any()
                       for (_, live, _, _), rs in zip(rounds, ranges)
                       for p, (lo, hi) in enumerate(filter(None, rs)))
            assert any(None in rs for rs in ranges[1:])
        else:
            ss = 1 * n1 + 1  # candidate s * s
            scores, live, proj2, _ = rounds[0]
            if name == "dependent":
                assert scores[ss] == -1 and not live[ss]
            else:
                assert scores[ss] >= 0
                assert norm2[ss] - proj2[ss] < basis._EXPLICIT_RATIO**2 * norm2[ss]

    @staticmethod
    def record_forms(monkeypatch):
        """The form each ``CandidateScores.round`` takes, in order: "c" for
        the chunked candidates, "q" for the new Q columns times layer 1."""
        forms = []
        for name in ("_candidate_form", "_q_form"):
            def spy(self, *args, _form=getattr(CandidateScores, name), _tag=name[1]):
                forms.append(_tag)
                return _form(self, *args)
            monkeypatch.setattr(CandidateScores, name, spy)
        return forms

    @pytest.mark.parametrize("target", ["two-columns", "none-left"])
    def test_later_rounds_project_the_new_q_columns(self, target, monkeypatch):
        # layer 3 at b = 2 with a 2-column target: a later round's (2 + 2) * n1
        # H columns times layer 1 are narrower than its live ranges, so it
        # projects those through layer 1; every round scores, keeps live and
        # picks as an explicit CGS2 residual of each candidate does, also
        # when the target is spent and O_V has no columns
        forms = self.record_forms(monkeypatch)
        state, V = chunk_case("layer3")
        if target == "none-left":
            V = np.zeros_like(V)
        tol = default_tol(state.m)
        scorer = CandidateScores(state)
        while True:
            V = residual(V, state.Q)
            O_V = thin_svd(V).U
            got = scorer.round(state, O_V, tol)
            want = reference_scores(state, O_V, tol)
            np.testing.assert_array_equal(got >= 0, want >= 0)
            np.testing.assert_array_equal(scorer.live, want >= 0)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
            take = np.argsort(-got, kind="stable")[: min(2, np.count_nonzero(got >= 0))]
            np.testing.assert_array_equal(take, np.argsort(-want, kind="stable")[: take.size])
            if not take.size:
                break
            scorer.live[take] = False
            basis._admit_products(state, take, tol, [])
        # the first round projects onto all of Q, so it forms the candidates
        assert forms[0] == "c" and forms.count("q") >= 2, forms

    def test_q_form_round_peak_memory(self, monkeypatch):
        # a round that takes the Q-form holds the m x _SCORE_CHUNK scratch and
        # arrays over the candidates, but no m-row copy of H = [Q_new | O_V]
        # or of the previous layer
        rng = np.random.default_rng(23)
        X = rng.standard_normal((4000, 12))
        y = (X[:, 0] * X[:, 1] * X[:, 2])[:, None]
        state = initial_state(build_basis1_width(lift_input(X), gamma=13))
        build_basis_t_width(state, y, gamma=40, b=40)
        forms = self.record_forms(monkeypatch)
        n1, (lo, hi) = state.layer1_cols, state.layer_ranges[-1]
        tol = default_tol(state.m)
        scorer = CandidateScores(state)
        V = residual(y, state.Q)
        take = np.argsort(-scorer.round(state, thin_svd(V).U, tol), kind="stable")[:5]
        scorer.live[take] = False
        basis._admit_products(state, take, tol, [])
        O_V = thin_svd(residual(V, state.Q)).U
        tracemalloc.start()
        try:
            scorer.round(state, O_V, tol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert forms == ["c", "q"]
        group = basis._SCORE_CHUNK // n1
        scratch = state.m * group * n1 * 8
        # the P x group x n1 product, and a dozen arrays of one value a candidate
        per_candidate = (group + 12) * (hi - lo) * n1 * 8
        bound = scratch + per_candidate + 64 * 1024
        assert peak <= bound, (peak, scratch, per_candidate)
        assert peak + state.m * (5 + O_V.shape[1]) * 8 > bound  # a copy of H would not fit

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
            assert state.ncols <= state.Q_buf.shape[1] == state.F_buf.shape[1] <= state.m
            assert np.shares_memory(Q, state.Q_buf)
            assert np.abs(Q.T @ Q - np.eye(state.ncols)).max() <= 1e-8


def grow(state, mode, layers):
    """Build ``layers`` product layers on ``state`` in the given mode."""
    y = np.random.default_rng(18).standard_normal((state.m, 1))
    for _ in range(layers):
        if mode == "exact":
            build_basis_t_exact(state)
        else:
            build_basis_t_width(state, y, gamma=6, b=2)


def mode_state(mode, m=40, d=3, seed=19):
    X = np.random.default_rng(seed).standard_normal((m, d))
    if mode == "exact":
        return exact_state(X)
    return initial_state(build_basis1_width(lift_input(X), gamma=3))


class TestDistinctCandidates:
    """The one enumerator both builders offer from: the first candidate of
    each multiset of layer-1 indices, in ascending flat order."""

    @pytest.mark.parametrize("mode", ["exact", "width"])
    def test_matches_brute_force_first_copies(self, mode):
        state = mode_state(mode)
        for _ in range(4):
            got = _distinct_candidates(state)
            assert got.tolist() == first_copies(state)
            keys = candidate_multisets(state)
            assert len({keys[i] for i in got}) == got.size == len(set(keys) - built_multisets(state))
            grow(state, mode, 1)

    def test_exact_interp_shape_halves_layer_two(self):
        # d = 8 gives n1 = 9 layer-1 nodes, the constant one first: 81 products,
        # 9 * 10 / 2 multisets, of which the 9 holding the constant node copy
        # a layer-1 node, leaving the 8 * 9 / 2 degree-2 monomials
        state = exact_state(np.random.default_rng(20).standard_normal((100, 8)))
        assert state.layer1_cols == 9
        assert _distinct_candidates(state).size == 36 == math.comb(8 + 1, 2)

    def test_exact_layer_two_rejects_nothing(self, monkeypatch):
        state = exact_state(np.random.default_rng(20).standard_normal((100, 8)))
        offered, admitted = [], []
        admit = BasisState.admit

        def spy(self, C, tol, scale=True):
            idx, w = admit(self, C, tol, scale)
            offered.append(C.shape[1])
            admitted.append(idx.size)
            return idx, w

        monkeypatch.setattr(BasisState, "admit", spy)
        assert build_basis_t_exact(state).width == 36
        assert offered == admitted == [36]

    def test_exact_builder_stops_once_f_is_full(self, monkeypatch):
        # m = 60, d = 8: 9 + 36 columns after layer 2, so layer 3 fills F from
        # its first block of 64 of the 120 degree-3 monomials
        state = exact_state(np.random.default_rng(20).standard_normal((60, 8)))
        build_basis_t_exact(state)
        assert _distinct_candidates(state).size == 120
        full_at_call = []
        admit = BasisState.admit

        def spy(self, C, tol, scale=True):
            full_at_call.append(self.ncols == self.m)
            return admit(self, C, tol, scale)

        monkeypatch.setattr(BasisState, "admit", spy)
        assert build_basis_t_exact(state).width == 15
        assert state.ncols == state.m
        assert full_at_call == [False]
        assert build_basis_t_exact(state).width == 0
        assert full_at_call == [False]

    def test_exact_builder_offers_each_multiset_once(self, monkeypatch):
        state = mode_state("exact", m=200, d=5)
        grow(state, "exact", 1)
        want = len(first_copies(state))
        # the degree-3 monomials in 5 variables, of 15 * 6 products
        assert want == math.comb(5 + 2, 3) < state.layers[-1].width * state.layer1_cols
        offered = []
        admit = BasisState.admit

        def spy(self, C, tol, scale=True):
            offered.append(C.shape[1])
            return admit(self, C, tol, scale)

        monkeypatch.setattr(BasisState, "admit", spy)
        build_basis_t_exact(state)
        assert offered == [want]

    @pytest.mark.parametrize("mode", ["exact", "width"])
    def test_no_layer_repeats_a_multiset(self, mode):
        state = mode_state(mode, m=80)
        grow(state, mode, 4)
        assert len(state.layers) == 4
        for keys in node_multisets(state)[1:]:
            assert len(set(keys)) == len(keys)


class TestAdmissionInvariants:
    """After every admission F and Q are views of the state's buffers,
    Q^T F is upper triangular (Q is the CGS2 orthonormalisation of F,
    column by column), admission's R is its F = QR factor and every F
    column has norm √m."""

    @staticmethod
    def check(state):
        F, Q, m = state.F, state.Q, state.m
        assert F.base is state.F_buf and Q.base is state.Q_buf
        below = np.tril(Q.T @ F, -1)
        assert np.abs(below).max(initial=0.0) <= 1e-12 * math.sqrt(m)
        check_recorded_r(state)
        np.testing.assert_allclose(np.linalg.norm(F, axis=0), math.sqrt(m), rtol=1e-12)

    @pytest.mark.parametrize("mode", ["exact", "width"])
    def test_after_every_admission(self, mode, monkeypatch):
        admit = BasisState.admit
        admitted = []

        def checked_admit(state, C, tol, scale=True):
            idx, w = admit(state, C, tol, scale)
            self.check(state)
            admitted.append(idx.size)
            return idx, w

        monkeypatch.setattr(BasisState, "admit", checked_admit)
        rng = np.random.default_rng(18)
        X = rng.standard_normal((40, 3))
        if mode == "exact":
            layer1 = build_basis1_exact(lift_input(X))
        else:
            layer1 = build_basis1_width(lift_input(X), gamma=3)
        state = initial_state(layer1)
        # layer-1 columns are stored as built, bit-equal to the deployed layer
        np.testing.assert_array_equal(state.F, lift_input(X) @ layer1[1])
        for _ in range(4):
            if mode == "exact":
                build_basis_t_exact(state)
            else:
                build_basis_t_width(state, rng.standard_normal((40, 1)), gamma=5, b=2)
        assert sum(admitted) == state.ncols
        assert state.ncols - state.layer1_cols >= 18


class TestRecordedR:
    """R is written by admission, not formed as Q^T F (check_recorded_r);
    the pivoted and skipped-column blocks are checked in TestAdmit."""

    @pytest.mark.parametrize("mode", ["exact", "width"])
    def test_after_two_layers(self, mode):
        state = mode_state(mode, m=60)
        check_recorded_r(state)
        grow(state, mode, 2)
        assert len(state.layers) == 2
        check_recorded_r(state)

    def test_survives_buffer_growth(self):
        state = mode_state("exact", m=60)
        R = state.R.copy()
        state.reserve(state.ncols + 5)
        np.testing.assert_array_equal(state.R, R)
        assert state.R_buf.flags.f_contiguous and state.R_buf.shape == (state.ncols + 5,) * 2


class TestLayout:
    """F, Q and R are column-major, so an admitted column is contiguous."""

    @staticmethod
    def check(state):
        assert state.F_buf.flags.f_contiguous and state.Q_buf.flags.f_contiguous
        assert state.R_buf.flags.f_contiguous
        assert state.Q[:, -1].flags.contiguous

    @pytest.mark.parametrize("mode", ["exact", "width"])
    def test_column_major(self, mode):
        rng = np.random.default_rng(22)
        X = rng.standard_normal((30, 3))
        state = initial_state(build_basis1_width(lift_input(X), gamma=3))
        self.check(state)
        for _ in range(2):
            if mode == "exact":
                build_basis_t_exact(state)
            else:
                build_basis_t_width(state, rng.standard_normal((30, 1)), gamma=5, b=2)
            self.check(state)


class TestBufferBudget:
    """F, Q and R buffers above the byte budget are refused before allocation."""

    def test_reserve_refuses_over_budget(self, monkeypatch):
        state = exact_state(np.random.default_rng(19).standard_normal((20, 2)))
        F_buf, R_buf = state.F_buf, state.R_buf
        # 20 rows x 10 columns twice, and 10 x 10, of 8-byte floats
        monkeypatch.setattr(basis, "_BUFFER_BUDGET", 3999)
        with pytest.raises(ValueError, match="F, Q and R need 4000 bytes for 20 rows "
                           "x 10 columns, over the budget of 3999 bytes"):
            state.reserve(10)
        assert state.F_buf is F_buf and state.R_buf is R_buf
        monkeypatch.setattr(basis, "_BUFFER_BUDGET", 4000)
        state.reserve(10)
        assert state.F_buf.shape == state.Q_buf.shape == (20, 10)
        assert state.R_buf.shape == (10, 10)

    def test_exact_build_refused_at_doubling(self, monkeypatch):
        # the 3 layer-1 columns fit; room for the layer's 6 distinct products does not
        state = exact_state(np.random.default_rng(20).standard_normal((20, 2)))
        monkeypatch.setattr(basis, "_BUFFER_BUDGET", 2 * 20 * 6 * 8)
        with pytest.raises(ValueError, match="over the budget"):
            build_basis_t_exact(state)

    def test_refused_layer_leaves_state_as_it_was(self, monkeypatch):
        # 4 layer-1 columns and 10 distinct products need 14 columns; 7 fit
        state = exact_state(np.random.default_rng(20).standard_normal((20, 3)))
        F_buf, F = state.F_buf, state.F.copy()
        monkeypatch.setattr(basis, "_BUFFER_BUDGET", 3000)
        with pytest.raises(ValueError, match="over the budget"):
            build_basis_t_exact(state)
        assert state.ncols == 4 and state.layers == []
        assert state.F_buf is F_buf
        np.testing.assert_array_equal(state.F, F)

    def test_initial_state_refused(self, monkeypatch):
        monkeypatch.setattr(basis, "_BUFFER_BUDGET", 100)
        with pytest.raises(ValueError, match="F, Q and R need 1032 bytes"):
            exact_state(np.random.default_rng(21).standard_normal((20, 2)))


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


BAD_TOLS = [float("nan"), float("inf"), -float("inf"), -1.0, True, "1e-8"]


class TestLayerInputRules:
    """tol and the width budget each have one rule, and every builder applies it."""

    @pytest.fixture
    def lifted(self):
        # 60 x 8: layer 2 offers and admits its 36 distinct candidates at the
        # default tol
        return lift_input(np.random.default_rng(0).standard_normal((60, 8)))

    def test_default_tol_admits_an_independent_layer(self, lifted):
        state = initial_state(build_basis1_exact(lifted))
        assert build_basis_t_exact(state).width == 36
        assert np.linalg.cond(state.F) < 1e3
        check_state_invariants(state)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_initial_state_refuses(self, lifted, tol):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative, got"):
            initial_state(build_basis1_exact(lifted), tol)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_exact_layer_refuses(self, lifted, tol):
        state = initial_state(build_basis1_exact(lifted))
        with pytest.raises(ValueError, match="tol must be finite and nonnegative, got"):
            build_basis_t_exact(state, tol)
        assert state.ncols == 9 and not state.layers

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_width_layer_refuses(self, lifted, tol):
        state = initial_state(build_basis1_exact(lifted))
        with pytest.raises(ValueError, match="tol must be finite and nonnegative, got"):
            build_basis_t_width(state, np.ones((60, 1)), gamma=4, b=2, tol=tol)
        assert state.ncols == 9 and not state.layers

    @pytest.mark.parametrize("gamma, b", [(2.5, 1), (True, 1), (4, 1.5), (4, 0), (4, 5)])
    def test_width_budget_refused(self, lifted, gamma, b):
        state = initial_state(build_basis1_exact(lifted))
        with pytest.raises(ValueError, match="need ints gamma >= 1 and 1 <= batch <= gamma"):
            build_basis_t_width(state, np.ones((60, 1)), gamma=gamma, b=b)
        if b == 1:
            with pytest.raises(ValueError, match="need ints gamma >= 1 and 1 <= batch <= gamma"):
                build_basis1_width(lifted, gamma)

    @pytest.mark.parametrize("gamma", [None, 3, 9, 12])
    def test_layer1_reaches_basis_thin_svd(self, monkeypatch, lifted, gamma):
        # exact mode (None) on the centred 8 input columns with no cut of its
        # own, width mode on the 9 lifted columns, tall with its tail dropped
        # (3 < d+1 = 9 <= m) and gamma >= d+1: one call each, through the
        # name the width layers' target deflation uses too
        calls = []

        def counted(A, **kwargs):
            calls.append((A.shape[1], kwargs.get("tol"), kwargs.get("k")))
            return thin_svd(A, **kwargs)

        monkeypatch.setattr(basis, "thin_svd", counted)
        if gamma is None:
            build_basis1_exact(lifted)
        else:
            build_basis1_width(lifted, gamma)
        assert calls == [(8, 0.0, None) if gamma is None else (9, None, gamma)]
