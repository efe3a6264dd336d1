"""Output-layer tests: loss values, gradients, exact and stochastic fits.

Frozen scalars are worked by hand from the loss definitions. The ridge
fit is cross-checked against a closed-form SVD solver and the logistic
fit against a Newton solver, both implemented here independently.
"""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from basis_learner import output
from basis_learner.basis import (
    build_basis1_exact,
    build_basis1_width,
    build_basis_t_exact,
    build_basis_t_width,
    default_tol,
    initial_state,
    lift_input,
)
from basis_learner.dataset import MAX_CLASSES
from basis_learner.output import (
    LOSS_KINDS,
    HeadGrid,
    OptimizerConfig,
    _back_substitute,
    _sgd,
    decide,
    fit_head,
    loss_gradient,
    loss_value,
    objective,
    validation_error,
)
from basis_learner.synthetic import random_regression, rectangles
from basis_learner.trainer import DEFAULT_LAMBDA_GRID, TrainConfig, train


class TestLossValues:
    def test_squared_mean_over_entries(self):
        # ((1-0)^2 + (2-0)^2) / 2 = 2.5
        assert loss_value("squared", [1.0, 2.0], [0.0, 0.0]) == 2.5

    def test_squared_multi_output(self):
        S = np.array([[1.0, 0.0], [0.0, 1.0]])
        Y = np.zeros((2, 2))
        assert loss_value("squared", S, Y) == 1.0

    def test_hinge_zero_on_margin_two(self):
        assert loss_value("hinge", [2.0, -2.0], [1.0, -1.0]) == 0.0

    def test_hinge_at_zero_scores(self):
        assert loss_value("hinge", [0.0, 0.0], [1.0, -1.0]) == 1.0

    def test_logistic_at_zero_is_log_two(self):
        v = loss_value("logistic", [0.0], [1.0])
        assert v == pytest.approx(math.log(2.0), rel=0, abs=1e-15)

    def test_logistic_large_margin_vanishes(self):
        assert loss_value("logistic", [50.0], [1.0]) < 1e-20

    def test_mc_hinge_satisfied(self):
        # true class 1 leads the rival by 2 >= 1
        assert loss_value("mc-hinge", np.array([[0.0, 2.0]]), [1]) == 0.0

    def test_mc_hinge_tie_costs_one(self):
        assert loss_value("mc-hinge", np.array([[2.0, 2.0]]), [1]) == 1.0

    def test_mc_hinge_uses_worst_rival(self):
        # rivals at 5 and 0 against true score 3: 1 + 5 - 3 = 3
        S = np.array([[5.0, 3.0, 0.0]])
        assert loss_value("mc-hinge", S, [1]) == 3.0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown loss"):
            loss_value("absolute", [0.0], [0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="disagree"):
            loss_value("hinge", [0.0, 1.0], [1.0])


class TestDecide:
    def test_sign_with_zero_positive(self):
        out = decide("binary", [0.3, -0.1, 0.0])
        assert np.array_equal(out, [1.0, -1.0, 1.0])

    def test_argmax_tie_lowest_class(self):
        out = decide("multiclass", np.array([[1.0, 1.0, 0.0]]))
        assert out.tolist() == [0]

    def test_squared_is_identity(self):
        assert np.array_equal(decide("regression", [1.5, -2.0]), [1.5, -2.0])

    def test_keyed_by_task_not_loss(self):
        with pytest.raises(ValueError, match="unknown task"):
            decide("hinge", [0.3])


class TestErrorRate:
    """validation_error with identity features scores the given values."""

    def test_binary_counts_misclassified(self):
        v = np.array([[1.0], [-1.0], [-1.0], [1.0]])
        y = [1.0, 1.0, -1.0, -1.0]
        assert validation_error(v, [[1.0]], y, "binary") == 0.5

    def test_squared_is_mse(self):
        v = np.array([[1.0], [3.0]])
        assert validation_error(v, [[1.0]], [0.0, 0.0], "regression") == 5.0

    def test_multiclass(self):
        S = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        err = validation_error(S, np.eye(2), [0, 1, 1], "multiclass")
        assert err == pytest.approx(1.0 / 3.0)


def fd_gradient(kind, S, y, h=1e-6):
    S = np.asarray(S, dtype=np.float64)
    G = np.zeros_like(S)
    for idx in np.ndindex(*S.shape):
        up = S.copy()
        up[idx] += h
        dn = S.copy()
        dn[idx] -= h
        G[idx] = (loss_value(kind, up, y) - loss_value(kind, dn, y)) / (2.0 * h)
    return G


class TestLossGradient:
    def test_squared_exact(self):
        S = np.array([[1.0], [3.0]])
        y = np.array([0.0, 1.0])
        G = loss_gradient("squared", S, y)
        assert np.allclose(G, [[1.0], [2.0]])

    def test_hinge_inactive_at_kink(self):
        # margin exactly 1: zero subgradient by convention
        G = loss_gradient("hinge", [1.0], [1.0])
        assert G[0, 0] == 0.0

    @pytest.mark.parametrize("kind", ["squared", "hinge", "logistic"])
    def test_matches_finite_differences_binary(self, kind):
        rng = np.random.default_rng(41)
        v = rng.standard_normal(30) * 2.0
        y = np.where(rng.standard_normal(30) > 0, 1.0, -1.0)
        if kind == "squared":
            y = rng.standard_normal(30)
        else:
            # keep every margin away from the hinge kink
            v = v + np.where(y * v > 1.0, 0.0, -2.5 * y * (y * v < 1.0))
            assert np.all(np.abs(y * v - 1.0) > 1e-3)
        G = loss_gradient(kind, v, y)
        assert np.allclose(G[:, 0], fd_gradient(kind, v, y), atol=1e-7)

    def test_matches_finite_differences_mc(self):
        rng = np.random.default_rng(42)
        S = rng.standard_normal((20, 4)) * 3.0
        y = rng.integers(0, 4, 20)
        rows = np.arange(20)
        true = S[rows, y]
        masked = S.copy()
        masked[rows, y] = -np.inf
        m1 = masked.max(axis=1)
        # away from the active/inactive kink and from rival argmax ties
        assert np.all(np.abs(1.0 + m1 - true) > 1e-3)
        part = np.partition(masked, -2, axis=1)
        assert np.all(part[:, -1] - part[:, -2] > 1e-3)
        G = loss_gradient("mc-hinge", S, y)
        assert np.allclose(G, fd_gradient("mc-hinge", S, y), atol=1e-7)

    def test_sums_to_descent_direction(self):
        # moving against the gradient must not increase a convex loss
        rng = np.random.default_rng(43)
        v = rng.standard_normal(50)
        y = np.where(rng.standard_normal(50) > 0, 1.0, -1.0)
        for kind in ("hinge", "logistic"):
            G = loss_gradient(kind, v, y)
            before = loss_value(kind, v, y)
            after = loss_value(kind, v - 1e-4 * G[:, 0], y)
            assert after <= before + 1e-12


# (kind, scores, labels, message): inputs that break a loss's input rule
MALFORMED = [
    ("absolute", [0.0], [0.0], "unknown loss"),
    ("hinge", np.zeros(5), [1.0], "disagree on m"),
    ("logistic", np.zeros(2), 1.0, "disagree on m"),
    ("squared", np.zeros((5, 1)), np.zeros((5, 2)), "one target per score"),
    ("squared", np.zeros((5, 2)), np.zeros(5), "one target per score"),
    ("mc-hinge", np.zeros((5, 1)), np.zeros(5), "at least 2 classes"),
    ("mc-hinge", np.zeros((2, 3)), [0.5, 1.7], r"integer class ids in \[0, 3\)"),
    ("mc-hinge", np.zeros((2, 3)), [0, -1], r"integer class ids in \[0, 3\)"),
    ("mc-hinge", np.zeros((2, 3)), [0, 3], r"integer class ids in \[0, 3\)"),
    ("mc-hinge", np.zeros((2, 3)), np.zeros((2, 1)), "label vector"),
    ("hinge", np.zeros(2), [0.5, 1.0], "must be -1 or \\+1"),
    ("logistic", np.zeros(2), [0.0, 1.0], "must be -1 or \\+1"),
    ("hinge", np.zeros(2), [1.0, float("nan")], "must be -1 or \\+1"),
    ("squared", np.ones(3), ["a", "b", "c"], "y must hold real numbers, got dtype <U1"),
    ("hinge", np.zeros(2), np.array([1.0, -1.0], dtype=object), "y must hold real numbers, got dtype object"),
    ("mc-hinge", np.zeros((2, 3)), np.array([0j, 1j]), "y must hold real numbers, got dtype complex128"),
]


class TestInputRule:
    """loss_value and loss_gradient share one input rule."""

    @pytest.mark.parametrize("kind,scores,y,msg", MALFORMED)
    def test_value_and_gradient_refuse_alike(self, kind, scores, y, msg):
        with pytest.raises(ValueError, match=msg) as by_value:
            loss_value(kind, scores, y)
        with pytest.raises(ValueError, match=msg) as by_gradient:
            loss_gradient(kind, scores, y)
        assert str(by_value.value) == str(by_gradient.value)

    def test_integer_valued_float_ids_accepted(self):
        S = np.array([[0.0, 2.0, 0.0], [3.0, 0.0, 0.0]])
        assert loss_value("mc-hinge", S, [1.0, 0.0]) == 0.0
        assert np.array_equal(loss_gradient("mc-hinge", S, [1.0, 0.0]), np.zeros((2, 3)))

    def test_mc_hinge_is_hinge_of_multiclass_margin(self):
        # true score minus best rival, fed to the binary hinge with label +1
        rng = np.random.default_rng(44)
        S = rng.standard_normal((30, 4))
        y = rng.integers(0, 4, 30)
        rival = np.where(np.arange(4) == y[:, None], -np.inf, S).max(axis=1)
        margin = S[np.arange(30), y] - rival
        assert loss_value("mc-hinge", S, y) == loss_value("hinge", margin, np.ones(30))


def svd_ridge(F, Y, lam):
    # closed form for (1/m)||Fw - Y||^2 + (lam/2)||w||^2 over the SVD of F
    m = F.shape[0]
    U, s, Vt = np.linalg.svd(F, full_matrices=False)
    shrink = s / (s**2 + lam * m / 2.0)
    return Vt.T @ (shrink[:, None] * (U.T @ Y))


class TestSquaredFit:
    def test_constant_column_gives_mean(self):
        y = np.array([1.0, 2.0, 6.0])
        fit = fit_head(np.ones((3, 1)), y, "squared", 0.0)
        assert fit.weights[0, 0] == pytest.approx(3.0, rel=1e-12)

    def test_huge_lambda_shrinks_to_zero(self):
        rng = np.random.default_rng(5)
        F = rng.standard_normal((20, 4))
        y = rng.standard_normal(20)
        fit = fit_head(F, y, "squared", 1e12)
        assert np.linalg.norm(fit.weights) <= 1e-4

    def test_normal_equations_hold(self):
        rng = np.random.default_rng(6)
        F = rng.standard_normal((30, 5))
        y = rng.standard_normal((30, 1))
        lam = 0.37
        w = fit_head(F, y, "squared", lam).weights
        lhs = F.T @ F @ w + (lam * 30 / 2.0) * w
        rhs = F.T @ y
        assert np.linalg.norm(lhs - rhs) <= 1e-6 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("lam", [1e-3, 0.1, 2.0])
    def test_matches_svd_closed_form(self, lam):
        rng = np.random.default_rng(7)
        F = rng.standard_normal((25, 6))
        Y = rng.standard_normal((25, 2))
        w = fit_head(F, Y, "squared", lam).weights
        assert np.allclose(w, svd_ridge(F, Y, lam), atol=1e-10)

    def test_min_norm_splits_duplicate_columns(self):
        # the minimum-norm answer at lambda=0 spreads weight evenly over
        # equal columns
        col = np.arange(1.0, 5.0)[:, None]
        F = np.hstack([col, col])
        y = 3.0 * col[:, 0]
        w = fit_head(F, y, "squared", 0.0).weights
        assert np.allclose(w, [[1.5], [1.5]], atol=1e-10)

    def test_interpolates_square_system(self):
        rng = np.random.default_rng(8)
        F = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
        y = rng.standard_normal(6)
        fit = fit_head(F, y, "squared", 0.0)
        assert fit.train_loss <= 1e-18
        assert validation_error(F, fit.weights, y, "regression") <= 1e-18

    @pytest.mark.parametrize("c", [1e155, 1e200])
    @pytest.mark.parametrize("lam", [1e-3, 1.0])
    def test_huge_features_do_not_overflow(self, c, lam):
        # s^2 overflows at these scales; the shrinkage must not form it
        rng = np.random.default_rng(10)
        F = rng.standard_normal((30, 5))
        y = rng.standard_normal(30)
        w = c * fit_head(c * F, y, "squared", lam).weights
        w0 = fit_head(F, y, "squared", 0.0).weights
        assert np.linalg.norm(w - w0) <= 1e-12 * np.linalg.norm(w0)

    def test_objective_never_below_optimum(self):
        rng = np.random.default_rng(9)
        F = rng.standard_normal((15, 3))
        y = rng.standard_normal((15, 1))
        lam = 0.05
        best = objective("squared", F, fit_head(F, y, "squared", lam).weights, y, lam)
        for i in range(20):
            w = np.random.default_rng(100 + i).standard_normal((3, 1))
            assert objective("squared", F, w, y, lam) >= best - 1e-12


def relative_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def squared_basis(outputs, seed=11):
    """Width-mode F = QR over 200 rows, two product layers deep, and Y: a
    product of two inputs plus noise, or indicator columns of ``outputs``
    classes."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((200, 5))
    if outputs == 1:
        Y = (X[:, :1] * X[:, 1:2] + 0.1 * rng.standard_normal((200, 1)))
    else:  # squared heads on multiclass targets fit indicator columns
        Y = np.eye(outputs)[rng.integers(0, outputs, 200)]
    state = initial_state(build_basis1_width(lift_input(X), gamma=6))
    for _ in range(2):
        assert build_basis_t_width(state, Y, gamma=10, b=5).width > 0
    return state, Y


def squared_grid(state, lams=DEFAULT_LAMBDA_GRID):
    # the trainer's per-depth grid of squared heads over admission's F = QR
    return HeadGrid(lams, OptimizerConfig(), state.Q, state.R)


class TestSquaredFactor:
    """Squared heads of a :class:`HeadGrid` over admission's factor F = QR."""

    @pytest.mark.parametrize("outputs", [1, 3])
    def test_basis_factor_matches_closed_form(self, outputs):
        state, Y = squared_basis(outputs)
        grid = squared_grid(state, DEFAULT_LAMBDA_GRID + (0.0,))
        for lam in DEFAULT_LAMBDA_GRID + (0.0,):
            w = fit_head(state.F, Y, "squared", lam, factor=grid).weights
            assert w.shape == (state.ncols, outputs)
            assert relative_gap(w, svd_ridge(state.F, Y, lam)) <= 1e-9
            assert relative_gap(w, fit_head(state.F, Y, "squared", lam).weights) <= 1e-9

    def test_square_basis_interpolates(self):
        ds = random_regression(120, 4, 1)
        Y = ds.labels[:, None]
        state = initial_state(build_basis1_exact(lift_input(ds.X)))
        while state.ncols < ds.m:
            assert build_basis_t_exact(state, default_tol(ds.m)).width > 0
        fit = fit_head(state.F, Y, "squared", 0.0, factor=squared_grid(state, (0.0,)))
        assert validation_error(state.F, fit.weights, ds.labels, "regression") <= 1e-20

    @pytest.mark.parametrize("outputs", [1, 3])
    def test_heads_equal_one_lambda_fits(self, outputs):
        state, Y = squared_basis(outputs)
        grid = squared_grid(state, GRID)
        heads = []
        for lam in GRID:
            W = fit_head(state.F, Y, "squared", lam, factor=grid).weights
            alone = fit_head(state.F, Y, "squared", lam, factor=squared_grid(state, (lam,)))
            assert W.tobytes() == alone.weights.tobytes()
            heads.append(W)
        assert heads[2].tobytes() == heads[3].tobytes()
        assert not np.array_equal(heads[0], heads[1])

    def test_heads_follow_the_call_targets(self):
        # the grid takes Q^T Y from its first call's targets, not when built
        state, Y = squared_basis(1)
        Y2 = np.random.default_rng(12).standard_normal(Y.shape)
        for lam in (0.0, 1e-3):
            for targets in (Y, Y2):
                w = fit_head(state.F, targets, "squared", lam,
                             factor=squared_grid(state, (0.0, 1e-3))).weights
                assert relative_gap(w, svd_ridge(state.F, targets, lam)) <= 1e-9

    def test_solved_grid_refuses_another_problem(self):
        state, Y = squared_basis(1)
        grid = squared_grid(state)
        fit_head(state.F, Y, "squared", DEFAULT_LAMBDA_GRID[0], factor=grid)
        with pytest.raises(ValueError, match="solved for"):
            fit_head(state.F[:, :-1], Y, "squared", DEFAULT_LAMBDA_GRID[0], factor=grid)
        with pytest.raises(ValueError, match="solved for"):
            fit_head(state.F, np.hstack([Y, Y]), "squared", DEFAULT_LAMBDA_GRID[0], factor=grid)
        with pytest.raises(ValueError, match="not in the grid"):
            fit_head(state.F, Y, "squared", 0.0, factor=grid)

    @pytest.mark.parametrize("lams,svds", [(DEFAULT_LAMBDA_GRID, 1), ((0.0,), 0)])
    def test_first_call_solves_the_grid(self, monkeypatch, lams, svds):
        # one SVD of R for every lambda > 0, none for lambda = 0 alone, all
        # taken in the first call: the per-call fit time books it there
        state, Y = squared_basis(1)
        shapes = []
        svd = np.linalg.svd

        def spy(A, *args, **kwargs):
            shapes.append(A.shape)
            return svd(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        grid = squared_grid(state, lams)
        fit_head(state.F, Y, "squared", lams[0], factor=grid)
        assert shapes == [state.R.shape] * svds
        for lam in lams:
            fit_head(state.F, Y, "squared", lam, factor=grid)
        assert shapes == [state.R.shape] * svds


def upper_triangular(n, seed):
    """A well-conditioned upper-triangular n x n matrix: unit-scale diagonal,
    off-diagonal entries of size 1/sqrt(n)."""
    rng = np.random.default_rng(seed)
    R = np.triu(rng.standard_normal((n, n))) / math.sqrt(n)
    R[np.diag_indices(n)] = rng.uniform(1.0, 2.0, n)
    return R


class TestTriangularSolve:
    """lambda = 0 on admission's factor is a blocked back-substitution on
    R's upper triangle, not a dense solve of all of R."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    @pytest.mark.parametrize("outputs", [1, 3])
    def test_matches_dense_solve(self, n, outputs):
        R = upper_triangular(n, n)
        QtY = np.random.default_rng(n + outputs).standard_normal((n, outputs))
        w = _back_substitute(R, QtY)
        assert w.shape == (n, outputs)
        assert relative_gap(w, np.linalg.solve(R, QtY)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_never_reads_below_diagonal(self, n):
        R = upper_triangular(n, n)
        QtY = np.random.default_rng(n).standard_normal((n, 3))
        w = _back_substitute(R, QtY)
        R[np.tril_indices(n, -1)] = 1e300
        np.testing.assert_array_equal(_back_substitute(R, QtY), w)

    def test_dense_solves_only_on_small_diagonal_blocks(self, monkeypatch):
        sizes = []
        solve = np.linalg.solve

        def spy(A, B):
            sizes.append(A.shape[0])
            return solve(A, B)

        monkeypatch.setattr(np.linalg, "solve", spy)
        R = upper_triangular(200, 3)
        _back_substitute(R, np.ones((200, 1)))
        assert sizes == [8, 64, 64, 64]


def newton_logistic(F, y, lam, iters=60):
    # damped Newton on the strongly convex regularized logistic objective
    m, n = F.shape
    w = np.zeros(n)
    for _ in range(iters):
        z = y * (F @ w)
        e = np.exp(-np.abs(z))
        sig = np.where(z > 0, e, 1.0) / (1.0 + e)
        g = -(F.T @ (y * sig)) / m + lam * w
        h = sig * (1.0 - sig)
        H = (F.T * h) @ F / m + lam * np.eye(n)
        w = w - np.linalg.solve(H, g)
    return w


def classification_features(m, k, seed, separation=1.5):
    rng = np.random.default_rng(seed)
    F = np.hstack([np.ones((m, 1)), rng.standard_normal((m, k - 1))])
    y = np.where(rng.standard_normal(m) > 0, 1.0, -1.0)
    F[:, 1] += separation * y
    return F, y


class TestMarginFits:
    def test_logistic_near_newton_optimum(self):
        F, y = classification_features(80, 5, 11)
        lam = 0.05
        fit = fit_head(F, y, "logistic", lam, OptimizerConfig(epochs=80))
        w_star = newton_logistic(F, y, lam)
        best = objective("logistic", F, w_star[:, None], y, lam)
        assert fit.train_loss >= best - 1e-12
        assert fit.train_loss <= best * 1.02

    def test_hinge_beats_zero_and_classifies(self):
        F, y = classification_features(100, 4, 12, separation=2.5)
        fit = fit_head(F, y, "hinge", 0.1)
        assert fit.train_loss < loss_value("hinge", np.zeros(100), y)
        assert validation_error(F, fit.weights, y, "binary") <= 0.05

    def test_mc_hinge_separable_three_class(self):
        rng = np.random.default_rng(13)
        m = 120
        y = rng.integers(0, 3, m)
        F = np.hstack([np.ones((m, 1)), rng.standard_normal((m, 3)) * 0.2])
        for c in range(3):
            F[y == c, 1 + c] += 3.0
        fit = fit_head(F, y, "mc-hinge", 0.1, n_classes=3)
        assert fit.weights.shape == (4, 3)
        assert validation_error(F, fit.weights, y, "multiclass") <= 0.05

    @pytest.mark.parametrize(
        "kind,lam",
        [("hinge", 0.1), ("logistic", 0.01), ("mc-hinge", 0.1)],
    )
    def test_seed_insensitive_objective(self, kind, lam):
        # averaged SGD at these lambdas: final objectives agree to 0.1%
        if kind == "mc-hinge":
            rng = np.random.default_rng(14)
            m = 90
            y = rng.integers(0, 3, m).astype(np.float64)
            F = np.hstack([np.ones((m, 1)), rng.standard_normal((m, 4))])
            for c in range(3):
                F[y == c, 1 + c] += 2.0
        else:
            F, y = classification_features(90, 5, 15)
        vals = []
        for seed in range(5):
            fit = fit_head(F, y, kind, lam, OptimizerConfig(seed=seed))
            vals.append(fit.train_loss)
        spread = (max(vals) - min(vals)) / abs(max(vals))
        assert spread <= 1e-3

    def test_same_config_is_deterministic(self):
        F, y = classification_features(60, 4, 16)
        a = fit_head(F, y, "hinge", 0.1, OptimizerConfig(seed=3)).weights
        b = fit_head(F, y, "hinge", 0.1, OptimizerConfig(seed=3)).weights
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ["hinge", "logistic", "mc-hinge"])
    def test_same_answer_from_column_major_features(self, kind):
        # the basis keeps F column-major; a head must not depend on that layout
        F, y = classification_features(300, 40, 23)
        if kind == "mc-hinge":
            y = np.random.default_rng(23).integers(0, 3, 300)
        opt = OptimizerConfig(epochs=5, seed=4)
        a = fit_head(F, y, kind, 1e-3, opt)
        b = fit_head(np.asfortranarray(F), y, kind, 1e-3, opt)
        assert np.array_equal(a.weights, b.weights)
        assert a.train_loss == b.train_loss

    def test_seed_changes_weights(self):
        F, y = classification_features(60, 4, 17)
        a = fit_head(F, y, "hinge", 0.1, OptimizerConfig(seed=0)).weights
        b = fit_head(F, y, "hinge", 0.1, OptimizerConfig(seed=1)).weights
        assert not np.array_equal(a, b)

    def test_zero_lambda_uses_inverse_sqrt_schedule(self):
        F, y = classification_features(60, 4, 18, separation=3.0)
        fit = fit_head(F, y, "hinge", 0.0, OptimizerConfig(epochs=30))
        assert validation_error(F, fit.weights, y, "binary") <= 0.05


def pegasos_hinge(F, y, lam, epochs, seed):
    # the solver's schedule written from the hinge definition: a row whose
    # margin y (f . w) is below 1 pulls w towards y f
    m, n = F.shape
    b = max(1, m // 32)
    batches = range(0, m, b)
    half = epochs * len(batches) // 2
    rng = np.random.default_rng(seed)
    w = np.zeros(n)
    acc = np.zeros(n)
    s = 0
    for _ in range(epochs):
        order = rng.permutation(m)
        for start in batches:
            rows = order[start:start + b]
            s += 1
            eta = 1.0 / (lam * s) if lam > 0.0 else 1.0 / math.sqrt(s)
            pull = np.zeros(n)
            for i in rows:
                if y[i] * (F[i] @ w) < 1.0:
                    pull += y[i] * F[i]
            w = (1.0 - eta * lam) * w + eta * pull / len(rows)
            if lam > 0.0 and np.linalg.norm(w) > 1.0 / math.sqrt(lam):
                w *= 1.0 / (math.sqrt(lam) * np.linalg.norm(w))
            if s > half:
                acc += w
    return acc / (s - half)


class TestPegasos:
    @pytest.mark.parametrize("lam", [0.0, 1e-4, 0.1])
    @pytest.mark.parametrize("m", [20, 70])
    def test_hinge_matches_reference_loop(self, m, lam):
        F, y = classification_features(m, 4, 21, separation=0.5)
        w = fit_head(F, y, "hinge", lam, OptimizerConfig(epochs=7, seed=2)).weights
        ref = pegasos_hinge(F, y, lam, epochs=7, seed=2)
        assert w.shape == (4, 1)
        assert np.max(np.abs(w[:, 0] - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("lam", [1e-7, 1e-4])
    @pytest.mark.parametrize("kind", ["hinge", "logistic", "mc-hinge"])
    def test_weights_inside_ball(self, kind, lam):
        # large features and random labels: unprojected steps of size
        # 1/(lam s) leave the ball ||W|| <= 1/sqrt(lam) that holds the optimum
        rng = np.random.default_rng(19)
        m = 40
        F = 10.0 * rng.standard_normal((m, 3))
        F[:, 0] = 10.0
        y = np.where(rng.standard_normal(m) > 0, 1.0, -1.0)
        if kind == "mc-hinge":
            y = rng.integers(0, 3, m)
        W = fit_head(F, y, kind, lam, OptimizerConfig(epochs=5)).weights
        assert np.linalg.norm(W) <= (1.0 + 1e-12) / math.sqrt(lam)


def pegasos_one_head(F, y, kind, lam, opt, k):
    # the solver's loop as it ran one head at a time: its own rng, scalar
    # step sizes and np.linalg.norm, on the checked loss_gradient
    m, n = F.shape
    F = np.ascontiguousarray(F)
    b = max(1, m // 32)
    batches = range(0, m, b)
    half = opt.epochs * len(batches) // 2
    radius = 1.0 / math.sqrt(lam) if lam > 0.0 else math.inf
    W = np.zeros((n, k))
    acc = np.zeros_like(W)
    rng = np.random.default_rng(opt.seed)
    s = 0
    for _ in range(opt.epochs):
        order = rng.permutation(m)
        for start in batches:
            idx = order[start:start + b]
            s += 1
            eta = 1.0 / (lam * s) if lam > 0.0 else 1.0 / math.sqrt(s)
            Fb = F[idx]
            W = (1.0 - eta * lam) * W - eta * (Fb.T @ loss_gradient(kind, Fb @ W, y[idx]))
            norm = np.linalg.norm(W)
            if norm > radius:
                W *= radius / norm
            if s > half:
                acc += W
    return acc / (s - half)


# lambda = 0, a repeated 1e-3, and 35 values in all: more heads than a
# step's m // b batches at every m below
GRID = (0.0, 1e-7, 1e-3, 1e-3, *(10.0 ** (-6 + 0.25 * i) for i in range(31)))


class TestMarginGrid:
    """A :class:`HeadGrid` steps its margin heads together over one row
    order, each bit for bit as it would be alone."""

    @pytest.mark.parametrize("n_lams", [5, len(GRID)])
    @pytest.mark.parametrize("m", [20, 64, 100])  # b = 1, 2, 3
    @pytest.mark.parametrize("kind", ["hinge", "logistic", "mc-hinge"])
    def test_heads_equal_one_lambda_fits(self, kind, m, n_lams):
        F, y = classification_features(m, 6, 41)
        k = 1
        if kind == "mc-hinge":
            k = 4
            y = np.random.default_rng(41).integers(0, k, m)
        F = np.asfortranarray(F)  # the basis's layout
        opt = OptimizerConfig(epochs=3, seed=100)
        grid = HeadGrid(GRID[:n_lams], opt)
        heads = []
        for lam in GRID[:n_lams]:
            W = fit_head(F, y, kind, lam, opt, n_classes=k, factor=grid).weights
            alone = fit_head(F, y, kind, lam, opt, n_classes=k).weights
            assert W.tobytes() == alone.tobytes()
            assert W.tobytes() == pegasos_one_head(F, y, kind, lam, opt, k).tobytes()
            heads.append(W)
        assert heads[2].tobytes() == heads[3].tobytes()  # one lambda, one order
        assert not np.array_equal(heads[1], heads[2])

    @pytest.mark.parametrize("kind", ["hinge", "logistic", "mc-hinge"])
    def test_seed_orders_every_head(self, kind):
        F, y = classification_features(64, 6, 45)
        k = 1
        if kind == "mc-hinge":
            k = 4
            y = np.random.default_rng(45).integers(0, k, 64)
        lams = GRID[:5]
        a, b = (HeadGrid(lams, OptimizerConfig(epochs=3, seed=seed)) for seed in (1, 2))
        for lam in lams:
            Wa = fit_head(F, y, kind, lam, a.opt, n_classes=k, factor=a).weights
            Wb = fit_head(F, y, kind, lam, b.opt, n_classes=k, factor=b).weights
            assert not np.array_equal(Wa, Wb)

    def test_pair_not_in_grid_refused(self):
        F, y = classification_features(40, 3, 42)
        grid = HeadGrid((0.1,), OptimizerConfig(seed=1))
        with pytest.raises(ValueError, match="not in the grid"):
            fit_head(F, y, "hinge", 0.1, OptimizerConfig(seed=2), factor=grid)
        with pytest.raises(ValueError, match="not in the grid"):
            fit_head(F, y, "hinge", 0.1, OptimizerConfig(epochs=3, seed=1), factor=grid)
        with pytest.raises(ValueError, match="not in the grid"):
            fit_head(F, y, "hinge", 0.2, OptimizerConfig(seed=1), factor=grid)

    def test_solved_grid_refuses_another_problem(self):
        F, y = classification_features(40, 3, 43)
        opt = OptimizerConfig(epochs=2)
        grid = HeadGrid((0.1,), opt)
        fit_head(F, y, "hinge", 0.1, opt, factor=grid)
        with pytest.raises(ValueError, match="solved for"):
            fit_head(F, y, "logistic", 0.1, opt, factor=grid)
        with pytest.raises(ValueError, match="solved for"):
            fit_head(F[:30], y[:30], "hinge", 0.1, opt, factor=grid)

    def test_first_call_runs_sgd_once(self, monkeypatch):
        F, y = classification_features(40, 3, 44)
        opt = OptimizerConfig(epochs=2)
        passes = []
        sgd = output._sgd

        def spy(*args):
            passes.append(args[4])
            return sgd(*args)

        monkeypatch.setattr(output, "_sgd", spy)
        grid = HeadGrid(GRID[:5], opt)
        fit_head(F, y, "hinge", GRID[0], opt, factor=grid)
        assert passes == [GRID[:5]]
        for lam in GRID[:5]:
            fit_head(F, y, "hinge", lam, opt, factor=grid)
        assert passes == [GRID[:5]]

    @pytest.mark.xfail(
        strict=True,
        reason="Pegasos at 10 epochs leaves 21 of these 51 hinge heads above "
        "the objective of w = 0, the worst at 95.4 (n = 50, lambda = 1e-7)",
    )
    def test_no_head_worse_than_zero_on_rectangles(self):
        full = rectangles(1000, seed=1)
        ds = replace(full, X=full.X[:800], labels=full.labels[:800])
        cfg = TrainConfig(mode="width", gamma=50, batch=50, max_depth=4, loss="hinge",
                          sgd_epochs=10, seed=1)
        _, trace = train(ds, None, cfg)
        opt = OptimizerConfig(epochs=cfg.sgd_epochs, seed=cfg.seed)
        worse = []
        for n in (50, 100, 150):
            F = trace.feature_columns[:, :n]
            grid = HeadGrid(DEFAULT_LAMBDA_GRID, opt)
            for lam in DEFAULT_LAMBDA_GRID:
                fit = fit_head(F, ds.labels, "hinge", lam, opt, factor=grid)
                if fit.train_loss > 1.0:  # the hinge objective of w = 0
                    worse.append((n, lam, fit.train_loss))
        assert worse == []

    def test_long_grid_memory_is_linear_in_heads(self):
        # a step gathers one batch for all heads, so over a C-ordered F (no
        # copy) the peak is a few stacked L x n x k arrays however long the
        # grid is: no passes
        F, y = classification_features(800, 150, 46)
        lams = tuple(10.0 ** (-7 + 8 * i / 199) for i in range(200))
        tracemalloc.start()
        try:
            W = _sgd(F, y, "hinge", 1, lams, 3, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert W.shape == (200, 150, 1)
        assert peak <= 8 * W.nbytes


class TestFitHeadValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown loss"):
            fit_head(np.ones((2, 1)), [1.0, -1.0], "huber", 0.0)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError, match="nonnegative"):
            fit_head(np.ones((2, 1)), [1.0, -1.0], "hinge", -1.0)

    @pytest.mark.parametrize("kind", ["squared", "hinge"])
    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), True, "0.1",
                                     pytest.param(10**400, id="10**400")])
    def test_rejects_non_finite_lambda(self, kind, lam):
        with pytest.raises(ValueError, match=f"finite and nonnegative, got {lam!r}"):
            fit_head(np.ones((2, 1)), [1.0, -1.0], kind, lam)

    @pytest.mark.parametrize("kind", ["squared", "hinge"])
    @pytest.mark.parametrize("where", ["F", "y"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_data(self, kind, where, bad):
        F = np.ones((2, 1))
        y = np.array([1.0, -1.0])
        (F if where == "F" else y)[0] = bad
        with pytest.raises(ValueError, match="must be finite"):
            fit_head(F, y, kind, 0.1)

    def test_non_finite_weights_name_lambda(self):
        # a vanishing singular value scales the minimum-norm answer past 1e308
        F = np.full((2, 1), 1e-300)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="lambda=0.0"):
            fit_head(F, [1e10, 1e10], "squared", 0.0)

    def test_non_finite_objective_names_lambda(self):
        # unregularized steps on huge features overflow the hinge objective
        F = np.full((4, 1), 1e200)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="lambda=0.0"):
            fit_head(F, [1.0, -1.0, 1.0, -1.0], "hinge", 0.0, OptimizerConfig(epochs=2))

    def test_margin_losses_need_label_vector(self):
        with pytest.raises(ValueError, match="label vector"):
            fit_head(np.ones((2, 1)), np.ones((2, 2)), "hinge", 0.1)

    def test_mc_hinge_needs_two_classes(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_head(np.ones((3, 1)), [0, 0, 0], "mc-hinge", 0.1)

    @pytest.mark.parametrize(
        "kind,y,kw,msg",
        [
            ("mc-hinge", [0, 1, 2, 0, 1, 2], dict(n_classes=2), r"class ids in \[0, 2\)"),
            ("mc-hinge", [0, 1, 2, 0, 1, -1], {}, r"class ids in \[0, 3\)"),
            ("mc-hinge", [0, 1, 2, 0, 1, 1.5], {}, r"class ids in \[0, 3\)"),
            ("hinge", [0.5, 1, -1, 1, -1, 1], {}, "must be -1 or \\+1"),
            ("logistic", [0, 1, 0, 1, 0, 1], {}, "must be -1 or \\+1"),
            ("hinge", [1, -1, 1, -1, 1], {}, r"6 rows but y has shape \(5,\)"),
            ("hinge", [1, -1, 1, -1, 1, -1, 1], {}, r"6 rows but y has shape \(7,\)"),
            ("squared", np.zeros(7), {}, r"6 rows but y has shape \(7,\)"),
            ("mc-hinge", 1, {}, r"6 rows but y has shape \(\)"),
            ("mc-hinge", [0, 1, 2] * 2, dict(n_classes=3.5), r"n_classes must be an int, got 3\.5"),
            ("mc-hinge", [0, 1, 2] * 2, dict(n_classes=True), "n_classes must be an int, got True"),
        ],
    )
    def test_label_rules_checked_before_the_solve(self, kind, y, kw, msg):
        F = np.random.default_rng(45).standard_normal((6, 2))
        with pytest.raises(ValueError, match=msg):
            fit_head(F, y, kind, 0.1, OptimizerConfig(epochs=2), **kw)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    @pytest.mark.parametrize("y", [np.array(["a", "b", "c"]), np.array([1, -1, 1], dtype=object)])
    def test_rejects_labels_that_are_not_numbers(self, kind, y):
        with pytest.raises(ValueError, match="y must hold real numbers"):
            fit_head(np.ones((3, 2)), y, kind, 0.1)

    @pytest.mark.parametrize("y, kw", [([0, 1, 1], dict(n_classes=MAX_CLASSES + 1)),
                                       ([0, 1, MAX_CLASSES], {})])
    def test_class_count_capped_before_allocating(self, y, kw):
        with pytest.raises(ValueError, match=f"at most MAX_CLASSES={MAX_CLASSES} classes, got {MAX_CLASSES + 1}"):
            fit_head(np.ones((3, 2)), y, "mc-hinge", 0.1, OptimizerConfig(epochs=1), **kw)

    def test_float_class_ids_fit_like_ints(self):
        F = np.random.default_rng(46).standard_normal((9, 3))
        y = [0, 1, 2] * 3
        opt = OptimizerConfig(epochs=3)
        as_int = fit_head(F, y, "mc-hinge", 0.1, opt).weights
        as_float = fit_head(F, np.asarray(y, dtype=np.float64), "mc-hinge", 0.1, opt).weights
        assert np.array_equal(as_int, as_float)

    @pytest.mark.parametrize("kind,y", [("squared", np.ones(0)), ("hinge", np.ones(0)),
                                        ("mc-hinge", np.zeros(0, dtype=int))])
    def test_rejects_f_without_rows(self, kind, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="F must have at least one row"):
                fit_head(np.ones((0, 3)), y, kind, 0.0)

    def test_loss_kinds_frozen(self):
        assert LOSS_KINDS == ("squared", "hinge", "logistic", "mc-hinge")


class TestOptimizerConfig:
    @pytest.mark.parametrize(
        "kw,msg",
        [
            (dict(epochs=0), "epochs must be an int >= 1, got 0"),
            (dict(epochs=-3), "epochs must be an int >= 1, got -3"),
            (dict(epochs=2.5), r"epochs must be an int >= 1, got 2\.5"),
            (dict(epochs=True), "epochs must be an int >= 1, got True"),
            (dict(seed=-1), "seed must be an int >= 0, got -1"),
            (dict(seed=1.0), r"seed must be an int >= 0, got 1\.0"),
            (dict(seed=np.int64(3)), r"seed must be an int >= 0, got np\.int64\(3\)"),
        ],
    )
    def test_rejections(self, kw, msg):
        with pytest.raises(ValueError, match=msg):
            OptimizerConfig(**kw)

    def test_smallest_budget_valid(self):
        assert OptimizerConfig(epochs=1, seed=0).epochs == 1


class TestValidationError:
    def test_regression_mse(self):
        F = np.array([[1.0], [2.0]])
        w = np.array([[1.0]])
        assert validation_error(F, w, [0.0, 0.0], "regression") == 2.5

    def test_binary_sign_rule(self):
        F = np.array([[1.0], [-1.0], [0.0]])
        w = np.array([[1.0]])
        # score 0 decides +1
        assert validation_error(F, w, [1.0, 1.0, -1.0], "binary") == pytest.approx(2 / 3)

    def test_multiclass_argmax(self):
        F = np.eye(3)
        w = np.eye(3)
        assert validation_error(F, w, [0, 1, 2], "multiclass") == 0.0

    def test_unknown_task(self):
        with pytest.raises(ValueError, match="unknown task"):
            validation_error(np.ones((1, 1)), np.ones((1, 1)), [0.0], "ranking")

    @pytest.mark.parametrize(
        "task,y",
        [
            ("binary", [1.0]),
            ("multiclass", [0, 1, 0, 1, 0, 1]),
            ("regression", np.zeros((5, 1))),
        ],
    )
    def test_label_count_must_match_rows(self, task, y):
        with pytest.raises(ValueError, match=r"5 rows scored but y has shape"):
            validation_error(np.ones((5, 2)), np.ones((2, 2)), y, task)
