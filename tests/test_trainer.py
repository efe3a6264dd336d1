"""Training-loop tests: stopping rules, model selection, trace output.

Datasets are small so exact mode saturates quickly; every run here but
the m=1000 interpolation regression takes well under a second.
"""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from basis_learner import (
    DEFAULT_LAMBDA_GRID,
    TrainConfig,
    evaluate,
    make_dataset,
    split,
    train,
)
from basis_learner.dataset import LabeledDataset, SplitSpec
from basis_learner import basis, output, trainer
from basis_learner.network import feature_matrix, predict, serialize
from basis_learner.synthetic import random_regression


def regression_ds(m, d, seed, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, d))
    y = rng.standard_normal(m)
    if noise:
        y = X[:, 0] ** 2 + noise * rng.standard_normal(m)
    return make_dataset(X, y)


def binary_ds(m, seed):
    # XOR-sign labels with a margin floor so a hinge fit can separate
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((3 * m, 2))
    X = X[np.abs(X[:, 0] * X[:, 1]) >= 0.3][:m]
    assert X.shape[0] == m
    y = np.where(X[:, 0] * X[:, 1] > 0.0, 1.0, -1.0)
    return make_dataset(X, y)


class TestLambdaGrid:
    def test_default_grid_frozen(self):
        assert len(DEFAULT_LAMBDA_GRID) == 17
        assert DEFAULT_LAMBDA_GRID[0] == pytest.approx(1e-7)
        assert DEFAULT_LAMBDA_GRID[-1] == pytest.approx(10.0)
        ratios = np.diff(np.log10(DEFAULT_LAMBDA_GRID))
        assert np.allclose(ratios, 0.5)

    def test_numpy_grid_traces_plain_floats(self):
        cfg = TrainConfig(loss="hinge", lambda_grid=tuple(np.logspace(-3, 0, 2)), max_depth=3)
        _, trace = train(binary_ds(60, 33), None, cfg)
        line = trace.lines()[0]
        assert "lambda=0.001 " in line
        assert "np." not in line
        assert type(trace.records[0].train_loss) is float
        assert type(trace.header()["best_lambda"]) is float

    def test_list_and_tuple_grids_are_one_config(self):
        listed, tupled = TrainConfig(lambda_grid=[0.1]), TrainConfig(lambda_grid=(0.1,))
        assert listed == tupled
        assert hash(listed) == hash(tupled)
        assert listed.lambda_grid == (0.1,)


class TestConfigValidation:
    def test_defaults_valid(self):
        TrainConfig()

    def test_zero_error_threshold_valid(self):
        assert TrainConfig(error_threshold=0.0).error_threshold == 0.0

    @pytest.mark.parametrize(
        "kw,msg",
        [
            (dict(mode="turbo"), "unknown mode"),
            (dict(svd="sketchy"), "unknown svd"),
            (dict(loss="huber"), "unknown loss"),
            (dict(mode="width", gamma=0), "gamma >= 1"),
            (dict(mode="width", gamma=4, batch=9), "batch <= gamma"),
            (dict(mode="width", gamma=4, batch=0), "batch <= gamma"),
            (dict(max_depth=1), "must be >= 2"),
            (dict(patience=0), "patience"),
            (dict(lambda_grid=()), "lambda grid"),
            (dict(lambda_grid=(0.1, -0.5)), "lambda grid"),
            (dict(seed=-1), "seed"),
            (dict(lambda_grid=(0.1, float("nan"))), r"lambda grid.*got \(0.1, nan\)"),
            (dict(lambda_grid=(float("inf"),)), r"lambda grid.*got \(inf,\)"),
            (dict(tol=float("nan")), "tol must be finite and nonnegative, got nan"),
            (dict(tol=float("inf")), "tol must be finite and nonnegative, got inf"),
            (dict(tol=-1.0), r"tol must be finite and nonnegative, got -1\.0"),
            (dict(error_threshold=float("nan")), "error_threshold must be finite, got nan"),
            (dict(error_threshold=float("inf")), "error_threshold must be finite, got inf"),
            (dict(sgd_epochs=0), "sgd_epochs must be >= 1, got 0"),
            (dict(sgd_epochs=-3), "sgd_epochs must be >= 1, got -3"),
            (dict(mode="width", gamma=2.5, batch=1), r"gamma must be an int, got 2\.5"),
            (dict(gamma=np.int64(4)), r"gamma must be an int, got np\.int64\(4\)"),
            (dict(batch=True), "batch must be an int, got True"),
            (dict(max_depth=3.0), r"max_depth must be an int, got 3\.0"),
            (dict(max_depth=False), "max_depth must be an int, got False"),
            (dict(patience=np.int32(2)), r"patience must be an int, got np\.int32\(2\)"),
            (dict(seed=1.0), r"seed must be an int, got 1\.0"),
            (dict(sgd_epochs="5"), "sgd_epochs must be an int, got '5'"),
            (dict(error_threshold=-1.0), r"error_threshold must be nonnegative, got -1\.0"),
            (dict(error_threshold=-1e-300), "error_threshold must be nonnegative"),
            (dict(lambda_grid=(True,)), r"lambda grid.*got \(True,\)"),
            (dict(lambda_grid=(np.float32(0.5),)), "lambda grid"),
            (dict(tol=True), "tol must be finite and nonnegative, got True"),
            (dict(tol="1e-8"), "tol must be finite and nonnegative, got '1e-8'"),
            (dict(error_threshold=True), "error_threshold must be finite, got True"),
            (dict(error_threshold=10**400), "error_threshold must be finite, got 1000"),
            (dict(lambda_grid=5), "lambda_grid must be a tuple or list, got int"),
            (dict(lambda_grid=np.array([0.1, 0.2])), "lambda_grid must be a tuple or list, got ndarray"),
            (dict(lambda_grid=0.1), "lambda_grid must be a tuple or list, got float"),
        ],
    )
    def test_rejections(self, kw, msg):
        with pytest.raises(ValueError, match=msg):
            TrainConfig(**kw)


class TestStopping:
    def test_error_threshold_stop(self):
        ds = regression_ds(12, 2, 21)
        cfg = TrainConfig(lambda_grid=(0.0,), error_threshold=1e-10)
        net, trace = train(ds, None, cfg)
        assert trace.termination == "error_threshold"
        assert trace.best_train_loss <= 1e-10
        assert np.max(np.abs(predict(net, ds.X)[:, 0] - ds.labels)) <= 1e-6

    def test_depth_cap_stop(self):
        ds = regression_ds(15, 2, 22)
        net, trace = train(ds, None, TrainConfig(lambda_grid=(0.0,), max_depth=2))
        assert trace.termination == "depth_cap"
        assert net.depth == 2
        assert net.product_layers == ()
        assert [r.depth for r in trace.records] == [2]

    def test_empty_layer_stop_on_saturated_line(self):
        # three collinear points saturate at depth 3; the next layer
        # comes back empty and the run stops on its own
        ds = make_dataset(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 3.0, -2.0]))
        net, trace = train(ds, None, TrainConfig(lambda_grid=(0.0,), max_depth=50))
        assert trace.termination == "empty_layer"
        assert trace.records[-1].total_cols == 3
        assert trace.best_train_loss <= 1e-18

    def test_zero_lambda_interpolates_ill_conditioned_features(self):
        # m=1000, d=8 needs monomials up to degree 5 and cond(F) reaches
        # ~5e12 here; a lambda=0 solve that cuts singular values below
        # eps * max(m, n) * s_max drops one the admission kept and stops at
        # MSE ~6e-5 with an empty next layer
        ds = random_regression(1000, 8, 2)
        cfg = TrainConfig(lambda_grid=(0.0,), error_threshold=1e-8)
        net, trace = train(ds, None, cfg)
        assert trace.termination == "error_threshold"
        assert trace.best_train_loss <= 1e-8
        assert net.total_nodes == 1000

    @pytest.mark.parametrize(
        "m,d,seed", [(200, 4, 8), (200, 4, 30), (300, 5, 5), (300, 5, 28), (150, 3, 5)]
    )
    def test_zero_lambda_interpolates_small_inputs(self, m, d, seed):
        # admitting candidates in scan order let nearly dependent columns
        # in first; the first four ended with m nodes, cond(F) 4e14 to 2e19
        # and MSE 2e-5 to 0.15. Ranking each layer once, against the Q it
        # started from, still left (150, 3, 5) at MSE 7.8e-4
        cfg = TrainConfig(lambda_grid=(0.0,), error_threshold=1e-8)
        net, trace = train(random_regression(m, d, seed), None, cfg)
        assert trace.best_train_loss <= 1e-8
        assert net.total_nodes == m

    @pytest.mark.xfail(
        strict=True,
        reason="at d = 2, m = 100 needs degree about 13; the products' "
        "conditioning lets candidates fall below tol before rank m",
    )
    def test_zero_lambda_interpolates_two_features(self):
        # ends empty_layer at 96 nodes and MSE 9.8e-3; (80, 2) interpolates
        cfg = TrainConfig(lambda_grid=(0.0,), error_threshold=1e-8)
        net, trace = train(random_regression(100, 2, 1), None, cfg)
        assert trace.best_train_loss <= 1e-8
        assert net.total_nodes == 100

    def test_validation_stop_on_noise(self):
        # pure-noise labels: deeper nets only overfit, so patience fires
        rng = np.random.default_rng(23)
        full = make_dataset(rng.standard_normal((60, 2)), rng.standard_normal(60))
        tr, va = split(full, SplitSpec(validation_count=30))
        net, trace = train(tr, va, TrainConfig(lambda_grid=(1e-6,), patience=2))
        assert trace.termination == "validation_stop"
        assert trace.best_depth <= trace.records[-1].depth

    @pytest.mark.parametrize("patience", [1, 2, 3])
    def test_validation_stop_counts_depths_since_last_new_best(self, patience):
        # validation errors 4.0, 8.1, 0.12, 0.071, 0.087, 0.083, 0.078, ...:
        # a fall that is no new best (0.078 < 0.083) does not reset the count
        rng = np.random.default_rng(38)
        X = rng.standard_normal((90, 2))
        y = X[:, 0] ** 2 * X[:, 1] + X[:, 1] ** 3 + 0.3 * rng.standard_normal(90)
        tr, va = split(make_dataset(X, y, task="regression"), SplitSpec(validation_count=30))
        cfg = TrainConfig(mode="width", gamma=3, batch=1, lambda_grid=(1e-4,), patience=patience)
        net, trace = train(tr, va, cfg)
        errs = [r.valid_err for r in trace.records]
        last_best = max(i for i, e in enumerate(errs) if all(e < f for f in errs[:i]))
        assert trace.termination == "validation_stop"
        assert len(errs) - 1 == last_best + patience
        assert trace.best_depth == trace.records[last_best].depth
        assert trace.best_valid_err == errs[last_best]

    def test_monotone_training_loss_in_depth(self):
        ds = regression_ds(25, 3, 24)
        net, trace = train(ds, None, TrainConfig(lambda_grid=(0.0,), max_depth=6))
        losses = [r.train_loss for r in trace.records]
        assert all(b <= a + 1e-10 for a, b in zip(losses, losses[1:]))


class TestModelSelection:
    def test_prefers_lambda_with_lower_objective(self):
        # without validation the training objective picks the head, and
        # an absurd lambda can never win over the unregularized fit
        ds = regression_ds(10, 2, 25)
        cfg = TrainConfig(lambda_grid=(1e6, 0.0), error_threshold=1e-10)
        net, trace = train(ds, None, cfg)
        assert net.head.lam == 0.0
        assert trace.best_lambda == 0.0

    def test_validation_picks_returned_network(self):
        rng = np.random.default_rng(26)
        X = rng.standard_normal((80, 2))
        y = X[:, 0] ** 2 + 0.3 * X[:, 1] + 0.05 * rng.standard_normal(80)
        tr, va = split(make_dataset(X, y), SplitSpec(validation_count=30))
        net, trace = train(tr, va, TrainConfig(lambda_grid=(1e-6, 1e-3), patience=2))
        # returned head reproduces the best recorded validation error
        assert evaluate(net, va)["error"] == pytest.approx(trace.best_valid_err, rel=1e-12)

    def test_validation_columns_are_the_deployed_features(self, monkeypatch):
        # heads are scored on exactly the node values the returned network
        # computes for the validation rows, also when it is cut back to an
        # earlier depth than the last one built
        rng = np.random.default_rng(28)
        X = rng.standard_normal((70, 3))
        y = rng.standard_normal(70)
        tr, va = split(make_dataset(X, y), SplitSpec(validation_count=25))
        seen = []
        score = trainer.validation_error

        def spy(features, weights, labels, task):
            if len(labels) == va.m:
                seen.append(np.array(features, copy=True))
            return score(features, weights, labels, task)

        monkeypatch.setattr(trainer, "validation_error", spy)
        cfg = TrainConfig(mode="width", gamma=8, batch=4, lambda_grid=(1e-3,), patience=2)
        net, trace = train(tr, va, cfg)
        assert trace.best_depth < trace.records[-1].depth
        deployed = feature_matrix(net, va.X)
        scored = [F for F in seen if F.shape[1] == net.total_nodes]
        assert scored and all(np.array_equal(F, deployed) for F in scored)
        for F in seen:  # other depths score a prefix or an extension of them
            k = min(F.shape[1], deployed.shape[1])
            assert np.array_equal(F[:, :k], deployed[:, :k])

    def test_best_depth_matches_network_shape(self):
        ds = regression_ds(12, 2, 27)
        net, trace = train(ds, None, TrainConfig(lambda_grid=(0.0,), max_depth=5))
        assert net.depth == trace.best_depth
        assert net.total_nodes == trace.feature_columns.shape[1]
        norms = np.linalg.norm(trace.feature_columns, axis=0)
        assert np.allclose(norms, np.sqrt(ds.m), atol=1e-6)


    def test_ties_go_to_earliest_depth_and_first_lambda(self):
        # a wide linear margin: every head at every depth classifies the
        # validation rows without error, so the first record wins
        rng = np.random.default_rng(29)
        X = rng.standard_normal((200, 2))
        X = X[np.abs(X[:, 0]) >= 0.5][:80]
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        tr, va = split(make_dataset(X, y), SplitSpec(validation_count=30))
        grid = (1e-2, 1e-4, 1e-3)
        net, trace = train(tr, va, TrainConfig(lambda_grid=grid, patience=2))
        assert [r.valid_err for r in trace.records] == [0.0, 0.0, 0.0]
        assert trace.termination == "validation_stop"
        assert trace.best_depth == 2 and net.depth == 2
        assert trace.best_lambda == net.head.lam == grid[0]
        assert all(r.lam == grid[0] for r in trace.records)

    @pytest.mark.parametrize("with_valid", [True, False])
    def test_returned_network_is_the_best_record(self, with_valid):
        rng = np.random.default_rng(30)
        X = rng.standard_normal((90, 2))
        y = X[:, 0] ** 2 * X[:, 1] + 0.3 * rng.standard_normal(90)
        tr, va = split(make_dataset(X, y), SplitSpec(validation_count=30))
        cfg = TrainConfig(mode="width", gamma=3, batch=1, lambda_grid=(1e-4, 1e-2, 1.0),
                          patience=2, max_depth=None if with_valid else 5)
        net, trace = train(tr, va if with_valid else None, cfg)
        if with_valid:
            best = min(trace.records, key=lambda r: r.valid_err)
            assert best.depth < trace.records[-1].depth
        else:
            assert all(np.isnan(r.valid_err) for r in trace.records)
            best = min(trace.records, key=lambda r: r.train_loss)
        assert (trace.best_depth, trace.best_lambda) == (best.depth, best.lam)
        assert trace.best_train_loss == best.train_loss
        assert trace.best_train_err == best.train_err
        assert np.array_equal(trace.best_valid_err, best.valid_err, equal_nan=True)
        assert net.depth == best.depth and net.head.lam == best.lam
        assert net.head.weights.tobytes() == best.weights.tobytes()
        assert net.head.weights.shape == best.weights.shape == (best.total_cols, 1)
        assert trace.feature_columns.shape[1] == best.total_cols == net.total_nodes

    def test_record_weights_stay_out_of_line_and_equality(self):
        ds = regression_ds(12, 2, 31)
        _, trace = train(ds, None, TrainConfig(lambda_grid=(0.0,), max_depth=3))
        first = trace.records[0]
        assert "weights" not in repr(first) and "weights" not in first.line()
        assert first == replace(first, weights=np.zeros(1))


class TestWidthMode:
    def test_cubic_exact_with_width_two(self):
        # gamma=2 keeps both directions of [1 x]; each later layer then
        # adds the single new degree direction, so x^3 lands in the span
        rng = np.random.default_rng(28)
        x = rng.uniform(-2.0, 2.0, (20, 1))
        ds = make_dataset(x, x[:, 0] ** 3)
        cfg = TrainConfig(mode="width", gamma=2, batch=2,
                          lambda_grid=(0.0,), max_depth=6)
        net, trace = train(ds, None, cfg)
        assert trace.best_train_loss <= 1e-12
        assert all(w <= 2 for w in net.layer_widths)

    def test_unit_width_runs_and_improves(self):
        # gamma=1 mixes the constant into the single first-layer node, so
        # the fit is approximate; it must still improve monotonically
        rng = np.random.default_rng(28)
        x = rng.uniform(-2.0, 2.0, (20, 1))
        ds = make_dataset(x, x[:, 0] ** 3)
        cfg = TrainConfig(mode="width", gamma=1, batch=1,
                          lambda_grid=(0.0,), max_depth=6)
        net, trace = train(ds, None, cfg)
        assert all(w == 1 for w in net.layer_widths)
        losses = [r.train_loss for r in trace.records]
        assert losses[-1] <= losses[0]
        assert trace.best_train_loss <= 1e-3

    def test_width_cap_holds_every_layer(self):
        ds = regression_ds(40, 4, 29)
        cfg = TrainConfig(mode="width", gamma=5, batch=2,
                          lambda_grid=(0.0,), max_depth=6)
        net, trace = train(ds, None, cfg)
        assert all(w <= 5 for w in net.layer_widths)
        assert net.total_nodes <= 5 * (net.depth - 1)

    def test_randomized_svd_mode_runs(self):
        ds = regression_ds(30, 3, 30)
        cfg = TrainConfig(mode="width", gamma=3, batch=3, svd="randomized",
                          lambda_grid=(0.0,), max_depth=4)
        net, trace = train(ds, None, cfg)
        assert net.W1.shape[1] == 3


class TestLossTaskPairing:
    def test_hinge_needs_binary(self):
        ds = regression_ds(10, 2, 31)
        with pytest.raises(ValueError, match="binary"):
            train(ds, None, TrainConfig(loss="hinge", lambda_grid=(0.1,), max_depth=3))

    def test_mc_hinge_needs_multiclass(self):
        ds = binary_ds(10, 32)
        with pytest.raises(ValueError, match="multiclass"):
            train(ds, None, TrainConfig(loss="mc-hinge", lambda_grid=(0.1,), max_depth=3))

    def test_hinge_binary_end_to_end(self):
        ds = binary_ds(60, 33)
        cfg = TrainConfig(loss="hinge", lambda_grid=(0.01,), max_depth=4)
        net, trace = train(ds, None, cfg)
        assert trace.best_train_err <= 0.1
        assert net.head.loss == "hinge"

    def test_hinge_grid_stepped_once_per_depth(self, monkeypatch):
        # one batched Pegasos pass per depth takes the whole grid, while the
        # trainer still calls fit_head once per lambda
        passes, fitted = [], []
        sgd, fit = output._sgd, trainer.fit_head

        def sgd_spy(*args):
            passes.append(args)
            return sgd(*args)

        def fit_spy(*args, **kwargs):
            fitted.append(args[3])
            return fit(*args, **kwargs)

        monkeypatch.setattr(output, "_sgd", sgd_spy)
        monkeypatch.setattr(trainer, "fit_head", fit_spy)
        grid = (1e-3, 1e-2, 1e-2, 0.1)
        _, trace = train(binary_ds(60, 33), None,
                         TrainConfig(loss="hinge", lambda_grid=grid, max_depth=4))
        depths = len(trace.records)
        assert depths == 3
        assert [list(args[4]) for args in passes] == [list(grid)] * depths
        assert fitted == list(grid) * depths

    def test_mc_hinge_end_to_end(self):
        rng = np.random.default_rng(34)
        m = 90
        y = rng.integers(0, 3, m)
        X = rng.standard_normal((m, 2)) * 0.3
        X[np.arange(m), y % 2] += y + 1.0
        ds = make_dataset(X, y)
        cfg = TrainConfig(loss="mc-hinge", lambda_grid=(0.1,), max_depth=4)
        net, trace = train(ds, None, cfg)
        assert net.outputs == 3
        assert trace.best_train_err <= 0.2

    def test_squared_on_binary_reports_misclassification(self):
        ds = binary_ds(40, 35)
        net, trace = train(ds, None, TrainConfig(lambda_grid=(0.0,), max_depth=4))
        assert 0.0 <= trace.best_train_err <= 1.0
        metrics = evaluate(net, ds)
        assert metrics["error"] == pytest.approx(trace.best_train_err)


class TestPreconditions:
    def test_requires_some_stop_rule_without_validation(self):
        ds = regression_ds(10, 2, 36)
        with pytest.raises(ValueError, match="validation split"):
            train(ds, None, TrainConfig(lambda_grid=(0.0,)))

    def test_rejects_empty_training_set(self):
        empty = LabeledDataset(
            X=np.zeros((0, 2)), labels=np.zeros(0), task="regression"
        )
        with pytest.raises(ValueError, match="empty"):
            train(empty, None, TrainConfig(lambda_grid=(0.0,), max_depth=3))

    @pytest.mark.parametrize("train_ds, valid, message", [
        # a different input width
        (regression_ds(10, 2, 37), make_dataset(np.ones((4, 3)), np.arange(4.0) + 0.5),
         "expected 2 features, got 3"),
        # binary labels against a regression training set
        (regression_ds(10, 2, 37), make_dataset(np.ones((4, 2)), [1.0, -1.0, 1.0, -1.0]),
         "dataset task 'binary' does not match the training set's 'regression'"),
        # class ids the 3-class training set does not have
        (make_dataset(np.arange(24.0).reshape(12, 2), np.arange(12) % 3),
         make_dataset(np.ones((4, 2)), [3, 4, 3, 4], task="multiclass"),
         "label 3 is not a class of the training set (3 classes)"),
    ], ids=["width", "task", "classes"])
    def test_validation_set_must_fit_training_set(self, monkeypatch, train_ds, valid, message):
        monkeypatch.setattr(trainer, "build_basis1_exact", None)  # refused before layer 1
        with pytest.raises(ValueError, match=re.escape(message)):
            train(train_ds, valid, TrainConfig(lambda_grid=(0.0,)))

    def test_duplicate_rows_warn(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 1.0]])
        ds = make_dataset(X, np.array([1.0, 1.0, 2.0]))
        assert not ds.distinct
        net, trace = train(ds, None, TrainConfig(lambda_grid=(0.0,), max_depth=3))
        assert any("distinct" in w for w in trace.warnings)


SECS = re.compile(r" secs=\d+\.\d{3}$")


def stripped_lines(trace):
    return [SECS.sub("", line) for line in trace.lines()]


class TestTraceOutput:
    def test_line_format(self):
        ds = regression_ds(12, 2, 37)
        net, trace = train(ds, None, TrainConfig(lambda_grid=(1e-3,), max_depth=4))
        pat = re.compile(
            r"^depth=\d+ layer_width=\d+ total_cols=\d+ lambda=\S+ "
            r"train_loss=\S+ train_err=\S+ valid_err=\S+ secs=\d+\.\d{3}$"
        )
        for line in trace.lines():
            assert pat.match(line), line

    def test_valid_err_nan_without_split(self):
        ds = regression_ds(10, 2, 38)
        net, trace = train(ds, None, TrainConfig(lambda_grid=(0.0,), max_depth=3))
        assert all("valid_err=nan" in line for line in trace.lines())

    def test_header_is_json_safe_and_timeless(self):
        ds = regression_ds(10, 2, 39)
        net, trace = train(ds, None, TrainConfig(lambda_grid=(0.0,), max_depth=3))
        header = trace.header()
        encoded = json.dumps(header, allow_nan=False)
        assert "secs" not in encoded
        assert header["best_valid_err"] is None
        assert header["depths_trained"] == len(trace.records)

    def test_provenance_embedded_in_model(self):
        ds = regression_ds(10, 2, 40)
        cfg = TrainConfig(lambda_grid=(0.0,), max_depth=3, seed=5)
        net, trace = train(ds, None, cfg)
        assert net.provenance["config"]["seed"] == 5
        assert net.provenance["trace"] == trace.header()


class TestDeterminism:
    def test_identical_runs_identical_artifacts(self):
        ds = regression_ds(20, 2, 41)
        cfg = TrainConfig(lambda_grid=(0.0, 1e-4), max_depth=5)
        net_a, trace_a = train(ds, None, cfg)
        net_b, trace_b = train(ds, None, cfg)
        assert serialize(net_a) == serialize(net_b)
        assert stripped_lines(trace_a) == stripped_lines(trace_b)
        assert np.array_equal(trace_a.feature_columns, trace_b.feature_columns)

    def test_sgd_seed_flows_from_config(self):
        ds = binary_ds(50, 42)
        cfg_a = TrainConfig(loss="hinge", lambda_grid=(0.01,), max_depth=3, seed=0)
        cfg_b = TrainConfig(loss="hinge", lambda_grid=(0.01,), max_depth=3, seed=1)
        net_a, _ = train(ds, None, cfg_a)
        net_b, _ = train(ds, None, cfg_b)
        assert not np.array_equal(net_a.head.weights, net_b.head.weights)

    def test_sketched_layer1_is_seeded(self):
        # a 120 x 81 lift at gamma 10 takes the default range finder
        # (81^2 > 2 * 120 * 20): the same seed writes the same bytes, another
        # seed another W1, and the exact factor yet another
        ds = regression_ds(120, 80, 48)
        cfg = TrainConfig(mode="width", gamma=10, batch=5, max_depth=3, lambda_grid=(1e-3,), seed=2)
        net_a, _ = train(ds, None, cfg)
        net_b, _ = train(ds, None, cfg)
        assert serialize(net_a) == serialize(net_b)
        for other in (replace(cfg, seed=3), replace(cfg, svd="exact")):
            assert not np.array_equal(train(ds, None, other)[0].W1, net_a.W1)

    def test_hinge_head_is_its_one_lambda_fit(self):
        # every depth's grid steps over the order of the run's seed, so the
        # returned head is its lambda's fit alone under that seed
        fit, valid = split(binary_ds(120, 49), SplitSpec(validation_count=30))
        cfg = TrainConfig(mode="width", gamma=8, batch=4, max_depth=4, loss="hinge",
                          seed=5, sgd_epochs=7)
        net, trace = train(fit, valid, cfg)
        assert net.depth == trace.best_depth
        alone = output.fit_head(trace.feature_columns, fit.labels, "hinge", net.head.lam,
                                output.OptimizerConfig(epochs=cfg.sgd_epochs, seed=cfg.seed))
        assert net.head.weights.tobytes() == alone.weights.tobytes()


class TestEvaluate:
    def test_empty_dataset_rejected(self):
        ds = regression_ds(10, 2, 43)
        net, _ = train(ds, None, TrainConfig(lambda_grid=(0.0,), max_depth=3))
        empty = LabeledDataset(X=np.zeros((0, 2)), labels=np.zeros(0), task="regression")
        with pytest.raises(ValueError, match="empty"):
            evaluate(net, empty)

    def test_task_mismatch_rejected(self):
        ds = regression_ds(10, 2, 44)
        net, _ = train(ds, None, TrainConfig(lambda_grid=(0.0,), max_depth=3))
        other = binary_ds(10, 44)
        with pytest.raises(ValueError, match="does not match"):
            evaluate(net, other)

    def three_class_model(self):
        rng = np.random.default_rng(47)
        ds = make_dataset(rng.standard_normal((90, 2)), np.arange(90) % 3, task="multiclass")
        net, _ = train(ds, None, TrainConfig(max_depth=2))
        return net, rng.standard_normal((10, 2))

    def test_test_set_missing_a_model_class(self):
        # squared targets span the model's 3 classes, not the 2 the set holds
        net, Xt = self.three_class_model()
        metrics = evaluate(net, make_dataset(Xt, np.arange(10) % 2, task="multiclass"))
        assert metrics["confusion"].shape == (3, 3)
        assert metrics["confusion"].sum() == 10
        assert np.isfinite(metrics["mean_loss"])

    def test_label_beyond_model_classes_rejected(self):
        net, Xt = self.three_class_model()
        with pytest.raises(ValueError, match="label 3 is not a class of the model"):
            evaluate(net, make_dataset(Xt, np.arange(10) % 4, task="multiclass"))

    def test_regression_metrics(self):
        ds = regression_ds(12, 2, 45)
        net, trace = train(ds, None, TrainConfig(lambda_grid=(0.0,), error_threshold=1e-10))
        metrics = evaluate(net, ds)
        assert set(metrics) == {"m", "error", "mean_loss"}
        assert metrics["m"] == 12
        assert metrics["error"] <= 1e-10

    def test_multiclass_confusion(self):
        rng = np.random.default_rng(46)
        m = 60
        y = rng.integers(0, 3, m)
        X = rng.standard_normal((m, 2)) * 0.3
        X[np.arange(m), y % 2] += y + 1.0
        ds = make_dataset(X, y)
        net, _ = train(ds, None, TrainConfig(loss="mc-hinge", lambda_grid=(0.1,), max_depth=3))
        conf = evaluate(net, ds)["confusion"]
        assert conf.shape == (3, 3)
        assert conf.sum() == m
        counts = np.bincount(ds.labels, minlength=3)
        assert np.array_equal(conf.sum(axis=1), counts)
        off_diag = conf.sum() - np.trace(conf)
        assert evaluate(net, ds)["error"] == pytest.approx(off_diag / m)


def node_matrix_metrics(net, ds):
    # evaluate's metrics as they were formed from the whole rows x nodes matrix
    if ds.task == "multiclass":
        ds = replace(ds, n_classes=net.n_classes)
    F = feature_matrix(net, ds.X)
    scores = F @ net.head.weights
    metrics = {
        "error": output.validation_error(F, net.head.weights, ds.labels, ds.task),
        "mean_loss": output.loss_value(net.head.loss, scores,
                                       trainer._fit_target(ds, net.head.loss)),
    }
    if ds.task == "multiclass":
        metrics["confusion"] = np.zeros((net.n_classes,) * 2, dtype=np.int64)
        np.add.at(metrics["confusion"], (ds.labels, output.decide(ds.task, scores)), 1)
    return metrics


class TestEvaluateScoresOnce:
    """evaluate scores the rows once, through predict, and keeps the metrics
    of the node-matrix formula."""

    def three_class_ds(self, m, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 3, m)
        X = rng.standard_normal((m, 2)) * 0.3
        X[np.arange(m), y % 2] += y + 1.0
        return make_dataset(X, y)

    @pytest.mark.parametrize("task", ["regression", "binary", "multiclass"])
    def test_matches_the_node_matrix_formula(self, task):
        # 600 rows span three of predict's row blocks
        ds, loss = {"regression": (regression_ds(600, 3, 71, noise=0.1), "squared"),
                    "binary": (binary_ds(600, 72), "hinge"),
                    "multiclass": (self.three_class_ds(600, 73), "mc-hinge")}[task]
        cfg = TrainConfig(mode="width", gamma=10, batch=5, max_depth=4, loss=loss,
                          lambda_grid=(1e-3,))
        net, _ = train(ds, None, cfg)
        got, want = evaluate(net, ds), node_matrix_metrics(net, ds)
        assert set(got) == {"m", *want}
        assert got["error"] == pytest.approx(want["error"], rel=1e-12, abs=0)
        assert got["mean_loss"] == pytest.approx(want["mean_loss"], rel=1e-12, abs=0)
        if task == "multiclass":
            assert np.array_equal(got["confusion"], want["confusion"])

    def test_scores_once(self, monkeypatch):
        ds = regression_ds(40, 2, 74)
        net, _ = train(ds, None, TrainConfig(lambda_grid=(0.0,), max_depth=3))
        calls = []
        monkeypatch.setattr(trainer, "predict", lambda *a: calls.append(a) or predict(*a))
        monkeypatch.setattr(trainer, "validation_error",
                            lambda *a: pytest.fail("the rows were scored a second time"))
        evaluate(net, ds)
        assert len(calls) == 1


class TestBufferReservation:
    """train reserves F, Q and R once for the run where its width is known,
    and falls back to per-layer growth when that reservation is over budget."""

    @staticmethod
    def spy_buffers(monkeypatch):
        # (F_buf, Q_buf, R_buf) as each product layer's build starts and ends
        seen = []

        def wrap(build):
            def spy(state, *args):
                seen.append((state.F_buf, state.Q_buf, state.R_buf))
                layer = build(state, *args)
                seen.append((state.F_buf, state.Q_buf, state.R_buf))
                return layer
            return spy

        for name in ("build_basis_t_exact", "build_basis_t_width"):
            monkeypatch.setattr(trainer, name, wrap(getattr(trainer, name)))
        return seen

    @pytest.mark.parametrize("cfg, cols", [
        # exact mode: m columns
        (TrainConfig(lambda_grid=(0.0,), error_threshold=1e-12), 60),
        # exact mode to depth 4: multisets of at most 3 of the 3 inputs
        (TrainConfig(lambda_grid=(0.0,), max_depth=4), 20),
        # width mode to depth 5: n1 + gamma * 3
        (TrainConfig(mode="width", gamma=6, batch=3, max_depth=5, lambda_grid=(1e-3,)),
         4 + 6 * 3),
    ], ids=["exact", "exact-max-depth", "width-max-depth"])
    def test_buffers_keep_identity(self, monkeypatch, cfg, cols):
        seen = self.spy_buffers(monkeypatch)
        net, trace = train(regression_ds(60, 3, 50), None, cfg)
        assert len(seen) >= 4  # at least two product layers built
        first = seen[0]
        assert first[0].shape == (60, cols) and first[2].shape == (cols, cols)
        for bufs in seen:
            assert all(b is f for b, f in zip(bufs, first))
        assert trace.feature_columns.shape[1] == net.total_nodes

    def test_over_budget_run_that_stops_early_trains(self, monkeypatch):
        ds = regression_ds(40, 2, 51)
        cfg = TrainConfig(lambda_grid=(0.0,), error_threshold=1e-12)
        _, full = train(ds, None, cfg)
        # stop at depth 3, with layer 1's 3 columns and layer 2's 3 products
        early = replace(cfg, error_threshold=full.records[1].train_loss)
        net, trace = train(ds, None, early)
        # room for 6 columns of 40 rows fits; room for all 40 does not
        monkeypatch.setattr(basis, "_BUFFER_BUDGET", (2 * 40 + 6) * 6 * 8)
        net_b, trace_b = train(ds, None, early)
        assert trace_b.termination == "error_threshold" and trace_b.best_depth == 3
        assert serialize(net_b) == serialize(net)
        assert stripped_lines(trace_b) == stripped_lines(trace)
        with pytest.raises(ValueError, match=r"F, Q and R need \d+ bytes for 40 rows x \d+ "
                           r"columns, over the budget of 4128 bytes"):
            train(ds, None, cfg)
