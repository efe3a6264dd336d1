"""Network evaluation, cost accounting, and lossless serialization.

The instrumented evaluator below recomputes predict with explicit scalar
loops, counting every multiply and add, so the reported cost is checked
against an actual operation count rather than the same formula twice.
"""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from basis_learner import TrainConfig, linalg, make_dataset, network, train
from basis_learner.linalg import lift_input
from basis_learner.network import (
    ModelFormatError,
    OutputHead,
    PolyNetwork,
    arithmetic_cost,
    deserialize,
    feature_matrix,
    load_model,
    node_values,
    predict,
    product_layer,
    save_model,
    serialize,
)
from basis_learner.output import decide
from basis_learner.trainer import evaluate


def hand_net(W1, layers, head_w, task="regression", n_classes=0, loss="squared"):
    W1 = np.asarray(W1, dtype=np.float64)
    head_w = np.asarray(head_w, dtype=np.float64)
    return PolyNetwork(
        input_dim=W1.shape[0] - 1,
        task=task,
        W1=W1,
        product_layers=tuple(product_layer(t) for t in layers),
        head=OutputHead(weights=head_w, loss=loss, lam=0.0),
        n_classes=n_classes,
    )


def chain_net(degree):
    # d=1 nodes (1, x), then one node per layer multiplying by x again,
    # so the head picks out exactly x**degree
    layers = [[(1 if t == 2 else 0, 1, 1.0)] for t in range(2, degree + 1)]
    head = np.zeros((2 + degree - 1, 1))
    head[-1, 0] = 1.0
    return hand_net(np.eye(2), layers, head)


def small_doc():
    """A valid model document: d=1, two linear nodes, one product node."""
    return {
        "schema": "basis-learner/1", "input_dim": 1, "task": "regression",
        "n_classes": 1,
        "layers": [
            {"kind": "linear", "rows": 2, "cols": 2, "weights": [[1, 0], [0, 1]]},
            {"kind": "product", "width": 1, "triples": [[1, 1, 1]]},
        ],
        "head": {"loss": "squared", "lambda": 1, "outputs": 1,
                 "weights": [[0], [1], [0]]},
        "provenance": {},
    }


def replaced(doc, path, value):
    """``doc`` with the field at ``path`` (keys and list indices) set to ``value``."""
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def trained_regression_net(m=12, d=2, seed=77, mode="exact", **kw):
    rng = np.random.default_rng(seed)
    ds = make_dataset(rng.standard_normal((m, d)), rng.standard_normal(m))
    cfg = TrainConfig(mode=mode, max_depth=8, lambda_grid=(0.0,), **kw)
    return ds, *train(ds, None, cfg)


class TestForwardFeatures:
    """Node values of single input points: feature_matrix on one row."""

    def test_constant_node(self):
        # W1 = e_1 * s ignores x entirely
        net = hand_net([[2.5], [0.0]], [], [[1.0]])
        for x in ([0.0], [3.0], [-7.0]):
            assert feature_matrix(net, [x])[0, 0] == 2.5

    def test_lifted_identity(self):
        net = hand_net(np.eye(3), [], np.zeros((3, 1)))
        assert np.array_equal(feature_matrix(net, [[4.0, -1.0]]), [[1.0, 4.0, -1.0]])

    def test_product_node_value(self):
        # nodes valued 2 and 3, weight 0.5 -> 3.0
        net = hand_net([[2.0, 3.0], [0.0, 0.0]], [[(0, 1, 0.5)]], np.zeros((3, 1)))
        assert feature_matrix(net, [[9.0]])[0, 2] == 3.0

    def test_dimension_mismatch(self):
        net = hand_net(np.eye(3), [], np.zeros((3, 1)))
        with pytest.raises(ValueError, match="expected 2 features"):
            feature_matrix(net, [[1.0]])

    def test_reproduces_training_columns(self):
        # the bridge between construction and deployment: node values on
        # the training rows must match the stored basis columns
        ds, net, trace = trained_regression_net()
        F = feature_matrix(net, ds.X)
        assert F.shape == trace.feature_columns.shape
        assert np.max(np.abs(F - trace.feature_columns)) <= 1e-8
        for i in (0, 5, 11):
            assert np.allclose(feature_matrix(net, ds.X[i:i + 1])[0], F[i], atol=1e-12)

    def test_reproduces_training_columns_width_mode(self):
        ds, net, trace = trained_regression_net(m=30, d=3, seed=78, mode="width",
                                                gamma=6, batch=3)
        F = feature_matrix(net, ds.X)
        assert np.max(np.abs(F - trace.feature_columns)) <= 1e-8


def random_layers(rng, n1, widths):
    """Product layers of the given ``widths`` with random indices and weights."""
    layers, prev = [], n1
    for w in widths:
        layers.append(product_layer(list(zip(rng.integers(0, prev, w).tolist(),
                                             rng.integers(0, n1, w).tolist(),
                                             rng.uniform(0.5, 2.0, w).tolist()))))
        prev = w
    return layers


def hstack_node_values(X, W1, layers):
    # the evaluator as it was before it wrote into one output: every layer's
    # block kept, then all of them copied side by side
    blocks = [lift_input(X) @ W1]
    for L in layers:
        blocks.append(blocks[-1][:, L.prev] * blocks[0][:, L.first] * L.weight)
    return np.hstack(blocks)


class TestNodeValues:
    """node_values writes every layer into one output, product layers in row blocks."""

    B = network._ROW_BLOCK

    @pytest.mark.parametrize("widths", [(), (7,), (7, 12, 5)])
    @pytest.mark.parametrize("rows", [0, 1, B - 1, B, 2 * B + 3])
    def test_matches_hstack_bit_for_bit(self, widths, rows):
        rng = np.random.default_rng(len(widths) * 1000 + rows)
        W1 = rng.standard_normal((4, 5))
        layers = random_layers(rng, 5, widths)
        X = rng.standard_normal((rows, 3))
        got = node_values(X, W1, layers)
        want = hstack_node_values(X, W1, layers)
        assert got.shape == want.shape == (rows, 5 + sum(widths))
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def predict_peak(net, X):
        tracemalloc.start()
        try:
            predict(net, X)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_predict_peak_memory(self):
        # an exact-interp-sized predict: 2,000 rows, d = 8, 1,000 nodes
        rng = np.random.default_rng(60)
        m, widths = 2000, (36, 120, 330, 505)
        net = PolyNetwork(input_dim=8, task="regression", W1=rng.standard_normal((9, 9)),
                          product_layers=tuple(random_layers(rng, 9, widths)),
                          head=OutputHead(rng.standard_normal((1000, 1)), "squared", 0.0))
        X = rng.standard_normal((m, 8))
        peak = self.predict_peak(net, X)
        scores = m * 1 * 8
        # one row block's node values and scores, layer_values' two gathers
        # and product for the widest layer, and the block's lift and layer-1
        # product (9 columns each); no term grows with rows but the scores
        temporaries = self.B * (1000 + 1 + 3 * max(widths) + 2 * 9) * 8
        assert peak <= scores + temporaries + 64 * 1024, (peak, scores, temporaries)
        assert scores + temporaries < m * 1000 * 8 / 2  # the node matrix predict once held

    def test_predict_peak_memory_wide_input(self):
        # a rect-hinge-shaped predict: d = 784, 150 nodes; the lift of all the
        # rows alone would be larger than X
        rng = np.random.default_rng(61)
        d, outputs = 784, 1
        net = PolyNetwork(input_dim=d, task="binary",
                          W1=rng.standard_normal((d + 1, 50)) / d,
                          product_layers=tuple(random_layers(rng, 50, (50, 50))),
                          head=OutputHead(rng.standard_normal((150, outputs)), "hinge", 0.0))
        peaks = {}
        for m in (2000, 8000):
            X = rng.standard_normal((m, d))
            peaks[m] = self.predict_peak(net, X)
            assert peaks[m] < X.nbytes / 4, (m, peaks[m], X.nbytes)
        # only the rows x outputs scores grow with the rows
        assert peaks[8000] - peaks[2000] <= (8000 - 2000) * outputs * 8 + 64 * 1024, peaks


class TestPredict:
    def test_zero_head_scores_zero(self):
        net = hand_net(np.eye(3), [[(1, 2, 1.0)]], np.zeros((4, 1)))
        X = np.random.default_rng(0).standard_normal((10, 2))
        assert np.array_equal(predict(net, X), np.zeros((10, 1)))

    def test_single_vector_returns_flat_scores(self):
        net = hand_net(np.eye(2), [], [[2.0], [0.0]])
        out = predict(net, [5.0])
        assert out.shape == (1,)
        assert out[0] == 2.0

    def test_empty_and_single_row_shapes(self):
        net = hand_net([[1.0, 0.0, 2.0], [0.5, 1.0, 0.0]], [[(1, 2, 1.0)]],
                       np.arange(8.0).reshape(4, 2), task="multiclass", n_classes=2,
                       loss="mc-hinge")
        assert predict(net, np.zeros((0, 1))).shape == (0, 2)
        row = predict(net, [3.0])
        assert row.shape == (2,)
        assert np.array_equal(row, predict(net, [[3.0]])[0])

    @pytest.mark.parametrize("rows", [1, network._ROW_BLOCK - 1, network._ROW_BLOCK + 1,
                                      3 * network._ROW_BLOCK + 7])
    def test_agrees_with_the_node_matrix(self, rows):
        # predict scores block by block; the whole node matrix through the
        # head gives the same scores up to the order of the head's sums
        rng = np.random.default_rng(rows)
        net = PolyNetwork(input_dim=6, task="multiclass", W1=rng.standard_normal((7, 8)),
                          product_layers=tuple(random_layers(rng, 8, (10, 12))),
                          head=OutputHead(rng.standard_normal((30, 3)), "mc-hinge", 0.0),
                          n_classes=3)
        X = rng.standard_normal((rows, 6))
        want = feature_matrix(net, X) @ net.head.weights
        assert np.allclose(predict(net, X), want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_checks_x_once(self, monkeypatch):
        # X is checked whole, once; node_values lifts its row blocks unchecked
        check, checked = linalg.check_matrix, []

        def counted(A, name="matrix"):
            checked.append((name, np.shape(A)))
            return check(A, name)

        monkeypatch.setattr(linalg, "check_matrix", counted)
        monkeypatch.setattr(network, "check_matrix", counted)
        rng = np.random.default_rng(62)
        net = PolyNetwork(input_dim=6, task="regression", W1=rng.standard_normal((7, 8)),
                          product_layers=tuple(random_layers(rng, 8, (10,))),
                          head=OutputHead(rng.standard_normal((18, 1)), "squared", 0.0))
        X = rng.standard_normal((3 * network._ROW_BLOCK + 7, 6))
        predict(net, X)
        assert checked == [("X", X.shape)]

    def test_interpolates_training_targets(self):
        ds, net, trace = trained_regression_net()
        scores = predict(net, ds.X)[:, 0]
        assert np.max(np.abs(scores - ds.labels)) <= 1e-6

    def test_multiclass_tie_goes_to_lowest(self):
        # constant scores (0.2, 0.9, 0.9) -> class 1
        net = hand_net([[0.2, 0.9, 0.9], [0.0, 0.0, 0.0]], [], np.eye(3),
                       task="multiclass", n_classes=3, loss="mc-hinge")
        assert decide(net.task, predict(net, [[0.0]])).tolist() == [1]

    def test_binary_zero_score_positive(self):
        net = hand_net([[0.0], [0.0]], [], [[1.0]], task="binary", loss="hinge")
        assert decide(net.task, predict(net, [[1.0]])).tolist() == [1.0]


def instrumented_predict(net, x):
    """Scalar-loop evaluation that counts each multiply and add."""
    mults = adds = 0
    lifted = [1.0] + [float(v) for v in x]
    vals = []
    for j in range(net.W1.shape[1]):
        acc = lifted[0] * net.W1[0, j]
        mults += 1
        for i in range(1, len(lifted)):
            acc += lifted[i] * net.W1[i, j]
            mults += 1
            adds += 1
        vals.append(acc)
    n1 = list(vals)
    prev = n1
    for L in net.product_layers:
        cur = []
        for p, f, w in L.triples():
            cur.append(w * prev[p] * n1[f])
            mults += 2
        vals.extend(cur)
        prev = cur
    outs = []
    W = net.head.weights
    for c in range(net.outputs):
        acc = vals[0] * W[0, c]
        mults += 1
        for r in range(1, len(vals)):
            acc += vals[r] * W[r, c]
            mults += 1
            adds += 1
        outs.append(acc)
    return np.array(outs), mults + adds


class TestArithmeticCost:
    def test_frozen_minimal_example(self):
        # d=1, two first-layer nodes, one product node, one output:
        # (4+2) + 2 + (3+2) = 13
        net = hand_net(np.eye(2), [[(0, 1, 1.0)]], np.zeros((3, 1)))
        assert arithmetic_cost(net) == 13

    def test_linear_only(self):
        # d=2, three nodes, one output: (9+6) + (3+2) = 20
        net = hand_net(np.eye(3), [], np.zeros((3, 1)))
        assert arithmetic_cost(net) == 20

    def test_matches_instrumented_count(self):
        ds, net, trace = trained_regression_net()
        x = ds.X[3]
        outs, ops = instrumented_predict(net, x)
        assert ops == arithmetic_cost(net)
        assert np.allclose(outs, predict(net, x), rtol=1e-10)

    def test_matches_instrumented_count_multioutput(self):
        net = hand_net(np.eye(3), [[(0, 1, 1.0), (2, 2, 2.0)]],
                       np.random.default_rng(1).standard_normal((5, 4)),
                       task="multiclass", n_classes=4, loss="mc-hinge")
        outs, ops = instrumented_predict(net, [0.4, -0.2])
        assert ops == arithmetic_cost(net)
        assert np.allclose(outs, predict(net, [0.4, -0.2]), rtol=1e-10)


def forward_difference(f, order, t0=0.0, h=0.3):
    # sum_k (-1)^k C(order,k) f(t0 + (order-k) h)
    total = 0.0
    scale = 0.0
    for k in range(order + 1):
        term = (-1.0) ** k * math.comb(order, k) * f(t0 + (order - k) * h)
        total += term
        scale += abs(term)
    return total, max(scale, 1e-30)


class TestDegreeBound:
    def test_chain_net_degree_is_exact(self):
        net = chain_net(4)
        f = lambda t: float(predict(net, [t])[0])
        vanish, scale = forward_difference(f, 5)
        assert abs(vanish) <= 1e-10 * scale
        nonzero, _ = forward_difference(f, 4)
        # 4th difference of x^4 with step h is 4! h^4
        assert nonzero == pytest.approx(24.0 * 0.3**4, rel=1e-9)

    def test_trained_net_degree_bounded(self):
        ds, net, trace = trained_regression_net()
        D = net.depth - 1
        rng = np.random.default_rng(9)
        for _ in range(5):
            a = rng.standard_normal(net.input_dim)
            b = rng.standard_normal(net.input_dim)
            f = lambda t: float(predict(net, a + t * b)[0])
            vanish, scale = forward_difference(f, D + 1)
            assert abs(vanish) <= 1e-5 * scale


class TestSerialization:
    def test_round_trip_fields_exact(self):
        ds, net, trace = trained_regression_net()
        back = deserialize(serialize(net))
        assert back.input_dim == net.input_dim
        assert back.task == net.task
        assert back.n_classes == net.n_classes
        assert np.array_equal(back.W1, net.W1)
        assert len(back.product_layers) == len(net.product_layers)
        for La, Lb in zip(back.product_layers, net.product_layers):
            assert La.triples() == Lb.triples()
        assert np.array_equal(back.head.weights, net.head.weights)
        assert back.head.loss == net.head.loss
        assert back.head.lam == net.head.lam
        assert back.provenance == net.provenance

    def test_round_trip_predict_exact(self):
        # bit for bit, also on the small products whose BLAS kernel depends on
        # the layout of W1 (width mode at d = 20)
        for ds, net, _ in (trained_regression_net(),
                           trained_regression_net(m=200, d=20, seed=5, mode="width",
                                                  gamma=10, batch=5)):
            back = deserialize(serialize(net))
            for rows in (1, 10, 100, 255, 256, 257, 513, 2000):
                X = np.random.default_rng(3).standard_normal((rows, ds.X.shape[1]))
                assert predict(back, X).tobytes() == predict(net, X).tobytes(), rows

    def test_hand_built_layout_predicts_like_reloaded(self):
        # a network keeps C-ordered weights whatever layout its caller built
        ds, net, _ = trained_regression_net(m=200, d=20, seed=5, mode="width",
                                            gamma=10, batch=5)
        hand = dataclasses.replace(
            net, W1=np.asfortranarray(net.W1),
            head=dataclasses.replace(net.head, weights=np.asfortranarray(net.head.weights)))
        assert hand.W1.flags.c_contiguous and hand.head.weights.flags.c_contiguous
        back = deserialize(serialize(net))
        for rows in (1, 10, 100, 255, 256, 257, 513, 2000):
            X = np.random.default_rng(3).standard_normal((rows, ds.X.shape[1]))
            assert predict(hand, X).tobytes() == predict(back, X).tobytes(), rows

    def test_serialize_deterministic_and_stable(self):
        ds, net, trace = trained_regression_net()
        raw = serialize(net)
        assert raw == serialize(net)
        assert serialize(deserialize(raw)) == raw

    def test_save_load_files(self, tmp_path):
        ds, net, trace = trained_regression_net()
        path = tmp_path / "model.json"
        save_model(net, path)
        back = load_model(path)
        assert np.array_equal(back.head.weights, net.head.weights)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "absent.json")

    def test_truncated_document(self):
        ds, net, trace = trained_regression_net()
        raw = serialize(net)
        with pytest.raises(ModelFormatError, match="not a valid model document"):
            deserialize(raw[: len(raw) // 2])

    def test_wrong_schema_version(self):
        ds, net, trace = trained_regression_net()
        text = serialize(net).decode().replace("basis-learner/1", "basis-learner/9")
        with pytest.raises(ModelFormatError, match="unsupported schema"):
            deserialize(text)

    def test_prev_index_out_of_range_names_node(self):
        net = hand_net(np.eye(2), [[(0, 1, 1.0), (5, 0, 1.0)]], np.zeros((4, 1)))
        with pytest.raises(ModelFormatError,
                           match=r"layer 2 node 1: prev_index 5 out of range"):
            deserialize(serialize(net))

    def test_first_index_out_of_range_names_node(self):
        net = hand_net(np.eye(2), [[(0, 7, 1.0)]], np.zeros((3, 1)))
        with pytest.raises(ModelFormatError,
                           match=r"layer 2 node 0: first_index 7 out of range"):
            deserialize(serialize(net))

    def test_zero_product_weight_rejected(self):
        net = hand_net(np.eye(2), [[(0, 1, 0.0)]], np.zeros((3, 1)))
        with pytest.raises(ModelFormatError, match="finite and nonzero"):
            deserialize(serialize(net))

    def test_head_shape_mismatch(self):
        import json

        ds, net, trace = trained_regression_net()
        doc = json.loads(serialize(net))
        doc["head"]["weights"] = doc["head"]["weights"][:-1]
        with pytest.raises(ModelFormatError, match="head weights must be"):
            deserialize(json.dumps(doc))

    def test_width_field_mismatch(self):
        import json

        net = hand_net(np.eye(2), [[(0, 1, 1.0)]], np.zeros((3, 1)))
        doc = json.loads(serialize(net))
        doc["layers"][1]["width"] = 9
        with pytest.raises(ModelFormatError, match="width field disagrees"):
            deserialize(json.dumps(doc))

    def test_multiclass_requires_n_classes(self):
        import json

        net = hand_net(np.eye(2), [], np.zeros((2, 3)), task="multiclass",
                       n_classes=3, loss="mc-hinge")
        doc = json.loads(serialize(net))
        doc["n_classes"] = 0
        with pytest.raises(ModelFormatError, match="n_classes"):
            deserialize(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(ModelFormatError, match="not a valid model document"):
            deserialize(b"\x00\x01garbage")

    def test_top_level_array(self):
        with pytest.raises(ModelFormatError, match="JSON object"):
            deserialize(b"[1,2,3]")

    @pytest.mark.parametrize("index", [0, 1])
    def test_layer_entry_not_object(self, index):
        import json

        net = hand_net(np.eye(2), [[(0, 1, 1.0)]], np.zeros((3, 1)))
        doc = json.loads(serialize(net))
        doc["layers"][index] = 7
        with pytest.raises(ModelFormatError, match=f"layer {index + 1} must be an object"):
            deserialize(json.dumps(doc))

    # where the document holds 1, a bool true compares equal to it, so it
    # is only refused when bools are refused outright
    @pytest.mark.parametrize("path", [
        ("input_dim",),
        ("n_classes",),
        ("layers", 0, "cols"),
        ("layers", 1, "width"),
        ("layers", 1, "triples", 0, 0),
        ("layers", 1, "triples", 0, 1),
        ("layers", 1, "triples", 0, 2),
        ("head", "lambda"),
        ("head", "outputs"),
        ("layers", 0, "weights", 0, 0),
        ("head", "weights", 1, 0),
    ])
    def test_bool_rejected_where_number_required(self, path):
        deserialize(json.dumps(small_doc()))  # valid with the numbers in place
        with pytest.raises(ModelFormatError):
            deserialize(json.dumps(replaced(small_doc(), path, True)))

    # each of these used to escape as TypeError or OverflowError
    @pytest.mark.parametrize("path,value", [
        (("layers", 0, "weights"), {"0": [1, 0], "1": [0, 1]}),
        (("head", "weights"), {"0": [0]}),
        (("head", "lambda"), 10**400),
        (("layers", 1, "triples", 0, 2), 10**400),
        (("layers", 0, "weights", 0, 0), 10**400),
    ], ids=["linear-weights-object", "head-weights-object", "lambda-overflow",
            "node-weight-overflow", "linear-weight-overflow"])
    def test_untyped_failures_raise_model_format_error(self, path, value):
        with pytest.raises(ModelFormatError):
            deserialize(json.dumps(replaced(small_doc(), path, value)))

    # these used to load, and serialize of the loaded network then raised ValueError
    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN", "1e999"])
    def test_non_finite_provenance_rejected(self, value):
        text = json.dumps(small_doc()).replace('"provenance": {}',
                                               '"provenance": {"x": [1, %s]}' % value)
        with pytest.raises(ModelFormatError, match="provenance"):
            deserialize(text)

    @pytest.mark.parametrize("text", [
        json.dumps(small_doc()).replace('"lambda": 1', '"lambda": 1' + "0" * 5000),
        "[" * 100000 + "]" * 100000,
    ], ids=["integer-beyond-digit-limit", "nested-too-deep"])
    def test_unparseable_json(self, text):
        with pytest.raises(ModelFormatError, match="not a valid model document"):
            deserialize(text)

    @staticmethod
    def task_doc(task, loss):
        doc = small_doc()
        doc["task"], doc["head"]["loss"] = task, loss
        if task == "multiclass":
            doc["n_classes"], doc["head"]["outputs"] = 2, 2
            doc["head"]["weights"] = [[0, 1], [1, 0], [0, 0]]
        return doc

    @pytest.mark.parametrize("task,loss", [
        ("regression", "hinge"), ("regression", "logistic"), ("multiclass", "hinge"),
        ("multiclass", "logistic"), ("regression", "mc-hinge"), ("binary", "mc-hinge"),
    ])
    def test_head_loss_must_fit_task(self, task, loss):
        with pytest.raises(ModelFormatError, match=f"{loss} head does not fit a {task}"):
            deserialize(json.dumps(self.task_doc(task, loss)))

    @pytest.mark.parametrize("task,loss", [
        ("regression", "squared"), ("binary", "squared"), ("multiclass", "squared"),
        ("binary", "hinge"), ("binary", "logistic"), ("multiclass", "mc-hinge"),
    ])
    def test_head_loss_fitting_task_loads(self, task, loss):
        net = deserialize(json.dumps(self.task_doc(task, loss)))
        assert (net.task, net.head.loss) == (task, loss)

    def test_multiclass_model_with_hinge_head_rejected(self):
        rng = np.random.default_rng(78)
        ds = make_dataset(rng.standard_normal((12, 2)), np.arange(12) % 3, task="multiclass")
        net, _ = train(ds, None, TrainConfig(loss="mc-hinge", max_depth=3, sgd_epochs=2,
                                             lambda_grid=(0.1,)))
        doc = json.loads(serialize(net))
        doc["head"]["loss"] = "hinge"
        with pytest.raises(ModelFormatError, match="hinge head does not fit a multiclass"):
            deserialize(json.dumps(doc))
        # a network built in memory is held to the same rule when evaluated
        wrong = hand_net(net.W1, [L.triples() for L in net.product_layers], net.head.weights,
                         task="multiclass", n_classes=3, loss="hinge")
        with pytest.raises(ValueError, match="hinge loss needs binary -1/\\+1 labels"):
            evaluate(wrong, ds)


def field_paths(doc, prefix=()):
    """Every key and list index path in a JSON document, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, prefix + (key,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids,
                                                            max_size=3),
    max_leaves=6,
)


class TestModelDocumentProperties:
    @settings(max_examples=300, deadline=None)
    @given(path=st.sampled_from(list(field_paths(small_doc()))), value=json_values)
    def test_one_field_replaced_loads_or_raises_model_format_error(self, path, value):
        text = json.dumps(replaced(small_doc(), path, value))
        try:
            net = deserialize(text)
        except ModelFormatError:
            return
        assert isinstance(net, PolyNetwork)
        serialize(net)  # whatever loads can be written back

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["exact", "width"]),
           loss=st.sampled_from(["squared", "hinge", "logistic", "mc-hinge"]))
    def test_trained_network_round_trips(self, seed, mode, loss):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((12, 2))
        if loss == "squared":
            ds = make_dataset(X, rng.standard_normal(12), task="regression")
        elif loss == "mc-hinge":
            ds = make_dataset(X, rng.permutation(np.arange(12) % 3), task="multiclass")
        else:
            ds = make_dataset(X, rng.permutation(np.arange(12) % 2 * 2.0 - 1.0),
                              task="binary")
        cfg = TrainConfig(mode=mode, gamma=4, batch=2, max_depth=4, loss=loss,
                          lambda_grid=(0.0, 0.1), sgd_epochs=3, seed=seed)
        net, _ = train(ds, None, cfg)
        blob = serialize(net)
        assert serialize(deserialize(blob)) == blob

    def test_integer_lambda_grid_round_trips(self):
        # Python ints are reals; the head's lambda is written as a float
        ds = make_dataset(np.random.default_rng(7).standard_normal((12, 2)),
                          np.arange(12.0), task="regression")
        net, trace = train(ds, None, TrainConfig(lambda_grid=(1, 0), max_depth=3))
        blob = serialize(net)
        assert serialize(deserialize(blob)) == blob
        assert deserialize(blob).head.lam == trace.best_lambda


class TestProperties:
    def test_layer_widths_and_depth(self):
        net = hand_net(np.eye(3), [[(0, 0, 1.0), (1, 1, 1.0)], [(0, 2, 1.0)]],
                       np.zeros((6, 1)))
        assert net.layer_widths == [3, 2, 1]
        assert net.total_nodes == 6
        assert net.depth == 4
        assert net.outputs == 1
