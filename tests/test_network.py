"""Network evaluation, cost accounting, and lossless serialization.

The instrumented evaluator below recomputes predict with explicit scalar
loops, counting every multiply and add, so the reported cost is checked
against an actual operation count rather than the same formula twice.
"""

import math

import numpy as np
import pytest

from basis_learner import TrainConfig, make_dataset, train
from basis_learner.network import (
    ModelFormatError,
    OutputHead,
    PolyNetwork,
    arithmetic_cost,
    decisions,
    deserialize,
    feature_matrix,
    forward_features,
    load_model,
    predict,
    product_layer,
    save_model,
    serialize,
)


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


def trained_regression_net(m=12, d=2, seed=77, mode="exact", **kw):
    rng = np.random.default_rng(seed)
    ds = make_dataset(rng.standard_normal((m, d)), rng.standard_normal(m))
    cfg = TrainConfig(mode=mode, max_depth=8, lambda_grid=(0.0,), **kw)
    return ds, *train(ds, None, cfg)


class TestForwardFeatures:
    def test_constant_node(self):
        # W1 = e_1 * s ignores x entirely
        net = hand_net([[2.5], [0.0]], [], [[1.0]])
        for x in ([0.0], [3.0], [-7.0]):
            assert forward_features(net, x)[0] == 2.5

    def test_lifted_identity(self):
        net = hand_net(np.eye(3), [], np.zeros((3, 1)))
        assert np.array_equal(forward_features(net, [4.0, -1.0]), [1.0, 4.0, -1.0])

    def test_product_node_value(self):
        # nodes valued 2 and 3, weight 0.5 -> 3.0
        net = hand_net([[2.0, 3.0], [0.0, 0.0]], [[(0, 1, 0.5)]], np.zeros((3, 1)))
        assert forward_features(net, [9.0])[2] == 3.0

    def test_dimension_mismatch(self):
        net = hand_net(np.eye(3), [], np.zeros((3, 1)))
        with pytest.raises(ValueError, match="expected 2 features"):
            forward_features(net, [1.0])

    def test_rejects_matrix_input(self):
        net = hand_net(np.eye(2), [], np.zeros((2, 1)))
        with pytest.raises(ValueError, match="single input"):
            forward_features(net, np.ones((2, 1)))

    def test_reproduces_training_columns(self):
        # the bridge between construction and deployment: node values on
        # the training rows must match the stored basis columns
        ds, net, trace = trained_regression_net()
        F = feature_matrix(net, ds.X)
        assert F.shape == trace.feature_columns.shape
        assert np.max(np.abs(F - trace.feature_columns)) <= 1e-8
        for i in (0, 5, 11):
            assert np.allclose(forward_features(net, ds.X[i]), F[i], atol=1e-12)

    def test_reproduces_training_columns_width_mode(self):
        ds, net, trace = trained_regression_net(m=30, d=3, seed=78, mode="width",
                                                gamma=6, batch=3)
        F = feature_matrix(net, ds.X)
        assert np.max(np.abs(F - trace.feature_columns)) <= 1e-8


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

    def test_interpolates_training_targets(self):
        ds, net, trace = trained_regression_net()
        scores = predict(net, ds.X)[:, 0]
        assert np.max(np.abs(scores - ds.labels)) <= 1e-6

    def test_multiclass_tie_goes_to_lowest(self):
        # constant scores (0.2, 0.9, 0.9) -> class 1
        net = hand_net([[0.2, 0.9, 0.9], [0.0, 0.0, 0.0]], [], np.eye(3),
                       task="multiclass", n_classes=3, loss="mc-hinge")
        assert decisions(net, [0.0]).tolist() == [1]

    def test_binary_zero_score_positive(self):
        net = hand_net([[0.0], [0.0]], [], [[1.0]], task="binary", loss="hinge")
        assert decisions(net, [1.0]).tolist() == [1.0]


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
        ds, net, trace = trained_regression_net()
        back = deserialize(serialize(net))
        X = np.random.default_rng(3).standard_normal((100, ds.X.shape[1]))
        assert np.array_equal(predict(back, X), predict(net, X))

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
    ])
    def test_bool_rejected_where_number_required(self, path):
        import json

        doc = {
            "schema": "basis-learner/1", "input_dim": 1, "task": "regression",
            "n_classes": 1,
            "layers": [
                {"kind": "linear", "rows": 2, "cols": 2, "weights": [[1, 0], [0, 1]]},
                {"kind": "product", "width": 1, "triples": [[1, 1, 1]]},
            ],
            "head": {"loss": "squared", "lambda": 1, "outputs": 1,
                     "weights": [[0], [0], [0]]},
        }
        deserialize(json.dumps(doc))  # valid with the numbers in place
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = True
        with pytest.raises(ModelFormatError):
            deserialize(json.dumps(doc))


class TestProperties:
    def test_layer_widths_and_depth(self):
        net = hand_net(np.eye(3), [[(0, 0, 1.0), (1, 1, 1.0)], [(0, 2, 1.0)]],
                       np.zeros((6, 1)))
        assert net.layer_widths == [3, 2, 1]
        assert net.total_nodes == 6
        assert net.depth == 4
        assert net.outputs == 1
