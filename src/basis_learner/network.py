"""The deployable polynomial network.

A network is a linear layer over the constant-lifted input, a stack of
product layers whose nodes each multiply one previous-layer node with one
first-layer node (times a fixed weight), and a linear output head over
the concatenation of every node value. Evaluation fills one flat buffer
in layer order.

Models serialize to a versioned JSON document. Floats go through Python
repr, which round-trips exactly, so save/load is lossless and the bytes
are deterministic for a given network.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .basis import lift_input
from .linalg import check_matrix

SCHEMA = "basis-learner/1"


class ModelFormatError(Exception):
    """Raised for malformed or inconsistent model documents."""


@dataclass(frozen=True)
class ProductLayer:
    """One layer of product nodes, stored as parallel arrays.

    Node r computes weight[r] * (previous layer value at prev[r]) *
    (first layer value at first[r]).
    """

    prev: np.ndarray
    first: np.ndarray
    weight: np.ndarray

    def __len__(self) -> int:
        return self.prev.size

    def triples(self) -> list[tuple[int, int, float]]:
        return [
            (int(p), int(f), float(w))
            for p, f, w in zip(self.prev, self.first, self.weight)
        ]


def product_layer(triples) -> ProductLayer:
    """Build a ProductLayer from (prev_index, first_index, weight) triples."""
    prev = np.array([t[0] for t in triples], dtype=np.int64)
    first = np.array([t[1] for t in triples], dtype=np.int64)
    weight = np.array([t[2] for t in triples], dtype=np.float64)
    return ProductLayer(prev=prev, first=first, weight=weight)


@dataclass(frozen=True)
class OutputHead:
    """Linear predictor over all node values: total_nodes x outputs."""

    weights: np.ndarray
    loss: str
    lam: float


@dataclass(frozen=True)
class PolyNetwork:
    input_dim: int
    task: str
    W1: np.ndarray
    product_layers: tuple[ProductLayer, ...]
    head: OutputHead
    n_classes: int = 0
    provenance: dict = field(default_factory=dict)

    @property
    def layer_widths(self) -> list[int]:
        return [self.W1.shape[1]] + [len(L) for L in self.product_layers]

    @property
    def total_nodes(self) -> int:
        return sum(self.layer_widths)

    @property
    def depth(self) -> int:
        """Layer count including the output layer."""
        return 2 + len(self.product_layers)

    @property
    def outputs(self) -> int:
        return self.head.weights.shape[1]


def feature_matrix(net: PolyNetwork, X) -> np.ndarray:
    """All node values for each row of X, in layer order."""
    X = check_matrix(X, "X")
    if X.shape[1] != net.input_dim:
        raise ValueError(f"expected {net.input_dim} features, got {X.shape[1]}")
    N1 = lift_input(X) @ net.W1
    blocks = [N1]
    prev = N1
    for L in net.product_layers:
        prev = prev[:, L.prev] * N1[:, L.first] * L.weight
        blocks.append(prev)
    return np.hstack(blocks)


def forward_features(net: PolyNetwork, x) -> np.ndarray:
    """Node values for a single input point."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("forward_features expects a single input vector")
    return feature_matrix(net, x[None, :])[0]


def predict(net: PolyNetwork, X) -> np.ndarray:
    """Raw output scores: one row per input, one column per output."""
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    scores = feature_matrix(net, X) @ net.head.weights
    return scores[0] if single else scores


def decisions(net: PolyNetwork, X) -> np.ndarray:
    """Predicted labels: sign for binary (0 counts as +1), argmax with
    lowest-id tie-break for multiclass, raw scores for regression."""
    scores = np.atleast_2d(predict(net, X))
    if net.task == "binary":
        return np.where(scores[:, 0] >= 0.0, 1.0, -1.0)
    if net.task == "multiclass":
        return scores.argmax(axis=1).astype(np.int64)
    return scores[:, 0]


def arithmetic_cost(net: PolyNetwork) -> int:
    """Exact multiply/add count of one predict call.

    Linear layer: (d+1)*|F1| multiplies and d*|F1| additions. Each
    product node: 2 multiplies. Each output column: total_nodes
    multiplies and total_nodes - 1 additions.
    """
    d = net.input_dim
    n1 = net.W1.shape[1]
    cost = (d + 1) * n1 + d * n1
    cost += 2 * sum(len(L) for L in net.product_layers)
    n = net.total_nodes
    cost += net.outputs * (n + n - 1)
    return cost


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ModelFormatError(msg)


def _is_int(x) -> bool:
    # JSON true/false load as bool, which is a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def serialize(net: PolyNetwork) -> bytes:
    """Canonical JSON encoding; identical networks give identical bytes."""
    layers: list[dict] = [
        {
            "kind": "linear",
            "rows": net.W1.shape[0],
            "cols": net.W1.shape[1],
            "weights": net.W1.tolist(),
        }
    ]
    for L in net.product_layers:
        layers.append({
            "kind": "product",
            "width": len(L),
            "triples": L.triples(),
        })
    doc = {
        "schema": SCHEMA,
        "input_dim": net.input_dim,
        "task": net.task,
        "n_classes": net.n_classes,
        "layers": layers,
        "head": {
            "loss": net.head.loss,
            "lambda": net.head.lam,
            "outputs": net.outputs,
            "weights": net.head.weights.tolist(),
        },
        "provenance": net.provenance,
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return (text + "\n").encode("utf-8")


def deserialize(data) -> PolyNetwork:
    """Parse and fully validate a model document.

    Schema violations raise ModelFormatError with the offending field,
    and out-of-range product references name the layer and node.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"not a valid model document: {e}") from None
    _require(isinstance(doc, dict), "model document must be a JSON object")
    schema = doc.get("schema")
    _require(schema == SCHEMA, f"unsupported schema {schema!r} (expected {SCHEMA!r})")
    for key in ("input_dim", "task", "layers", "head"):
        _require(key in doc, f"missing field {key!r}")
    d = doc["input_dim"]
    task = doc["task"]
    _require(_is_int(d) and d >= 1, "input_dim must be a positive integer")
    _require(task in ("regression", "binary", "multiclass"), f"unknown task {task!r}")
    n_classes = doc.get("n_classes", 0)
    _require(_is_int(n_classes) and n_classes >= 0, "n_classes must be a count")
    if task == "multiclass":
        _require(n_classes >= 2, "multiclass model needs n_classes >= 2")

    layers = doc["layers"]
    _require(isinstance(layers, list) and layers, "layers must be a nonempty list")
    for li, spec in enumerate(layers, start=1):
        _require(isinstance(spec, dict), f"layer {li} must be an object")
    _require(layers[0].get("kind") == "linear", "first layer must be linear")
    try:
        W1 = np.array(layers[0]["weights"], dtype=np.float64)
    except (KeyError, ValueError):
        raise ModelFormatError("linear layer weights malformed") from None
    cols = layers[0].get("cols")
    _require(_is_int(cols) and W1.ndim == 2 and W1.shape == (d + 1, cols),
             f"linear layer must be {d + 1} x cols")
    _require(bool(np.isfinite(W1).all()), "linear layer weights must be finite")
    n1 = W1.shape[1]
    _require(n1 >= 1, "linear layer must have at least one node")

    product_layers: list[ProductLayer] = []
    prev_width = n1
    for li, spec in enumerate(layers[1:], start=2):
        _require(spec.get("kind") == "product", f"layer {li}: kind must be 'product'")
        triples = spec.get("triples")
        _require(isinstance(triples, list) and triples, f"layer {li}: empty or missing triples")
        for r, t in enumerate(triples):
            _require(isinstance(t, list) and len(t) == 3, f"layer {li} node {r}: malformed triple")
            p, f, w = t
            _require(_is_int(p) and 0 <= p < prev_width,
                     f"layer {li} node {r}: prev_index {p} out of range "
                     f"(previous layer has {prev_width} nodes)")
            _require(_is_int(f) and 0 <= f < n1,
                     f"layer {li} node {r}: first_index {f} out of range "
                     f"(first layer has {n1} nodes)")
            _require(_is_number(w) and np.isfinite(w) and w != 0,
                     f"layer {li} node {r}: weight must be finite and nonzero")
        L = product_layer(triples)
        width = spec.get("width")
        _require(_is_int(width) and width == len(L),
                 f"layer {li}: width field disagrees with triples")
        product_layers.append(L)
        prev_width = len(L)

    head_doc = doc["head"]
    _require(isinstance(head_doc, dict), "head must be an object")
    loss = head_doc.get("loss")
    _require(loss in ("squared", "hinge", "logistic", "mc-hinge"), f"unknown loss {loss!r}")
    lam = head_doc.get("lambda")
    _require(_is_number(lam) and lam >= 0, "lambda must be nonnegative")
    try:
        Wh = np.array(head_doc["weights"], dtype=np.float64)
    except (KeyError, ValueError):
        raise ModelFormatError("head weights malformed") from None
    total = n1 + sum(len(L) for L in product_layers)
    expected_outputs = n_classes if task == "multiclass" else 1
    _require(Wh.ndim == 2 and Wh.shape == (total, expected_outputs),
             f"head weights must be {total} x {expected_outputs}, got {Wh.shape}")
    _require(bool(np.isfinite(Wh).all()), "head weights must be finite")
    outputs = head_doc.get("outputs")
    _require(_is_int(outputs) and outputs == expected_outputs,
             "head outputs field inconsistent")

    provenance = doc.get("provenance", {})
    _require(isinstance(provenance, dict), "provenance must be an object")
    return PolyNetwork(
        input_dim=d,
        task=task,
        W1=W1,
        product_layers=tuple(product_layers),
        head=OutputHead(weights=Wh, loss=loss, lam=float(lam)),
        n_classes=n_classes,
        provenance=provenance,
    )


def save_model(net: PolyNetwork, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(net))


def load_model(path) -> PolyNetwork:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise ModelFormatError(f"{path}: {e.strerror or e}") from None
    return deserialize(data)
