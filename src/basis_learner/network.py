"""The deployable polynomial network.

A network is a linear layer over the constant-lifted input, a stack of
product layers whose nodes each multiply one previous-layer node with one
first-layer node (times a fixed weight), and a linear output head over
the concatenation of every node value. One evaluator, :func:`node_values`,
serves deployed networks and the validation rows during training alike. A
row's values depend on that row alone, so it runs every layer, from the
lifted input on, one block of rows at a time into one rows x nodes result;
:func:`predict` goes one step further and applies the head block by block,
so it never holds the lifted input or the rows x nodes matrix.

Models serialize to a versioned JSON document. Floats go through Python
repr, which round-trips exactly, so save/load is lossless and the bytes
are deterministic for a given network.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import TASKS
from .linalg import check_matrix, is_finite, is_int, lift_rows
from .output import LOSS_KINDS, LOSS_TASK

SCHEMA = "basis-learner/1"


class ModelFormatError(Exception):
    """Raised for malformed or inconsistent model documents."""


@dataclass(frozen=True)
class ProductLayer:
    """One layer of product nodes, stored as parallel arrays.

    Node r computes weight[r] * (previous layer value at prev[r]) *
    (first layer value at first[r]), both indices 0-based within their
    layer. Training appends each layer it builds to ``BasisState.layers``;
    the network it returns keeps the first ``best_depth - 2``.
    """

    prev: np.ndarray
    first: np.ndarray
    weight: np.ndarray

    @property
    def width(self) -> int:
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


def _c_order(W) -> np.ndarray:
    # C-ordered float64, as deserialize builds it: BLAS picks its kernel by
    # layout, so a network predicts the same bits as its reloaded copy
    return np.ascontiguousarray(W, dtype=np.float64)


@dataclass(frozen=True)
class OutputHead:
    """Linear predictor over all node values: total_nodes x outputs."""

    weights: np.ndarray
    loss: str
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "weights", _c_order(self.weights))


@dataclass(frozen=True)
class PolyNetwork:
    input_dim: int
    task: str
    W1: np.ndarray
    product_layers: tuple[ProductLayer, ...]
    head: OutputHead
    n_classes: int = 0
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "W1", _c_order(self.W1))

    @property
    def layer_widths(self) -> list[int]:
        return [self.W1.shape[1]] + [L.width for L in self.product_layers]

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


def layer_values(N1: np.ndarray, prev: np.ndarray, L: ProductLayer) -> np.ndarray:
    """Values of product layer ``L`` from the first-layer values ``N1`` and
    the previous layer's values ``prev`` (one row per input)."""
    return prev[:, L.prev] * N1[:, L.first] * L.weight


# node_values and predict work in blocks of this many rows, so their
# temporaries hold this many rows x the lifted input, the nodes or one layer
# (1.6 MB for a 785-column lift), whatever the number of rows.
_ROW_BLOCK = 256


def node_values(X: np.ndarray, W1: np.ndarray, layers) -> np.ndarray:
    """All node values for each row of X (unchecked), in layer order, of the
    network with first-layer weights ``W1`` and the product ``layers``.

    The rows x nodes result is allocated once and filled ``_ROW_BLOCK`` rows
    at a time: layer 1, the block's lift [1 X] @ W1 (``lift_rows``, which
    checks nothing: the callers have checked X), goes into the block's
    first columns, and each product layer's :func:`layer_values`
    into the next ones.
    """
    n1 = W1.shape[1]
    out = np.empty((X.shape[0], n1 + sum(L.width for L in layers)))
    for r in range(0, X.shape[0], _ROW_BLOCK):
        rows = out[r : r + _ROW_BLOCK]
        rows[:, :n1] = lift_rows(X[r : r + _ROW_BLOCK]) @ W1
        lo, hi = 0, n1  # the previous layer's columns
        for L in layers:
            rows[:, hi : hi + L.width] = layer_values(rows[:, :n1], rows[:, lo:hi], L)
            lo, hi = hi, hi + L.width
    return out


def _input_rows(net: PolyNetwork, X) -> np.ndarray:
    X = check_matrix(X, "X")
    if X.shape[1] != net.input_dim:
        raise ValueError(f"expected {net.input_dim} features, got {X.shape[1]}")
    return X


def feature_matrix(net: PolyNetwork, X) -> np.ndarray:
    """All node values of ``net`` for each row of X (checked), in layer order."""
    return node_values(_input_rows(net, X), net.W1, net.product_layers)


def predict(net: PolyNetwork, X) -> np.ndarray:
    """Raw output scores: one row per input, one column per output.

    X is checked once; then each block of ``_ROW_BLOCK`` rows goes from
    :func:`node_values` through the head into the rows x outputs result,
    so no more than one block's node values are held at a time.
    """
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    X = _input_rows(net, X[None, :] if single else X)
    scores = np.empty((X.shape[0], net.outputs))
    for r in range(0, X.shape[0], _ROW_BLOCK):
        # one expression, so a block's node values are freed before the next's
        scores[r : r + _ROW_BLOCK] = (
            node_values(X[r : r + _ROW_BLOCK], net.W1, net.product_layers) @ net.head.weights)
    return scores[0] if single else scores


def arithmetic_cost(net: PolyNetwork) -> int:
    """Exact multiply/add count of one predict call.

    Linear layer: (d+1)*|F1| multiplies and d*|F1| additions. Each
    product node: 2 multiplies. Each output column: total_nodes
    multiplies and total_nodes - 1 additions.
    """
    d = net.input_dim
    n1 = net.W1.shape[1]
    cost = (d + 1) * n1 + d * n1
    cost += 2 * sum(L.width for L in net.product_layers)
    n = net.total_nodes
    cost += net.outputs * (n + n - 1)
    return cost


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ModelFormatError(msg)


def _weight_matrix(rows, what: str) -> np.ndarray:
    """A JSON list of rows of numbers (bools refused) as a float64 array."""
    _require(isinstance(rows, list)
             and all(isinstance(r, list) and set(map(type, r)) <= {int, float} for r in rows),
             f"{what} weights malformed")
    try:
        return np.array(rows, dtype=np.float64)
    except (ValueError, OverflowError):
        raise ModelFormatError(f"{what} weights malformed") from None


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
            "width": L.width,
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
    except (ValueError, RecursionError) as e:  # also too many digits or too deep
        raise ModelFormatError(f"not a valid model document: {e}") from None
    _require(isinstance(doc, dict), "model document must be a JSON object")
    schema = doc.get("schema")
    _require(schema == SCHEMA, f"unsupported schema {schema!r} (expected {SCHEMA!r})")
    for key in ("input_dim", "task", "layers", "head"):
        _require(key in doc, f"missing field {key!r}")
    d = doc["input_dim"]
    task = doc["task"]
    _require(is_int(d) and d >= 1, "input_dim must be a positive integer")
    _require(task in TASKS, f"unknown task {task!r}")
    n_classes = doc.get("n_classes", 0)
    _require(is_int(n_classes) and n_classes >= 0, "n_classes must be a count")
    if task == "multiclass":
        _require(n_classes >= 2, "multiclass model needs n_classes >= 2")

    layers = doc["layers"]
    _require(isinstance(layers, list) and layers, "layers must be a nonempty list")
    for li, spec in enumerate(layers, start=1):
        _require(isinstance(spec, dict), f"layer {li} must be an object")
    _require(layers[0].get("kind") == "linear", "first layer must be linear")
    W1 = _weight_matrix(layers[0].get("weights"), "linear layer")
    cols = layers[0].get("cols")
    _require(is_int(cols) and W1.ndim == 2 and W1.shape == (d + 1, cols),
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
            _require(is_int(p) and 0 <= p < prev_width,
                     f"layer {li} node {r}: prev_index {p} out of range "
                     f"(previous layer has {prev_width} nodes)")
            _require(is_int(f) and 0 <= f < n1,
                     f"layer {li} node {r}: first_index {f} out of range "
                     f"(first layer has {n1} nodes)")
            _require(is_finite(w) and w != 0,
                     f"layer {li} node {r}: weight must be finite and nonzero")
        L = product_layer(triples)
        width = spec.get("width")
        _require(is_int(width) and width == L.width,
                 f"layer {li}: width field disagrees with triples")
        product_layers.append(L)
        prev_width = L.width

    head_doc = doc["head"]
    _require(isinstance(head_doc, dict), "head must be an object")
    loss = head_doc.get("loss")
    _require(loss in LOSS_KINDS, f"unknown loss {loss!r}")
    _require(LOSS_TASK.get(loss, task) == task, f"a {loss} head does not fit a {task} model")
    lam = head_doc.get("lambda")
    _require(is_finite(lam) and lam >= 0, "lambda must be finite and nonnegative")
    Wh = _weight_matrix(head_doc.get("weights"), "head")
    total = n1 + sum(L.width for L in product_layers)
    expected_outputs = n_classes if task == "multiclass" else 1
    _require(Wh.ndim == 2 and Wh.shape == (total, expected_outputs),
             f"head weights must be {total} x {expected_outputs}, got {Wh.shape}")
    _require(bool(np.isfinite(Wh).all()), "head weights must be finite")
    outputs = head_doc.get("outputs")
    _require(is_int(outputs) and outputs == expected_outputs,
             "head outputs field inconsistent")

    provenance = doc.get("provenance", {})
    _require(isinstance(provenance, dict), "provenance must be an object")
    try:  # serialize must be able to write it back (no NaN or infinity)
        json.dumps(provenance, allow_nan=False)
    except (ValueError, RecursionError):
        raise ModelFormatError("provenance must hold only finite numbers") from None
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
