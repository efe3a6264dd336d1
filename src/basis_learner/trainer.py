"""Training driver: grow the basis depth by depth, fit heads, keep the best.

The loop builds feature layer 1, then alternates between (a) fitting one
output head per regularization value over all features built so far and
(b) constructing the next layer. Heads are scored on the validation
split when one exists, otherwise by training objective; each depth's
best goes into its DepthRecord, and the returned network is the first
record with the least key: the best (depth, lambda) pair seen anywhere in
the run, not the last one. Stopping: training loss under a threshold, no
new best for a configured number of consecutive depths, the depth cap,
or a layer coming back empty (span saturated / no useful candidate).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .basis import (
    build_basis1_exact,
    build_basis1_width,
    build_basis_t_exact,
    build_basis_t_width,
    check_width,
    final_width,
    initial_state,
    resolve_tol,
)
from .dataset import LabeledDataset, target_matrix
from .linalg import is_finite, is_int, lift_input
from .network import OutputHead, PolyNetwork, node_values, predict
from .output import (
    LOSS_KINDS,
    LOSS_TASK,
    HeadGrid,
    OptimizerConfig,
    _scores_error,
    decide,
    fit_head,
    loss_value,
    validation_error,
)

# 10^-7, 10^-6.5, ..., 10^1 (17 values)
DEFAULT_LAMBDA_GRID: tuple[float, ...] = tuple(
    10.0 ** (-7.0 + 0.5 * i) for i in range(17)
)


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run depends on besides the data.

    ``max_depth`` counts the output layer, so a network of depth D has
    D-2 product layers; None leaves depth uncapped. ``tol`` of None uses
    the scale-aware default independence threshold. ``error_threshold``
    stops as soon as the depth-best training loss falls to it. The counts
    must pass :func:`~basis_learner.linalg.is_int` and the reals (lambdas,
    ``tol``, ``error_threshold``) :func:`~basis_learner.linalg.is_finite`,
    else ``ValueError`` names the field; ``tol`` and the width budget pass
    the layer builders' own rules. ``svd`` is width mode's layer-1 factor,
    the ``svd_mode`` of :func:`~basis_learner.basis.build_basis1_width`.
    """

    mode: str = "exact"
    gamma: int = 50
    max_depth: int | None = None
    batch: int = 50
    tol: float | None = None
    loss: str = "squared"
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    svd: str = "randomized"
    patience: int = 2
    error_threshold: float | None = None
    seed: int = 0
    sgd_epochs: int = OptimizerConfig.epochs

    def __post_init__(self):
        for name in ("gamma", "batch", "max_depth", "patience", "seed", "sgd_epochs"):
            value = getattr(self, name)
            if not is_int(value) and not (name == "max_depth" and value is None):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.mode not in ("exact", "width"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.svd not in ("exact", "randomized"):
            raise ValueError(f"unknown svd choice {self.svd!r}")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.mode == "width":
            check_width(self.gamma, self.batch)
        if self.max_depth is not None and self.max_depth < 2:
            raise ValueError("max_depth counts the output layer and must be >= 2")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        grid = self.lambda_grid
        if not isinstance(grid, (tuple, list)):
            raise ValueError(f"lambda_grid must be a tuple or list, got {type(grid).__name__}")
        if not grid or not all(is_finite(lam) and lam >= 0 for lam in grid):
            raise ValueError(f"lambda grid must be nonempty, finite and nonnegative, got {grid!r}")
        # plain floats, so the trace prints them as such and the config hashes
        object.__setattr__(self, "lambda_grid", tuple(map(float, grid)))
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.sgd_epochs < 1:
            raise ValueError(f"sgd_epochs must be >= 1, got {self.sgd_epochs!r}")
        resolve_tol(self.tol, 1)  # train resolves None against its rows
        if self.error_threshold is not None and not is_finite(self.error_threshold):
            raise ValueError(f"error_threshold must be finite, got {self.error_threshold!r}")
        if self.error_threshold is not None and self.error_threshold < 0:
            raise ValueError(f"error_threshold must be nonnegative, got {self.error_threshold!r}")


@dataclass(frozen=True)
class DepthRecord:
    """One depth of the run: its trace line and ``weights``, the head of
    the lambda chosen there (left out of the line, repr and equality)."""

    depth: int
    layer_width: int
    total_cols: int
    lam: float
    train_loss: float
    train_err: float
    valid_err: float  # nan when there is no validation split
    secs: float
    weights: np.ndarray = field(repr=False, compare=False)

    @property
    def key(self) -> float:
        """Selection key, lower is better: valid_err, else train_loss."""
        return self.train_loss if math.isnan(self.valid_err) else self.valid_err

    def line(self) -> str:
        return (
            f"depth={self.depth} layer_width={self.layer_width} "
            f"total_cols={self.total_cols} lambda={self.lam!r} "
            f"train_loss={self.train_loss!r} train_err={self.train_err!r} "
            f"valid_err={self.valid_err!r} secs={self.secs:.3f}"
        )


def _best(records: list[DepthRecord]) -> DepthRecord:
    """The first record with the least key, so ties go to the earliest."""
    return min(records, key=lambda r: r.key)


@dataclass
class TrainingTrace:
    records: list[DepthRecord]
    termination: str
    best_depth: int
    best_lambda: float
    best_train_loss: float
    best_train_err: float
    best_valid_err: float
    warnings: list[str] = field(default_factory=list)
    # training-row values of the returned network's nodes, column per node
    feature_columns: np.ndarray | None = None

    def lines(self) -> list[str]:
        return [r.line() for r in self.records]

    def header(self) -> dict:
        """Provenance summary: deterministic, no wall-clock content."""
        return {
            "termination": self.termination,
            "depths_trained": len(self.records),
            "best_depth": self.best_depth,
            "best_lambda": self.best_lambda,
            "best_train_loss": self.best_train_loss,
            "best_train_err": self.best_train_err,
            "best_valid_err": None if math.isnan(self.best_valid_err) else self.best_valid_err,
            "warnings": list(self.warnings),
        }


def _fit_target(ds: LabeledDataset, loss: str):
    need = LOSS_TASK.get(loss, ds.task)
    if ds.task != need:
        labels = "binary -1/+1" if need == "binary" else "multiclass"
        raise ValueError(f"{loss} loss needs {labels} labels")
    return target_matrix(ds) if loss == "squared" else ds.labels


def _check_fits(ds: LabeledDataset, owner: str, dim: int, task: str, n_classes: int) -> None:
    """Refuse a dataset unless it has the ``owner``'s (the model's or the
    training set's) ``dim`` features and ``task`` and, for multiclass, only
    ids of its ``n_classes`` classes."""
    if ds.dim != dim:
        raise ValueError(f"expected {dim} features, got {ds.dim}")
    if ds.task != task:
        raise ValueError(f"dataset task {ds.task!r} does not match the {owner}'s {task!r}")
    if task == "multiclass":
        unknown = ds.labels[ds.labels >= n_classes]
        if unknown.size:
            raise ValueError(
                f"label {int(unknown[0])} is not a class of the {owner} ({n_classes} classes)"
            )


def train(
    train_ds: LabeledDataset,
    valid_ds: LabeledDataset | None,
    config: TrainConfig,
) -> tuple[PolyNetwork, TrainingTrace]:
    """Run the full constructive algorithm; returns the model and trace.

    ``valid_ds`` may be None or empty only when ``error_threshold`` or
    ``max_depth`` will eventually stop the run.
    """
    if train_ds.m < 1:
        raise ValueError("training set is empty")
    has_valid = valid_ds is not None and valid_ds.m > 0
    if has_valid:
        _check_fits(valid_ds, "training set", train_ds.dim, train_ds.task, train_ds.n_classes)
    elif config.error_threshold is None and config.max_depth is None:
        raise ValueError(
            "without a validation split, set error_threshold or max_depth"
        )
    warnings: list[str] = []
    if not train_ds.distinct:
        warnings.append(
            "training rows are not pairwise distinct; exact-interpolation "
            "guarantees do not apply"
        )

    fit_y = _fit_target(train_ds, config.loss)
    lifted = lift_input(train_ds.X)
    if config.mode == "exact":
        layer1 = build_basis1_exact(lifted)
    else:
        layer1 = build_basis1_width(lifted, config.gamma, svd_mode=config.svd, seed=config.seed)
    state = initial_state(layer1, config.tol)
    del lifted, layer1  # layer 1 is in F now
    widest = final_width(state, config.max_depth,
                         config.gamma if config.mode == "width" else None)
    if widest is not None:
        try:  # F, Q and R once for the run, so no layer copies them
            state.reserve(widest)
        except ValueError:  # over the budget: each layer reserves its own room
            pass
    select_target = target_matrix(train_ds)
    opt = OptimizerConfig(epochs=config.sgd_epochs, seed=config.seed)

    records: list[DepthRecord] = []
    t = 2
    while True:
        t0 = time.perf_counter()
        lo, hi = state.layer_ranges[-1]
        # the validation rows' node values, from the deployed network's evaluator
        valid_F = node_values(valid_ds.X, state.W1, state.layers) if has_valid else None
        # the depth's heads share one solve of the grid (squared heads over F = QR)
        grid = HeadGrid(config.lambda_grid, opt, state.Q, state.R)

        heads = []
        for lam in config.lambda_grid:
            fit = fit_head(state.F, fit_y, config.loss, lam, opt,
                           n_classes=train_ds.n_classes, factor=grid)
            v_err = (validation_error(valid_F, fit.weights, valid_ds.labels, valid_ds.task)
                     if has_valid else math.nan)
            heads.append(DepthRecord(
                depth=t, layer_width=hi - lo, total_cols=hi, lam=lam,
                train_loss=fit.train_loss, train_err=math.nan, valid_err=v_err,
                secs=math.nan, weights=fit.weights,
            ))
        record = _best(heads)
        record = replace(record, train_err=validation_error(
            state.F, record.weights, train_ds.labels, train_ds.task))
        del valid_F, grid, heads  # nothing reads them again; free them before the next layer
        records.append(record)
        best = _best(records)

        if (config.error_threshold is not None
                and record.train_loss <= config.error_threshold):
            termination = "error_threshold"
        elif has_valid and t - best.depth >= config.patience:
            termination = "validation_stop"
        elif config.max_depth is not None and t >= config.max_depth:
            termination = "depth_cap"
        else:
            if config.mode == "exact":
                built = build_basis_t_exact(state, config.tol)
            else:
                built = build_basis_t_width(
                    state, select_target, config.gamma, config.batch, config.tol
                )
            termination = "empty_layer" if built.width == 0 else None
        records[-1] = replace(record, secs=time.perf_counter() - t0)
        if termination is not None:
            break
        t += 1

    trace = TrainingTrace(
        records=records,
        termination=termination,
        best_depth=best.depth,
        best_lambda=best.lam,
        best_train_loss=best.train_loss,
        best_train_err=best.train_err,
        best_valid_err=best.valid_err,
        warnings=warnings,
        # the buffer itself when it holds just these columns, so no copy of F
        feature_columns=(state.F_buf if state.F_buf.shape[1] == best.total_cols
                         else state.F[:, : best.total_cols].copy()),
    )
    # provenance lives inside the JSON model file, so keep it JSON-native
    # (tuples would come back as lists and break round-trip equality)
    cfg_doc = asdict(config)
    cfg_doc["lambda_grid"] = list(cfg_doc["lambda_grid"])
    net = PolyNetwork(
        input_dim=train_ds.dim,
        task=train_ds.task,
        W1=state.W1,
        product_layers=tuple(state.layers[: best.depth - 2]),
        head=OutputHead(weights=best.weights, loss=config.loss, lam=float(best.lam)),
        n_classes=train_ds.n_classes,
        provenance={"config": cfg_doc, "trace": trace.header()},
    )
    return net, trace


def evaluate(net: PolyNetwork, ds: LabeledDataset) -> dict:
    """Metrics block for a dataset: error (rate or MSE), mean loss, and a
    per-class confusion matrix for multiclass tasks."""
    if ds.m < 1:
        raise ValueError("cannot evaluate on an empty dataset")
    _check_fits(ds, "model", net.input_dim, net.task, net.n_classes)
    if ds.task == "multiclass":
        # targets and confusion are over the model's classes, not the dataset's
        ds = replace(ds, n_classes=net.n_classes)
    scores = predict(net, ds.X)
    metrics = {
        "m": ds.m,
        "error": _scores_error(ds.task, scores, ds.labels),
        "mean_loss": loss_value(net.head.loss, scores, _fit_target(ds, net.head.loss)),
    }
    if ds.task == "multiclass":
        k = net.n_classes
        pred = decide(ds.task, scores)
        conf = np.zeros((k, k), dtype=np.int64)
        np.add.at(conf, (ds.labels, pred), 1)
        metrics["confusion"] = conf
    return metrics
