"""Seeded inputs, training configs and correctness checks of the workloads.

Each workload is built from ``--seed`` alone: the same seed gives the same
rows, so every run of one seed trains on identical data. The training
config is fixed per workload; only the data depends on the seed. README.md
in this directory says why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from basis_learner.dataset import LabeledDataset, make_dataset
from basis_learner.synthetic import random_regression, rectangles
from basis_learner.trainer import TrainConfig

RECT_ERR_BOUND = 0.15  # the acceptance gate's bound on the deep rectangles model
INTERP_LOSS_BOUND = 1e-8


@dataclass(frozen=True)
class Inputs:
    fit: LabeledDataset
    valid: LabeledDataset | None
    test_X: np.ndarray
    test_y: np.ndarray | None  # None: held-out rows are scored for speed only
    config: TrainConfig


def _rows(ds: LabeledDataset, lo: int, hi: int) -> LabeledDataset:
    return make_dataset(ds.X[lo:hi], ds.labels[lo:hi], task=ds.task)


def _rect_hinge(seed: int) -> Inputs:
    full = rectangles(3000, seed=seed)
    return Inputs(
        fit=_rows(full, 0, 800),
        valid=_rows(full, 800, 1000),
        test_X=full.X[1000:],
        test_y=full.labels[1000:],
        config=TrainConfig(mode="width", gamma=50, batch=50, max_depth=4,
                           loss="hinge", sgd_epochs=10),
    )


def _poly_target(rng: np.random.Generator, X: np.ndarray) -> np.ndarray:
    # 12 monomials of degree 1-3 over the 5 high-variance inputs, scaled to
    # unit variance; layer 1 aligns with those inputs, so depth 4 can fit it
    n_rel, n_terms = 5, 12
    idx = rng.integers(0, n_rel, size=(n_terms, 3))
    deg = rng.integers(1, 4, size=n_terms)
    coef = rng.standard_normal(n_terms)
    p = np.zeros(X.shape[0])
    for k in range(n_terms):
        p += coef[k] * np.prod(X[:, idx[k, :deg[k]]], axis=1)
    return p / p.std()


def _width_squared(seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((5500, 50))
    X[:, :5] *= 3.0
    y = _poly_target(rng, X) + 0.1 * rng.standard_normal(X.shape[0])
    full = make_dataset(X, y, task="regression")
    return Inputs(
        fit=_rows(full, 0, 2500),
        valid=_rows(full, 2500, 3500),
        test_X=X[3500:],
        test_y=y[3500:],
        config=TrainConfig(mode="width", gamma=100, batch=25, max_depth=4,
                           loss="squared"),
    )


def _exact_interp(seed: int) -> Inputs:
    # at d=8 the 1000 independent nodes need monomials up to degree 5; on
    # some seeds the lambda=0 solve then stops short of interpolating and
    # the check below fails (README.md, "Known failure")
    held_out = np.random.default_rng((seed, 1)).standard_normal((2000, 8))
    return Inputs(
        fit=random_regression(1000, 8, seed),
        valid=None,
        test_X=held_out,
        test_y=None,
        config=TrainConfig(mode="exact", lambda_grid=(0.0,),
                           error_threshold=INTERP_LOSS_BOUND),
    )


BUILDERS = {
    "rect-hinge": _rect_hinge,
    "width-squared": _width_squared,
    "exact-interp": _exact_interp,
}


def make_inputs(name: str, seed: int) -> Inputs:
    return BUILDERS[name](seed)


def held_out_error(inputs: Inputs, scores: np.ndarray) -> float | None:
    """Misclassification rate (binary) or MSE (regression) on held-out rows."""
    if inputs.test_y is None:
        return None
    s = scores[:, 0]
    if inputs.fit.task == "binary":
        return float(np.mean(np.where(s >= 0.0, 1.0, -1.0) != inputs.test_y))
    return float(np.mean((s - inputs.test_y) ** 2))


def workload_check(name: str, inputs: Inputs, net, trace, test_err) -> list[str]:
    """Failures of the workload's own correctness check; empty when it holds."""
    if name == "rect-hinge":
        if not test_err <= RECT_ERR_BOUND:
            return [f"test_err {test_err} exceeds {RECT_ERR_BOUND}"]
    elif name == "width-squared":
        var = float(np.var(inputs.test_y))
        if not test_err < var:
            return [f"test_err {test_err} is not below the target variance {var}"]
    else:
        fails = []
        if not trace.best_train_loss <= INTERP_LOSS_BOUND:
            fails.append(f"best_train_loss {trace.best_train_loss} exceeds "
                         f"{INTERP_LOSS_BOUND}")
        if net.total_nodes != inputs.fit.m:
            fails.append(f"total_nodes {net.total_nodes} != m {inputs.fit.m}")
        return fails
    return []
