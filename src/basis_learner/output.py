"""Output-layer losses and the regularized linear fit over the features.

Four convex losses, all averaged over the m instances: squared, hinge,
logistic, and multiclass hinge. The regularized objective is always

    loss(F w, y) + (lambda / 2) ||w||^2

Squared loss is minimized exactly from a factor F = QR with orthonormal
Q (:class:`SquaredFactor`): (1/m)||Fw - y||^2 differs from
(1/m)||Rw - Q^T y||^2 by a constant, so one factor of F serves every
lambda, through one SVD of R shared by the lambda grid (minimum norm at
lambda = 0), or an LU solve of R at lambda = 0 when F's columns are known
independent. The margin losses run averaged mini-batch subgradient
descent (Pegasos) on :func:`loss_gradient`, with a seeded shuffle, so a
fit is deterministic given its config. Scores become decisions by one
rule, :func:`decide`, keyed by task.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

LOSS_KINDS = ("squared", "hinge", "logistic", "mc-hinge")
# the task whose labels a margin loss fits; squared heads fit every task
LOSS_TASK = {"hinge": "binary", "logistic": "binary", "mc-hinge": "multiclass"}


@dataclass(frozen=True)
class OptimizerConfig:
    """Subgradient-descent budget for the non-squared losses.

    Each epoch shuffles the rows (seeded) and steps once per mini-batch
    of max(1, m // 32) rows, so about 32 steps. Step size is
    1/(lambda * s) when lambda > 0 and 1/sqrt(s) when lambda = 0, s
    counting steps from 1; for lambda > 0 each step ends with the
    projection onto the ball ||W|| <= 1/sqrt(lambda). The returned
    weights are the average of the iterates from the second half of the
    steps.
    """

    epochs: int = 50
    seed: int = 0


@dataclass(frozen=True)
class FitResult:
    weights: np.ndarray          # n_features x n_outputs
    train_loss: float            # regularized objective at the returned weights


def _scores_matrix(scores) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim == 1:
        scores = scores[:, None]
    if scores.ndim != 2:
        raise ValueError(f"scores must be a vector or matrix, got shape {scores.shape}")
    return scores


def loss_value(kind: str, scores, y) -> float:
    """Mean loss of the given scores against labels ``y``.

    Binary losses take one score column and labels in {-1,+1}; the
    multiclass hinge takes an m x k score matrix and integer class ids.
    """
    S = _scores_matrix(scores)
    y = np.asarray(y)
    m = S.shape[0]
    if y.shape[0] != m:
        raise ValueError("scores and labels disagree on m")
    if kind == "squared":
        Y = y[:, None] if y.ndim == 1 else y
        if Y.shape != S.shape:
            raise ValueError("squared loss needs one target per score")
        return float(np.sum((S - Y) ** 2) / m)
    if kind == "hinge":
        v = S[:, 0]
        return float(np.maximum(0.0, 1.0 - y * v).mean())
    if kind == "logistic":
        v = S[:, 0]
        return float(np.logaddexp(0.0, -y * v).mean())
    if kind == "mc-hinge":
        if S.shape[1] < 2:
            raise ValueError("mc-hinge needs at least two score columns")
        idx = y.astype(np.int64)
        true = S[np.arange(m), idx]
        masked = S.copy()
        masked[np.arange(m), idx] = -np.inf
        rival = masked.max(axis=1)
        return float(np.maximum(0.0, 1.0 + rival - true).mean())
    raise ValueError(f"unknown loss kind {kind!r}")


def decide(task: str, scores) -> np.ndarray:
    """Decision rule: sign for binary (0 counts as +1), argmax for
    multiclass with ties going to the lowest class id, the raw score for
    regression."""
    S = _scores_matrix(scores)
    if task == "regression":
        return S[:, 0]
    if task == "binary":
        return np.where(S[:, 0] >= 0.0, 1.0, -1.0)
    if task == "multiclass":
        return S.argmax(axis=1).astype(np.int64)
    raise ValueError(f"unknown task {task!r}")


def loss_gradient(kind: str, scores, y) -> np.ndarray:
    """Gradient of :func:`loss_value` with respect to the scores.

    Returns an array shaped like the score matrix. At hinge kinks the
    inactive subgradient (zero) is returned. The margin-loss solver steps
    on this gradient, evaluated on mini-batches.
    """
    S = _scores_matrix(scores)
    y = np.asarray(y)
    m = S.shape[0]
    G = np.zeros_like(S)
    if kind == "squared":
        Y = y[:, None] if y.ndim == 1 else y
        return 2.0 * (S - Y) / m
    if kind == "hinge":
        z = y * S[:, 0]
        G[:, 0] = np.where(z < 1.0, -y, 0.0) / m
        return G
    if kind == "logistic":
        z = y * S[:, 0]
        e = np.exp(-np.abs(z))
        sig_neg = np.where(z > 0.0, e, 1.0) / (1.0 + e)
        G[:, 0] = -y * sig_neg / m
        return G
    if kind == "mc-hinge":
        idx = y.astype(np.int64)
        rows = np.arange(m)
        true = S[rows, idx]
        masked = S.copy()
        masked[rows, idx] = -np.inf
        rival = masked.argmax(axis=1)
        active = 1.0 + masked[rows, rival] - true > 0.0
        G[rows[active], rival[active]] = 1.0 / m
        G[rows[active], idx[active]] = -1.0 / m
        return G
    raise ValueError(f"unknown loss kind {kind!r}")


def objective(kind: str, F, w, y, lam: float) -> float:
    return loss_value(kind, F @ w, y) + 0.5 * lam * float(np.sum(np.asarray(w) ** 2))


@dataclass
class SquaredFactor:
    """R = Q^T F and Q^T Y for an orthonormal Q with span(Q) = span(F).

    Every squared head over F is solved from these alone. ``independent``
    certifies that F has full column rank (the basis admission tests each
    column), so lambda = 0 is an LU solve of the square R; otherwise it
    takes the minimum-norm answer from the SVD of R with an eps cutoff.
    Every lambda > 0 shares that one SVD, taken on first use.
    """

    R: np.ndarray
    QtY: np.ndarray
    independent: bool = False

    @functools.cached_property
    def _svd(self):
        return np.linalg.svd(self.R, full_matrices=False)

    def solve(self, lam: float, m: int) -> np.ndarray:
        """Minimizer of (1/m)||Fw - Y||^2 + (lam/2)||w||^2."""
        if lam == 0.0 and self.independent:
            return np.linalg.solve(self.R, self.QtY)
        U, s, Vt = self._svd
        shrink = np.zeros_like(s)
        if lam == 0.0:
            # the cutoff is eps, not eps * max(m, n), which would drop
            # singular values of a full-rank F
            keep = s > np.finfo(np.float64).eps * s[:1]
            shrink[keep] = 1.0 / s[keep]
        else:
            # s / (s^2 + mu), written so that s^2 is never formed: it
            # overflows when F is huge; a vanishing s (mu / s = inf) gets 0
            mu = lam * m / 2.0
            keep = s > 0.0
            with np.errstate(over="ignore"):
                shrink[keep] = 1.0 / (s[keep] + mu / s[keep])
        return Vt.T @ (shrink[:, None] * (U.T @ self.QtY))


def _sgd(F, y, kind, lam, opt, k):
    # Pegasos steps on mini-batches of about m/32 rows; the ball
    # ||W|| <= 1/sqrt(lam) holds the optimum
    m, n = F.shape
    batches = range(0, m, max(1, m // 32))
    half = opt.epochs * len(batches) // 2
    radius = 1.0 / math.sqrt(lam) if lam > 0.0 else math.inf
    W = np.zeros((n, k))
    acc = np.zeros_like(W)
    rng = np.random.default_rng(opt.seed)
    s = 0
    for _ in range(opt.epochs):
        order = rng.permutation(m)
        for start in batches:
            idx = order[start:start + batches.step]
            s += 1
            eta = 1.0 / (lam * s) if lam > 0.0 else 1.0 / math.sqrt(s)
            Fb = F[idx]
            G = Fb.T @ loss_gradient(kind, Fb @ W, y[idx])
            W = (1.0 - eta * lam) * W - eta * G
            norm = np.linalg.norm(W)
            if norm > radius:
                W *= radius / norm
            if s > half:
                acc += W
    return acc / max(s - half, 1)


def fit_head(
    F,
    y,
    kind: str,
    lam: float,
    opt: OptimizerConfig | None = None,
    n_classes: int | None = None,
    factor: SquaredFactor | None = None,
) -> FitResult:
    """Fit output weights over the feature matrix ``F``.

    Squared loss is solved exactly from ``factor``, a :class:`SquaredFactor`
    of F and the targets shared by the calls over a lambda grid, or from
    ``np.linalg.qr(F)`` when none is given (minimum-norm at lambda = 0);
    the margin losses use the averaged mini-batch subgradient method
    configured by ``opt`` and ignore ``factor``. ``n_classes`` fixes the
    weight-column count for mc-hinge; by default it is one more than the
    largest class id seen. Errors are scored separately, by
    :func:`validation_error`. Non-finite data, weights or objective raise
    ``ValueError``.
    """
    F = np.asarray(F, dtype=np.float64)
    y = np.asarray(y)
    if F.ndim != 2:
        raise ValueError("F must be a matrix")
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lambda must be finite and nonnegative, got {lam!r}")
    if not (np.isfinite(F).all() and np.isfinite(y).all()):
        raise ValueError("F and y must be finite")
    if opt is None:
        opt = OptimizerConfig()

    if kind == "squared":
        Y = y[:, None] if y.ndim == 1 else np.asarray(y, dtype=np.float64)
        if factor is None:
            Q, R = np.linalg.qr(F)
            factor = SquaredFactor(R, Q.T @ Y)
        W = factor.solve(lam, F.shape[0])
    else:
        if y.ndim != 1:
            raise ValueError(f"{kind} expects a label vector")
        if kind == "mc-hinge":
            k = int(y.max()) + 1 if n_classes is None else n_classes
            if k < 2:
                raise ValueError("mc-hinge requires at least 2 classes")
        else:
            k = 1
        W = _sgd(F, np.asarray(y, dtype=np.float64), kind, lam, opt, k)
    loss = objective(kind, F, W, y, lam)
    if not (math.isfinite(loss) and np.isfinite(W).all()):
        raise ValueError(f"{kind} head at lambda={lam!r} is not finite")
    return FitResult(weights=W, train_loss=loss)


def validation_error(features, weights, y, task: str) -> float:
    """Error of a linear head under :func:`decide`: misclassification
    rate for the classification tasks, MSE for regression."""
    features = np.asarray(features, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    pred = decide(task, features @ weights)
    y = np.asarray(y)
    if task == "regression":
        return float(np.mean((pred - y) ** 2))
    return float(np.mean(pred != y))
