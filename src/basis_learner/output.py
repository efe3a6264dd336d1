"""Output-layer losses and the regularized linear fit over the features.

Four convex losses, all averaged over the m instances: squared, hinge,
logistic, and multiclass hinge. The regularized objective is always

    loss(F w, y) + (lambda / 2) ||w||^2

Each margin loss is a function of one margin per row: y s for hinge and
logistic; for the multiclass hinge, the true score minus the best rival's
(Crammer-Singer), so its loss is the hinge's. Value, gradient and the
Pegasos solver share that definition, which takes leading head axes.
A lambda grid's heads, of any loss, are one :class:`HeadGrid`, solved
whole on its first fit, each bit for bit as in a grid of its lambda
alone: margin heads stepped together over one row order, squared heads
exactly through one shrink formula on an SVD (:func:`_shrink`, minimum
norm at lambda = 0). Over the basis admission's F = QR, lambda = 0 is a
back-substitution on its upper-triangular R and every lambda > 0 shares
one SVD of R; a bare F shares its own SVD.
Fits are deterministic given their config. Scores become decisions by
one rule, :func:`decide`, keyed by task.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import MAX_CLASSES
from .linalg import check_matrix, is_finite, is_int

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
    steps. The seed alone orders the rows: every margin head of a
    :class:`HeadGrid` steps over the one order its config's seed draws,
    so a head's weights do not depend on the grid's other lambdas.
    """

    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if not (is_int(self.epochs) and self.epochs >= 1):
            raise ValueError(f"epochs must be an int >= 1, got {self.epochs!r}")
        if not (is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an int >= 0, got {self.seed!r}")


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


def _real_labels(y) -> np.ndarray:
    # labels are numbers (bool, int or float), not strings, objects or complex
    y = np.asarray(y)
    if y.dtype.kind not in "biuf":
        raise ValueError(f"y must hold real numbers, got dtype {y.dtype}")
    return y


def _label_rule(kind: str, y: np.ndarray, k: int) -> np.ndarray:
    # hinge and logistic take labels in {-1, +1}; mc-hinge takes integer
    # class ids in [0, k), returned as int64 so they can index score columns
    if y.ndim != 1:
        raise ValueError(f"{kind} expects a label vector")
    y = np.asarray(y, dtype=np.float64)
    if kind != "mc-hinge":
        if not np.isin(y, (-1.0, 1.0)).all():
            raise ValueError(f"{kind} labels must be -1 or +1")
        return y
    if k < 2:
        raise ValueError(f"mc-hinge needs at least 2 classes, got {k}")
    if not ((y == np.floor(y)) & (y >= 0) & (y < k)).all():
        raise ValueError(f"mc-hinge labels must be integer class ids in [0, {k})")
    return y.astype(np.int64)


def _labelled(kind: str, scores, y) -> tuple[np.ndarray, np.ndarray]:
    # m x k scores, and labels that agree with them and with the loss kind
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    S = _scores_matrix(scores)
    y = _real_labels(y)
    if y.ndim == 0 or y.shape[0] != S.shape[0]:
        raise ValueError("scores and labels disagree on m")
    if kind != "squared":
        return S, _label_rule(kind, y, S.shape[1])
    Y = y[:, None] if y.ndim == 1 else y
    if Y.shape != S.shape:
        raise ValueError("squared loss needs one target per score")
    return S, Y


def _margins(kind: str, S: np.ndarray, y: np.ndarray):
    # per-row margin over the scores' last axis (any leading axes index
    # heads): y s, or for mc-hinge the true score minus the best rival's,
    # returned with the rival's column
    if kind != "mc-hinge":
        return y * S[..., 0], None
    rows = np.ix_(*map(range, y.shape))
    masked = S.copy()
    masked[(*rows, y)] = -np.inf
    rival = masked.argmax(axis=-1)
    return S[(*rows, y)] - masked[(*rows, rival)], rival


def loss_value(kind: str, scores, y) -> float:
    """Mean loss of the given scores against labels ``y``.

    Binary losses take one score column and labels in {-1,+1}; the
    multiclass hinge takes an m x k score matrix and class ids in [0, k).
    """
    S, y = _labelled(kind, scores, y)
    if kind == "squared":
        return float(np.sum((S - y) ** 2) / S.shape[0])
    z, _ = _margins(kind, S, y)
    if kind == "logistic":
        return float(np.logaddexp(0.0, -z).mean())
    return float(np.maximum(0.0, 1.0 - z).mean())


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


def _gradient(kind: str, S: np.ndarray, y: np.ndarray) -> np.ndarray:
    # unchecked gradient: each margin loss's slope d loss / dz, onto the
    # scores; leading axes of S and y index heads, as in _margins
    m = S.shape[-2]
    if kind == "squared":
        return 2.0 * (S - y) / m
    z, rival = _margins(kind, S, y)
    if kind == "logistic":
        e = np.exp(-np.abs(z))
        slope = -np.where(z > 0.0, e, 1.0) / (1.0 + e) / m
    else:
        slope = np.where(z < 1.0, -1.0 / m, 0.0)
    if rival is None:
        return (y * slope)[..., None]
    rows = np.ix_(*map(range, y.shape))
    G = np.zeros_like(S)
    G[(*rows, y)] = slope
    G[(*rows, rival)] -= slope
    return G


def loss_gradient(kind: str, scores, y) -> np.ndarray:
    """Gradient of :func:`loss_value` with respect to the scores, shaped
    like them, after the input checks of :func:`loss_value`. At hinge kinks
    the inactive subgradient (zero) is returned. The margin-loss solver
    steps on the same definition."""
    return _gradient(kind, *_labelled(kind, scores, y))


def objective(kind: str, F, w, y, lam: float) -> float:
    return loss_value(kind, F @ w, y) + 0.5 * lam * float(np.sum(np.asarray(w) ** 2))


def _shrink(U, s, Vt, B, lam: float, m: int) -> np.ndarray:
    """Minimizer of (1/m)||Aw - B||^2 + (lam/2)||w||^2 for A = U diag(s) Vt,
    the minimum-norm least-squares answer at lam = 0: the one ridge formula
    of every squared head."""
    # s / (s^2 + mu) as 1 / (s + mu / s), never forming s^2, which overflows
    # for huge F; at lambda = 0, 1 / s over s > eps * s_max (eps * max(m, n)
    # would drop singular values of a full-rank F); a vanishing s gets 0
    mu = lam * m / 2.0
    keep = s > (np.finfo(np.float64).eps * s[:1] if lam == 0.0 else 0.0)
    with np.errstate(all="ignore"):
        shrink = np.where(keep, 1.0 / (s + mu / s), 0.0)
    return Vt.T @ (shrink[:, None] * (U.T @ B))


def _back_substitute(R: np.ndarray, B: np.ndarray) -> np.ndarray:
    """X with R X = B for upper-triangular R, by blocks of ``_SOLVE_BLOCK`` rows
    from the bottom: each diagonal block is solved as its upper triangle, then
    one product removes the block from the rows above. R is neither copied whole
    nor read below its diagonal."""
    X = np.array(B, dtype=np.float64)
    for lo in range((R.shape[0] - 1) // _SOLVE_BLOCK * _SOLVE_BLOCK, -1, -_SOLVE_BLOCK):
        hi = lo + _SOLVE_BLOCK
        X[lo:hi] = np.linalg.solve(np.triu(R[lo:hi, lo:hi]), X[lo:hi])
        X[:lo] -= R[:lo, lo:hi] @ X[lo:hi]
    return X


# Rows per diagonal block of _back_substitute: the blocks' small solves and
# the products above them keep the work in BLAS without an LU copy of R.
_SOLVE_BLOCK = 64


def _sgd(F, y, kind, k, lams, seed, epochs):
    # Pegasos steps on the unchecked gradient (fit_head checked F and y) over
    # mini-batches of about m/32 rows, for L heads at once: every head steps
    # over the rows in the one order default_rng(seed) draws, head l with
    # lams[l], and takes the products, steps and norm it would take alone, so
    # its weights are bit for bit a grid of one's. Only W is stacked: a step
    # gathers one b x n batch for all heads. The ball ||W|| <= 1/sqrt(lam)
    # holds the optimum. Returns the L x n x k averaged weights.
    m, n = F.shape
    F = np.ascontiguousarray(F)  # the steps take rows, so take them from a C-ordered copy
    batches = range(0, m, max(1, m // 32))
    half = epochs * len(batches) // 2
    lam = np.asarray(lams, dtype=np.float64)[:, None, None]
    pos = lam > 0.0
    lam_pos = np.where(pos, lam, 1.0)
    radius = np.where(pos, 1.0 / np.sqrt(lam_pos), np.inf)
    W = np.zeros((len(lam), n, k))
    acc = np.zeros_like(W)
    rng = np.random.default_rng(seed)
    s = 0
    for _ in range(epochs):
        order = rng.permutation(m)
        for start in batches:
            idx = order[start:start + batches.step]
            s += 1
            eta = np.where(pos, 1.0 / (lam_pos * s), 1.0 / math.sqrt(s))
            Fb = F[idx]
            yb = np.broadcast_to(y[idx], (len(lam), len(idx)))
            G = Fb.T @ _gradient(kind, Fb @ W, yb)
            W = (1.0 - eta * lam) * W - eta * G
            # each head's ||W|| is one ddot, as in np.linalg.norm
            flat = W.reshape(len(W), 1, -1)
            norm = np.sqrt(flat @ flat.transpose(0, 2, 1))
            W *= np.divide(radius, norm, out=np.ones_like(norm), where=norm > radius)
            if s > half:
                acc += W
    return acc / max(s - half, 1)


@dataclass
class HeadGrid:
    """The heads of one depth's lambda grid ``lams``, for any loss, solved
    together on the first :func:`fit_head` call given the grid as its
    ``factor``, on that call's F and targets (:meth:`_solve`). Each call
    then takes the head of its own lambda, bit for bit the head that a grid
    of that lambda alone gives. Squared heads over the basis admission's
    F = QR take ``Q`` and ``R`` (upper triangular with a nonzero diagonal:
    F has full column rank) and are solved from R and Q^T Y; without them,
    from F. Later calls must pass the first call's F and targets; another
    loss kind, F shape or output count, or a lambda or ``opt`` not the
    grid's, raises ``ValueError``.
    """

    lams: tuple[float, ...]
    opt: OptimizerConfig = OptimizerConfig()
    Q: np.ndarray | None = field(default=None, repr=False, compare=False)
    R: np.ndarray | None = field(default=None, repr=False, compare=False)
    _solved: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def weights(self, F, y, kind: str, k: int, lam: float, opt: OptimizerConfig) -> np.ndarray:
        """The n x k head of ``lam`` over F, checked as :func:`fit_head`
        checks it, and targets ``y`` that pass the loss's rule (an m x k
        matrix for squared loss)."""
        if lam not in self.lams or opt != self.opt:
            raise ValueError(f"lambda={lam!r} with {opt} is not in the grid")
        problem = (kind, F.shape, k)
        if self._solved is None:
            self._solved = problem, self._solve(F, y, kind, k)
        elif self._solved[0] != problem:
            raise ValueError(f"the grid was solved for {self._solved[0]}, not {problem}")
        return self._solved[1][self.lams.index(lam)].copy()

    def _solve(self, F, y, kind, k):
        # every lambda's head, in grid order: margin heads from one Pegasos
        # pass; squared heads over F = QR from B = Q^T Y, by back-substitution
        # at lambda = 0 and from one SVD of R (taken only if needed) above it;
        # over a bare F, from one SVD of F
        if kind != "squared":
            return _sgd(F, y, kind, k, self.lams, self.opt.seed, self.opt.epochs)
        m = F.shape[0]
        if self.R is None:
            svd = np.linalg.svd(F, full_matrices=False)
            return [_shrink(*svd, y, lam, m) for lam in self.lams]
        B = self.Q.T @ y
        svd = np.linalg.svd(self.R, full_matrices=False) if max(self.lams) > 0.0 else None
        return [_shrink(*svd, B, lam, m) if lam > 0.0 else _back_substitute(self.R, B)
                for lam in self.lams]


def fit_head(
    F,
    y,
    kind: str,
    lam: float,
    opt: OptimizerConfig | None = None,
    n_classes: int | None = None,
    factor: HeadGrid | None = None,
) -> FitResult:
    """Fit output weights over the feature matrix ``F``.

    The head is ``lam``'s of ``factor``, a :class:`HeadGrid` whose calls
    over a lambda grid share one solve, or of a grid of this ``lam`` alone
    when none is given, with the same weights either way. Squared loss is
    solved exactly: from the basis admission's F = QR when the grid holds
    it, else by :func:`_shrink` on F's own SVD (minimum-norm at
    lambda = 0); the margin losses use the averaged mini-batch subgradient
    method configured by ``opt``. ``n_classes`` fixes the weight-column
    count for mc-hinge; by default it is one more than the largest class
    id seen. Either way it is at most ``MAX_CLASSES``. Errors are scored
    separately, by :func:`validation_error`. F is checked by
    :func:`check_matrix`, ``lam`` by :func:`is_finite` and mc-hinge's
    ``n_classes`` by :func:`is_int`; a label count other than F's rows,
    labels that are not real numbers or break the loss's rule (as in
    :func:`loss_value`), and non-finite labels, weights or objective raise
    ``ValueError``, the labels before any solve, as does an F with no rows.
    """
    F = check_matrix(F, "F")
    if F.shape[0] == 0:
        raise ValueError("F must have at least one row")
    y = _real_labels(y)
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    if not (is_finite(lam) and lam >= 0):
        raise ValueError(f"lambda must be finite and nonnegative, got {lam!r}")
    if y.ndim == 0 or y.shape[0] != F.shape[0]:
        raise ValueError(f"F has {F.shape[0]} rows but y has shape {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("y must be finite")
    if opt is None:
        opt = OptimizerConfig()

    if kind == "squared":
        y = y[:, None] if y.ndim == 1 else np.asarray(y, dtype=np.float64)
        k = y.shape[1]
    else:
        k = 1
        if kind == "mc-hinge":
            if n_classes is not None and not is_int(n_classes):
                raise ValueError(f"n_classes must be an int, got {n_classes!r}")
            k = n_classes if n_classes is not None else int(y.max()) + 1
            if k > MAX_CLASSES:
                raise ValueError(f"mc-hinge needs at most MAX_CLASSES={MAX_CLASSES} classes, got {k}")
        y = _label_rule(kind, y, k)
    grid = HeadGrid((lam,), opt) if factor is None else factor
    W = grid.weights(F, y, kind, k, lam, opt)
    loss = objective(kind, F, W, y, lam)
    if not (math.isfinite(loss) and np.isfinite(W).all()):
        raise ValueError(f"{kind} head at lambda={lam!r} is not finite")
    return FitResult(weights=W, train_loss=loss)


def validation_error(features, weights, y, task: str) -> float:
    """Error of a linear head under :func:`decide`: misclassification
    rate for the classification tasks, MSE for regression. ``y`` holds one
    label per scored row."""
    features = np.asarray(features, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    return _scores_error(task, features @ weights, y)


def _scores_error(task: str, scores, y) -> float:
    # validation_error's rule on scores already computed
    pred = decide(task, scores)
    y = np.asarray(y)
    if y.shape != pred.shape:
        raise ValueError(f"{pred.shape[0]} rows scored but y has shape {y.shape}")
    if task == "regression":
        return float(np.mean((pred - y) ** 2))
    return float(np.mean(pred != y))
