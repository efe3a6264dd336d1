"""Layer-by-layer construction of a polynomial feature basis.

The training rows induce a value matrix F (one column per network node,
columns kept linearly independent and normalized to second moment 1)
together with an orthonormal companion Q spanning the same space. Layer 1
comes from an SVD of the constant-lifted input. Every later layer draws
its candidate columns from Hadamard products of a previous-layer column
with a first-layer column; candidates are admitted either exhaustively
(every candidate that enlarges the span) or under a width budget via a
greedy target-driven selection. The full candidate matrix is never
materialized: candidates are generated and tested one block at a time.

Every admission goes through :meth:`BasisState.admit`, which tests the
two-pass classical Gram-Schmidt (CGS2) residual against ``tol`` and writes
its unit vector into a Q buffer the state owns. Width mode scores
candidates from their projection onto Q, kept across the rounds of a layer
and extended by the newly admitted columns only, with an explicit CGS2
residual for near-dependent candidates (:class:`CandidateScores`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import check_matrix, randomized_range_svd, residual, thin_svd


def default_tol(m: int) -> float:
    """Independence threshold for residual norms, scaled to column norm √m."""
    return 1e-8 * math.sqrt(m)


@dataclass(frozen=True)
class CandidateRef:
    """Addresses a product candidate: previous-layer column x layer-1 column.

    Both indices are relative to their layer (0-based).
    """

    prev_col: int
    first_col: int


@dataclass(frozen=True)
class LayerBuildResult:
    """Columns added by one layer build.

    Layer 1 carries the (d+1) x k weight matrix ``W1``; product layers
    instead carry one (ref, weight) node per column, where the column
    equals weight times the Hadamard product the ref addresses.
    """

    new_columns: np.ndarray
    nodes: list[tuple[CandidateRef, float]] = field(default_factory=list)
    W1: np.ndarray | None = None

    @property
    def width(self) -> int:
        return self.new_columns.shape[1]


@dataclass
class BasisState:
    """Feature matrix F, orthonormal companion Q, and per-layer extents.

    Invariants: span(Q) = span(F) between layer builds, F's columns are
    linearly independent with second moment 1, and ``layer_ranges``
    partitions the columns in construction order as half-open
    [start, stop) intervals. Q is the first ``rank`` columns of
    ``Q_buf``, a buffer that grows only when an admission needs room.
    """

    F: np.ndarray
    layer_ranges: list[tuple[int, int]]
    Q_buf: np.ndarray
    rank: int = 0

    @property
    def Q(self) -> np.ndarray:
        """The orthonormal columns admitted so far (a view of ``Q_buf``)."""
        return self.Q_buf[:, : self.rank]

    @property
    def m(self) -> int:
        return self.F.shape[0]

    @property
    def ncols(self) -> int:
        return self.F.shape[1]

    @property
    def layer1_cols(self) -> int:
        return self.layer_ranges[0][1]

    @property
    def depth(self) -> int:
        return len(self.layer_ranges)

    def reserve(self, cols: int) -> None:
        """Make room for ``cols`` Q columns in all; Q never needs more than m."""
        cols = min(cols, self.m)
        if cols > self.Q_buf.shape[1]:
            buf = np.empty((self.m, cols))
            buf[:, : self.rank] = self.Q
            self.Q_buf = buf

    def admit(self, c: np.ndarray, tol: float) -> bool:
        """Append c's unit CGS2 residual to Q if its norm exceeds ``tol``.

        Returns whether c was admitted; F is left to the caller.
        """
        if self.rank == self.m:
            return False  # span is all of R^m
        Q = self.Q
        r = residual(residual(c, Q), Q)
        nr = np.linalg.norm(r)
        if nr <= tol:
            return False
        if self.rank == self.Q_buf.shape[1]:
            self.reserve(2 * self.rank + 1)
        np.divide(r, nr, out=self.Q_buf[:, self.rank])
        self.rank += 1
        return True


def lift_input(X) -> np.ndarray:
    """Prepend the all-ones column: [1 X]."""
    X = check_matrix(X, "X")
    return np.hstack([np.ones((X.shape[0], 1)), X])


def _scaled_projection(F1_tilde: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # fold the norm-sqrt(m) rescaling into the weights, then recompute the
    # columns from the scaled weights so B = F1_tilde @ W1 holds bit-exactly
    m = F1_tilde.shape[0]
    norms = np.linalg.norm(F1_tilde @ V, axis=0)
    keep = norms > 0
    W1 = V[:, keep] * (math.sqrt(m) / norms[keep])
    return F1_tilde @ W1, W1


def build_basis1_exact(F1_tilde) -> LayerBuildResult:
    """First layer: an independent spanning set for the lifted input.

    The right singular vectors of [1 X] give linear combinations whose
    values on the training rows are orthogonal; each is rescaled to norm
    √m. Rank deficiency (dependent input features) just drops columns.
    """
    F1_tilde = check_matrix(F1_tilde, "F1_tilde")
    svd = thin_svd(F1_tilde)
    B, W1 = _scaled_projection(F1_tilde, svd.V)
    return LayerBuildResult(new_columns=B, W1=W1)


def build_basis1_width(
    F1_tilde,
    gamma: int,
    svd_mode: str = "exact",
    seed: int = 0,
    oversample: int = 10,
    power_iters: int = 2,
) -> LayerBuildResult:
    """Width-limited first layer: top-``gamma`` singular directions only.

    ``svd_mode`` selects the exact factorization or the seeded randomized
    range finder (useful when d is large); either way at most
    min(gamma, rank) columns come back, normalized to norm √m.
    """
    F1_tilde = check_matrix(F1_tilde, "F1_tilde")
    if gamma < 1:
        raise ValueError("gamma must be at least 1")
    if svd_mode == "exact":
        svd = thin_svd(F1_tilde)
        V = svd.V[:, :gamma]
    elif svd_mode == "randomized":
        small = min(F1_tilde.shape)
        k = min(gamma, small)
        # keep the sketch within the matrix dimensions
        ov = min(oversample, small - k)
        svd = randomized_range_svd(F1_tilde, k, oversample=ov,
                                   power_iters=power_iters, seed=seed)
        V = svd.V
    else:
        raise ValueError(f"unknown svd_mode {svd_mode!r}")
    B, W1 = _scaled_projection(F1_tilde, V)
    return LayerBuildResult(new_columns=B, W1=W1)


def initial_state(layer1: LayerBuildResult, tol: float | None = None) -> BasisState:
    """Basis state holding exactly the first layer's columns."""
    B = layer1.new_columns
    m, k = B.shape
    if tol is None:
        tol = default_tol(m)
    state = BasisState(F=B.copy(), layer_ranges=[(0, k)], Q_buf=np.empty((m, k)))
    for j in range(k):
        if not state.admit(B[:, j], tol):
            raise ValueError("first-layer columns must be linearly independent")
    return state


def candidate_column(state: BasisState, ref: CandidateRef) -> np.ndarray:
    """Hadamard product of the referenced columns; O(m) work and memory."""
    lo, hi = state.layer_ranges[-1]
    if not (0 <= ref.prev_col < hi - lo and 0 <= ref.first_col < state.layer1_cols):
        raise IndexError(f"candidate ref out of range: {ref}")
    return state.F[:, lo + ref.prev_col] * state.F[:, ref.first_col]


def _candidate_block(state: BasisState, prev: int) -> np.ndarray:
    # all products of one previous-layer column with every layer-1 column
    lo, _ = state.layer_ranges[-1]
    n1 = state.layer1_cols
    return state.F[:, lo + prev][:, None] * state.F[:, :n1]


def _commit_layer(state: BasisState, cols: list[np.ndarray]) -> None:
    start = state.ncols
    state.F = np.hstack([state.F] + [c[:, None] for c in cols])
    state.layer_ranges.append((start, state.ncols))


def build_basis_t_exact(state: BasisState, tol: float | None = None) -> LayerBuildResult:
    """Next layer, exact mode: admit every candidate that enlarges the span.

    Candidates are scanned in a fixed order (previous-layer index outer,
    layer-1 index inner) and accepted when their residual against the
    current Q has norm above ``tol``; Q grows as the scan proceeds, so
    later candidates are tested against earlier acceptances. A zero-width
    result means the span is saturated and construction can stop.

    Mutates ``state`` in place and also returns the added columns.
    """
    m = state.m
    if tol is None:
        tol = default_tol(m)
    lo, hi = state.layer_ranges[-1]
    n1 = state.layer1_cols
    sqrt_m = math.sqrt(m)
    cols: list[np.ndarray] = []
    nodes: list[tuple[CandidateRef, float]] = []
    for prev in range(hi - lo):
        if state.rank == m:
            break  # span is all of R^m, nothing left to add
        block = _candidate_block(state, prev)
        for j in range(n1):
            c = block[:, j]
            if state.admit(c, tol):
                w = sqrt_m / np.linalg.norm(c)
                cols.append(w * c)
                nodes.append((CandidateRef(prev, j), w))
                if state.rank == m:
                    break
    if not cols:
        return LayerBuildResult(new_columns=np.zeros((m, 0)))
    _commit_layer(state, cols)
    return LayerBuildResult(new_columns=state.F[:, -len(cols):].copy(), nodes=nodes)


# Below this residual ratio ||r|| / ||c||, ||c||^2 - ||Q^T c||^2 has lost
# about eight of its sixteen digits to cancellation, so the candidate's
# residual norm is taken from an explicit CGS2 residual instead.
_EXPLICIT_RATIO = 1e-4


class CandidateScores:
    """Width-mode scores of one layer's product candidates, kept across rounds.

    Candidate ``p * n1 + j`` is previous-layer column p times layer-1
    column j. For each candidate c this keeps ||c||^2 and ||Q^T c||^2 over
    the Q columns seen so far. Q only grows within a layer, so a round
    projects c onto the columns admitted since the previous round and onto
    the deflated target's basis O_V, both in one product. The CGS2
    residual r of c then has ||r||^2 = ||c||^2 - ||Q^T c||^2, and
    O_V^T r = O_V^T c because O_V is orthogonal to Q, so the score
    ||O_V^T r|| / ||r|| needs no residual. Candidates whose residual ratio
    ||r|| / ||c|| is below ``_EXPLICIT_RATIO`` take ||r|| from an explicit
    CGS2 residual, so near-dependent columns are still judged against ``tol``.
    A candidate found dependent stays out (``live`` is cleared): its
    residual can only shrink as Q grows.
    """

    def __init__(self, state: BasisState):
        lo, hi = state.layer_ranges[-1]
        n1 = state.layer1_cols
        # ||F[:, lo+p] * F[:, j]||^2 for every (p, j) in one product
        self.norm2 = ((state.F[:, lo:hi] ** 2).T @ state.F[:, :n1] ** 2).ravel()
        self.proj2 = np.zeros_like(self.norm2)
        self.seen = 0  # leading Q columns already folded into proj2
        self.live = np.ones(self.norm2.size, dtype=bool)
        # candidates whose ||r|| came from an explicit residual last round
        self.explicit = np.zeros(self.norm2.size, dtype=bool)

    def round(self, state: BasisState, O_V: np.ndarray, tol: float) -> np.ndarray:
        """Score every live candidate against the current Q and target basis.

        A candidate's score is ||O_V^T r|| / ||r||; -1 marks one whose
        residual norm is at most ``tol``.
        """
        Q = state.Q
        nq = state.rank - self.seen
        P = np.hstack([Q[:, self.seen:], O_V])
        n1 = state.layer1_cols
        scores = np.full(self.norm2.size, -1.0)
        self.explicit[:] = False
        for prev in range(self.norm2.size // n1):
            sl = slice(prev * n1, (prev + 1) * n1)
            live = self.live[sl]
            if not live.any():
                continue
            block = _candidate_block(state, prev)
            T = P.T @ block
            proj2 = self.proj2[sl]
            proj2 += np.einsum("ij,ij->j", T[:nq], T[:nq])
            r2 = self.norm2[sl] - proj2
            nr = np.sqrt(np.maximum(r2, 0.0))
            num = np.linalg.norm(T[nq:], axis=0)
            explicit = live & (r2 < _EXPLICIT_RATIO**2 * self.norm2[sl])
            if explicit.any():
                R = residual(residual(block[:, explicit], Q), Q)
                nr[explicit] = np.linalg.norm(R, axis=0)
                self.explicit[sl] = explicit
            live &= nr > tol
            scores[sl][live] = num[live] / nr[live]
        self.seen = state.rank
        return scores


def build_basis_t_width(
    state: BasisState,
    V,
    gamma: int,
    b: int,
    tol: float | None = None,
) -> LayerBuildResult:
    """Next layer, width-limited: greedy target-driven candidate selection.

    Runs ceil(gamma / b) rounds. Each round scores every candidate whose
    residual against the current Q is numerically nonzero: the score is
    the norm of the projection of the unit residual onto the column space
    of the deflated target V, so candidates aligned with what the current
    features cannot yet express rank first. Scores come from a projection
    of the candidates onto Q kept across rounds, with an explicit CGS2
    residual for near-dependent candidates (:class:`CandidateScores`).
    The top ``b`` by score are taken greedily through
    :meth:`BasisState.admit`, skipping any that became dependent on this
    round's earlier picks; then V is deflated. Stops early once no
    eligible candidate remains; at most ``gamma`` columns total.

    Mutates ``state`` in place and also returns the added columns.
    """
    m = state.m
    if tol is None:
        tol = default_tol(m)
    if gamma < 1 or b < 1:
        raise ValueError("gamma and b must be at least 1")
    if b > gamma:
        raise ValueError("batch size b must not exceed gamma")
    V = check_matrix(V, "V")
    if V.shape[0] != m:
        raise ValueError("V must have one row per training instance")

    lo, _ = state.layer_ranges[-1]
    n1 = state.layer1_cols
    sqrt_m = math.sqrt(m)
    state.reserve(state.rank + gamma)
    Vd = residual(V, state.Q)
    scorer = CandidateScores(state)

    cols: list[np.ndarray] = []
    nodes: list[tuple[CandidateRef, float]] = []
    rounds = -(-gamma // b)
    for _ in range(rounds):
        if len(cols) >= gamma:
            break
        scores = scorer.round(state, thin_svd(Vd).U, tol)

        # descending score; stable sort breaks ties by lowest candidate index
        order = np.argsort(-scores, kind="stable")
        quota = min(b, gamma - len(cols))
        picked = 0
        for flat in order:
            if picked == quota or scores[flat] < 0:
                break
            prev, j = divmod(int(flat), n1)
            c = state.F[:, lo + prev] * state.F[:, j]
            # admitted or dependent on this round's picks: in span(Q) either way
            scorer.live[flat] = False
            if not state.admit(c, tol):
                continue
            w = sqrt_m / np.linalg.norm(c)
            cols.append(w * c)
            nodes.append((CandidateRef(prev, j), w))
            picked += 1
        if picked == 0:
            break
        Vd = residual(Vd, state.Q)

    if not cols:
        return LayerBuildResult(new_columns=np.zeros((m, 0)))
    _commit_layer(state, cols)
    return LayerBuildResult(new_columns=state.F[:, -len(cols):].copy(), nodes=nodes)
