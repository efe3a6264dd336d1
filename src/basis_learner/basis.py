"""Layer-by-layer construction of a polynomial feature basis.

The training rows induce a value matrix F (one column per network node,
columns kept linearly independent and normalized to second moment 1)
together with an orthonormal companion Q spanning the same space. Layer 1
comes from an SVD of the constant-lifted input. Every later layer draws
its candidate columns from Hadamard products of a previous-layer column
with a first-layer column, and grows in one round loop for both modes:
each round scores the candidates against Q (:class:`CandidateScores`)
and admits them in descending score. Exact mode ranks by residual ratio
and takes every candidate that enlarges the span; width mode ranks by
alignment with a deflated target and takes ``b`` per round, at most
``gamma`` in all. The full candidate matrix is never materialized:
candidates are generated one block at a time.

Every admission goes through :meth:`BasisState.admit`, which tests a block
of candidates by block classical Gram-Schmidt with reorthogonalization
(BCGS2) and writes each admitted node's values to F and its unit residual
to Q; the layer builders only record the nodes.
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
class LayerBuildResult:
    """Nodes added by one layer build.

    Layer 1 carries its columns ``new_columns`` and the (d+1) x k weight
    matrix ``W1``. A product layer carries one (prev, first, weight) node
    per column it admitted: the column equals weight times previous-layer
    column ``prev`` times layer-1 column ``first`` (both indices 0-based
    within their layer); its values live in the state's F.
    """

    nodes: list[tuple[int, int, float]] = field(default_factory=list)
    new_columns: np.ndarray | None = None
    W1: np.ndarray | None = None

    @property
    def width(self) -> int:
        if self.new_columns is None:
            return len(self.nodes)
        return self.new_columns.shape[1]


@dataclass
class BasisState:
    """Feature matrix F, orthonormal companion Q, and per-layer extents.

    F and Q are the first ``ncols`` columns of ``F_buf`` and ``Q_buf``,
    buffers the state owns and grows together by doubling. Every column
    enters through :meth:`admit`, which writes the node's values to F and
    their BCGS2 orthonormalisation against the earlier columns to Q, so
    span(Q) = span(F) after every admission and Q^T F is upper
    triangular. F's columns are linearly independent with second moment
    1, and ``layer_ranges`` partitions the columns of the finished layers
    in construction order as half-open [start, stop) intervals.
    """

    F_buf: np.ndarray
    Q_buf: np.ndarray
    layer_ranges: list[tuple[int, int]]
    ncols: int = 0

    @property
    def F(self) -> np.ndarray:
        """The node values admitted so far (a view of ``F_buf``)."""
        return self.F_buf[:, : self.ncols]

    @property
    def Q(self) -> np.ndarray:
        """The orthonormal columns admitted so far (a view of ``Q_buf``)."""
        return self.Q_buf[:, : self.ncols]

    @property
    def m(self) -> int:
        return self.F_buf.shape[0]

    @property
    def layer1_cols(self) -> int:
        return self.layer_ranges[0][1]

    def reserve(self, cols: int) -> None:
        """Make room for ``cols`` columns in all; F and Q never need more than m."""
        cols = min(cols, self.m)
        if cols > self.F_buf.shape[1]:
            F, Q = np.empty((self.m, cols)), np.empty((self.m, cols))
            F[:, : self.ncols] = self.F
            Q[:, : self.ncols] = self.Q
            self.F_buf, self.Q_buf = F, Q

    def admit(self, C: np.ndarray, tol: float, scale: bool = True) -> np.ndarray:
        """Admit, in order, each column of the m x n block C that enlarges the span.

        C is projected twice off Q as it stood (two GEMM passes), then each
        column twice off the columns this call admitted before it (BCGS2).
        A column whose residual norm is above ``tol`` becomes the next node:
        its unit residual goes to Q, the column scaled to norm √m to F (as
        given, weight 1.0, with ``scale=False``: layer 1's columns must stay
        bit-equal to lift_input(X) @ W1). Returns the n node weights, 0.0
        for each column left out.
        """
        weights = np.zeros(C.shape[1])
        if self.ncols == self.m:
            return weights  # span is all of R^m
        Y = residual(residual(C, self.Q), self.Q)
        start = self.ncols
        for j in range(C.shape[1]):
            if self.ncols == self.m:
                break
            new = self.Q_buf[:, start : self.ncols]
            r = residual(residual(Y[:, j], new), new)
            nr = np.linalg.norm(r)
            if nr <= tol:
                continue
            if self.ncols == self.F_buf.shape[1]:
                self.reserve(2 * self.ncols + 1)
            w = math.sqrt(self.m) / np.linalg.norm(C[:, j]) if scale else 1.0
            np.divide(r, nr, out=self.Q_buf[:, self.ncols])
            np.multiply(w, C[:, j], out=self.F_buf[:, self.ncols])
            self.ncols += 1
            weights[j] = w
        return weights


def lift_input(X) -> np.ndarray:
    """Prepend the all-ones column: [1 X]."""
    X = check_matrix(X, "X")
    return np.concatenate([np.ones((X.shape[0], 1)), X], axis=1)


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
    This is :func:`build_basis1_width` on the exact SVD, keeping every
    column.
    """
    F1_tilde = check_matrix(F1_tilde, "F1_tilde")
    return build_basis1_width(F1_tilde, max(F1_tilde.shape[1], 1))


def build_basis1_width(
    F1_tilde,
    gamma: int,
    svd_mode: str = "exact",
    seed: int = 0,
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
        # oversample by up to 10, keeping the sketch within the matrix
        svd = randomized_range_svd(F1_tilde, k, oversample=min(10, small - k), seed=seed)
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
    state = BasisState(F_buf=np.empty((m, k)), Q_buf=np.empty((m, k)), layer_ranges=[])
    if not state.admit(B, tol, scale=False).all():
        raise ValueError("first-layer columns must be linearly independent")
    state.layer_ranges.append((0, k))
    return state


# Below this residual ratio ||r|| / ||c||, ||c||^2 - ||Q^T c||^2 has lost
# about eight of its sixteen digits to cancellation, so the candidate's
# residual norm is taken from an explicit CGS2 residual instead.
_EXPLICIT_RATIO = 1e-4

# Picks go to BasisState.admit in blocks of at most this many columns,
# which bounds the m x block copies one admission makes.
_ADMIT_BLOCK = 64


class CandidateScores:
    """Scores of one layer's product candidates, kept across rounds.

    Candidate ``p * n1 + j`` is previous-layer column p times layer-1
    column j. For each candidate c this keeps ||c||^2 and ||Q^T c||^2 over
    the Q columns seen so far. Q only grows within a layer, so a round
    projects c onto the columns admitted since the previous round and, in
    width mode, onto the deflated target's basis O_V, both in one product.
    The CGS2 residual r of c then has ||r||^2 = ||c||^2 - ||Q^T c||^2, and
    O_V^T r = O_V^T c because O_V is orthogonal to Q, so neither score
    needs a residual: width mode's ||O_V^T r|| / ||r|| and exact mode's
    residual ratio ||r|| / ||c||. Candidates whose residual ratio is below
    ``_EXPLICIT_RATIO`` take ||r|| from an explicit CGS2 residual, so
    near-dependent columns are still judged against ``tol``. A candidate
    found dependent stays out (``live`` is cleared): its residual can only
    shrink as Q grows.
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

    def round(self, state: BasisState, O_V: np.ndarray | None, tol: float) -> np.ndarray:
        """Score every live candidate against the current Q and target basis.

        A candidate's score is ||O_V^T r|| / ||r||, or its residual ratio
        ||r|| / ||c|| when ``O_V`` is None; -1 marks one whose residual
        norm is at most ``tol``.
        """
        Q = state.Q
        nq = state.ncols - self.seen
        P = Q[:, self.seen:] if O_V is None else np.concatenate([Q[:, self.seen:], O_V], axis=1)
        lo, _ = state.layer_ranges[-1]
        n1 = state.layer1_cols
        scores = np.full(self.norm2.size, -1.0)
        self.explicit[:] = False
        for prev in range(self.norm2.size // n1):
            sl = slice(prev * n1, (prev + 1) * n1)
            live = self.live[sl]
            if not live.any():
                continue
            # products of one previous-layer column with every layer-1 column
            block = state.F[:, lo + prev][:, None] * state.F[:, :n1]
            T = P.T @ block
            proj2 = self.proj2[sl]
            proj2 += np.einsum("ij,ij->j", T[:nq], T[:nq])
            r2 = self.norm2[sl] - proj2
            nr = np.sqrt(np.maximum(r2, 0.0))
            explicit = live & (r2 < _EXPLICIT_RATIO**2 * self.norm2[sl])
            if explicit.any():
                R = residual(residual(block[:, explicit], Q), Q)
                nr[explicit] = np.linalg.norm(R, axis=0)
                self.explicit[sl] = explicit
            live &= nr > tol
            if O_V is None:
                scores[sl][live] = nr[live] / np.sqrt(self.norm2[sl][live])
            else:
                scores[sl][live] = np.linalg.norm(T[nq:], axis=0)[live] / nr[live]
        self.seen = state.ncols
        return scores


def _grow_layer(state: BasisState, V, gamma: int, b: int, tol: float) -> LayerBuildResult:
    """The round loop that builds every product layer, in both modes.

    Each round scores the live candidates (against V deflated off Q, or
    by residual ratio when V is None) and takes them in descending score,
    in blocks of at most ``_ADMIT_BLOCK`` for :meth:`BasisState.admit`,
    until min(b, gamma - admitted) columns are in or none is left. A taken
    candidate is admitted or dependent on earlier picks, in span(Q) either
    way, so it is no longer live. Stops after a round that admits nothing.
    """
    lo, _ = state.layer_ranges[-1]
    n1 = state.layer1_cols
    scorer = CandidateScores(state)
    nodes: list[tuple[int, int, float]] = []
    while len(nodes) < gamma:
        if V is not None:
            V = residual(V, state.Q)
        scores = scorer.round(state, None if V is None else thin_svd(V).U, tol)
        # descending score; stable sort breaks ties by lowest candidate index
        order = np.argsort(-scores, kind="stable")[: np.count_nonzero(scores >= 0)]
        quota = min(b, gamma - len(nodes))
        picked = 0
        while picked < quota and order.size:
            take, order = np.split(order, [min(_ADMIT_BLOCK, quota - picked)])
            scorer.live[take] = False
            prev, j = np.divmod(take, n1)
            w = state.admit(state.F[:, lo + prev] * state.F[:, j], tol)
            nodes += [(int(prev[i]), int(j[i]), w[i]) for i in np.flatnonzero(w)]
            picked += np.count_nonzero(w)
        if picked == 0:
            break
    if nodes:
        state.layer_ranges.append((state.ncols - len(nodes), state.ncols))
    return LayerBuildResult(nodes=nodes)


def build_basis_t_exact(state: BasisState, tol: float | None = None) -> LayerBuildResult:
    """Next layer, exact mode: admit every candidate that enlarges the span.

    One round of :func:`_grow_layer` with no target and no budget beyond
    the room left in R^m: every candidate whose residual against Q has
    norm above ``tol`` is taken, most independent first (descending
    residual ratio ||r|| / ||c||, as in column pivoting), and admitted
    unless this layer's earlier admissions have made it dependent. A
    zero-width result means the span is saturated.

    Mutates ``state`` in place and returns the admitted nodes.
    """
    if tol is None:
        tol = default_tol(state.m)
    room = state.m - state.ncols
    return _grow_layer(state, None, room, room, tol)


def build_basis_t_width(
    state: BasisState,
    V,
    gamma: int,
    b: int,
    tol: float | None = None,
) -> LayerBuildResult:
    """Next layer, width-limited: greedy target-driven candidate selection.

    Rounds of :func:`_grow_layer`. Each round scores every candidate whose
    residual against the current Q is numerically nonzero: the score is
    the norm of the projection of the unit residual onto the column space
    of the deflated target V, so candidates aligned with what the current
    features cannot yet express rank first. The top ``b`` by score are
    admitted, skipping any that became dependent on this round's earlier
    picks; then V is deflated. Stops early once no eligible candidate
    remains; at most ``gamma`` columns total.

    Mutates ``state`` in place and returns the admitted nodes.
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
    state.reserve(state.ncols + gamma)
    return _grow_layer(state, V, gamma, b, tol)
