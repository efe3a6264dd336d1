"""Layer-by-layer construction of a polynomial feature basis.

The training rows induce a value matrix F (one column per network node,
columns kept linearly independent and normalized to second moment 1)
together with an orthonormal companion Q spanning the same space. Layer 1
spans {1, X}: in exact mode it is the constant node followed by the SVD
directions of the centred input, in width mode the top singular
directions of the constant-lifted input [1 X]. Every later layer draws
its candidate columns from Hadamard products of a previous-layer column
with a first-layer column. Every node is thus a weighted product of
first-layer nodes, named by the multiset of their indices, and products
with equal multisets are the same function up to a scalar; the constant
node's multiset is empty, so a product with it copies a lower-degree
node. Both modes offer only the first candidate of each multiset that no
node built so far has (:func:`_distinct_candidates`), so exact mode offers
no candidate it knows to be dependent, as multivariate Vandermonde with
Arnoldi does. Exact mode offers them unranked, in index order; width mode
scores them against Q and a deflated target (:class:`CandidateScores`)
and offers the ``b`` best per round, at most ``gamma`` in all. A width
round forms whichever operand is narrower: the candidates, in chunks of
whole previous-layer columns, or the new Q columns and the target basis
times layer 1, multiplied by the previous layer; either fills one scratch
block wide enough for an efficient product. Both modes hand candidates to
admission through one offer loop (:func:`_offer`): it reserves room, cuts
blocks of at most ``_ADMIT_BLOCK`` and stops once F spans R^m.

Every admission goes through :meth:`BasisState.admit`, the one place that
decides independence and order: it tests a block of candidates by block
classical Gram-Schmidt with reorthogonalization (BCGS2), lets a nearly
dependent column wait behind more independent ones (column pivoting),
and writes each admitted node's values to F, its unit residual to Q and
its projection coefficients to R, so F = QR with R upper triangular.
The state is the one record of the network built so far: layer 1's
weights, then each ProductLayer a product-layer builder admitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (OVERSAMPLE, check_matrix, default_rank_tol, is_finite, is_int,
                     randomized_range_svd, residual, thin_svd)
from .linalg import lift_input  # noqa: F401  layer 1 is built from lift_input(X)
from .network import ProductLayer, product_layer


def default_tol(m: int) -> float:
    """Independence threshold for residual norms, scaled to column norm √m."""
    return 1e-8 * math.sqrt(m)


def resolve_tol(tol, m: int) -> float:
    """The one independence-threshold rule: None means default_tol(m), else a
    finite real >= 0 (:func:`~basis_learner.linalg.is_finite`) or ``ValueError``."""
    if tol is None:
        return default_tol(m)
    if not (is_finite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    return tol


def check_width(gamma, b: int = 1) -> None:
    """The one width-budget rule, ``gamma`` columns a layer and ``b`` a round:
    ints (:func:`~basis_learner.linalg.is_int`) 1 <= b <= gamma, else ``ValueError``."""
    if not (is_int(gamma) and is_int(b) and 1 <= b <= gamma):
        raise ValueError(f"need ints gamma >= 1 and 1 <= batch <= gamma, got gamma={gamma!r}, batch={b!r}")


@dataclass
class BasisState:
    """The network built so far (``W1`` and ``layers``), and F = QR.

    F and Q are the first ``ncols`` columns of ``F_buf`` and ``Q_buf``, R
    the leading ``ncols`` x ``ncols`` block of ``R_buf``; only :meth:`reserve`
    allocates them: once for the whole run where its width is known
    (:func:`final_width`), else for a whole layer before it is admitted.
    All three are column-major: the builders read, score and write them a
    column at a time and project off runs of Q's columns, so each column
    and each run is contiguous. Every column enters through :meth:`admit`,
    which writes the node's values to F, their BCGS2 orthonormalisation to
    Q and its coefficients to R: R is upper triangular and F = QR to
    rounding, with no Q^T F formed; R is every squared head's factor. F's columns are
    linearly independent with second moment 1: the values of layer 1
    (weights ``W1``, (d+1) x ``layer1_cols``), then of each product layer
    in ``layers``, the network :func:`~basis_learner.network.node_values` evaluates.
    """

    F_buf: np.ndarray
    Q_buf: np.ndarray
    R_buf: np.ndarray
    W1: np.ndarray
    layers: list[ProductLayer] = field(default_factory=list)
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
    def R(self) -> np.ndarray:
        """The upper-triangular factor with F = QR (a view of ``R_buf``)."""
        return self.R_buf[: self.ncols, : self.ncols]

    @property
    def m(self) -> int:
        return self.F_buf.shape[0]

    @property
    def layer1_cols(self) -> int:
        return self.W1.shape[1]

    @property
    def layer_ranges(self) -> list[tuple[int, int]]:
        """Each finished layer's columns of F, as half-open [start, stop)."""
        stops = np.cumsum([self.layer1_cols] + [L.width for L in self.layers]).tolist()
        return list(zip([0] + stops[:-1], stops))

    def reserve(self, cols: int) -> None:
        """Make room for ``cols`` columns in all; F and Q never need more than m.

        Buffers over ``_BUFFER_BUDGET`` bytes together raise ``ValueError``,
        changing nothing. Growing replaces F, then Q, then R, one buffer at a
        time, so the old and new copies of only one of them are alive at once.
        """
        cols = min(cols, self.m)
        if cols > self.F_buf.shape[1]:
            need = (2 * self.m + cols) * cols * self.F_buf.itemsize
            if need > _BUFFER_BUDGET:
                raise ValueError(
                    f"F, Q and R need {need} bytes for {self.m} rows x {cols} columns, "
                    f"over the budget of {_BUFFER_BUDGET} bytes; train on fewer "
                    f"rows or in width mode"
                )
            n = self.ncols
            F = np.empty((self.m, cols), order="F")
            F[:, :n] = self.F
            self.F_buf = F
            Q = np.empty_like(F)
            Q[:, :n] = self.Q
            self.Q_buf = Q
            R = np.zeros((cols, cols), order="F")
            R[:n, :n] = self.R
            self.R_buf = R

    def admit(self, C: np.ndarray, tol: float, scale: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Admit each column of the m x n block C that enlarges the span.

        C is projected twice off Q as it stood (:func:`_cgs2`, coefficients S),
        after room for all of C is reserved, so a refusal admits nothing; each column's squared residual norm is kept and downdated by
        (q^T Y)^2 as each new Q column q joins. The caller's next untested
        column is tested next unless its residual ratio ||r|| / ||c|| is below
        ``_PIVOT`` times the best untested one (column pivoting). It is
        projected twice off the columns this call admitted (BCGS2, coefficients
        t) and admitted if that residual's norm is above ``tol``: its
        unit residual goes to Q, the column scaled by w to norm √m to F (as
        given, weight 1.0, with ``scale=False``: layer 1's columns must stay
        bit-equal to lift_input(X) @ W1), and w times (S_j, t, ||r||) to R's
        new column, so F = QR column by column. Returns the admitted columns'
        indices into C, in the order they joined F, and their weights.
        """
        self.reserve(self.ncols + C.shape[1])
        idx, weights = [], []
        start = self.ncols
        S, Y = _cgs2(C, self.Q)
        r2 = np.einsum("ij,ij->j", Y, Y)
        c2 = np.maximum(np.einsum("ij,ij->j", C, C), np.finfo(float).tiny)
        untested = np.ones(C.shape[1], dtype=bool)
        while untested.any() and self.ncols < self.m:
            ratio2 = np.where(untested, np.maximum(r2, 0.0) / c2, -1.0)
            j = int(np.argmax(ratio2 >= _PIVOT**2 * ratio2.max()))
            untested[j] = False
            k = self.ncols
            t, r = _cgs2(Y[:, j], self.Q_buf[:, start:k])
            nr = np.linalg.norm(r)
            if nr <= tol:
                continue
            w = math.sqrt(self.m) / np.linalg.norm(C[:, j]) if scale else 1.0
            q = np.divide(r, nr, out=self.Q_buf[:, k])
            np.multiply(w, C[:, j], out=self.F_buf[:, k])
            np.multiply(w, S[:, j], out=self.R_buf[:start, k])
            np.multiply(w, t, out=self.R_buf[start:k, k])
            self.R_buf[k, k] = w * nr
            self.ncols += 1
            r2 -= (q @ Y) ** 2
            idx.append(j)
            weights.append(w)
        return np.array(idx, dtype=int), np.array(weights)


def _cgs2(C: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C projected twice off Q's orthonormal columns: (S, Y) with C = QS + Y."""
    S = Q.T @ C
    Y = C - Q @ S
    S2 = Q.T @ Y
    Y -= Q @ S2
    return S + S2, Y


def _scaled_projection(F1_tilde: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # fold the norm-sqrt(m) rescaling into the weights, then recompute the
    # columns from the scaled weights so B = F1_tilde @ W1 holds bit-exactly
    m = F1_tilde.shape[0]
    norms = np.linalg.norm(F1_tilde @ V, axis=0)
    keep = norms > 0
    W1 = V[:, keep] * (math.sqrt(m) / norms[keep])
    return F1_tilde @ W1, W1


def build_basis1_exact(F1_tilde) -> tuple[np.ndarray, np.ndarray]:
    """First layer: the constant node, then the SVD directions of the centred input.

    On the lifted input [1 X], the constant node has weights e_0 and values
    the ones column, bit for bit. Each right singular vector v of the
    centred X - 1 x̄^T gives a node with weights [-x̄^T v; v], whose values
    are orthogonal to 1 and to each other, rescaled to norm √m; together
    they span {1, X}. A direction whose singular value is at most
    ``default_rank_tol`` times ||[1 X]||_F is rounding (centring a constant
    column leaves a few ulps), so rank deficiency just drops columns. With
    the constant node in layer 1, :func:`_distinct_candidates` never offers
    a product that re-expresses a lower-degree node.
    """
    F1_tilde = check_matrix(F1_tilde, "F1_tilde")
    mean = F1_tilde[:, 1:].mean(axis=0)
    svd = thin_svd(F1_tilde[:, 1:] - mean, tol=0.0)
    V = svd.V[:, svd.s > default_rank_tol(F1_tilde.shape) * np.linalg.norm(F1_tilde)]
    W1 = np.eye(F1_tilde.shape[1], V.shape[1] + 1)
    W1[0, 1:] = -mean @ V
    W1[1:, 1:] = V
    return _scaled_projection(F1_tilde, W1)


def build_basis1_width(
    F1_tilde,
    gamma: int,
    svd_mode: str = "exact",
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Width-limited first layer: top-``gamma`` singular directions only.

    At most min(gamma, rank) columns come back, normalized to norm √m;
    ``gamma`` passes :func:`check_width`. ``svd_mode="exact"`` takes
    ``thin_svd(F1_tilde, k=gamma)``: on a tall lift whose tail is dropped
    (gamma < d+1 <= m) from the eigendecomposition of the Gram matrix
    F1_tilde^T F1_tilde, else from the SVD. ``"randomized"`` takes the
    seeded range finder ``randomized_range_svd(F1_tilde, gamma, seed)``
    where it is the cheaper factor of the m x n lift, min(m, n)^2 >
    ``_SKETCH_RATIO`` * m * (gamma + ``OVERSAMPLE``), and the exact factor
    on every other shape. Returns the pair (B, W1) of m x k values and
    (d+1) x k weights, B = F1_tilde @ W1.
    """
    F1_tilde = check_matrix(F1_tilde, "F1_tilde")
    check_width(gamma)
    if svd_mode not in ("exact", "randomized"):
        raise ValueError(f"unknown svd_mode {svd_mode!r}")
    m, n = F1_tilde.shape
    if svd_mode == "randomized" and min(m, n) ** 2 > _SKETCH_RATIO * m * (gamma + OVERSAMPLE):
        svd = randomized_range_svd(F1_tilde, gamma, seed=seed)
    else:
        svd = thin_svd(F1_tilde, k=gamma)
    return _scaled_projection(F1_tilde, svd.V)


def initial_state(layer1: tuple[np.ndarray, np.ndarray], tol: float | None = None) -> BasisState:
    """Basis state holding every column of B = lift_input(X) @ W1, of the pair
    (B, W1); ``state.W1`` is W1 with its columns in the order admission took B's.
    ``tol`` passes :func:`resolve_tol`."""
    B, W1 = layer1
    m, k = B.shape
    tol = resolve_tol(tol, m)
    state = BasisState(F_buf=np.empty((m, 0), order="F"), Q_buf=np.empty((m, 0), order="F"),
                       R_buf=np.empty((0, 0), order="F"), W1=W1)
    order = state.admit(B, tol, scale=False)[0]
    if order.size < k:
        raise ValueError("first-layer columns must be linearly independent")
    state.W1 = W1[:, order]
    return state


def final_width(state: BasisState, depth: int | None, gamma: int | None = None) -> int | None:
    """The most columns F can reach in a network of ``depth`` layers (counting
    the output layer, as ``TrainConfig.max_depth`` does), at most m.

    A width-mode layer (``gamma`` given) adds at most ``gamma`` columns, so
    with no ``depth`` the width is unbounded (None). An exact-mode layer adds
    one node per distinct multiset of layer-1 nodes
    (:func:`_distinct_candidates`), so F holds at most one node per multiset
    of at most ``depth - 1`` non-constant layer-1 nodes, and m with no ``depth``.
    """
    if depth is None:
        return None if gamma is not None else state.m
    if gamma is not None:
        cols = state.layer1_cols + gamma * (depth - 2)
    else:
        k = int(state.W1[1:].any(axis=0).sum())  # the non-constant layer-1 nodes
        cols = math.comb(k + depth - 1, depth - 1)
    return min(cols, state.m)


# Below this residual ratio ||r|| / ||c||, ||c||^2 - ||Q^T c||^2 has lost
# about eight of its sixteen digits to cancellation, so the candidate's
# residual norm is taken from an explicit CGS2 residual instead.
_EXPLICIT_RATIO = 1e-4

# _offer hands candidates to BasisState.admit in blocks of at most this
# many columns, which bounds the m x block copies one admission makes.
_ADMIT_BLOCK = 64

# Width scoring forms and projects the candidates of several previous-layer
# columns at once, in chunks of at most this many columns (one column's range
# if that is wider), or as many whole groups of n1 products of H's columns as
# fit. A one-thread Q^T block product with 152 rows of Q runs at about 40
# GFlop/s on 51 columns and 60 on 204-306; the m x chunk scratch block is
# what the width costs (5 MB at m = 2,500).
_SCORE_CHUNK = 256

# Width mode's "randomized" layer 1 sketches an m x n lift only where
# min(m, n)^2 > _SKETCH_RATIO * m * (gamma + OVERSAMPLE), a rule fitted to
# measured times of both factors, not derived from flop counts. One BLAS
# thread, min of 5 calls, exact vs
# sketch at gamma 50: 800 x 785 0.120 vs 0.025 s, 1,000 x 401 0.024 vs
# 0.018 s; 2,500 x 401 0.031 vs 0.044 s, 1,000 x 301 0.013 vs 0.015 s. The
# two cross between 1,300 x 401 (ratio 2.06, sketch 6% faster) and
# 1,400 x 401 (1.91, exact 3% faster). The rule never sketches A's whole
# range: it implies min(m, n) > 2 (gamma + OVERSAMPLE).
_SKETCH_RATIO = 2

# BasisState.reserve refuses F, Q and R buffers above this many bytes together.
# Exact mode grows all three to m x m, so it trains on at most 6,688 rows.
_BUFFER_BUDGET = 2**30

# In BasisState.admit, a column whose residual ratio is below this fraction
# of the best untested one waits behind the more independent columns.
_PIVOT = 0.5


class CandidateScores:
    """Width-mode scores of one layer's product candidates, kept across rounds.

    Candidate ``p * n1 + j`` is previous-layer column p times layer-1
    column j. For each candidate c this keeps ||c||^2 and ||Q^T c||^2 over
    the Q columns seen so far. Q only grows within a layer, so a round
    projects c onto the columns admitted since the previous round and onto
    the deflated target's basis O_V. The CGS2
    residual r of c has ||r||^2 = ||c||^2 - ||Q^T c||^2 and O_V^T r =
    O_V^T c (O_V is orthogonal to Q), so the score ||O_V^T r|| / ||r||
    needs no residual, except when ||r|| / ||c|| is below
    ``_EXPLICIT_RATIO``: then ||r|| and O_V^T r both come from an explicit
    CGS2 residual, so a near-dependent column is judged against ``tol``
    and scored with numerator and denominator from one residual. Only
    the first candidate of each multiset starts out ``live``. A candidate
    found dependent stays out (``live`` is cleared): its residual can only
    shrink as Q grows.

    A round needs h^T c for each column h of H = [Q_new | O_V] and each
    candidate c = F[:, lo+p] * F[:, j], and h^T c = F[:, lo+p]^T (h * F[:, j]).
    It forms whichever side is narrower: when H's columns times ``n1`` are
    fewer than its live ranges' columns (below), it takes the Q-form
    (:meth:`_q_form`), else the candidate form (:meth:`_candidate_form`).
    A layer's first round projects onto all of Q, so it forms candidates.

    The candidate form works in chunks of whole previous-layer columns,
    at most ``_SCORE_CHUNK`` columns a chunk unless one column's range is
    wider. Previous-layer column p contributes the products with layer-1
    columns j0(p) <= j < j1(p), the contiguous range that covers its live
    candidates, written side by side into one scratch block with no
    gather; each chunk takes one product with the new Q columns and one
    with O_V, and the dead candidates inside a range are masked out.
    The Q-form writes groups of H's columns times every layer-1 column
    into a scratch block of at most ``_SCORE_CHUNK`` columns (or ``n1``)
    and multiplies each group by the previous layer's columns, a view of
    F; it is dense over every (p, j), dead candidates too. Either form
    builds the few explicit residuals' candidates from F.
    """

    def __init__(self, state: BasisState):
        lo, hi = state.layer_ranges[-1]
        n1 = state.layer1_cols
        # ||F[:, lo+p] * F[:, j]||^2 for every (p, j) in one product
        self.norm2 = ((state.F[:, lo:hi] ** 2).T @ state.F[:, :n1] ** 2).ravel()
        self.proj2 = np.zeros_like(self.norm2)
        self.seen = 0  # leading Q columns already folded into proj2
        self.live = np.zeros(self.norm2.size, dtype=bool)
        self.live[_distinct_candidates(state)] = True

    def round(self, state: BasisState, O_V: np.ndarray, tol: float) -> np.ndarray:
        """Score every live candidate against the current Q and target basis.

        A candidate's score is ||O_V^T r|| / ||r||; -1 marks one whose
        residual norm is at most ``tol``.
        """
        Q = state.Q
        Q_new = Q[:, self.seen:]
        n1 = state.layer1_cols
        scores = np.full(self.norm2.size, -1.0)
        # each previous-layer column with a live candidate, and the range
        # [j0, j1) of layer-1 columns that covers its live candidates
        live = self.live.reshape(-1, n1)
        prevs = np.flatnonzero(live.any(axis=1))
        j0 = live[prevs].argmax(axis=1)
        j1 = n1 - live[prevs, ::-1].argmax(axis=1)
        # form whichever operand is narrower: every H column times layer 1,
        # or every candidate in a live range
        if (Q_new.shape[1] + O_V.shape[1]) * n1 < (j1 - j0).sum():
            parts = self._q_form(state, Q_new, O_V)
        else:
            parts = self._candidate_form(state, Q_new, O_V, prevs, j0, j1)
        for at, T in parts:
            norm2 = self.norm2[at]
            r2 = norm2 - self.proj2[at]
            nr = np.sqrt(np.maximum(r2, 0.0))
            explicit = r2 < _EXPLICIT_RATIO**2 * norm2
            if explicit.any():
                _, R = _cgs2(_products(state, at[explicit]), Q)
                nr[explicit] = np.linalg.norm(R, axis=0)
                T[:, explicit] = O_V.T @ R
            ok = nr > tol
            self.live[at] = ok
            scores[at[ok]] = np.linalg.norm(T[:, ok], axis=0) / nr[ok]
        self.seen = state.ncols
        return scores

    def _candidate_form(self, state, Q_new, O_V, prevs, j0, j1):
        """Per chunk of live ranges, its live candidates ``at`` and O_V^T c of
        each, after their ||Q_new^T c||^2 is added to ``proj2``."""
        F = state.F
        lo, _ = state.layer_ranges[-1]
        n1 = state.layer1_cols
        w = j1 - j0
        chunks = _chunks(w.tolist(), _SCORE_CHUNK)
        scratch = np.empty((state.m, max((int(w[c].sum()) for c in chunks), default=0)), order="F")
        for c in chunks:
            # products of whole previous-layer columns with their ranges, side by side
            at, width = [], 0
            for p, s, e in zip(prevs[c], j0[c], j1[c]):
                np.multiply(F[:, s:e], F[:, lo + p, None], out=scratch[:, width : width + e - s])
                at.append(p * n1 + np.arange(s, e))
                width += e - s
            block = scratch[:, :width]
            at = np.concatenate(at)
            keep = np.flatnonzero(self.live[at])  # a range can hold dead candidates
            at = at[keep]
            T = (Q_new.T @ block)[:, keep]
            self.proj2[at] += np.einsum("ij,ij->j", T, T)
            yield at, (O_V.T @ block)[:, keep]

    def _q_form(self, state, Q_new, O_V):
        """Every live candidate ``at`` and O_V^T c of each, after every
        candidate's ||Q_new^T c||^2 is added to ``proj2``.

        h^T (F[:, lo+p] * F[:, j]) = F[:, lo+p]^T (h * F[:, j]), so each group of
        H = [Q_new | O_V] columns times every layer-1 column goes into the
        scratch block, and one product with the previous layer's columns gives
        P x group x n1 values whose [p, :, j] are candidate p * n1 + j's.
        """
        F = state.F
        lo, hi = state.layer_ranges[-1]
        n1 = state.layer1_cols
        group = max(1, _SCORE_CHUNK // n1)
        scratch = np.empty((state.m, group * n1), order="F")
        T = np.empty((O_V.shape[1], hi - lo, n1))
        for H, into in ((Q_new, None), (O_V, T)):
            for a in range(0, H.shape[1], group):
                g = min(group, H.shape[1] - a)
                for k in range(g):
                    np.multiply(F[:, :n1], H[:, a + k, None], out=scratch[:, k * n1 : (k + 1) * n1])
                U = (F[:, lo:hi].T @ scratch[:, : g * n1]).reshape(hi - lo, g, n1)
                if into is None:
                    self.proj2 += np.einsum("pkj,pkj->pj", U, U).ravel()
                else:
                    into[a : a + g] = U.transpose(1, 0, 2)
        at = np.flatnonzero(self.live)
        yield at, T.reshape(O_V.shape[1], self.norm2.size)[:, at]


def _chunks(widths: list[int], cap: int) -> list[slice]:
    """Consecutive runs of ``widths``, greedily as long as their sum stays
    at most ``cap``; a run holds at least one item."""
    runs, start, used = [], 0, 0
    for i, w in enumerate(widths):
        if used + w > cap and i > start:
            runs.append(slice(start, i))
            start, used = i, 0
        used += w
    return runs + [slice(start, len(widths))] if widths else runs


def _distinct_candidates(state: BasisState) -> np.ndarray:
    """Flat indices ``p * n1 + j`` of the next layer's distinct candidates.

    Every node is a weighted product of layer-1 nodes, labelled by the
    multiset of their indices: layer-1 node j is {j}, and product node r
    is its ``prev[r]`` node's multiset plus ``first[r]``. A layer-1 node
    with zero weight on every input (exact mode's first node) is the
    constant function, so its multiset is empty: a candidate that holds it
    copies a node already built and is never offered. Candidates with
    equal multisets are the same function up to a scalar, so only the
    first of each, in ascending flat order, is kept.
    """
    n1 = state.layer1_cols
    # layer-1 labels, -1 for the constant node
    label = np.where(state.W1[1:].any(axis=0), np.arange(n1), -1)
    sets = label[:, None]
    for layer in state.layers:
        sets = np.column_stack([sets[layer.prev], label[layer.first]])
    # candidate p * n1 + j is the multiset of node p plus j, as a sorted row
    rows = np.column_stack([np.repeat(sets, n1, axis=0), np.tile(label, len(sets))])
    rows.sort(axis=1)
    first = np.unique(rows, axis=0, return_index=True)[1]
    return np.sort(first[rows[first, 0] >= 0])


def _products(state: BasisState, flat: np.ndarray) -> np.ndarray:
    """The m x len(flat) block of candidates ``flat``, each ``p * n1 + j``."""
    lo, _ = state.layer_ranges[-1]
    prev, j = np.divmod(flat, state.layer1_cols)
    return state.F[:, lo + prev] * state.F[:, j]


def _offer(state: BasisState, flat: np.ndarray, quota: int, tol: float, nodes: list) -> int:
    """Offer candidates ``flat`` to :meth:`BasisState.admit` in order, after room
    for all it may admit is reserved, in blocks of at most ``_ADMIT_BLOCK`` and
    the quota left, until ``quota`` are in, ``flat`` runs out or F spans R^m.
    Appends the admitted ``(prev, first, w)`` nodes; returns how many it offered."""
    state.reserve(state.ncols + min(quota, flat.size))
    admitted = offered = 0
    while admitted < quota and offered < flat.size and state.ncols < state.m:
        take = flat[offered : offered + min(_ADMIT_BLOCK, quota - admitted)]
        idx, w = state.admit(_products(state, take), tol)
        nodes += zip(*np.divmod(take[idx], state.layer1_cols), w)
        admitted += idx.size
        offered += take.size
    return offered


def _append_layer(state: BasisState, nodes: list) -> ProductLayer:
    """The layer of the admitted ``nodes``, appended to the state unless empty."""
    layer = product_layer(nodes)
    if layer.width:
        state.layers.append(layer)
    return layer


def build_basis_t_exact(state: BasisState, tol: float | None = None) -> ProductLayer:
    """Next layer, exact mode: admit every candidate that enlarges the span.

    The first candidate of each multiset (:func:`_distinct_candidates`;
    a later copy is the same function up to a scalar, and a product with
    the constant node copies a lower-degree node) goes to
    :meth:`BasisState.admit` unranked, in index order (previous-layer
    column outer), through :func:`_offer`, until every one is offered or F
    spans R^m; admission's column pivoting lets near-dependent ones wait
    behind more independent ones. Mutates ``state`` and returns the layer
    it appended to ``state.layers``; a zero-width layer, not appended, means
    the span is saturated. ``tol`` passes :func:`resolve_tol`.
    """
    tol = resolve_tol(tol, state.m)
    flat = _distinct_candidates(state)
    nodes: list[tuple[int, int, float]] = []
    _offer(state, flat, flat.size, tol, nodes)
    return _append_layer(state, nodes)


def build_basis_t_width(
    state: BasisState,
    V,
    gamma: int,
    b: int,
    tol: float | None = None,
) -> ProductLayer:
    """Next layer, width-limited: greedy target-driven candidate selection.

    Rounds of scoring (:class:`CandidateScores`): every distinct candidate
    whose residual against the current Q is numerically nonzero is scored
    by the norm of the projection of its unit residual onto the column
    space of the deflated target V, so candidates aligned with what the current
    features cannot yet express rank first. Each round offers the live
    candidates in descending score (stable) through :func:`_offer`, until
    min(b, gamma - admitted) are in or F spans R^m; an offered candidate is
    in span(Q) afterwards, so no longer live. Then V is deflated. Stops
    after a round that admits nothing or once F spans R^m; at most
    ``gamma`` columns total.
    Nodes are recorded in the order admission took them.

    Mutates ``state`` and returns the layer it appended, as the exact builder
    does. ``tol`` passes :func:`resolve_tol`, ``gamma`` and ``b`` :func:`check_width`.
    """
    tol = resolve_tol(tol, state.m)
    check_width(gamma, b)
    V = check_matrix(V, "V")
    if V.shape[0] != state.m:
        raise ValueError("V must have one row per training instance")
    state.reserve(state.ncols + gamma)
    scorer = CandidateScores(state)
    nodes: list[tuple[int, int, float]] = []
    while len(nodes) < gamma and state.ncols < state.m:
        V = residual(V, state.Q)
        scores = scorer.round(state, thin_svd(V).U, tol)
        order = np.argsort(-scores, kind="stable")[: np.count_nonzero(scores >= 0)]
        n = len(nodes)
        scorer.live[order[: _offer(state, order, min(b, gamma - n), tol, nodes)]] = False
        if len(nodes) == n:
            break
    return _append_layer(state, nodes)
