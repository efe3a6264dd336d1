"""Dense matrix primitives used by the layer construction.

Matrices are plain 2-d float64 numpy arrays throughout the package. This
module wraps the few factorizations the construction needs: a thin SVD with
a numerical-rank cutoff and an optional cap of k factors (taken from the
Gram matrix on tall input), a seeded randomized range-finder SVD for lifts
where it is the cheaper factor, and residual projection against an
orthonormal basis. It also holds the one rule for each input from outside:
a matrix (:func:`check_matrix`), a count (:func:`is_int`) and a real
(:func:`is_finite`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# subspace iterations of the randomized range finder
POWER_ITERS = 2

# extra sketch columns of the randomized range finder (Halko et al. 2011)
OVERSAMPLE = 10


def check_matrix(A, name: str = "matrix") -> np.ndarray:
    """The one rule for a matrix from outside: a 2-d float64 array of finite
    entries. Anything else raises ``ValueError`` naming ``name``."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {A.shape}")
    # a finite sum means finite entries (an inf or NaN entry makes it inf or
    # NaN) and allocates nothing the size of A; only a sum that overflows, or
    # a matrix that fails, takes the entrywise test
    with np.errstate(over="ignore", invalid="ignore"):
        finite_sum = np.isfinite(A.sum())
    if not finite_sum and not np.isfinite(A).all():
        raise ValueError(f"{name} must be finite, {A.size - np.isfinite(A).sum()} of {A.size} entries are not")
    return A


def is_int(x) -> bool:
    """The one rule for a count from outside: a Python int, not a bool (JSON
    true/false load as bool, a subclass of int). numpy integers fail it."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_finite(x) -> bool:
    """The one rule for a real from outside: a finite int or float, not a
    bool; a JSON integer too large for a float fails it. numpy float64
    scalars pass (they are floats), other numpy scalars fail."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:
        return False


def lift_input(X) -> np.ndarray:
    """Prepend the all-ones column: [1 X], of X checked by :func:`check_matrix`."""
    return lift_rows(check_matrix(X, "X"))


def lift_rows(X: np.ndarray) -> np.ndarray:
    """[1 X] of a 2-d float64 X that its caller has already checked."""
    return np.concatenate([np.ones((X.shape[0], 1)), X], axis=1)


def default_rank_tol(shape: tuple[int, int]) -> float:
    """Relative singular-value cutoff: max(rows, cols) * machine epsilon."""
    return max(shape) * np.finfo(np.float64).eps


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD factors with zero singular modes dropped.

    ``U`` is m x r, ``s`` the r positive singular values in nonincreasing
    order, ``V`` is n x r, so that A is approximately U @ diag(s) @ V.T.
    """

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray

    @property
    def rank(self) -> int:
        return self.s.size


def _flip_signs(U, V):
    # Fix the sign ambiguity so results do not depend on the LAPACK driver:
    # the largest-magnitude entry of each left vector is made positive.
    if U.shape[1] == 0:
        return U, V
    idx = np.argmax(np.abs(U), axis=0)
    signs = np.sign(U[idx, np.arange(U.shape[1])])
    signs[signs == 0] = 1.0
    return U * signs, V * signs


def _rank_cut(U, s, Vt, tol: float, k: int) -> SvdResult:
    # the first min(k, count above tol * s_max) modes of U s Vt (none when
    # s_max is 0), signs fixed
    smax = s[0] if s.size else 0.0
    r = min(int(np.count_nonzero(s > tol * smax)) if smax > 0 else 0, k)
    U, V = _flip_signs(U[:, :r], Vt[:r].T)
    return SvdResult(U, s[:r].copy(), V)


def thin_svd(A, tol: float | None = None, k: int | None = None) -> SvdResult:
    """Thin SVD of ``A`` keeping only singular values above ``tol * s_max``,
    at most ``k`` of them.

    ``tol=None`` uses :func:`default_rank_tol`; an explicit ``tol`` must be
    a finite real >= 0 (:func:`is_finite`), else ``ValueError``. An empty matrix yields an
    empty result (rank 0). ``k``, an int >= 1 (:func:`is_int`), keeps the
    first k factors. With no ``tol`` on a tall m x n ``A`` whose tail is
    dropped (k < n <= m) they come from the eigendecomposition of the Gram
    matrix A^T A, cheaper than the full SVD and spanning the same leading
    subspace. It squares the condition number, so only eigenvalues above
    ``default_rank_tol(A.shape) * lambda_max`` are kept: singular values
    above the square root of that times ``s_max``.
    """
    A = check_matrix(A)
    m, n = A.shape
    if k is not None and not (is_int(k) and k >= 1):
        raise ValueError(f"k must be at least 1 and an int, got {k!r}")
    if tol is not None and not (is_finite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    if m == 0 or n == 0:
        return SvdResult(np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0)))
    if tol is None:
        tol = default_rank_tol(A.shape)
        if k is not None and k < n <= m:
            lam, V = np.linalg.eigh(A.T @ A)
            lam, V = lam[::-1], V[:, ::-1]
            r = min(int(np.count_nonzero(lam > tol * lam[0])), k)
            s = np.sqrt(lam[:r])
            U, V = _flip_signs(A @ V[:, :r] / s, V[:, :r])
            return SvdResult(U, s, V)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return _rank_cut(U, s, Vt, tol, s.size if k is None else k)


def randomized_range_svd(A, k: int, seed: int = 0) -> SvdResult:
    """Approximate top-``k`` SVD via a seeded Gaussian range finder.

    Needs ints (:func:`is_int`) 1 <= k <= min(rows, cols) and seed >= 0,
    else ``ValueError`` names the argument; the sketch has k + ``OVERSAMPLE``
    columns, at most min(rows, cols). ``POWER_ITERS`` rounds of subspace
    iteration with QR re-orthonormalization at every step; deterministic
    for a fixed seed. Numerical rank below ``k`` gives rank-many factors.
    """
    A = check_matrix(A)
    m, n = A.shape
    if not (is_int(k) and 1 <= k <= min(m, n)):
        raise ValueError(f"k must be in [1, min(rows, cols) = {min(m, n)}], got {k!r}")
    if not (is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be an int >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    Y = A @ rng.standard_normal((n, min(k + OVERSAMPLE, m, n)))
    Q, _ = np.linalg.qr(Y)
    for _ in range(POWER_ITERS):
        Q, _ = np.linalg.qr(A.T @ Q)
        Q, _ = np.linalg.qr(A @ Q)
    B = Q.T @ A
    Ub, s, Vt = np.linalg.svd(B, full_matrices=False)
    return _rank_cut(Q @ Ub, s, Vt, default_rank_tol(A.shape), k)


def residual(v, Q) -> np.ndarray:
    """Project ``v`` (vector or matrix of columns) off span(Q): v - Q Q^T v.

    ``Q`` must have orthonormal columns; this is the caller's contract and
    is not re-checked here.
    """
    v = np.asarray(v, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2:
        raise ValueError("Q must be 2-dimensional")
    if v.shape[0] != Q.shape[0]:
        raise ValueError(f"length mismatch: v has {v.shape[0]} rows, Q has {Q.shape[0]}")
    return v - Q @ (Q.T @ v)
