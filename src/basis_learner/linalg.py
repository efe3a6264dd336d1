"""Dense matrix primitives used by the layer construction.

Matrices are plain 2-d float64 numpy arrays throughout the package. This
module wraps the few factorizations the construction needs: a thin SVD with
a numerical-rank cutoff, a seeded randomized range-finder SVD for wide data,
and residual projection against an orthonormal basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def check_matrix(A, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d float64 array and reject non-finite entries."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {A.shape}")
    if A.size and not np.isfinite(A).all():
        raise ValueError(f"{name} contains non-finite entries")
    return A


def default_rank_tol(shape: tuple[int, int]) -> float:
    """Relative singular-value cutoff: max(rows, cols) * machine epsilon."""
    return max(shape) * np.finfo(np.float64).eps


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD factors with zero singular modes dropped.

    ``U`` is m x r, ``s`` the r positive singular values in nonincreasing
    order, ``V`` is n x r, so that A is approximately U @ diag(s) @ V.T.
    ``truncated`` is set by the randomized path when fewer than the
    requested number of factors were available.
    """

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray
    truncated: bool = False

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


def thin_svd(A, tol: float | None = None) -> SvdResult:
    """Thin SVD of ``A`` keeping only singular values above ``tol * s_max``.

    ``tol=None`` uses :func:`default_rank_tol`. An empty matrix yields an
    empty result (rank 0).
    """
    A = check_matrix(A)
    m, n = A.shape
    if m == 0 or n == 0:
        return SvdResult(np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0)))
    if tol is None:
        tol = default_rank_tol(A.shape)
    elif tol < 0:
        raise ValueError("tol must be nonnegative")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    smax = s[0] if s.size else 0.0
    r = int(np.count_nonzero(s > tol * smax)) if smax > 0 else 0
    U, V = _flip_signs(U[:, :r], Vt[:r].T)
    return SvdResult(U, s[:r].copy(), V)


def randomized_range_svd(
    A,
    k: int,
    oversample: int = 10,
    power_iters: int = 2,
    seed: int = 0,
) -> SvdResult:
    """Approximate top-``k`` SVD via a seeded Gaussian range finder.

    Subspace iteration with QR re-orthonormalization at every step; the
    result is deterministic for a fixed seed. If the numerical rank of
    ``A`` is below ``k``, only rank-many factors are returned and
    ``truncated`` is set.
    """
    A = check_matrix(A)
    m, n = A.shape
    if k < 1:
        raise ValueError("k must be at least 1")
    if k + oversample > min(m, n):
        raise ValueError(
            f"k + oversample = {k + oversample} exceeds min(rows, cols) = {min(m, n)}"
        )
    rng = np.random.default_rng(seed)
    Y = A @ rng.standard_normal((n, k + oversample))
    Q, _ = np.linalg.qr(Y)
    for _ in range(power_iters):
        Q, _ = np.linalg.qr(A.T @ Q)
        Q, _ = np.linalg.qr(A @ Q)
    B = Q.T @ A
    Ub, s, Vt = np.linalg.svd(B, full_matrices=False)
    smax = s[0] if s.size else 0.0
    cutoff = default_rank_tol(A.shape) * smax
    r = int(np.count_nonzero(s > cutoff)) if smax > 0 else 0
    truncated = r < k
    r = min(r, k)
    U, V = _flip_signs((Q @ Ub)[:, :r], Vt[:r].T)
    return SvdResult(U, s[:r].copy(), V, truncated=truncated)


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
    if Q.shape[1] == 0:
        return v.copy()
    return v - Q @ (Q.T @ v)
