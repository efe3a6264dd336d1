"""Brute-force polynomial references for validating the construction.

Everything here favors transparency over speed: monomials are enumerated
explicitly and spans are compared by numerical rank. The tests keep a
second route via a Gram-matrix eigendecomposition, so the two sides of a
check do not have to share a factorization code path.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .linalg import check_matrix, thin_svd

# Enumerating C(d + t, t) monomials above this is a sign of a misuse, not a
# legitimate oracle call.
MAX_MONOMIALS = 100_000


def monomial_count(dim: int, degree: int) -> int:
    """Number of monomials in ``dim`` variables of total degree <= ``degree``."""
    if dim < 1 or degree < 0:
        raise ValueError("need dim >= 1 and degree >= 0")
    return math.comb(dim + degree, degree)


def monomial_exponents(dim: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of all monomials with total degree <= ``degree``.

    Ordered by total degree, then by the index combination that produced
    them, so for dim=2, degree=2 the order is
    1, x1, x2, x1^2, x1*x2, x2^2.
    """
    if monomial_count(dim, degree) > MAX_MONOMIALS:
        raise ValueError(
            f"{monomial_count(dim, degree)} monomials exceed the "
            f"{MAX_MONOMIALS} oracle limit (dim={dim}, degree={degree})"
        )
    out: list[tuple[int, ...]] = []
    for k in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(dim), k):
            e = [0] * dim
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return out


def monomial_matrix(X, degree: int) -> np.ndarray:
    """Evaluate every monomial of total degree <= ``degree`` on the rows of X.

    Returns an m x C(d + degree, degree) matrix whose columns follow the
    order of :func:`monomial_exponents`.
    """
    X = check_matrix(X, "X")
    m, d = X.shape
    exps = monomial_exponents(d, degree)
    M = np.empty((m, len(exps)))
    for j, e in enumerate(exps):
        col = np.ones(m)
        for i, p in enumerate(e):
            if p:
                col = col * X[:, i] ** p
        M[:, j] = col
    return M


def span_rank(A, tol: float | None = None) -> int:
    """Numerical rank of ``A`` under the package-wide singular value cutoff.

    ``tol`` is relative to the largest singular value; None uses the same
    default as the construction, so the two never disagree on a rank. Any
    other ``tol`` must be a finite real >= 0, as in
    :func:`~basis_learner.linalg.thin_svd`, else ``ValueError``.
    """
    return thin_svd(A, tol).rank


def span_equal(A, B, tol: float | None = None) -> bool:
    """True when the column spans of ``A`` and ``B`` coincide.

    Decided by rank(A) = rank(B) = rank([A B]) at the given relative
    tolerance.
    """
    A = check_matrix(A, "A")
    B = check_matrix(B, "B")
    if A.shape[0] != B.shape[0]:
        raise ValueError("A and B must have the same number of rows")
    ra = span_rank(A, tol)
    rb = span_rank(B, tol)
    return ra == rb == span_rank(np.hstack([A, B]), tol)
