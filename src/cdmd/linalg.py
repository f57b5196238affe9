"""Dense linear-algebra substrate.

SVD-backed pseudoinverse, effective-rank estimation, rectangular Vandermonde
construction, the closed-form pseudoinverse of column-centered data, and the
certificate for a unit eigenvalue in the fitted propagator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInput

#: Default relative singular-value cutoff for "exact" (noiseless) rank.
EXACT_TOL = 1e-12

RANK_METHODS = ("exact_tol", "relative_gap", "optimal_hard_threshold")


@dataclass(frozen=True)
class RankEstimate:
    """Effective-rank estimate with the method and threshold that produced it."""

    r: int
    method: str
    threshold_used: float


def _as_matrix(M, name="M"):
    M = np.asarray(M)
    if M.ndim != 2 or M.size == 0:
        raise InvalidInput(f"{name} must be a nonempty 2-D matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return M


def _inverse_singular_values(s) -> np.ndarray:
    """``1 / s`` for kept singular values ``s``; InvalidInput if one overflows (subnormal ``s``)."""
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / s
    if not np.all(np.isfinite(inv)):
        raise InvalidInput(f"singular value {np.min(s):.3g} is too small to invert in floating point")
    return inv


def pinv(M, rel_tol: float = EXACT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``rel_tol * sigma_max`` are treated as zero.
    """
    M = _as_matrix(M)
    if not 0.0 < rel_tol < 1.0:
        raise InvalidInput(f"rel_tol must lie in (0, 1), got {rel_tol}")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((M.shape[1], M.shape[0]), dtype=M.dtype)
    keep = s > rel_tol * s[0]
    U, s, Vt = U[:, keep], s[keep], Vt[keep]
    return (Vt.conj().T * _inverse_singular_values(s)) @ U.conj().T


def _oht_coefficient(beta: float) -> float:
    # Aspect-ratio-dependent optimal hard-threshold coefficient for the
    # median-based estimator (noise level unknown).
    return 0.56 * beta**3 - 0.95 * beta**2 + 1.82 * beta + 1.43


def _oht_lambda(beta: float) -> float:
    # Known-noise variant of the optimal hard-threshold coefficient.
    return np.sqrt(2.0 * (beta + 1.0) + 8.0 * beta / (beta + 1.0 + np.sqrt(beta**2 + 14.0 * beta + 1.0)))


def effective_rank(
    M,
    method: str = "exact_tol",
    noise_hint: float | None = None,
    rel_tol: float = EXACT_TOL,
) -> RankEstimate:
    """Estimate the rank of the noiseless signal underlying ``M``.

    ``exact_tol`` counts singular values above ``rel_tol * sigma_max``;
    ``relative_gap`` cuts at the largest ratio gap in the spectrum;
    ``optimal_hard_threshold`` applies the aspect-ratio-dependent hard
    threshold, using ``noise_hint`` as the noise standard deviation when given.
    """
    M = _as_matrix(M)
    if method not in RANK_METHODS:
        raise InvalidInput(f"unknown rank method {method!r}")
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return RankEstimate(0, method, 0.0)

    if method == "exact_tol":
        thresh = rel_tol * s[0]
        return RankEstimate(int(np.sum(s > thresh)), method, float(thresh))

    if method == "relative_gap":
        # Largest ratio sigma_i / sigma_{i+1}; trailing exact zeros give an
        # infinite gap, which correctly selects the numerical rank.
        with np.errstate(divide="ignore"):
            ratios = s[:-1] / np.maximum(s[1:], np.finfo(float).tiny)
        if ratios.size == 0:
            return RankEstimate(1, method, float(s[0]))
        i = int(np.argmax(ratios))
        return RankEstimate(i + 1, method, float(s[i]))

    m, n = M.shape
    beta = min(m, n) / max(m, n)
    if noise_hint is not None:
        thresh = _oht_lambda(beta) * np.sqrt(max(m, n)) * noise_hint
    else:
        thresh = _oht_coefficient(beta) * float(np.median(s))
    return RankEstimate(int(np.sum(s > thresh)), method, float(thresh))


def vandermonde(lambdas, length: int) -> np.ndarray:
    """Rectangular Vandermonde matrix with entry (i, j) = lambdas[j]**i.

    Shape is ``length x len(lambdas)``, powers running 0 .. length-1 down the
    rows. Full column rank iff the generators are distinct and there are at
    most ``length`` of them.
    """
    lam = np.atleast_1d(np.asarray(lambdas, dtype=complex))
    if lam.size == 0:
        raise InvalidInput("lambdas must be nonempty")
    if length < 1:
        raise InvalidInput("length must be >= 1")
    return lam[None, :] ** np.arange(length)[:, None]


def centered_pinv_update(X1, rel_tol: float = EXACT_TOL) -> np.ndarray:
    """Pseudoinverse of the column-centered matrix via the rank-one update.

    Returns ``(X1 - mu1 @ ones.T)^+`` without explicitly centering, using the
    two-branch closed form; the branch is selected by whether the ones vector
    lies in the row space of ``X1``.
    """
    X1 = _as_matrix(X1, "X1")
    T = X1.shape[1]
    if T < 2:
        raise InvalidInput("X1 must have at least 2 columns")
    P = pinv(X1, rel_tol)
    ones = np.ones(T)
    # m = (I - X1^+ X1)^H 1, zero iff 1 is in the row space of X1; no T x T product.
    m = ones - X1.conj().T @ (P.conj().T @ ones)
    if np.linalg.norm(m, np.inf) < 1e-8 * np.sqrt(T):
        nvec = P.conj().T @ ones
        nn = nvec.conj() @ nvec
        if nn == 0.0:
            return P.copy()
        return P - np.outer(P @ nvec, nvec.conj()) / nn
    denom = ones @ m
    return P - np.outer(m, ones @ P) / denom


def unit_eigenvalue_certificate(X1, X, tol: float) -> bool:
    """True iff the ones row is (within ``tol``) fixed by ``X1^+ X``.

    For well-posed linear data this is equivalent to the fitted propagator
    having an eigenvalue equal to 1.
    """
    X1 = _as_matrix(X1, "X1")
    X = _as_matrix(X, "X")
    T = X1.shape[1]
    if X.shape[1] != T + 1 or X.shape[0] != X1.shape[0]:
        raise InvalidInput(f"X must have one more column than X1, got {X.shape} vs {X1.shape}")
    if not np.allclose(X[:, :T], X1):
        raise InvalidInput("leading columns of X must equal X1")
    ones = np.ones(T)
    row = ones @ pinv(X1) @ X
    return bool(np.linalg.norm(row - np.ones(T + 1), np.inf) < tol)
