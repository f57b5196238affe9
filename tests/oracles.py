"""Independent numerical paths that the tests check cdmd against.

None is part of the library: each answers a question a fit already
answers, by a different route, so that agreement between the two is evidence.
"""

import numpy as np

from cdmd.dmd import SnapshotPair
from cdmd.exceptions import InvalidInput
from cdmd.linalg import EXACT_TOL, _as_matrix, _inverse_singular_values, _truncated_svd, pinv


def affine_dmd_direct(pair: SnapshotPair):
    """Direct least-squares fit of the affine model ``X2 = A X1 + b 1^T``.

    Minimizing over ``b`` for fixed ``A`` gives ``b = mu2 - A mu1``
    analytically; substituting leaves a plain regression for ``A`` (with the
    minimum-``||A||_F`` tie-break), solved here through LAPACK least squares
    rather than an explicit pseudoinverse. Exists to cross-validate the
    centering equivalence through an independent numerical path.
    """
    if pair.T < 2:
        raise InvalidInput("affine fit needs at least 2 snapshot columns")
    mu1 = pair.X1.mean(axis=1)
    mu2 = pair.X2.mean(axis=1)
    Xb1 = pair.X1 - mu1[:, None]
    Xb2 = pair.X2 - mu2[:, None]
    # A second pass removes the rounding error of the means, a rank-one term
    # that the rank cut would otherwise keep when offsets dwarf the data.
    d1, d2 = Xb1.mean(axis=1), Xb2.mean(axis=1)
    Xb1, Xb2, mu1, mu2 = Xb1 - d1[:, None], Xb2 - d2[:, None], mu1 + d1, mu2 + d2
    At, *_ = np.linalg.lstsq(Xb1.T, Xb2.T, rcond=EXACT_TOL)
    A = At.T
    return A, mu2 - A @ mu1


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


def centered_pinv_update(X1, rel_tol: float = EXACT_TOL) -> np.ndarray:
    """Pseudoinverse of the column-centered matrix via the rank-one update.

    Returns ``(X1 - mu1 @ ones.T)^+`` without explicitly centering, using the
    two-branch closed form; the branch is selected by whether the ones vector
    lies in the row space of ``X1``. Raises InvalidInput where float64 cannot
    tell (see below), as when a column offset many orders larger than the
    fluctuations puts the ones vector nearly, but not quite, in that space.
    """
    X1 = _as_matrix(X1, "X1")
    T = X1.shape[1]
    if T < 2:
        raise InvalidInput("X1 must have at least 2 columns")
    U, s, Vt = _truncated_svd(X1, rel_tol)
    inv_s = _inverse_singular_values(s)
    P = (Vt.conj().T * inv_s) @ U.conj().T
    # Both branches use 1^T P and m = (I - X1^+ X1) 1, zero iff 1 is in the row
    # space of X1. They are formed from a = V^H 1 (1^T P = (a^H / s) U^H and
    # m = 1 - V a), not from products with X1 or P, whose rounding grows with
    # cond(X1): a large offset makes that large, and m small.
    a = Vt @ np.ones(T)
    ones_P = (a.conj() * inv_s) @ U.conj().T
    m = np.ones(T) - Vt.conj().T @ a
    # Forming m from r dot products of length T leaves rounding of at most
    # about eps r T^1.5. The SVD knows each v_j only to an angle of about
    # eps s_1 / s_j, which moves m by about eps s_1 ||a / s|| = eps s_1 ||1^T P||.
    # An m within both is taken for zero. One above them, but within the
    # uniform bound eps cond(X1) sqrt(T) on the second, cannot be told from
    # zero, and raises.
    eps = np.finfo(s.dtype).eps
    rounding = eps * (s.size * T**1.5 + s[0] * np.linalg.norm(ones_P))
    m_norm = np.linalg.norm(m, np.inf)
    if m_norm <= rounding:
        nvec = ones_P.conj()  # P^H 1
        nn = nvec.conj() @ nvec
        if nn == 0.0:
            return P
        return P - np.outer(P @ nvec, nvec.conj()) / nn
    if m_norm <= rounding + eps * s[0] / s[-1] * np.sqrt(T):
        raise InvalidInput(
            f"cannot tell whether the ones vector lies in the row space of X1 (cond {s[0] / s[-1]:.3g}): "
            "is a column offset far larger than the fluctuations?"
        )
    return P - np.outer(m, ones_P) / np.vdot(m, m)  # 1^T m = m^H m
