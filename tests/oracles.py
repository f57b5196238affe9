"""Independent numerical paths that the tests check cdmd against.

Neither is part of the library: each answers a question a fit already
answers, by a different route, so that agreement between the two is evidence.
"""

import numpy as np

from cdmd.dmd import SnapshotPair
from cdmd.exceptions import InvalidInput
from cdmd.linalg import EXACT_TOL, _as_matrix, pinv


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
