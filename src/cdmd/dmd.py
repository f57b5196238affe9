"""Decomposition variants and diagnostics.

Exact (SVD-based) DMD, DMD on centered data, the companion-matrix
formulation, fixed-frequency subtraction, the explicit affine solve, modal
reconstruction, and the linear-consistency residual.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidInput
from .linalg import EXACT_TOL, _inverse_singular_values, _one_blas_thread, _truncated_svd, pinv, vandermonde

#: Eigenvalues within this distance of 1 count as the background mode.
UNIT_TOL = 1e-6

#: Eigenvalues below this fraction of the largest modulus get zero modes
#: (the exact-mode projection divides by the eigenvalue).
ZERO_TOL_FACTOR = 1e-10

#: Eigenvalue moduli within ``TIE_TOL * max |lam|`` below the first of their
#: group tie and are ordered by angle (see ``_eigen_order``), so rounding
#: cannot swap a conjugate pair.
TIE_TOL = 1e-12

#: A shifted pair with ``n >= TALL_FACTOR * (T + 1)`` rows is fitted in the
#: coordinates of one Householder QR of its trajectory, taken on its first
#: fit and kept (see ``SnapshotPair._factor``). The QR costs about as much as
#: an SVD without singular vectors, so it pays once ``n`` is about twice
#: ``T + 1`` even for a pair fitted once. At T = 47 (NumPy 2.4, OpenBLAS
#: on one thread, as every fit runs; see ``linalg._one_blas_thread``) the
#: QR and the (T+1) x T SVD take 0.53 to 0.65 ms against 0.50 to 0.61 ms for
#: the n x T SVD at n = 60 to 150, 0.61 ms against 0.68 ms at n = 200, and
#: 4.0 ms against 7.2 ms at n = 4096.
TALL_FACTOR = 2

#: ``companion_dmd`` refuses trajectories with more snapshot pairs than this.
#: Its T x T companion eigensolve costs O(T^3): about 1 s at T = 1000 and
#: 3.2 s at T = 1500 on 2 cores.
COMPANION_MAX_T = 1000

_OVERFLOW = "the reduced operator overflows: X2 is too large for the smallest kept singular value of X1"


def _read_only(M) -> np.ndarray:
    M.flags.writeable = False
    return M


@dataclass(frozen=True)
class SnapshotPair:
    """One-step-shifted snapshot blocks of a measurement sequence.

    A pair holds a read-only copy of its data, so what a fit computes from it
    stays valid for the next fit. Shifted blocks (``X2[:, :-1]`` equal to
    ``X1[:, 1:]``, as from ``split_snapshots``) are kept as one copy of their
    trajectory, of which ``X1`` and ``X2`` are views; a tall one is fitted
    through one kept QR of it (see ``_factor``). Other blocks are copied one
    by one. A replaced, copied or unpickled pair is built, and checked, again.
    """

    X1: np.ndarray
    X2: np.ndarray
    _trajectory: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        X1, X2, X = np.asarray(self.X1), np.asarray(self.X2), None
        if X1.ndim != 2 or X1.shape != X2.shape:
            raise InvalidInput(f"X1 and X2 must share a 2-D shape, got {X1.shape} vs {X2.shape}")
        # Views of one array one column apart are shifted without a look at their values.
        one_array = X1.strides == X2.strides and X2.ctypes.data == X1.ctypes.data + X1.strides[1]
        if X1.dtype == X2.dtype and (one_array or np.array_equal(X2[:, :-1], X1[:, 1:])):
            X = _read_only(np.concatenate([X1, X2[:, -1:]], axis=1))
            X1, X2 = X[:, :-1], X[:, 1:]
        else:
            X1, X2 = _read_only(np.array(X1)), _read_only(np.array(X2))
        if not (np.all(np.isfinite(X1)) and np.all(np.isfinite(X2))):
            raise InvalidInput("snapshot matrices contain non-finite entries")
        object.__setattr__(self, "X1", X1)
        object.__setattr__(self, "X2", X2)
        object.__setattr__(self, "_trajectory", X)

    def __reduce__(self):
        return SnapshotPair, (self.X1, self.X2)  # without the kept QR

    @property
    def n(self) -> int:
        return self.X1.shape[0]

    @property
    def T(self) -> int:
        return self.X1.shape[1]

    @functools.cached_property
    def _factor(self):
        """``mu1``, the column mean of ``X1``, and the (T+2) x (T+2) Householder R factor of ``[X - mu1 1^T, mu1]``.

        ``X`` is the trajectory of a shifted pair. Taken on the pair's first
        tall fit and kept, so every fit of the pair shares one QR (see
        ``_coordinates``). Raises InvalidInput where the factor is
        non-finite, as when the column norms overflow.
        """
        X, X1 = self._trajectory, self.X1
        with np.errstate(over="ignore", invalid="ignore"):
            mu1 = X1.mean(axis=1)
            if not np.all(np.isfinite(mu1)):  # the sum overflows before the column norms do
                mu1 = (X1 / X1.shape[1]).sum(axis=1)
            Y = np.empty((X.shape[0], X.shape[1] + 1), dtype=np.result_type(X, mu1))
            np.subtract(X, mu1[:, None], out=Y[:, :-1])
        Y[:, -1] = mu1
        R = np.linalg.qr(Y, mode="r")
        if not np.all(np.isfinite(R)):
            raise InvalidInput("the snapshot matrices are too large: their QR coordinates are non-finite")
        return mu1, R


@dataclass(frozen=True)
class DmdModel:
    """Eigenvalues, unit-norm modes, and initial-snapshot amplitudes."""

    eigenvalues: np.ndarray
    modes: np.ndarray
    amplitudes: np.ndarray
    method: str
    rank_used: int


@dataclass(frozen=True)
class CenteredDmdModel:
    """Centered decomposition plus the affine term it is equivalent to."""

    base: DmdModel
    bias: np.ndarray
    fixed_point: np.ndarray | None


@dataclass(frozen=True)
class CompanionModel:
    """Companion-matrix regression of the last snapshot on the earlier ones."""

    c_coeffs: np.ndarray
    companion_eigenvalues: np.ndarray
    residual_norm: float


def _companion_matrix(c) -> np.ndarray:
    T = c.shape[0]
    C = np.zeros((T, T), dtype=c.dtype)
    C[np.arange(1, T), np.arange(T - 1)] = 1.0
    C[:, -1] = c
    return C


@dataclass(frozen=True)
class FrequencyModel:
    """Decomposition after projecting out known fixed-frequency content."""

    base: DmdModel
    fixed_lambdas: np.ndarray
    B: np.ndarray


def split_snapshots(X) -> SnapshotPair:
    """Split an n x (T+1) trajectory into the shifted pair (X1, X2), views of one read-only copy of ``X``."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] < 2:
        raise InvalidInput(f"need an n x (T+1) matrix with T+1 >= 2, got shape {X.shape}")
    return SnapshotPair(X[:, :-1], X[:, 1:])


def canonicalize_mode(v, tol: float = 1e-10):
    """Scale a mode, or each column of a matrix of modes, to unit 2-norm with real positive leading entry.

    Returns the canonical mode(s) and the complex factor ``s`` (one per
    column) with ``v = s * canonical``. A zero mode is returned unchanged,
    with factor 1.
    """
    v = np.asarray(v, dtype=complex)
    M = v.reshape(v.shape[0], -1)
    norm = np.linalg.norm(M, axis=0)
    lead = M[np.argmax(np.abs(M) > tol * norm, axis=0), np.arange(M.shape[1])]  # first entry above tol
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(norm > 0.0, norm * (lead / np.abs(lead)), 1.0)
    return v / s, (s if v.ndim == 2 else s[0])


def _fit_amplitudes(modes, x0):
    """Least-squares fit of the initial snapshot onto nonzero mode columns."""
    norms = np.linalg.norm(modes, axis=0)
    active = norms > 0
    amps = np.zeros(modes.shape[1], dtype=complex)
    if np.any(active):
        sol, *_ = np.linalg.lstsq(modes[:, active], np.asarray(x0, dtype=complex), rcond=None)
        amps[active] = sol
    return amps


def _coordinates(data, centered: bool):
    """Coordinates of a pair, shifted by ``mu1`` when ``centered``, in an orthonormal basis ``Q`` of its columns.

    ``data`` is a SnapshotPair or a tuple ``(X1, X2)`` of (R, n, T) stacks of
    pairs. Returns ``C1``, ``C2``, ``cs``, ``Y2`` and ``mu1``, the column mean
    of ``X1`` (None, with ``cs``, unless ``centered``), with
    ``Y1 = X1 - s 1^T = Q C1``, ``Y2 = X2 - s 1^T = Q C2`` and ``cs = Q^H s``
    for the shift ``s = mu1`` (0 unless ``centered``). A tall shifted pair
    (``n >= TALL_FACTOR * (T + 1)``) reads both kinds from its one kept QR
    of ``[X - mu1 1^T, mu1]`` (see ``SnapshotPair._factor``), and ``Q`` is
    never formed:
    - centered, from the (T+1)-row coordinates of the shifted trajectory and
      of ``mu1`` projected on their span; ``Y2`` is formed for the fit's lift
      and not kept;
    - uncentered, from ``R[:, :T+1] + R[:, T+1] 1^T`` over all T + 2 rows:
      the columns of ``X1 - mu1 1^T`` sum to zero, so ``mu1`` need not lie in
      the span of the shifted trajectory, and the last row of ``R`` is not
      rounding.
    Any other pair, and stacks, are their own coordinates (``Q = I``). When
    centered, a shifted pair, or a stack whose blocks are shifted
    (``X2[..., :-1]`` equals ``X1[..., 1:]``), makes one shifted copy of its
    trajectories and returns both blocks as views into it. Wide pairs
    (``n < T``) are factored through their transpose, so the one SVD is
    T x n (see ``linalg._svd``). A fit needs ``U_r^H`` only on vectors in
    the range of the data, where it equals ``u_r^H Q^H`` with ``u_r`` from
    the SVD of ``C1``. The shift by the column means makes rounding relative
    to the fluctuations rather than to a column offset.
    """
    X1, X2, X = (*data, None) if isinstance(data, tuple) else (data.X1, data.X2, data._trajectory)
    n, T = X1.shape[-2:]
    if X is not None and n >= TALL_FACTOR * (T + 1):
        mu1, R = data._factor
        if centered:
            return R[: T + 1, :T], R[: T + 1, 1 : T + 1], R[: T + 1, -1], X2 - mu1[:, None], mu1
        C = R[:, : T + 1] + R[:, -1:]
        return C[:, :T], C[:, 1:], None, X2, None
    if not centered:
        return X1, X2, None, X2, None
    mu1 = X1.mean(axis=-1)
    if X is not None:
        Y = X - mu1[:, None]
    elif isinstance(data, tuple) and np.array_equal(X2[..., :-1], X1[..., 1:]):
        Y = np.concatenate([X1, X2[..., -1:]], axis=-1, dtype=np.result_type(X1, mu1))
        Y -= mu1[..., None]
    else:
        Y2 = X2 - mu1[..., None]
        return X1 - mu1[..., None], Y2, mu1, Y2, mu1
    return Y[..., :T], Y[..., 1:], mu1, Y[..., 1:], mu1


def _reduce(C1, C2, r: int | None, rel_tol: float, removed=None, scale=0.0):
    """SVD of ``C1`` and the reduced operator: ``u_r``, ``W = V_r Sigma_r^-1``, ``CW`` and ``Atilde = u_r^H CW``.

    Takes the coordinates of one pair or an (R, m, T) stack of pairs. ``CW``
    is the fitted second block times ``W``: the coordinates of the fit's
    ``Z``. With ``removed = (P, H)`` that block is ``C2 - P H`` for a rank-k
    ``P H`` (a projection), and ``CW = C2 W - P (H W)``, so
    ``C2 - P H`` is never formed. ``H W`` vanishes up to rounding, but that
    rounding grows with the condition number of ``C1``, so the second term is
    kept. ``r`` defaults to the rank rule of a single pair; a stack needs
    ``r`` and raises RankTooHigh if any slice has fewer than ``r`` singular
    values above ``rel_tol * max(sigma_max, scale)`` (see ``linalg._rank``).
    Raises InvalidInput when ``Atilde`` is not finite (badly scaled data).
    """
    if r is None and C1.ndim > 2:
        raise InvalidInput("a stack of snapshot pairs needs an explicit rank")
    u, s, Vt = _truncated_svd(C1, rel_tol, r, scale)
    if s.shape[-1] == 0:
        raise InvalidInput("no singular value lies above rel_tol * sigma_max (is the data all zero?)")

    W = Vt.conj().swapaxes(-1, -2) * _inverse_singular_values(s)[..., None, :]  # V_r Sigma_r^-1, (R x) T x r
    with np.errstate(over="ignore", invalid="ignore"):
        CW = C2 @ W
        if removed is not None:
            P, H = removed
            CW = CW - P @ (H @ W)
        Atilde = u.conj().swapaxes(-1, -2) @ CW
    if not np.all(np.isfinite(Atilde)):
        raise InvalidInput(_OVERFLOW)
    return u, W, CW, Atilde


def _svd_fit(C1, C2, lift, r: int | None, rel_tol: float, method: str, removed=None, scale=0.0):
    """The one SVD of every fit: the model, ``u_r``, ``Z`` and ``Atilde = u_r^H C2 W``.

    ``C1`` and ``C2`` less ``removed`` are coordinates of the fitted pair
    (see ``_reduce``, which also takes the rank rule's ``scale``), and
    ``lift(W)`` forms the n-space ``Z = X2 W`` of that pair
    (``W = V_r Sigma_r^-1``) from the caller's data. After the SVD the fit
    stays in coordinates: the modes ``Z V / lambda``, canonicalized as one
    matrix, are its only n-space lift. The amplitudes are fitted on the
    modes' coordinates ``CW V / lambda`` (scaled alike) against ``C1[:, 0]``,
    the first snapshot of the fitted pair, so a tall pair's least-squares
    fit has T + 1 or T + 2 rows, not n. The rank-``r`` operator
    ``X2 X1_r^+`` is ``Z U_r^H``; callers keep it factored, never n x n.
    """
    u, W, CW, Atilde = _reduce(C1, C2, r, rel_tol, removed, scale)
    with np.errstate(over="ignore", invalid="ignore"):
        Z = lift(W)
    if not np.all(np.isfinite(Z)):
        raise InvalidInput(_OVERFLOW)
    r = Atilde.shape[0]
    lams, V = np.linalg.eig(Atilde)
    order = _eigen_order(lams)
    lams, V = lams[order], V[:, order]

    # Near-zero eigenvalues get zero modes (the projection divides by lambda).
    mod = np.abs(lams)
    keep = (mod > 0.0) & (mod >= ZERO_TOL_FACTOR * mod.max())
    V = np.where(keep, V, 0.0) / np.where(keep, lams, 1.0)
    modes, scale = canonicalize_mode((V.T @ Z.T).T)  # column-major: each column is divided along contiguous memory
    amps = _fit_amplitudes(CW @ V / scale, C1[:, 0])
    return DmdModel(lams, modes, amps, method, r), u, Z, Atilde


def _eigen_order(lams) -> np.ndarray:
    """The order of ``lams`` by descending modulus, then ascending angle among moduli that tie.

    Moduli tie with the largest of their group if they lie within
    ``TIE_TOL * max |lam|`` of it; the next modulus below starts a group.
    """
    mod = np.abs(lams)
    tol = TIE_TOL * mod.max()
    by_mod = np.argsort(-mod, kind="stable")
    tops, top = [], np.inf
    for m in mod[by_mod].tolist():
        if top - m > tol:
            top = m
        tops.append(top)
    first = np.empty_like(mod)  # the first modulus of each one's group
    first[by_mod] = tops
    return np.lexsort((np.angle(lams), -first))


def _frequency_basis(lams, T: int, real: bool):
    """An orthonormal basis ``Q`` of the row space of the Vandermonde matrix ``Lt``, and ``(Lt Q)^-1``.

    ``Lt`` is k x T, row i = ``lams[i]**(0..T-1)``, and ``Lt^+ = Q (Lt Q)^-1``.
    A set of real lams gives real powers, and a real ``Q`` and ``(Lt Q)^-1``
    from one QR of ``Lt^T``. ``Q`` is also real, from one QR of
    ``[Re lam^t, Im lam^t]``, for real data (``real``) and a conjugate-closed
    ``lams``, so the projected data stay real; otherwise it comes from one QR
    of ``Lt^H``. Raises InvalidInput, naming the two closest lams, where
    ``Lt Q`` is singular at the rank rule's tolerance (1-norm condition
    number above ``1 / EXACT_TOL``).
    """
    complex_lams = bool(np.any(lams.imag))
    Lt = vandermonde(lams if complex_lams else lams.real, T).T
    if real and complex_lams and np.array_equal(np.sort_complex(lams), np.sort_complex(lams.conj())):
        Q = np.linalg.qr(np.vstack([Lt[lams.imag >= 0].real, Lt[lams.imag > 0].imag]).T)[0]
    else:
        Q = np.linalg.qr(Lt.conj().T)[0]
    LtQ = Lt @ Q
    try:
        inv = np.linalg.inv(LtQ)
    except np.linalg.LinAlgError:
        inv = np.full_like(LtQ, np.inf)
    if not np.linalg.norm(LtQ, 1) * np.linalg.norm(inv, 1) * EXACT_TOL < 1.0:
        i, j = divmod(int(np.argmin(np.abs(lams[:, None] - lams) + np.diag(np.full(lams.size, np.inf)))), lams.size)
        raise InvalidInput(f"fixed_lambdas {lams[i]} and {lams[j]} are too close to tell apart over {T} snapshots")
    return Q, inv


def _projected_fit(data, lams, r: int | None, rel_tol: float, method: str | None = None):
    """DMD of a pair, or eigenvalues of a stack, with the row space of ``Lt`` over ``lams`` projected out.

    ``data`` is a SnapshotPair, or without a ``method`` a tuple ``(X1, X2)``
    of (R, n, T) stacks. Both blocks are right-multiplied by ``I - Q Q^H``
    (see ``_frequency_basis``); centering is this at ``lams = [1]``. With 1
    among ``lams`` the pair is first shifted by ``mu1``, the column mean of
    ``X1``: as ``1^T (I - Q Q^H) = 0``, the projection is unchanged and its
    rounding is relative to the fluctuations, not to a column offset. The
    rank rule then sees the shifted data at the scale of the data before the
    shift, ``max(sigma_max(C1p), ||mu1|| sqrt(T))``, so the rounding of the
    offset that the input carries is not counted as rank. In coordinates
    (see ``_coordinates``) ``C1`` is projected in the buffer of
    ``(C1 Q) Q^H``, and ``C2`` only in r-space, as the removed term
    ``(C2 Q, Q^H)`` of ``_reduce``. Without a ``method`` returns
    ``eigvals(Atilde)`` of a pair or a stack; with one, the model with
    ``Z = Y2 (W - Q (Q^H W))`` (the vanishing ``Q^H W`` keeps ``Z`` accurate
    when the removed content dominates ``X2``), ``Z``, ``Atilde``,
    ``B = (X2 - Z U_r^H X1) Lt^+`` and ``U_r^H B``, from
    ``X Lt^+ = (X Q) (Lt Q)^-1`` and ``U_r^H X Q = u_r^H (C Q + cs 1^T Q)``.
    """
    X1, X2 = data if isinstance(data, tuple) else (data.X1, data.X2)
    Q, LtQ_inv = _frequency_basis(lams, X1.shape[-1], not (np.iscomplexobj(X1) or np.iscomplexobj(X2)))
    Qh = Q.conj().T
    with np.errstate(over="ignore", invalid="ignore"):
        C1, C2, cs, Y2, mu1 = _coordinates(data, bool(np.any(lams == 1.0)))
        # Q Q^H 1 = 1 when shifted: no row of Q is zero, so a non-finite shifted C shows in C Q.
        C1Q, C2Q = C1 @ Q, C2 @ Q
        scale = 0.0 if mu1 is None else np.linalg.norm(mu1, axis=-1)[..., None] * np.sqrt(X1.shape[-1])
    if not (np.all(np.isfinite(C1Q)) and np.all(np.isfinite(C2Q))):
        raise InvalidInput("the shifted snapshot matrices or their fixed-frequency content are non-finite")
    C1p = C1Q @ Qh
    np.subtract(C1, C1p, out=C1p)  # C1 - (C1 Q) Q^H, in the buffer of (C1 Q) Q^H
    if method is None:
        return np.linalg.eigvals(_reduce(C1p, C2, r, rel_tol, (C2Q, Qh), scale)[3])
    base, u, Z, Atilde = _svd_fit(C1p, C2, lambda W: Y2 @ (W - Q @ (Qh @ W)), r, rel_tol, method, (C2Q, Qh), scale)
    uC1Q, uC2Q = (u.conj().T @ (CQ if cs is None else CQ + np.outer(cs, Q.sum(axis=0))) for CQ in (C1Q, C2Q))
    with np.errstate(over="ignore", invalid="ignore"):
        B = (X2 @ Q - Z @ uC1Q) @ LtQ_inv
    if not np.all(np.isfinite(B)):
        raise InvalidInput("the snapshot matrices are too large: the forcing coefficients are non-finite")
    return base, Z, Atilde, B, (uC2Q - Atilde @ uC1Q) @ LtQ_inv


def _eigenvalues(X1, X2, r: int, centered: bool = False) -> np.ndarray:
    """Eigenvalues of the rank-``r`` DMD operator, without modes or amplitudes.

    ``X1`` and ``X2`` are one n x T pair or (R, n, T) stacks of pairs, fitted
    on themselves; with ``centered`` each pair is centered as in
    ``centered_dmd``. Returns ``eigvals(Atilde)`` in LAPACK order, shape (r,)
    or (R, r): up to order, the ``eigenvalues`` of ``exact_dmd`` or of
    ``centered_dmd(...).base`` at the same rank.
    """
    with _one_blas_thread():
        if centered:
            return _projected_fit((X1, X2), np.ones(1), r, EXACT_TOL)
        return np.linalg.eigvals(_reduce(X1, X2, r, EXACT_TOL)[3])


def exact_dmd(pair: SnapshotPair, r: int | None = None, rel_tol: float = EXACT_TOL) -> DmdModel:
    """SVD-based DMD of a snapshot pair, truncated at rank ``r``.

    Defaults to the numerically exact rank of ``X1``. Modes are the exact
    modes (projection of the reduced eigenvectors through ``X2``), scaled to
    unit norm; near-zero eigenvalues get zero modes.
    """
    with _one_blas_thread():
        C1, C2 = _coordinates(pair, False)[:2]
        return _svd_fit(C1, C2, lambda W: pair.X2 @ W, r, rel_tol, "exact")[0]


def centered_dmd(
    pair: SnapshotPair,
    r: int | None = None,
    rel_tol: float = EXACT_TOL,
) -> CenteredDmdModel:
    """DMD on column-centered snapshots, with the equivalent affine term.

    Centering is frequency subtraction at lambda = 1 (see ``_projected_fit``):
    the fit's ``B`` is the bias, ``mu2 - Z U_r^H mu1``. When no eigenvalue
    lies within ``UNIT_TOL`` of 1, the fixed point is solved for as well, by
    Woodbury as an r x r solve: ``bias + Z (I_r - Atilde)^-1 U_r^H bias``.
    """
    if pair.T < 2:
        raise InvalidInput("centered DMD needs at least 2 snapshot columns")
    with _one_blas_thread():
        base, Z, Atilde, B, UB = _projected_fit(pair, np.ones(1), r, rel_tol, "centered")
        fixed_point = None
        if np.min(np.abs(base.eigenvalues - 1.0)) > UNIT_TOL:
            fixed_point = B[:, 0] + Z @ np.linalg.solve(np.eye(base.rank_used) - Atilde, UB[:, 0])
    return CenteredDmdModel(base, B[:, 0], fixed_point)


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


def companion_dmd(X) -> CompanionModel:
    """Companion-matrix DMD of a full trajectory.

    Regresses the final snapshot on the earlier ones; the companion
    eigenvalues come from the resulting T x T companion matrix, so the
    trajectory may have at most ``COMPANION_MAX_T`` snapshot pairs.
    """
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] < 2:
        raise InvalidInput(f"need an n x (T+1) matrix, got shape {X.shape}")
    if X.shape[1] - 1 > COMPANION_MAX_T:
        raise InvalidInput(
            f"companion DMD is O(T^3) and accepts at most {COMPANION_MAX_T} snapshot pairs, got {X.shape[1] - 1}"
        )
    X1 = X[:, :-1]
    x_last = X[:, -1]
    c = pinv(X1) @ x_last
    eigs = np.linalg.eigvals(_companion_matrix(c))
    return CompanionModel(c, eigs, float(np.linalg.norm(x_last - X1 @ c)))


def frequency_subtracted_dmd(
    pair: SnapshotPair,
    fixed_lambdas,
    r: int | None = None,
    rel_tol: float = EXACT_TOL,
) -> FrequencyModel:
    """DMD after projecting known fixed-frequency content out of the data.

    Right-multiplies both snapshot blocks by the orthogonal projector that
    annihilates the row space of the Vandermonde matrix ``Lt`` over
    ``fixed_lambdas``, fits exact DMD on the projected pair, and recovers the
    forcing coefficient matrix ``B = (X2 - Z U_r^H X1) Lt^+`` (see
    ``_projected_fit``). At ``fixed_lambdas = [1]`` this is ``centered_dmd``,
    and ``B`` is its bias. For a set without 1, a column offset costs
    accuracy as it does for ``exact_dmd``: the data keep the offset's
    rounding, and on 64 x 1999 forced data the eigenvalues moved by 1.7e-7 at
    an offset 1e6 times the fluctuations. Adding 1 to the set centers the
    data, and the same fit moved them by 8.6e-11.
    """
    lams = np.atleast_1d(np.asarray(fixed_lambdas, dtype=complex))
    if lams.size == 0:
        raise InvalidInput("fixed_lambdas must be nonempty")
    if lams.size >= pair.T:
        raise InvalidInput(f"need fewer fixed frequencies ({lams.size}) than snapshots ({pair.T})")

    with _one_blas_thread():
        base, _, _, B, _ = _projected_fit(pair, lams, r, rel_tol, "freq_subtracted")
    return FrequencyModel(base, lams, B)


def _modal_propagate(model: DmdModel, x0, steps: int) -> np.ndarray:
    amps = _fit_amplitudes(model.modes, x0)
    powers = model.eigenvalues[None, :] ** np.arange(steps)[:, None]  # steps x r
    return model.modes @ (powers * amps[None, :]).T  # n x steps


def _realify(X, rel_tol: float = 1e-8):
    scale = np.max(np.abs(X)) or 1.0
    if np.max(np.abs(X.imag)) < rel_tol * scale:
        return X.real
    return X


def reconstruct(model, x1, steps: int) -> np.ndarray:
    """Forecast ``steps`` snapshots from ``x1`` using the modal expansion.

    Amplitudes are fit by least squares against the initial snapshot only.
    Centered models forecast about the fixed point when it exists; otherwise
    the homogeneous modal part is combined with the bias accumulated through
    the modal propagator, ``s_k = b + Phi ((sum_{j=1}^{k-1} lambda^j) * Phi^+ b)``
    at step k, from one cumulative sum of powers.
    """
    if steps < 1:
        raise InvalidInput("steps must be >= 1")
    x1 = np.asarray(x1)

    if isinstance(model, DmdModel):
        return _realify(_modal_propagate(model, x1, steps))

    if isinstance(model, CenteredDmdModel):
        base = model.base
        if model.fixed_point is not None:
            c = model.fixed_point
            out = _modal_propagate(base, x1 - c, steps) + np.asarray(c, dtype=complex)[:, None]
            return _realify(out)
        # Background eigenvalue present: propagate the homogeneous part
        # modally and accumulate the bias through the modal propagator.
        out = _modal_propagate(base, x1, steps)
        powers = base.eigenvalues[None, :] ** np.arange(steps)[:, None]
        powers[0] = 0.0
        sums = np.cumsum(powers, axis=0)[:-1]  # row k - 1: sum_{j=1}^{k-1} lambda^j
        out[:, 1:] += model.bias[:, None] + base.modes @ (sums * (pinv(base.modes) @ model.bias)).T
        return _realify(out)

    raise InvalidInput(f"unsupported model type {type(model).__name__}")


def consistency_residual(pair: SnapshotPair) -> float:
    """Frobenius norm of ``X2 (I - X1^+ X1)``; zero iff the linear fit is exact.

    ``X1^+ X1 = V V^H`` for the right singular vectors ``V`` that ``pinv``
    keeps, so no T x T matrix is formed.
    """
    Vt = _truncated_svd(pair.X1, EXACT_TOL)[2]
    return float(np.linalg.norm(pair.X2 - (pair.X2 @ Vt.conj().T) @ Vt))
