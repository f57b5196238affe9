"""Decomposition variants and diagnostics.

Exact (SVD-based) DMD, DMD on centered data, the companion-matrix
formulation, fixed-frequency subtraction, the explicit affine solve, modal
reconstruction, and the linear-consistency residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInput
from .linalg import EXACT_TOL, _inverse_singular_values, _one_blas_thread, _truncated_svd, pinv, vandermonde

#: Eigenvalues within this distance of 1 count as the background mode.
UNIT_TOL = 1e-6

#: Eigenvalues below this fraction of the largest modulus get zero modes
#: (the exact-mode projection divides by the eigenvalue).
ZERO_TOL_FACTOR = 1e-10

#: A shifted pair with ``n >= TALL_FACTOR * (T + 1)`` rows is fitted in the
#: coordinates of one Householder QR of its trajectory (see ``_coordinates``).
#: The QR costs about as much as an SVD without singular vectors, so it pays
#: once ``n`` is about twice ``T + 1``. At T = 47 (NumPy 2.4, OpenBLAS on
#: one thread, as every fit runs; see ``linalg._one_blas_thread``) the
#: QR and the (T+1) x T SVD take 0.53 to 0.65 ms against 0.50 to 0.61 ms for
#: the n x T SVD at n = 60 to 150, 0.61 ms against 0.68 ms at n = 200, and
#: 4.0 ms against 7.2 ms at n = 4096.
TALL_FACTOR = 2

#: ``companion_dmd`` refuses trajectories with more snapshot pairs than this.
#: Its T x T companion eigensolve costs O(T^3): about 1 s at T = 1000 and
#: 3.2 s at T = 1500 on 2 cores.
COMPANION_MAX_T = 1000

_OVERFLOW = "the reduced operator overflows: X2 is too large for the smallest kept singular value of X1"


@dataclass(frozen=True)
class SnapshotPair:
    """One-step-shifted snapshot blocks of a measurement sequence."""

    X1: np.ndarray
    X2: np.ndarray

    def __post_init__(self):
        X1 = np.asarray(self.X1)
        X2 = np.asarray(self.X2)
        if X1.ndim != 2 or X1.shape != X2.shape:
            raise InvalidInput(f"X1 and X2 must share a 2-D shape, got {X1.shape} vs {X2.shape}")
        if not (np.all(np.isfinite(X1)) and np.all(np.isfinite(X2))):
            raise InvalidInput("snapshot matrices contain non-finite entries")
        object.__setattr__(self, "X1", X1)
        object.__setattr__(self, "X2", X2)

    @property
    def n(self) -> int:
        return self.X1.shape[0]

    @property
    def T(self) -> int:
        return self.X1.shape[1]


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
    """Split an n x (T+1) trajectory into the shifted pair (X1, X2)."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] < 2:
        raise InvalidInput(f"need an n x (T+1) matrix with T+1 >= 2, got shape {X.shape}")
    return SnapshotPair(X[:, :-1], X[:, 1:])


def canonicalize_mode(v, tol: float = 1e-10):
    """Scale a mode to unit 2-norm with real positive leading entry.

    Returns the canonical mode and the complex factor ``s`` with
    ``v = s * canonical``. The zero vector is returned unchanged.
    """
    v = np.asarray(v, dtype=complex)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return v.copy(), 1.0
    idx = np.flatnonzero(np.abs(v) > tol * norm)
    phase = v[idx[0]] / abs(v[idx[0]]) if idx.size else 1.0
    return v / (norm * phase), norm * phase


def _fit_amplitudes(modes, x0):
    """Least-squares fit of the initial snapshot onto nonzero mode columns."""
    norms = np.linalg.norm(modes, axis=0)
    active = norms > 0
    amps = np.zeros(modes.shape[1], dtype=complex)
    if np.any(active):
        sol, *_ = np.linalg.lstsq(modes[:, active], np.asarray(x0, dtype=complex), rcond=None)
        amps[active] = sol
    return amps


def _coordinates(X1, X2, shift=None):
    """Coordinates of a pair, shifted by an n-vector ``s``, in an orthonormal basis ``Q`` of its columns.

    Returns ``C1``, ``C2``, ``cs`` and ``Y2`` with ``Y1 = X1 - s 1^T = Q C1``,
    ``Y2 = X2 - s 1^T = Q C2`` and ``cs = Q^H s``. ``s`` is ``shift``, or 0
    (``cs`` None) without one. The blocks of a shifted trajectory
    (``X2[:, :-1]`` equals ``X1[:, 1:]``) share T - 1 columns. A tall one
    (``n >= TALL_FACTOR * (T + 1)``) takes one Householder QR of
    ``[Y1, y_T, s]``, which gives (T+1)-row coordinates of both blocks and of
    ``s`` projected on their span, and ``Q`` is never formed. Any other pair,
    and (R, n, T) stacks of pairs (``shift`` then (R, n)), are their own
    coordinates (``Q = I``); a shifted one makes one shifted copy of its
    trajectory and returns both blocks as views into it. Wide pairs
    (``n < T``) are factored through their conjugate transpose, so the one
    SVD is T x n (see ``linalg._svd``). A fit needs ``U_r^H`` only on vectors
    in the range of the data, where it equals ``u_r^H Q^H`` with ``u_r`` from
    the SVD of ``C1``. A shift near the column means makes the QR's rounding
    relative to the fluctuations rather than to the offset.
    """
    n, T = X1.shape[-2:]
    tall = X1.ndim == 2 and n >= TALL_FACTOR * (T + 1)
    shifted = (tall or shift is not None) and np.array_equal(X2[..., :-1], X1[..., 1:])
    if not shifted:
        if shift is None:
            return X1, X2, None, X2
        Y2 = X2 - shift[..., None]
        return X1 - shift[..., None], Y2, shift, Y2
    if not tall:
        Y = np.concatenate([X1, X2[..., -1:]], axis=-1, dtype=np.result_type(X1, X2, shift))
        Y -= shift[..., None]
        return Y[..., :-1], Y[..., 1:], shift, Y[..., 1:]
    if shift is None:
        Y = np.column_stack([X1, X2[:, -1]])
    else:
        Y = np.column_stack([X1, X2[:, -1], shift])
        Y[:, :-1] -= shift[:, None]
    R = np.linalg.qr(Y, mode="r")[: T + 1]
    if not np.all(np.isfinite(R)):
        raise InvalidInput("the snapshot matrices are too large: their QR coordinates are non-finite")
    cs = None if shift is None else R[:, -1]
    return R[:, :T], R[:, 1 : T + 1], cs, (X2 if shift is None else Y[:, 1 : T + 1])


def _centered_coordinates(X1, X2, mu1):
    """Coordinates of a pair shifted by ``mu1``, the column mean of ``X1``, and the row means that center them.

    With ``Y = X - mu1 1^T = Q C`` (see ``_coordinates``) and ``d`` the row
    means of ``C``, returns ``Cb1 = C1 - d1 1^T``, ``C2``, the pair
    ``(d2, 1^T)`` whose product centers ``C2`` (see ``_reduce``; ``Cb2`` is
    never formed), ``c1``, ``c2`` (``c = d + Q^H mu1``, the coordinates of
    the column means of ``X``) and ``Y2``. ``Y = X - mu1 1^T`` is exact for
    entries near the mean, so an offset much larger than the fluctuations
    costs no accuracy. Takes one pair or (R, n, T) stacks, with ``mu1`` then
    (R, n).
    """
    C1, C2, cmu, Y2 = _coordinates(X1, X2, shift=mu1)
    d1, d2 = C1.mean(axis=-1), C2.mean(axis=-1)
    centering = (d2[..., None], np.ones((1, C2.shape[-1])))
    return C1 - d1[..., None], C2, centering, d1 + cmu, d2 + cmu, Y2


def _reduce(C1, C2, r: int | None, rel_tol: float, removed=None):
    """SVD of ``C1`` and the reduced operator: ``u_r``, ``W = V_r Sigma_r^-1`` and ``Atilde = u_r^H C2 W``.

    Takes the coordinates of one pair or an (R, m, T) stack of pairs. With
    ``removed = (P, H)`` the fitted second block is ``C2 - P H`` for a rank-k
    ``P H`` (a centering or a projection): ``Atilde`` is then
    ``u_r^H (C2 W) - (u_r^H P)(H W)``, and ``C2 - P H`` is never formed.
    ``H W`` vanishes up to rounding, but that rounding grows with the
    condition number of ``C1``, so the second term is kept. ``r`` defaults to the rank rule
    of a single pair; a stack needs ``r`` and raises RankTooHigh if any slice
    has fewer than ``r`` singular values above ``rel_tol * sigma_max`` (see
    ``_truncated_svd``). Raises InvalidInput when ``Atilde`` is not finite
    (badly scaled data).
    """
    if r is None and C1.ndim > 2:
        raise InvalidInput("a stack of snapshot pairs needs an explicit rank")
    u, s, Vt = _truncated_svd(C1, rel_tol, r)
    if s.shape[-1] == 0:
        raise InvalidInput("no singular value lies above rel_tol * sigma_max (is the data all zero?)")

    W = Vt.conj().swapaxes(-1, -2) * _inverse_singular_values(s)[..., None, :]  # V_r Sigma_r^-1, (R x) T x r
    uh = u.conj().swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        Atilde = uh @ (C2 @ W)
        if removed is not None:
            P, H = removed
            Atilde = Atilde - (uh @ P) @ (H @ W)
    if not np.all(np.isfinite(Atilde)):
        raise InvalidInput(_OVERFLOW)
    return u, W, Atilde


def _svd_fit(C1, C2, lift, x0, r: int | None, rel_tol: float, method: str, removed=None):
    """The one SVD of every fit: the model, ``u_r``, ``Z`` and ``Atilde = u_r^H C2 W``.

    ``C1`` and ``C2`` less ``removed`` (see ``_reduce``) are coordinates of the
    fitted pair, ``lift(W)`` forms the n-space ``Z = X2 W`` of that pair (``W = V_r Sigma_r^-1``) from the
    caller's data, and ``x0`` is its first snapshot, for the amplitudes. The
    rank-``r`` operator ``X2 X1_r^+`` is ``Z U_r^H``; callers keep it factored,
    never n x n.
    """
    u, W, Atilde = _reduce(C1, C2, r, rel_tol, removed)
    with np.errstate(over="ignore", invalid="ignore"):
        Z = lift(W)
    if not np.all(np.isfinite(Z)):
        raise InvalidInput(_OVERFLOW)
    r = Atilde.shape[0]
    lams, V = np.linalg.eig(Atilde)

    order = np.lexsort((np.angle(lams), -np.abs(lams)))
    lams, V = lams[order], V[:, order]

    max_mod = np.max(np.abs(lams)) if lams.size else 0.0
    modes = np.zeros((Z.shape[0], r), dtype=complex)
    for i, lam in enumerate(lams):
        if max_mod > 0 and np.abs(lam) >= ZERO_TOL_FACTOR * max_mod:
            modes[:, i], _ = canonicalize_mode(Z @ V[:, i] / lam)
    amps = _fit_amplitudes(modes, x0)
    return DmdModel(lams, modes, amps, method, r), u, Z, Atilde


def _eigenvalues(X1, X2, r: int, centered: bool = False) -> np.ndarray:
    """Eigenvalues of the rank-``r`` DMD operator, without modes or amplitudes.

    ``X1`` and ``X2`` are one n x T pair or (R, n, T) stacks of pairs; with
    ``centered`` each pair takes the centered coordinates of ``centered_dmd``.
    Returns ``eigvals(Atilde)`` in LAPACK order, shape (r,) or (R, r): up to
    order, the ``eigenvalues`` of ``exact_dmd`` or of
    ``centered_dmd(...).base`` at the same rank.
    """
    with _one_blas_thread():
        if centered:
            C1, C2, centering = _centered_coordinates(X1, X2, X1.mean(axis=-1))[:3]
            return np.linalg.eigvals(_reduce(C1, C2, r, EXACT_TOL, centering)[2])
        C1, C2 = _coordinates(X1, X2)[:2]
        return np.linalg.eigvals(_reduce(C1, C2, r, EXACT_TOL)[2])


def exact_dmd(pair: SnapshotPair, r: int | None = None, rel_tol: float = EXACT_TOL) -> DmdModel:
    """SVD-based DMD of a snapshot pair, truncated at rank ``r``.

    Defaults to the numerically exact rank of ``X1``. Modes are the exact
    modes (projection of the reduced eigenvectors through ``X2``), scaled to
    unit norm; near-zero eigenvalues get zero modes.
    """
    with _one_blas_thread():
        C1, C2, _, _ = _coordinates(pair.X1, pair.X2)
        return _svd_fit(C1, C2, lambda W: pair.X2 @ W, pair.X1[:, 0], r, rel_tol, "exact")[0]


def centered_dmd(
    pair: SnapshotPair,
    r: int | None = None,
    rel_tol: float = EXACT_TOL,
) -> CenteredDmdModel:
    """DMD on column-centered snapshots, with the equivalent affine term.

    Fits exact DMD on the centered coordinates ``Cb`` of the pair shifted by
    ``mu1``, the column mean of ``X1`` (see ``_centered_coordinates``, which
    also gives ``c``, the coordinates of the column means, and ``Y2 = X2 -
    mu1 1^T``). The operator is ``Z U_r^H`` with ``Z = Y2 W``
    (``W = V_r Sigma_r^-1`` is orthogonal to the ones vector, so this is the
    centered ``Xb2 W``) and ``Atilde = u_r^H Cb2 W``, formed as
    ``u_r^H (C2 W) - (u_r^H d2)(1^T W)`` so that ``Cb2`` is never formed; a
    wide shifted pair is fitted on one shifted copy of its trajectory. The
    bias is ``mu2 - Z (u_r^H c1)``. When no eigenvalue lies within ``UNIT_TOL`` of 1,
    the fixed point is solved for as well, by Woodbury as an r x r solve:
    ``bias + Z (I_r - Atilde)^-1 (u_r^H c2 - Atilde u_r^H c1)``.
    """
    if pair.T < 2:
        raise InvalidInput("centered DMD needs at least 2 snapshot columns")
    with _one_blas_thread():
        with np.errstate(over="ignore", invalid="ignore"):
            mu1, mu2 = pair.X1.mean(axis=1), pair.X2.mean(axis=1)
            Cb1, C2, centering, c1, c2, Y2 = _centered_coordinates(pair.X1, pair.X2, mu1)
        if not all(np.all(np.isfinite(M)) for M in (mu1, mu2, Cb1, C2, centering[0])):
            raise InvalidInput("centered snapshot matrices contain non-finite entries")
        base, u, Z, Atilde = _svd_fit(
            Cb1, C2, lambda W: Y2 @ W, pair.X1[:, 0] - mu1, r, rel_tol, "centered", centering
        )
        uc1 = u.conj().T @ c1
        bias = mu2 - Z @ uc1
        fixed_point = None
        if np.min(np.abs(base.eigenvalues - 1.0)) > UNIT_TOL:
            fixed_point = bias + Z @ np.linalg.solve(np.eye(base.rank_used) - Atilde, u.conj().T @ c2 - Atilde @ uc1)
    return CenteredDmdModel(base, bias, fixed_point)


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


def _frequency_basis(lams, T: int, real: bool):
    """``Q``, ``Qh`` and ``Lt^+`` for the Vandermonde matrix ``Lt`` (k x T, row i = ``lams[i]**(0..T-1)``).

    ``I - Q Qh`` is the orthogonal projector that annihilates the row space of
    ``Lt``. For real data (``real``) and a conjugate-closed ``lams`` that row
    space is spanned by the real vectors ``Re lam^t`` and ``Im lam^t``, so
    ``Q`` is a real orthonormal basis from one QR of a real T x k matrix,
    ``Qh = Q^T``, and the projected data stay real. Otherwise ``Q = Lt^+`` and
    ``Qh = Lt``.
    """
    Lt = vandermonde(lams, T).T
    Lt_pinv = pinv(Lt)
    if not (real and np.array_equal(np.sort_complex(lams), np.sort_complex(lams.conj()))):
        return Lt_pinv, Lt, Lt_pinv
    Q = np.linalg.qr(np.vstack([Lt[lams.imag >= 0].real, Lt[lams.imag > 0].imag]).T)[0]
    return Q, Q.T, Lt_pinv


def frequency_subtracted_dmd(
    pair: SnapshotPair,
    fixed_lambdas,
    r: int | None = None,
    rel_tol: float = EXACT_TOL,
) -> FrequencyModel:
    """DMD after projecting known fixed-frequency content out of the data.

    Right-multiplies both snapshot blocks by the orthogonal projector
    ``I - Q Qh`` that annihilates the row space of the Vandermonde matrix
    ``Lt`` over ``fixed_lambdas`` (see ``_frequency_basis``), fits exact DMD
    on the coordinates of the projected pair (the second block projected only
    in r-space, as ``(C2 W) - (C2 Q)(Qh W)``; see ``_reduce``), and recovers the forcing
    coefficient matrix ``B = (X2 - Z (u_r^H C1)) Lt^+``, with ``u_r`` and
    ``Z = X2 W - (X2 Q)(Qh W)`` from that fit. ``Qh W`` vanishes up to
    rounding, but when the removed content dominates ``X2`` its second term
    is what keeps ``Z`` (and ``B``) accurate. ``B`` is formed as
    ``X2 Lt^+ - Z ((u_r^H C1) Lt^+)``, so the n x T difference is never formed.
    """
    lams = np.atleast_1d(np.asarray(fixed_lambdas, dtype=complex))
    if lams.size == 0:
        raise InvalidInput("fixed_lambdas must be nonempty")
    if len(set(lams.tolist())) != lams.size:
        raise InvalidInput("fixed_lambdas must be distinct")
    if lams.size >= pair.T:
        raise InvalidInput(f"need fewer fixed frequencies ({lams.size}) than snapshots ({pair.T})")

    real = not (np.iscomplexobj(pair.X1) or np.iscomplexobj(pair.X2))
    with _one_blas_thread():
        Q, Qh, Lt_pinv = _frequency_basis(lams, pair.T, real)
        C1, C2, _, _ = _coordinates(pair.X1, pair.X2)
        C1Q, C2Q = C1 @ Q, C2 @ Q
        # Where _coordinates returned the pair itself (it took no QR), X1 @ Q and
        # X2 @ Q are the products just formed.
        X1Q, X2Q = (C1Q, C2Q) if C1 is pair.X1 else (pair.X1 @ Q, pair.X2 @ Q)
        base, u, Z, _ = _svd_fit(
            C1 - C1Q @ Qh,
            C2,
            lambda W: pair.X2 @ W - X2Q @ (Qh @ W),
            pair.X1[:, 0] - X1Q @ Qh[:, 0],
            r,
            rel_tol,
            "freq_subtracted",
            (C2Q, Qh),
        )
        B = pair.X2 @ Lt_pinv - Z @ ((u.conj().T @ C1) @ Lt_pinv)
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
    the homogeneous modal part is combined with a per-step accumulation of
    the bias through the modal propagator.
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
        phi_pinv = pinv(base.modes) if np.any(np.abs(base.modes)) else None
        s = np.zeros(base.modes.shape[0], dtype=complex)
        lam = base.eigenvalues
        for k in range(1, steps):
            s = base.modes @ (lam * (phi_pinv @ s)) + model.bias
            out[:, k] += s
        return _realify(out)

    raise InvalidInput(f"unsupported model type {type(model).__name__}")


def consistency_residual(pair: SnapshotPair) -> float:
    """Frobenius norm of ``X2 (I - X1^+ X1)``; zero iff the linear fit is exact.

    ``X1^+ X1 = V V^H`` for the right singular vectors ``V`` that ``pinv``
    keeps, so no T x T matrix is formed.
    """
    Vt = _truncated_svd(pair.X1, EXACT_TOL)[2]
    return float(np.linalg.norm(pair.X2 - (pair.X2 @ Vt.conj().T) @ Vt))
