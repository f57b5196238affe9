"""Decomposition variants and diagnostics.

Exact (SVD-based) DMD, DMD on centered data, the companion-matrix
formulation, fixed-frequency subtraction, the explicit affine solve, modal
reconstruction, and the linear-consistency residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidInput, RankTooHigh
from .linalg import EXACT_TOL, _inverse_singular_values, effective_rank, pinv, vandermonde

#: Eigenvalues within this distance of 1 count as the background mode.
UNIT_TOL = 1e-6

#: Eigenvalues below this fraction of the largest modulus get zero modes
#: (the exact-mode projection divides by the eigenvalue).
ZERO_TOL_FACTOR = 1e-10


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
    mean1: np.ndarray = field(repr=False, default=None)
    mean2: np.ndarray = field(repr=False, default=None)


@dataclass(frozen=True)
class CompanionModel:
    """Companion-matrix regression of the last snapshot on the earlier ones."""

    c_coeffs: np.ndarray
    companion_eigenvalues: np.ndarray
    residual_norm: float

    def companion_matrix(self) -> np.ndarray:
        return _companion_matrix(self.c_coeffs)


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


def _reduce(X1, X2, r: int | None, rel_tol: float):
    """SVD of ``X1`` and the reduced operator: ``U_r``, ``Z = X2 V_r Sigma_r^-1`` and ``Atilde = U_r^H Z``.

    Takes one n x T pair or an (R, n, T) stack of pairs. ``r`` defaults to the
    number of singular values above ``rel_tol * sigma_max`` of a single pair; a
    stack needs ``r`` and raises RankTooHigh if any slice has fewer than ``r``.
    Raises InvalidInput when ``Z`` or ``Atilde`` is not finite (badly scaled data).
    """
    U, s, Vt = np.linalg.svd(X1, full_matrices=False)
    if r is None and s.ndim > 1:
        raise InvalidInput("a stack of snapshot pairs needs an explicit rank")
    available = int(np.min(np.sum(s > rel_tol * s[..., :1], axis=-1)))
    if r is None:
        r = available
    if r > available:
        raise RankTooHigh(f"requested rank {r} but only {available} singular values above tolerance")
    if r < 1:
        raise InvalidInput("truncation rank must be >= 1 (is the data all zero?)")
    U, s, Vt = U[..., :r], s[..., :r], Vt[..., :r, :]

    with np.errstate(over="ignore", invalid="ignore"):
        Z = X2 @ (Vt.conj().swapaxes(-1, -2) * _inverse_singular_values(s)[..., None, :])  # X2 V Sigma^{-1}, (R x) n x r
        Atilde = U.conj().swapaxes(-1, -2) @ Z
    if not (np.all(np.isfinite(Z)) and np.all(np.isfinite(Atilde))):
        raise InvalidInput("the reduced operator overflows: X2 is too large for the smallest kept singular value of X1")
    return U, Z, Atilde


def _svd_fit(pair: SnapshotPair, r: int | None, rel_tol: float, method: str):
    """The one SVD of every fit: the model, ``U_r``, ``Z = X2 V_r Sigma_r^-1`` and ``Atilde = U_r^H Z``.

    The rank-``r`` operator ``X2 X1_r^+`` is ``Z U_r^H``; callers keep it factored, never n x n.
    """
    U, Z, Atilde = _reduce(pair.X1, pair.X2, r, rel_tol)
    r = Atilde.shape[0]
    lams, W = np.linalg.eig(Atilde)

    order = np.lexsort((np.angle(lams), -np.abs(lams)))
    lams, W = lams[order], W[:, order]

    max_mod = np.max(np.abs(lams)) if lams.size else 0.0
    modes = np.zeros((pair.n, r), dtype=complex)
    for i, lam in enumerate(lams):
        if max_mod > 0 and np.abs(lam) >= ZERO_TOL_FACTOR * max_mod:
            modes[:, i], _ = canonicalize_mode(Z @ W[:, i] / lam)
    amps = _fit_amplitudes(modes, pair.X1[:, 0])
    return DmdModel(lams, modes, amps, method, r), U, Z, Atilde


def _eigenvalues(X1, X2, r: int, centered: bool = False) -> np.ndarray:
    """Eigenvalues of the rank-``r`` DMD operator, without modes or amplitudes.

    ``X1`` and ``X2`` are one n x T pair or (R, n, T) stacks of pairs; with
    ``centered`` each pair is centered by its column means first, as in
    ``centered_dmd``. Returns ``eigvals(Atilde)`` in LAPACK order, shape (r,)
    or (R, r): up to order and rounding, the ``eigenvalues`` of ``exact_dmd``
    or of ``centered_dmd(...).base`` at the same rank.
    """
    if centered:
        X1 = X1 - X1.mean(axis=-1, keepdims=True)
        X2 = X2 - X2.mean(axis=-1, keepdims=True)
    return np.linalg.eigvals(_reduce(X1, X2, r, EXACT_TOL)[2])


def exact_dmd(pair: SnapshotPair, r: int | None = None, rel_tol: float = EXACT_TOL) -> DmdModel:
    """SVD-based DMD of a snapshot pair, truncated at rank ``r``.

    Defaults to the numerically exact rank of ``X1``. Modes are the exact
    modes (projection of the reduced eigenvectors through ``X2``), scaled to
    unit norm; near-zero eigenvalues get zero modes.
    """
    return _svd_fit(pair, r, rel_tol, "exact")[0]


def centered_dmd(
    pair: SnapshotPair,
    r: int | None = None,
    unit_tol: float = UNIT_TOL,
    rel_tol: float = EXACT_TOL,
) -> CenteredDmdModel:
    """DMD on column-centered snapshots, with the equivalent affine term.

    Centers ``X1`` and ``X2`` by their column means and fits exact DMD on the
    centered pair, whose operator is ``Z U_r^H`` (``Z = Xb2 V_r Sigma_r^-1``,
    ``Atilde = U_r^H Z``); the bias is ``mu2 - Z (U_r^H mu1)``. When no
    eigenvalue lies within ``unit_tol`` of 1, the fixed point is solved for as
    well, by Woodbury as an r x r solve: ``bias + Z (I_r - Atilde)^-1 U_r^H bias``.
    """
    if pair.T < 2:
        raise InvalidInput("centered DMD needs at least 2 snapshot columns")
    mu1 = pair.X1.mean(axis=1)
    mu2 = pair.X2.mean(axis=1)
    Xb1 = pair.X1 - mu1[:, None]
    Xb2 = pair.X2 - mu2[:, None]
    base, U, Z, Atilde = _svd_fit(SnapshotPair(Xb1, Xb2), r, rel_tol, "centered")
    bias = mu2 - Z @ (U.conj().T @ mu1)
    fixed_point = None
    if np.min(np.abs(base.eigenvalues - 1.0)) > unit_tol:
        fixed_point = bias + Z @ np.linalg.solve(np.eye(base.rank_used) - Atilde, U.conj().T @ bias)
    return CenteredDmdModel(base, bias, fixed_point, mu1, mu2)


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
    At, *_ = np.linalg.lstsq(Xb1.T, Xb2.T, rcond=EXACT_TOL)
    A = At.T
    return A, mu2 - A @ mu1


def companion_dmd(X) -> CompanionModel:
    """Companion-matrix DMD of a full trajectory.

    Regresses the final snapshot on the earlier ones; the companion
    eigenvalues come from the resulting T x T companion matrix.
    """
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] < 2:
        raise InvalidInput(f"need an n x (T+1) matrix, got shape {X.shape}")
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
    forcing coefficient matrix ``B = (X2 - Z (U_r^H X1)) Lt^+``, with ``U_r``
    and ``Z = X2p V_r Sigma_r^-1`` from that fit.
    """
    lams = np.atleast_1d(np.asarray(fixed_lambdas, dtype=complex))
    if lams.size == 0:
        raise InvalidInput("fixed_lambdas must be nonempty")
    if len(set(lams.tolist())) != lams.size:
        raise InvalidInput("fixed_lambdas must be distinct")
    if lams.size >= pair.T:
        raise InvalidInput(f"need fewer fixed frequencies ({lams.size}) than snapshots ({pair.T})")

    Lt = vandermonde(lams, pair.T).T  # k x T, row i = lam_i^(0..T-1)
    Lt_pinv = pinv(Lt)  # T x k
    X1p = pair.X1 - (pair.X1 @ Lt_pinv) @ Lt
    X2p = pair.X2 - (pair.X2 @ Lt_pinv) @ Lt
    base, U, Z, _ = _svd_fit(SnapshotPair(X1p, X2p), r, rel_tol, "freq_subtracted")
    B = (pair.X2 - Z @ (U.conj().T @ pair.X1)) @ Lt_pinv
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
    """Frobenius norm of ``X2 (I - X1^+ X1)``; zero iff the linear fit is exact."""
    P = pinv(pair.X1) @ pair.X1
    return float(np.linalg.norm(pair.X2 - pair.X2 @ P))
