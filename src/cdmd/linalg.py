"""Dense linear-algebra substrate.

The rank rule that every truncation shares, SVD-backed pseudoinverse,
effective-rank estimation, rectangular Vandermonde construction, the
closed-form pseudoinverse of column-centered data, and the gate that runs
fits on one BLAS thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from pathlib import Path

import numpy as np

from .exceptions import InvalidInput, RankTooHigh

#: Default relative singular-value cutoff for "exact" (noiseless) rank.
EXACT_TOL = 1e-12

RANK_METHODS = ("exact_tol", "optimal_hard_threshold")


@functools.cache
def _openblas_thread_functions():
    """``get()`` and ``set(k)`` of the thread count of NumPy's bundled OpenBLAS, or None.

    Looks for ``scipy_openblas_{get,set}_num_threads64_`` in the libraries
    that NumPy's wheels bundle in ``numpy.libs`` (Linux, Windows) or
    ``numpy/.dylibs`` (macOS); ctypes opens the copy NumPy has loaded. None
    where neither is found, as for a NumPy built against another BLAS.
    """
    package = Path(np.__file__).parent
    for path in sorted([*(package.parent / "numpy.libs").glob("*openblas*"), *(package / ".dylibs").glob("*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


_THREADS_LOCK = threading.Lock()
_threads_depth = 0
_threads_saved = 1


@contextlib.contextmanager
def _one_blas_thread():
    """Holds NumPy's bundled OpenBLAS at one thread while a fit runs, then restores the caller's count.

    Every fit runs inside it. On tall snapshot blocks of up to about 400k
    entries (``n * T``) and wide ones of up to about 560k, which covers the
    fits of the benchmark and the experiments, one thread is about as fast
    as two or faster, and it leaves no second core spinning, as OpenBLAS's
    idle worker does for about 0.1 s after each call. Larger fits can take
    up to about 25% longer in wall time on one thread (see the README's
    "Performance" section). The count is process-wide, so nested and
    concurrent fits share one lowering: the first to enter saves the count
    and sets 1, the last to leave sets the saved count again, under one
    lock. The count is only ever lowered, so ``OPENBLAS_NUM_THREADS`` still
    caps it; while a fit runs, BLAS calls from other Python threads also run
    on one thread. Without that library (a NumPy built against another
    BLAS) this does nothing.
    """
    global _threads_depth, _threads_saved
    functions = _openblas_thread_functions()
    if functions is None:
        yield
        return
    get, set_ = functions
    with _THREADS_LOCK:
        if _threads_depth == 0:
            _threads_saved = get()
            if _threads_saved > 1:
                set_(1)
        _threads_depth += 1
    try:
        yield
    finally:
        with _THREADS_LOCK:
            _threads_depth -= 1
            if _threads_depth == 0 and _threads_saved > 1:
                set_(_threads_saved)


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


def _rank(s, rel_tol: float, scale=0.0) -> int:
    """The rank rule: the number of singular values above ``rel_tol * max(sigma_max, scale)``.

    ``s`` holds the descending singular values of one matrix or of a stack of
    them (last axis); a stack gets the fewest over its slices. ``scale``, one
    per slice of a stack, is the size of the data before a fit removed part
    of it, such as the column offset that centering takes out or the content
    of a fixed frequency: the rounding the data carry is relative to that,
    not to ``sigma_max``. Raises InvalidInput unless ``0 < rel_tol < 1``.
    """
    if not 0.0 < rel_tol < 1.0:
        raise InvalidInput(f"rel_tol must lie in (0, 1), got {rel_tol}")
    return int(np.min(np.sum(s > rel_tol * np.maximum(s[..., :1], scale), axis=-1)))


def _svd(M, compute_uv: bool = True):
    """``numpy.linalg.svd(M, full_matrices=False)`` of a matrix or an (R, m, T) stack, factored tall.

    A wide ``M`` (``m < T``) is factored through its transpose, the R-SVD of
    Chan (ACM TOMS, 1982): ``M^T = Uh s Vh`` gives ``U = Vh^T`` and
    ``Vt = Uh^T``, so LAPACK starts from a QR of a T x m matrix instead of an
    LQ followed by an m x T ``Vt``. The transpose is a view, so a complex
    ``M`` is not copied. This is the only ``numpy.linalg.svd`` call in cdmd.
    """
    wide = M.shape[-2] < M.shape[-1]
    if wide:
        M = M.swapaxes(-1, -2)
    if not compute_uv:
        return np.linalg.svd(M, compute_uv=False)
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if wide:
        return Vt.swapaxes(-1, -2), s, U.swapaxes(-1, -2)
    return U, s, Vt


def _truncated_svd(M, rel_tol: float, r: int | None = None, scale=0.0):
    """SVD factors ``U, s, Vt`` of a matrix or an (R, m, T) stack, truncated at rank ``r``.

    ``r`` defaults to the rank rule ``_rank`` (at ``scale``); InvalidInput if
    it is below 1, RankTooHigh if it exceeds the rule. A wide ``M`` is
    factored through its transpose (see ``_svd``).
    """
    if r is not None and r < 1:
        raise InvalidInput(f"requested rank {r} must be >= 1")
    U, s, Vt = _svd(M)
    available = _rank(s, rel_tol, scale)
    if r is None:
        r = available
    elif r > available:
        raise RankTooHigh(f"requested rank {r} but only {available} singular values above tolerance")
    return U[..., :r], s[..., :r], Vt[..., :r, :]


def pinv(M, rel_tol: float = EXACT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``rel_tol * sigma_max`` are treated as zero.
    """
    U, s, Vt = _truncated_svd(_as_matrix(M), rel_tol)
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
) -> int:
    """The estimated rank of the noiseless signal underlying ``M``.

    ``exact_tol`` is the rank rule of the fits and of ``pinv`` (``_rank``):
    it counts singular values above ``rel_tol * sigma_max``.
    ``optimal_hard_threshold`` applies the aspect-ratio-dependent hard
    threshold of Gavish & Donoho (2014), using ``noise_hint`` as the noise
    standard deviation when given. Either method raises InvalidInput unless
    ``0 < rel_tol < 1``, and unless ``noise_hint``, when given, is finite and
    ``>= 0``.
    """
    M = _as_matrix(M)
    if method not in RANK_METHODS:
        raise InvalidInput(f"unknown rank method {method!r}")
    if noise_hint is not None and not 0 <= noise_hint < np.inf:
        raise InvalidInput(f"noise_hint must be nonnegative and finite, got {noise_hint}")
    s = _svd(M, compute_uv=False)
    exact = _rank(s, rel_tol)  # rejects a rel_tol outside (0, 1) for either method
    if method == "exact_tol" or s[0] == 0.0:
        return exact

    m, n = M.shape
    beta = min(m, n) / max(m, n)
    if noise_hint is not None:
        thresh = _oht_lambda(beta) * np.sqrt(max(m, n)) * noise_hint
    else:
        thresh = _oht_coefficient(beta) * float(np.median(s))
    return int(np.sum(s > thresh))


def vandermonde(lambdas, length: int) -> np.ndarray:
    """Rectangular Vandermonde matrix with entry (i, j) = lambdas[j]**i.

    Shape is ``length x len(lambdas)``, powers running 0 .. length-1 down the
    rows; real generators give real powers. Full column rank iff the
    generators are distinct and there are at most ``length`` of them. Raises
    InvalidInput, naming the generator, when it is not finite or a power
    overflows.
    """
    lam = np.atleast_1d(np.asarray(lambdas))
    lam = lam.astype(complex if np.iscomplexobj(lam) else float)
    if lam.size == 0:
        raise InvalidInput("lambdas must be nonempty")
    if length < 1:
        raise InvalidInput("length must be >= 1")
    if not np.all(np.isfinite(lam)):
        raise InvalidInput(f"lambda = {lam[~np.isfinite(lam)][0]} is not finite")
    with np.errstate(over="ignore", invalid="ignore"):
        V = lam[None, :] ** np.arange(length)[:, None]
    bad = ~np.all(np.isfinite(V), axis=0)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise InvalidInput(f"lambda = {lam[j]} (modulus {abs(lam[j]):.6g}) overflows in a Vandermonde basis of length {length}")
    return V


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

