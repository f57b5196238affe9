"""Synthetic data generators.

Random linear/affine systems with controlled spectra, trajectory simulation
with optional geometrically modulated forcing, Gaussian measurement noise,
an RK4 Lorenz integrator, and low-rank surrogates for the video and
line-noise experiments.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import IntegrationOverflow, InvalidInput
from .linalg import _svd, pinv

#: Minimum pairwise separation for randomly drawn eigenvalue sets.
MIN_EIG_SEPARATION = 1e-3

#: Maximum condition number for randomly drawn eigenvector matrices.
MAX_EIGVEC_COND = 100.0


def _conjugate_pairs(lams, real_tol=1e-12):
    """Yield ``(i, j)`` once per real eigenvalue (``j = i``) and once per conjugate pair.

    An eigenvalue with ``|imag| <= real_tol`` is real; any other is paired
    with ``lams[j]``, the eigenvalue nearest its conjugate. Pairs come in
    increasing ``i``, and an index already paired is not visited again.
    """
    done = np.zeros(lams.size, dtype=bool)
    for i in range(lams.size):
        if done[i]:
            continue
        j = i if abs(lams[i].imag) <= real_tol else int(np.argmin(np.abs(lams - np.conj(lams[i]))))
        done[i] = done[j] = True
        yield i, j


@dataclass(frozen=True, eq=False)
class LinearSystemSpec:
    """Factorized description of a real system x_{j+1} = A x_j (+ b).

    ``A = V diag(eigenvalues) V^+``, with one column of the n x r eigenvector
    matrix ``V`` per eigenvalue; ``n`` and ``r`` are read off ``V``. An
    ``r = 0`` spec passes an n x 0 matrix and is the zero system.
    """

    eigenvalues: np.ndarray
    eigenvector_matrix: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        lams = np.atleast_1d(np.asarray(self.eigenvalues, dtype=complex))
        V = np.asarray(self.eigenvector_matrix, dtype=complex)
        if lams.ndim != 1 or V.ndim != 2 or V.shape[1] != lams.size:
            raise InvalidInput(f"need a 2-D eigenvector matrix with one column per eigenvalue, got {V.shape} for {lams.size}")
        if lams.size > 0:
            if not np.all(np.isfinite(lams)):
                raise InvalidInput(f"eigenvalues must be finite, got {lams}")
            sep = np.abs(lams[:, None] - lams[None, :])
            np.fill_diagonal(sep, np.inf)
            if np.min(sep) <= 1e-6:
                raise InvalidInput("eigenvalues must be pairwise distinct (separation > 1e-6)")
            # A non-real eigenvalue with no other near its conjugate pairs with itself.
            if not all(
                abs(lams[j] - np.conj(lams[i])) <= 1e-9 if i != j else abs(lams[i].imag) <= 1e-9
                for i, j in _conjugate_pairs(lams, real_tol=1e-9)
            ):
                raise InvalidInput("eigenvalue set must be closed under conjugation")
        bias = None if self.bias is None else np.asarray(self.bias, dtype=float)
        if bias is not None and bias.shape != (V.shape[0],):
            raise InvalidInput(f"bias must be a length-{V.shape[0]} vector")
        object.__setattr__(self, "eigenvalues", lams)
        object.__setattr__(self, "eigenvector_matrix", V)
        object.__setattr__(self, "bias", bias)

    @property
    def n(self) -> int:
        return self.eigenvector_matrix.shape[0]

    @property
    def r(self) -> int:
        return self.eigenvalues.size

    @property
    def matrix(self) -> np.ndarray:
        """Real propagator A = V diag(lambda) V^+."""
        if self.r == 0:
            return np.zeros((self.n, self.n))
        V = self.eigenvector_matrix
        A = (V * self.eigenvalues[None, :]) @ pinv(V)
        if np.max(np.abs(A.imag)) > 1e-9 * max(np.max(np.abs(A.real)), 1.0):
            raise InvalidInput("eigen-structure does not reconstruct a real matrix")
        return A.real


@dataclass(frozen=True, eq=False)
class LorenzParams:
    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    dt: float = 0.001
    steps: int = 4800
    x0: np.ndarray = field(default_factory=lambda: np.array([6.7673, 6.1253, 25.8706]))

    def __post_init__(self):
        if not 0 < self.dt < np.inf or self.steps < 1:
            raise InvalidInput(f"dt must be positive and finite and steps >= 1, got dt = {self.dt}, steps = {self.steps}")
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (3,) or not np.all(np.isfinite(x0)):
            raise InvalidInput(f"x0 must be a finite 3-vector, got {x0}")
        object.__setattr__(self, "x0", x0)


def _draw_eigenvalues(rng, r):
    n_pairs, n_real = r // 2, r % 2
    while True:
        moduli = rng.uniform(0.8, 1.05, size=n_pairs + n_real)
        # Real eigenvalues stay below 1 so none collides with the
        # background eigenvalue of an affine trajectory.
        moduli[n_pairs:] = rng.uniform(0.8, 0.97, size=n_real)
        angles = rng.uniform(0.05 * np.pi, 0.95 * np.pi, size=n_pairs)
        pairs = moduli[:n_pairs] * np.exp(1j * angles)
        lams = np.concatenate([pairs, np.conj(pairs), moduli[n_pairs:]])
        sep = np.abs(lams[:, None] - lams[None, :])
        np.fill_diagonal(sep, np.inf)
        if lams.size < 2 or np.min(sep) >= MIN_EIG_SEPARATION:
            return lams


def _draw_eigenvectors(rng, n, lams):
    # Real eigenvalues get real columns; conjugate pairs get conjugate columns.
    while True:
        V = np.zeros((n, lams.size), dtype=complex)
        for i, j in _conjugate_pairs(lams):
            if i == j:
                V[:, i] = rng.standard_normal(n)
            else:
                col = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
                V[:, i], V[:, j] = col, np.conj(col)
        s = _svd(V, compute_uv=False)
        if lams.size == 0 or s[0] <= MAX_EIGVEC_COND * s[-1]:
            return V


def random_linear_system(n: int, r: int, prescribed=None, seed: int = 0, bias=None) -> LinearSystemSpec:
    """Draw a real rank-``r`` system with a controlled eigenvalue set.

    ``prescribed``, when given, lists the ``r`` eigenvalues, which
    ``LinearSystemSpec`` checks. Otherwise ``r // 2`` conjugate pairs are
    drawn with moduli in [0.8, 1.05] and angles in [0.05 pi, 0.95 pi], and
    a real eigenvalue, for odd ``r``, in [0.8, 0.97]. ``r = 0`` gives the
    zero matrix. ``bias`` may be None, an explicit vector, or ``"random"``
    for a random standard-normal affine term. Deterministic per seed.
    """
    if r < 0:
        raise InvalidInput(f"rank {r} must be >= 0")
    if r > n:
        raise InvalidInput(f"rank {r} exceeds dimension {n}")
    rng = np.random.default_rng(seed)
    if prescribed is not None:
        lams = np.atleast_1d(np.asarray(prescribed, dtype=complex))
        if lams.size != r:
            raise InvalidInput(f"rank {r} does not match the {lams.size} prescribed eigenvalues")
    else:
        lams = _draw_eigenvalues(rng, r)
    V = _draw_eigenvectors(rng, n, lams)
    if isinstance(bias, str):
        if bias != "random":
            raise InvalidInput(f"unknown bias option {bias!r}")
        bias = rng.standard_normal(n)
    return LinearSystemSpec(lams, V, bias)


def _forcing(forcing_lambda) -> complex | None:
    """``forcing_lambda`` as a complex number, or None; raises InvalidInput unless it is finite."""
    if forcing_lambda is None:
        return None
    lam = complex(forcing_lambda)
    if not cmath.isfinite(lam):
        raise InvalidInput(f"forcing_lambda must be finite, got {lam}")
    return lam


def well_posed_initial_state(spec: LinearSystemSpec, seed: int = 0, forcing_lambda=None) -> np.ndarray:
    """Initial state exciting every mode, inside the invariant subspace.

    Draws conjugate-symmetric modal coefficients with moduli bounded away
    from zero, so the state has a significant component along every
    eigenvector. For an affine system the particular solution offset is
    added — the fixed point ``(I - A)^-1 b``, or ``(lambda I - A)^-1 b``
    when the trajectory will be simulated with geometric forcing — keeping
    the whole trajectory (first snapshot included) inside the invariant
    affine subspace of the dynamics. For ``r = 0`` the modal part is zero, so
    the state is that particular solution, or zeros for a linear spec.
    Deterministic per seed. Raises InvalidInput for a non-finite
    ``forcing_lambda``.
    """
    lam = _forcing(forcing_lambda)
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(spec.r, dtype=complex)
    for i, j in _conjugate_pairs(spec.eigenvalues):
        if i == j:
            coeffs[i] = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
        else:
            coeffs[i] = rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
            coeffs[j] = np.conj(coeffs[i])
    x1 = np.real(spec.eigenvector_matrix @ coeffs)
    if spec.bias is not None:
        M = (1.0 if lam is None else lam) * np.eye(spec.n) - spec.matrix
        c, *_ = np.linalg.lstsq(M, spec.bias.astype(complex), rcond=None)
        if np.linalg.norm(M @ c - spec.bias) > 1e-8 * np.linalg.norm(spec.bias):
            raise InvalidInput("affine system has no particular solution for this forcing")
        if np.max(np.abs(c.imag)) < 1e-12 * max(np.max(np.abs(c.real)), 1.0):
            c = c.real
        x1 = x1 + c
    return x1


def simulate(spec: LinearSystemSpec, x1, T: int, forcing_lambda=None) -> np.ndarray:
    """Simulate ``T`` steps from ``x1``; returns the n x (T+1) trajectory.

    Without forcing, iterates ``x <- A x (+ b)``. With ``forcing_lambda``,
    the affine term is modulated geometrically: ``x_{j+1} = A x_j +
    b * lambda**(j-1)``. Output is real unless a complex forcing makes the
    trajectory genuinely complex. Raises InvalidInput for a non-finite
    ``forcing_lambda``.
    """
    if T < 1:
        raise InvalidInput("T must be >= 1")
    lam = _forcing(forcing_lambda)
    if lam is not None and spec.bias is None:
        raise InvalidInput("forcing_lambda requires a bias term")
    x1 = np.asarray(x1)
    if x1.shape != (spec.n,):
        raise InvalidInput(f"x1 must be a length-{spec.n} vector")
    A = spec.matrix
    dtype = complex if (lam is not None and lam.imag != 0) or np.iscomplexobj(x1) else float
    if lam is not None and lam.imag == 0:
        lam = lam.real
    X = np.empty((spec.n, T + 1), dtype=dtype)
    X[:, 0] = x1
    for j in range(T):
        x_next = A @ X[:, j]
        if spec.bias is not None:
            if lam is None:
                x_next = x_next + spec.bias
            else:
                x_next = x_next + spec.bias * lam**j
        X[:, j + 1] = x_next
    return X


def add_noise(X, eta: float, seed: int = 0) -> np.ndarray:
    """``X`` plus i.i.d. Gaussian measurement noise of standard deviation ``eta``, as a new array.

    Deterministic per ``seed``; ``eta = 0`` returns a copy of ``X``. Raises
    InvalidInput unless ``eta`` is finite and ``>= 0``.
    """
    if not 0 <= eta < np.inf:
        raise InvalidInput(f"noise level must be nonnegative and finite, got {eta}")
    X = np.asarray(X)
    if eta == 0.0:
        return X.copy()
    return X + eta * np.random.default_rng(seed).standard_normal(X.shape)


def lorenz_rk4(params: LorenzParams) -> np.ndarray:
    """Classical fixed-step RK4 integration of the Lorenz system.

    Returns a 3 x steps matrix whose first column is the initial condition.
    Raises ``IntegrationOverflow`` at the first step whose state is not
    finite.
    """
    sigma, rho, beta, dt = (float(v) for v in (params.sigma, params.rho, params.beta, params.dt))
    h, h6 = 0.5 * dt, dt / 6.0
    X = np.empty((3, params.steps))
    X[:, 0] = params.x0
    x, y, z = (float(v) for v in params.x0)

    def rhs(x, y, z):
        return sigma * (y - x), x * (rho - z) - y, x * y - beta * z

    for k in range(1, params.steps):
        a1, b1, c1 = rhs(x, y, z)
        a2, b2, c2 = rhs(x + h * a1, y + h * b1, z + h * c1)
        a3, b3, c3 = rhs(x + h * a2, y + h * b2, z + h * c2)
        a4, b4, c4 = rhs(x + dt * a3, y + dt * b3, z + dt * c3)
        x = x + h6 * (a1 + 2 * a2 + 2 * a3 + a4)
        y = y + h6 * (b1 + 2 * b2 + 2 * b3 + b4)
        z = z + h6 * (c1 + 2 * c2 + 2 * c3 + c4)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise IntegrationOverflow(f"non-finite state at step {k}")
        X[0, k], X[1, k], X[2, k] = x, y, z
    return X


def _block_pattern(height, width, top, left, size):
    u = np.zeros((height, width))
    u[top:top + size, left:left + size] = 1.0
    return u.ravel()


def synth_video(
    height: int,
    width: int,
    T: int,
    seed: int = 0,
    moving: bool = True,
    noise_eta: float = 0.0,
) -> np.ndarray:
    """Synthetic surveillance clip: static background plus a periodic block.

    The foreground is a small bright block whose position oscillates between
    two nearby sites, so every frame lies in a span of at most five
    complex-exponential modes (effective rank <= 5). Returns
    (height*width) x (T+1) flattened frames. Raises InvalidInput for a frame
    under 1 x 1 pixels or T < 2.
    """
    if height < 1 or width < 1:
        raise InvalidInput(f"need frames of at least 1 x 1 pixels, got {height} x {width}")
    if T < 2:
        raise InvalidInput("need T >= 2 frames")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width]
    background = (
        0.4
        + 0.3 * np.exp(-((yy - height / 3) ** 2 + (xx - width / 2) ** 2) / (0.2 * height * width))
        + 0.2 * xx / max(width - 1, 1)
    ).ravel()

    t = np.arange(T + 1)
    X = np.tile(background[:, None], (1, T + 1))
    if moving:
        size = max(2, height // 6)
        top = height // 2
        u_a = _block_pattern(height, width, top, width // 6, size)
        u_b = _block_pattern(height, width, top, width // 2, size)
        omega1 = 2 * np.pi / 8.0
        omega2 = 2 * np.pi / 5.0
        # Phase-shifted oscillations make the block appear to move between
        # the two sites; each term is a conjugate pair of exponential modes.
        X = X + 0.5 * np.outer(u_a, 1 + np.cos(omega1 * t)) / 2
        X = X + 0.5 * np.outer(u_b, 1 + np.cos(omega2 * t + np.pi / 3)) / 2
    if noise_eta > 0:
        X = X + noise_eta * rng.standard_normal(X.shape)
    return X


def synth_line_noise(
    channels: int,
    fs: float,
    duration: float,
    f0: float,
    seed: int = 0,
    n_low_modes: int = 3,
    noise_eta: float = 0.02,
    line_amplitude: float = 1.0,
) -> np.ndarray:
    """Multichannel recording surrogate contaminated by a fixed-frequency hum.

    Each channel is the shared ``f0`` sinusoid (random per-channel amplitude
    and phase) plus a handful of low-frequency oscillatory modes and white
    noise. Deterministic per seed. Raises InvalidInput unless ``fs`` is
    positive and finite, ``|f0|`` lies below the Nyquist frequency and
    ``fs * duration`` rounds to at least 2 samples.
    """
    if not 0 < fs < np.inf:
        raise InvalidInput(f"fs must be positive and finite, got {fs}")
    if not abs(f0) < fs / 2:
        raise InvalidInput(f"|f0| = {abs(f0)} must be below the Nyquist frequency {fs / 2}")
    if not 1.5 <= fs * duration < np.inf:
        raise InvalidInput(f"fs * duration = {fs * duration} must round to at least 2 samples")
    rng = np.random.default_rng(seed)
    samples = int(round(fs * duration))
    t = np.arange(samples) / fs

    amp = line_amplitude * rng.uniform(0.5, 1.5, size=channels)
    phase = rng.uniform(0, 2 * np.pi, size=channels)
    X = amp[:, None] * np.cos(2 * np.pi * f0 * t[None, :] + phase[:, None])

    for _ in range(n_low_modes):
        f = rng.uniform(2.0, 30.0)
        loading = rng.standard_normal(channels)
        X = X + np.outer(loading, np.cos(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi)))
    if noise_eta > 0:
        X = X + noise_eta * rng.standard_normal(X.shape)
    return X
