"""Synthetic data generators.

Random linear/affine systems with controlled spectra, trajectory simulation
with optional geometrically modulated forcing, Gaussian measurement noise,
an RK4 Lorenz integrator, and low-rank surrogates for the video and
line-noise experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import IntegrationOverflow, InvalidInput
from .linalg import _svd, pinv

PLACEMENTS = ("unit_annulus", "mixed_stable_unstable", "prescribed")

#: Minimum pairwise separation for randomly drawn eigenvalue sets.
MIN_EIG_SEPARATION = 1e-3

#: Maximum condition number for randomly drawn eigenvector matrices.
MAX_EIGVEC_COND = 100.0


def _conjugate_closed(lams, tol=1e-9) -> bool:
    lams = np.asarray(lams, dtype=complex)
    for lam in lams:
        if abs(lam.imag) > tol and np.min(np.abs(lams - np.conj(lam))) > tol:
            return False
    return True


@dataclass(frozen=True)
class LinearSystemSpec:
    """Factorized description of a real system x_{j+1} = A x_j (+ b)."""

    n: int
    r: int
    eigenvalues: np.ndarray
    eigenvector_matrix: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        lams = np.atleast_1d(np.asarray(self.eigenvalues, dtype=complex))
        V = np.asarray(self.eigenvector_matrix, dtype=complex)
        if lams.size != self.r:
            raise InvalidInput(f"expected {self.r} eigenvalues, got {lams.size}")
        if self.r > 0:
            if V.shape != (self.n, self.r):
                raise InvalidInput(f"eigenvector matrix must be {self.n}x{self.r}, got {V.shape}")
            sep = np.abs(lams[:, None] - lams[None, :])
            np.fill_diagonal(sep, np.inf)
            if np.min(sep) <= 1e-6:
                raise InvalidInput("eigenvalues must be pairwise distinct (separation > 1e-6)")
            if not _conjugate_closed(lams):
                raise InvalidInput("eigenvalue set must be closed under conjugation")
        bias = None if self.bias is None else np.asarray(self.bias, dtype=float)
        if bias is not None and bias.shape != (self.n,):
            raise InvalidInput(f"bias must be a length-{self.n} vector")
        object.__setattr__(self, "eigenvalues", lams)
        object.__setattr__(self, "eigenvector_matrix", V)
        object.__setattr__(self, "bias", bias)

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


@dataclass(frozen=True)
class LorenzParams:
    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    dt: float = 0.001
    steps: int = 4800
    x0: np.ndarray = field(default_factory=lambda: np.array([6.7673, 6.1253, 25.8706]))

    def __post_init__(self):
        if self.dt <= 0 or self.steps < 1:
            raise InvalidInput("dt must be positive and steps >= 1")
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))


@dataclass(frozen=True)
class NoiseSpec:
    eta: float
    seed: int = 0

    def __post_init__(self):
        if self.eta < 0:
            raise InvalidInput("noise level must be nonnegative")


def _draw_eigenvalues(rng, r, placement):
    n_pairs, n_real = r // 2, r % 2
    while True:
        if placement == "unit_annulus":
            moduli = rng.uniform(0.8, 1.05, size=n_pairs + n_real)
            # Real eigenvalues stay below 1 so none collides with the
            # background eigenvalue of an affine trajectory.
            moduli[n_pairs:] = rng.uniform(0.8, 0.97, size=n_real)
        else:  # mixed_stable_unstable
            moduli = np.concatenate([
                rng.uniform(0.4, 0.95, size=(n_pairs + n_real + 1) // 2),
                rng.uniform(1.0, 1.25, size=(n_pairs + n_real) // 2),
            ])
            rng.shuffle(moduli)
        angles = rng.uniform(0.05 * np.pi, 0.95 * np.pi, size=n_pairs)
        pairs = moduli[:n_pairs] * np.exp(1j * angles)
        lams = np.concatenate([pairs, np.conj(pairs), moduli[n_pairs:]])
        sep = np.abs(lams[:, None] - lams[None, :])
        np.fill_diagonal(sep, np.inf)
        if lams.size < 2 or np.min(sep) >= MIN_EIG_SEPARATION:
            return lams


def _draw_eigenvectors(rng, n, lams):
    r = lams.size
    # Real eigenvalues get real columns; conjugate pairs get conjugate columns.
    while True:
        V = np.zeros((n, r), dtype=complex)
        done = np.zeros(r, dtype=bool)
        for i in range(r):
            if done[i]:
                continue
            if abs(lams[i].imag) < 1e-12:
                V[:, i] = rng.standard_normal(n)
                done[i] = True
            else:
                j = int(np.argmin(np.abs(lams - np.conj(lams[i]))))
                col = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
                V[:, i], V[:, j] = col, np.conj(col)
                done[i] = done[j] = True
        s = _svd(V, compute_uv=False)
        if s[0] <= MAX_EIGVEC_COND * s[-1]:
            return V


def random_linear_system(
    n: int,
    r: int,
    placement: str = "unit_annulus",
    prescribed=None,
    seed: int = 0,
    bias=None,
) -> LinearSystemSpec:
    """Draw a real rank-``r`` system with a controlled eigenvalue set.

    ``prescribed``, when given, lists the ``r`` eigenvalues. ``bias`` may be
    None, an explicit vector, or ``"random"`` for a random standard-normal
    affine term. Deterministic per seed.
    """
    if r > n:
        raise InvalidInput(f"rank {r} exceeds dimension {n}")
    if placement not in PLACEMENTS:
        raise InvalidInput(f"unknown placement {placement!r}")
    rng = np.random.default_rng(seed)
    if placement == "prescribed" or prescribed is not None:
        if prescribed is None:
            raise InvalidInput("prescribed placement requires an eigenvalue list")
        lams = np.atleast_1d(np.asarray(prescribed, dtype=complex))
        if lams.size != r:
            raise InvalidInput(f"rank {r} does not match the {lams.size} prescribed eigenvalues")
        sep = np.abs(lams[:, None] - lams[None, :])
        np.fill_diagonal(sep, np.inf)
        if lams.size > 1 and np.min(sep) <= 1e-6:
            raise InvalidInput("prescribed eigenvalues must be distinct")
        if not _conjugate_closed(lams):
            raise InvalidInput("prescribed eigenvalues must be conjugate-closed")
    else:
        lams = _draw_eigenvalues(rng, r, placement)
    V = _draw_eigenvectors(rng, n, lams)
    if isinstance(bias, str):
        if bias != "random":
            raise InvalidInput(f"unknown bias option {bias!r}")
        bias = rng.standard_normal(n)
    return LinearSystemSpec(n=n, r=r, eigenvalues=lams, eigenvector_matrix=V, bias=bias)


def well_posed_initial_state(spec: LinearSystemSpec, seed: int = 0, forcing_lambda=None) -> np.ndarray:
    """Initial state exciting every mode, inside the invariant subspace.

    Draws conjugate-symmetric modal coefficients with moduli bounded away
    from zero, so the state has a significant component along every
    eigenvector. For an affine system the particular solution offset is
    added — the fixed point ``(I - A)^-1 b``, or ``(lambda I - A)^-1 b``
    when the trajectory will be simulated with geometric forcing — keeping
    the whole trajectory (first snapshot included) inside the invariant
    affine subspace of the dynamics. Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    if spec.r == 0:
        return rng.standard_normal(spec.n)
    lams = spec.eigenvalues
    V = spec.eigenvector_matrix
    coeffs = np.zeros(spec.r, dtype=complex)
    done = np.zeros(spec.r, dtype=bool)
    for i in range(spec.r):
        if done[i]:
            continue
        if abs(lams[i].imag) < 1e-12:
            coeffs[i] = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
            done[i] = True
        else:
            j = int(np.argmin(np.abs(lams - np.conj(lams[i]))))
            coeffs[i] = rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
            coeffs[j] = np.conj(coeffs[i])
            done[i] = done[j] = True
    x1 = np.real(V @ coeffs)
    if spec.bias is not None:
        lam = 1.0 if forcing_lambda is None else complex(forcing_lambda)
        M = lam * np.eye(spec.n) - spec.matrix
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
    trajectory genuinely complex.
    """
    if T < 1:
        raise InvalidInput("T must be >= 1")
    if forcing_lambda is not None and spec.bias is None:
        raise InvalidInput("forcing_lambda requires a bias term")
    x1 = np.asarray(x1)
    if x1.shape != (spec.n,):
        raise InvalidInput(f"x1 must be a length-{spec.n} vector")
    A = spec.matrix
    complex_forcing = forcing_lambda is not None and abs(complex(forcing_lambda).imag) > 0
    dtype = complex if complex_forcing or np.iscomplexobj(x1) else float
    lam = None
    if forcing_lambda is not None:
        lam = complex(forcing_lambda)
        if lam.imag == 0:
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


def add_noise(X, noise: NoiseSpec) -> np.ndarray:
    """Add i.i.d. Gaussian measurement noise; deterministic per seed."""
    X = np.asarray(X)
    if noise.eta == 0.0:
        return X.copy()
    rng = np.random.default_rng(noise.seed)
    return X + noise.eta * rng.standard_normal(X.shape)


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
    (height*width) x (T+1) flattened frames.
    """
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
    noise. Deterministic per seed.
    """
    if f0 >= fs / 2:
        raise InvalidInput(f"f0 = {f0} must be below the Nyquist frequency {fs / 2}")
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
