"""Quantitative comparison machinery.

Spectral matching distances, the measurement-noise scaling sweep, DFT and
DMD power spectra, and roots-of-unity diagnostics for the companion-matrix
collapse on mean-subtracted full-rank data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .dmd import DmdModel, _eigenvalues, split_snapshots
from .exceptions import InvalidInput
from .linalg import effective_rank
from .synth import LinearSystemSpec, NoiseSpec, add_noise, simulate, well_posed_initial_state


@dataclass(frozen=True)
class SpectrumReport:
    """Distances from estimated eigenvalues to the nearest true eigenvalue."""

    matched_distance: float
    excluded_near_unity: bool
    n_estimated: int
    n_true: int
    per_eigen_distances: np.ndarray


@dataclass(frozen=True)
class NoiseSweepResult:
    etas: np.ndarray
    median_distance_centered: np.ndarray
    median_distance_uncentered: np.ndarray
    realizations: int


@dataclass(frozen=True)
class PowerSpectrum:
    frequencies: np.ndarray
    power: np.ndarray
    method: str


def spectral_distance(estimated, truth, exclude_near_unity: bool = False) -> SpectrumReport:
    """Sum over estimated eigenvalues of the distance to the nearest truth.

    With ``exclude_near_unity`` the single estimated eigenvalue closest to 1
    is dropped before summing. Ties between equally near truth eigenvalues
    resolve to the lowest truth index.
    """
    est = np.atleast_1d(np.asarray(estimated, dtype=complex))
    tru = np.atleast_1d(np.asarray(truth, dtype=complex))
    if tru.size == 0:
        raise InvalidInput("truth eigenvalue list must be nonempty")
    if est.size == 0:
        raise InvalidInput("estimated eigenvalue list must be nonempty")
    dists = _nearest_truth_distances(est, tru, exclude_near_unity)
    return SpectrumReport(
        matched_distance=float(np.sum(dists)),
        excluded_near_unity=exclude_near_unity,
        n_estimated=est.size,
        n_true=tru.size,
        per_eigen_distances=dists,
    )


def _nearest_truth_distances(est, truth, exclude_near_unity: bool = False) -> np.ndarray:
    """Distance from each estimate (last axis of ``est``) to its nearest truth eigenvalue.

    ``est`` is one spectrum or a stack of them. With ``exclude_near_unity`` the
    single estimate nearest 1 is dropped from each spectrum first.
    """
    if exclude_near_unity:
        keep = np.arange(est.shape[-1]) != np.argmin(np.abs(est - 1.0), axis=-1)[..., None]
        est = est[keep].reshape(*est.shape[:-1], -1)
    return np.abs(est[..., :, None] - truth).min(axis=-1)


def match_spectra(a, b) -> float:
    """Minimum total |a_i - b_j| over bipartite matchings of two spectra."""
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    b = np.atleast_1d(np.asarray(b, dtype=complex))
    if a.size != b.size:
        raise InvalidInput(f"spectra must have equal length, got {a.size} vs {b.size}")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def _cell_seed(base_seed: int, i: int, j: int) -> int:
    return int(np.random.SeedSequence((base_seed, i, j)).generate_state(1)[0])


def noise_sweep(
    spec: LinearSystemSpec,
    etas,
    realizations: int,
    T: int,
    base_seed: int = 0,
) -> NoiseSweepResult:
    """Median eigenvalue-recovery error vs noise level, for both methods.

    For each noise level the R realizations re-measure the trajectory with
    fresh Gaussian noise, one seed per (level, realization) cell, and are
    stacked into one (R, n, T) fit per method: one batched SVD and one
    batched eigensolve, at the noiseless data rank (the centered rank drops by
    one when the raw data carry a constant/background mode). Only the
    eigenvalues are computed; their distance to the truth is recorded per
    cell, excluding the eigenvalue nearest 1 from the uncentered sums.
    Deterministic per ``base_seed``; each cell's noise does not depend on the
    other cells.
    """
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    if realizations < 1:
        raise InvalidInput("realizations must be >= 1")
    # Dedicated seed cell for the initial state; (i, j) cells start at 0 and
    # realizations never reaches 2**31, so this cannot collide.
    x1 = well_posed_initial_state(spec, seed=_cell_seed(base_seed, 2**31, 0))
    X = simulate(spec, x1, T)
    truth = spec.eigenvalues
    clean = split_snapshots(X)
    rank_unc = effective_rank(clean.X1).r
    rank_cen = effective_rank(clean.X1 - clean.X1.mean(axis=1, keepdims=True)).r

    med_c = np.empty(etas.size)
    med_u = np.empty(etas.size)
    for i, eta in enumerate(etas):
        Y = np.stack([
            add_noise(X, NoiseSpec(eta=float(eta), seed=_cell_seed(base_seed, i, j))) for j in range(realizations)
        ])
        X1, X2 = Y[..., :-1], Y[..., 1:]
        lam_c = _eigenvalues(X1, X2, rank_cen, centered=True)
        lam_u = _eigenvalues(X1, X2, rank_unc)
        med_c[i] = np.median(_nearest_truth_distances(lam_c, truth).sum(axis=-1))
        med_u[i] = np.median(_nearest_truth_distances(lam_u, truth, exclude_near_unity=True).sum(axis=-1))
    return NoiseSweepResult(etas, med_c, med_u, realizations)


def dft_power_spectrum(X, fs: float) -> PowerSpectrum:
    """One-sided temporal DFT power, aggregated across channels.

    Uses the 1/N forward normalization; one-sided bins are weighted so the
    total power equals the mean squared signal summed over channels.
    """
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] < 2:
        raise InvalidInput("need a channels x samples matrix with >= 2 samples")
    N = X.shape[1]
    coeffs = np.fft.rfft(X, axis=1) / N
    freqs = np.fft.rfftfreq(N, d=1.0 / fs)
    weights = np.full(freqs.size, 2.0)
    weights[0] = 1.0
    if N % 2 == 0:
        weights[-1] = 1.0
    power = weights * np.sum(np.abs(coeffs) ** 2, axis=0)
    return PowerSpectrum(freqs, power, "dft")


def dmd_power_spectrum(model: DmdModel, dt: float) -> PowerSpectrum:
    """Map DMD eigenvalues to frequency lines.

    Each eigenvalue contributes |amplitude|^2 * ||mode||^2 at
    |arg(lambda)| / (2 pi dt) Hz; conjugate pairs merge into one line.
    """
    if dt <= 0:
        raise InvalidInput("dt must be positive")
    freqs = np.abs(np.angle(model.eigenvalues)) / (2 * np.pi * dt)
    powers = np.abs(model.amplitudes) ** 2 * np.linalg.norm(model.modes, axis=0) ** 2
    merged: dict[float, float] = {}
    for f, p in sorted(zip(freqs, powers)):
        key = next((g for g in merged if abs(g - f) < 1e-9 * max(f, 1.0)), None)
        if key is None:
            merged[f] = p
        else:
            merged[key] += p
    fr = np.array(sorted(merged))
    return PowerSpectrum(fr, np.array([merged[f] for f in fr]), "dmd")


def roots_of_unity_distance(eigenvalues, order: int) -> float:
    """Max over eigenvalues of the distance to the nearest order-th root of unity."""
    if order < 2:
        raise InvalidInput("order must be >= 2")
    lams = np.atleast_1d(np.asarray(eigenvalues, dtype=complex))
    roots = np.exp(2j * np.pi * np.arange(order) / order)
    return float(np.max(np.abs(lams[:, None] - roots[None, :]).min(axis=1)))
