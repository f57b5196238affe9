"""Quantitative comparison machinery.

Spectral matching distances, the measurement-noise scaling sweep, DFT and
DMD power spectra, and roots-of-unity diagnostics for the companion-matrix
collapse on mean-subtracted full-rank data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dmd import DmdModel, _eigenvalues, split_snapshots
from .exceptions import InvalidInput
from .linalg import effective_rank
from .synth import LinearSystemSpec, add_noise, simulate, well_posed_initial_state


@dataclass(frozen=True, eq=False)
class NoiseSweepResult:
    """Median eigenvalue errors of the centered and uncentered fits, one per noise level."""

    median_distance_centered: np.ndarray
    median_distance_uncentered: np.ndarray


@dataclass(frozen=True, eq=False)
class PowerSpectrum:
    frequencies: np.ndarray
    power: np.ndarray


def _spectrum(eigenvalues, name) -> np.ndarray:
    """``eigenvalues`` as a complex vector; raises InvalidInput if it is empty or not finite."""
    lams = np.atleast_1d(np.asarray(eigenvalues, dtype=complex))
    if lams.size == 0 or not np.all(np.isfinite(lams)):
        raise InvalidInput(f"{name} eigenvalues must be nonempty and finite, got {lams}")
    return lams


def spectral_distance(estimated, truth) -> float:
    """Sum over estimated eigenvalues of the distance to the nearest truth.

    Raises InvalidInput if either list is empty or holds a non-finite value.
    """
    return float(np.sum(_nearest_truth_distances(_spectrum(estimated, "estimated"), _spectrum(truth, "truth"))))


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
    """Minimum total |a_i - b_j| over bipartite matchings of two spectra.

    Raises InvalidInput for spectra of unequal length, or with a non-finite
    entry or distance.
    """
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    b = np.atleast_1d(np.asarray(b, dtype=complex))
    if a.size != b.size:
        raise InvalidInput(f"spectra must have equal length, got {a.size} vs {b.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        cost = np.abs(a[:, None] - b[None, :])
    if not np.all(np.isfinite(cost)):
        raise InvalidInput("spectra must be finite, with finite distances between them")
    return float(cost[np.arange(a.size), _min_cost_assignment(cost)].sum())


def _min_cost_assignment(cost) -> np.ndarray:
    """Column assigned to each row of a square cost matrix, at minimum total cost.

    The Hungarian method (Kuhn 1955) in its shortest-augmenting-path form
    (Jonker & Volgenant 1987), O(k^3): rows join one at a time; each grows a
    Dijkstra tree over the columns on reduced costs ``cost - u - v`` until it
    reaches a free column, updating the row potentials ``u`` and the column
    potentials ``v`` so reduced costs stay nonnegative and are zero on the
    matching, then flips the path. Column ``k`` is the virtual root of a tree.
    """
    k = cost.shape[0]
    u = np.zeros(k)
    v = np.zeros(k + 1)
    row_of = np.full(k + 1, -1)  # row matched to each column, -1 while free
    for i in range(k):
        row_of[k], j = i, k
        way = np.full(k, k)  # previous column on the shortest path to each column
        dist = np.full(k, np.inf)
        used = np.zeros(k + 1, dtype=bool)
        while row_of[j] != -1:
            used[j] = True
            row = row_of[j]
            free = ~used[:k]
            reduced = cost[row] - u[row] - v[:k]
            closer = free & (reduced < dist)
            dist[closer] = reduced[closer]
            way[closer] = j
            nxt = int(np.argmin(np.where(free, dist, np.inf)))
            delta = dist[nxt]
            u[row_of[used]] += delta
            v[used] -= delta
            dist -= delta  # only free columns' entries are read again
            j = nxt
        while j != k:
            row_of[j] = row_of[way[j]]
            j = way[j]
    cols = np.empty(k, dtype=int)
    cols[row_of[:k]] = np.arange(k)
    return cols


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
    stacked into one (R, n, T+1) stack of trajectories, fitted once per
    method: one batched SVD and one batched eigensolve, at the noiseless data
    rank (the centered rank drops by one when the raw data carry a
    constant/background mode). Only the eigenvalues are computed; their
    distance to the truth is recorded per cell, excluding the eigenvalue
    nearest 1 from the uncentered sums.
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
    rank_unc = effective_rank(clean.X1)
    rank_cen = effective_rank(clean.X1 - clean.X1.mean(axis=1, keepdims=True))

    med_c = np.empty(etas.size)
    med_u = np.empty(etas.size)
    for i, eta in enumerate(etas):
        Y = np.stack([add_noise(X, eta, _cell_seed(base_seed, i, j)) for j in range(realizations)])
        lam_c = _eigenvalues(Y, rank_cen, centered=True)
        lam_u = _eigenvalues(Y, rank_unc)
        med_c[i] = np.median(_nearest_truth_distances(lam_c, truth).sum(axis=-1))
        med_u[i] = np.median(_nearest_truth_distances(lam_u, truth, exclude_near_unity=True).sum(axis=-1))
    return NoiseSweepResult(med_c, med_u)


def dft_power_spectrum(X, fs: float) -> PowerSpectrum:
    """One-sided temporal DFT power, aggregated across channels.

    Uses the 1/N forward normalization; one-sided bins are weighted so the
    total power equals the mean squared signal summed over channels. Raises
    InvalidInput unless the sampling rate ``fs`` is positive and finite and
    the data are real and finite.
    """
    if not 0.0 < fs < np.inf:
        raise InvalidInput(f"fs must be positive and finite, got {fs}")
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] < 2:
        raise InvalidInput("need a channels x samples matrix with >= 2 samples")
    # min and max carry a NaN or an inf through without a channels x samples temporary.
    if np.iscomplexobj(X) or not np.all(np.isfinite((X.min(), X.max()))):
        raise InvalidInput("data must be real and finite")
    N = X.shape[1]
    coeffs = np.fft.rfft(X, axis=1) / N
    freqs = np.fft.rfftfreq(N, d=1.0 / fs)
    weights = np.full(freqs.size, 2.0)
    weights[0] = 1.0
    if N % 2 == 0:
        weights[-1] = 1.0
    power = weights * np.sum(np.abs(coeffs) ** 2, axis=0)
    return PowerSpectrum(freqs, power)


def dmd_power_spectrum(model: DmdModel, dt: float) -> PowerSpectrum:
    """Map DMD eigenvalues to frequency lines.

    Each eigenvalue contributes |amplitude|^2 * ||mode||^2 at
    |arg(lambda)| / (2 pi dt) Hz; conjugate pairs merge into one line.
    Raises InvalidInput unless the time step ``dt`` is positive and finite.
    """
    if not 0.0 < dt < np.inf:
        raise InvalidInput(f"dt must be positive and finite, got {dt}")
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
    return PowerSpectrum(fr, np.array([merged[f] for f in fr]))


def roots_of_unity_distance(eigenvalues, order: int) -> float:
    """Max over eigenvalues of the distance to the nearest order-th root of unity.

    Raises InvalidInput unless ``order >= 2`` and the eigenvalues are nonempty and finite.
    """
    if order < 2:
        raise InvalidInput("order must be >= 2")
    lams = _spectrum(eigenvalues, "the")
    roots = np.exp(2j * np.pi * np.arange(order) / order)
    return float(np.max(np.abs(lams[:, None] - roots[None, :]).min(axis=1)))
