"""Tests for the comparison and spectrum machinery."""

import numpy as np
import pytest

from cdmd import (
    InvalidInput,
    NoiseSpec,
    add_noise,
    centered_dmd,
    dft_power_spectrum,
    dmd_power_spectrum,
    effective_rank,
    exact_dmd,
    match_spectra,
    noise_sweep,
    random_linear_system,
    roots_of_unity_distance,
    simulate,
    spectral_distance,
    split_snapshots,
    synth_line_noise,
    well_posed_initial_state,
)
from cdmd.analysis import _cell_seed
from cdmd.dmd import DmdModel


class TestSpectralDistance:
    def test_exact_match_zero(self):
        lams = [0.9, 0.5j, -0.5j]
        assert spectral_distance(lams, lams).matched_distance == 0.0

    def test_exclude_near_unity(self):
        rep = spectral_distance([1.0, 0.9], [0.9], exclude_near_unity=True)
        assert rep.matched_distance == 0.0
        assert rep.excluded_near_unity

    def test_hand_enumerable(self):
        rep = spectral_distance([0.91, 0.49], [0.9, 0.5])
        assert np.isclose(rep.matched_distance, 0.02)
        assert np.allclose(sorted(rep.per_eigen_distances), [0.01, 0.01])

    def test_sum_equals_parts(self):
        rep = spectral_distance([0.5, 1.2, -0.3], [0.4, 1.0])
        assert np.isclose(rep.matched_distance, rep.per_eigen_distances.sum())

    def test_empty_truth_rejected(self):
        with pytest.raises(InvalidInput):
            spectral_distance([1.0], [])


class TestMatchSpectra:
    def test_permutation_invariant(self):
        a = np.array([1.0, 2.0, 3.0])
        assert match_spectra(a, a[::-1]) < 1e-12

    def test_optimal_not_greedy(self):
        # Greedy nearest matching from 1.0 first would cost 0.1 + 1.0; the
        # optimal assignment costs 0.2.
        assert np.isclose(match_spectra([1.0, 0.9], [1.1, 1.0]), 0.2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            match_spectra([1.0], [1.0, 2.0])


class TestNoiseSweep:
    def _spec(self):
        lams = np.append(random_linear_system(8, 4, seed=70).eigenvalues, 1.0)
        return random_linear_system(8, 5, placement="prescribed", prescribed=lams, seed=71)

    def test_noiseless_row_recovers(self):
        res = noise_sweep(self._spec(), [0.0], realizations=3, T=20, base_seed=1)
        assert res.median_distance_centered[0] <= 1e-8
        assert res.median_distance_uncentered[0] <= 1e-8

    def test_monotone_in_eta(self):
        etas = np.logspace(-5, -2, 4)
        res = noise_sweep(self._spec(), etas, realizations=21, T=20, base_seed=2)
        for med in (res.median_distance_centered, res.median_distance_uncentered):
            assert np.all(med[1:] >= 0.9 * med[:-1])

    def test_deterministic(self):
        spec = self._spec()
        a = noise_sweep(spec, [1e-3], realizations=5, T=20, base_seed=3)
        b = noise_sweep(spec, [1e-3], realizations=5, T=20, base_seed=3)
        assert np.array_equal(a.median_distance_centered, b.median_distance_centered)
        assert np.array_equal(a.median_distance_uncentered, b.median_distance_uncentered)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            noise_sweep(self._spec(), [1e-3], realizations=0, T=20)

    def test_medians_match_looped_fits(self):
        # Reference: one full centered and exact fit per (eta, realization) cell.
        spec, etas, R, T, base_seed = self._spec(), [0.0, 1e-4, 1e-2], 7, 20, 5
        X = simulate(spec, well_posed_initial_state(spec, seed=_cell_seed(base_seed, 2**31, 0)), T)
        clean = split_snapshots(X)
        r_unc = effective_rank(clean.X1).r
        r_cen = effective_rank(clean.X1 - clean.X1.mean(axis=1, keepdims=True)).r
        med_c, med_u = [], []
        for i, eta in enumerate(etas):
            d_c, d_u = [], []
            for j in range(R):
                pair = split_snapshots(add_noise(X, NoiseSpec(eta, _cell_seed(base_seed, i, j))))
                d_c.append(spectral_distance(centered_dmd(pair, r=r_cen).base.eigenvalues, spec.eigenvalues).matched_distance)
                unc = exact_dmd(pair, r=r_unc).eigenvalues
                d_u.append(spectral_distance(unc, spec.eigenvalues, exclude_near_unity=True).matched_distance)
            med_c.append(np.median(d_c))
            med_u.append(np.median(d_u))
        res = noise_sweep(spec, etas, realizations=R, T=T, base_seed=base_seed)
        for got, want in ((res.median_distance_centered, med_c), (res.median_distance_uncentered, med_u)):
            assert np.allclose(got[1:], want[1:], rtol=1e-12, atol=0)
            assert np.all(np.abs(got[0] - want[0]) <= 1e-12)  # noiseless row: both are rounding error


class TestDftPowerSpectrum:
    def test_pure_tone_bin(self):
        fs, f0 = 1000.0, 60.0
        t = np.arange(5000) / fs
        X = np.cos(2 * np.pi * f0 * t)[None, :]
        spec = dft_power_spectrum(X, fs)
        assert abs(spec.frequencies[np.argmax(spec.power)] - f0) < 0.2

    def test_constant_signal_dc_only(self):
        spec = dft_power_spectrum(np.full((2, 64), 3.0), 100.0)
        assert np.argmax(spec.power) == 0
        assert np.isclose(spec.power[0], 2 * 9.0)

    def test_parseval(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((3, 257))
        spec = dft_power_spectrum(X, 10.0)
        assert np.isclose(spec.power.sum(), np.mean(X**2, axis=1).sum(), rtol=1e-9)

    def test_white_noise_flat(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((8, 4096))
        spec = dft_power_spectrum(X, 100.0)
        body = spec.power[1:-1]
        assert body.max() < 10.0 * np.median(body)

    def test_frequencies_increasing(self):
        spec = dft_power_spectrum(np.random.default_rng(2).standard_normal((1, 50)), 10.0)
        assert np.all(np.diff(spec.frequencies) > 0)


class TestDmdPowerSpectrum:
    def _model(self, lams, amps=None, n=4):
        lams = np.asarray(lams, dtype=complex)
        r = lams.size
        modes = np.zeros((n, r), dtype=complex)
        for i in range(r):
            modes[i % n, i] = 1.0
        amps = np.ones(r, dtype=complex) if amps is None else np.asarray(amps, dtype=complex)
        return DmdModel(lams, modes, amps, "exact", r)

    def test_single_line_at_60hz(self):
        dt = 1e-3
        lam = np.exp(2j * np.pi * 60.0 * dt)
        spec = dmd_power_spectrum(self._model([lam]), dt)
        assert np.allclose(spec.frequencies, [60.0])
        assert np.allclose(spec.power, [1.0])

    def test_unit_eigenvalue_at_dc(self):
        spec = dmd_power_spectrum(self._model([1.0]), 0.01)
        assert np.allclose(spec.frequencies, [0.0])

    def test_conjugate_pair_merged(self):
        dt = 1e-3
        lam = np.exp(2j * np.pi * 25.0 * dt)
        spec = dmd_power_spectrum(self._model([lam, np.conj(lam)]), dt)
        assert spec.frequencies.size == 1
        assert np.isclose(spec.power[0], 2.0)

    def test_line_noise_peak_before_subtraction(self):
        fs = 1000.0
        X = synth_line_noise(16, fs, 1.0, 60.0, seed=5, line_amplitude=5.0)
        model = exact_dmd(split_snapshots(X), r=8)
        spec = dmd_power_spectrum(model, 1.0 / fs)
        assert abs(spec.frequencies[np.argmax(spec.power)] - 60.0) < 1.0

    def test_invalid_dt(self):
        with pytest.raises(InvalidInput):
            dmd_power_spectrum(self._model([1.0]), 0.0)


class TestRootsOfUnityDistance:
    def test_exact_roots_zero(self):
        roots = np.exp(2j * np.pi * np.arange(8) / 8)
        assert roots_of_unity_distance(roots, 8) < 1e-12

    def test_single_point(self):
        assert np.isclose(roots_of_unity_distance([0.9], 8), 0.1)

    def test_order_validation(self):
        with pytest.raises(InvalidInput):
            roots_of_unity_distance([1.0], 1)
