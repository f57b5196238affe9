"""Tests for the comparison and spectrum machinery."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmd import (
    InvalidInput,
    add_noise,
    centered_dmd,
    dft_power_spectrum,
    dmd_power_spectrum,
    effective_rank,
    exact_dmd,
    frequency_subtracted_dmd,
    match_spectra,
    noise_sweep,
    random_linear_system,
    reconstruct,
    roots_of_unity_distance,
    simulate,
    spectral_distance,
    split_snapshots,
    synth_line_noise,
    well_posed_initial_state,
)
from cdmd.analysis import _cell_seed, _nearest_truth_distances
from cdmd.dmd import DmdModel


class TestSpectralDistance:
    def test_exact_match_zero(self):
        lams = [0.9, 0.5j, -0.5j]
        assert spectral_distance(lams, lams) == 0.0

    def test_exclude_near_unity(self):
        # The noise sweep drops the uncentered estimate nearest 1 before summing.
        dists = _nearest_truth_distances(np.array([1.0, 0.9]), np.array([0.9]), exclude_near_unity=True)
        assert np.array_equal(dists, [0.0])

    def test_hand_enumerable(self):
        assert np.isclose(spectral_distance([0.91, 0.49], [0.9, 0.5]), 0.02)

    def test_sum_equals_parts(self):
        assert np.isclose(spectral_distance([0.5, 1.2, -0.3], [0.4, 1.0]), 0.1 + 0.2 + 0.7)

    def test_empty_truth_rejected(self):
        with pytest.raises(InvalidInput):
            spectral_distance([1.0], [])


def _spectra(k):
    """``k`` eigenvalues, mixing a coarse lattice (repeats and exactly tied distances) with scattered values."""
    lattice = st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))
    scattered = st.builds(complex, st.floats(-3, 3), st.floats(-3, 3))
    return st.lists(st.one_of(lattice, scattered), min_size=k, max_size=k)


class TestMatchSpectra:
    def test_permutation_invariant(self):
        a = np.array([1.0, 2.0, 3.0])
        assert match_spectra(a, a[::-1]) < 1e-12

    def test_optimal_not_greedy(self):
        # Greedy nearest matching, row by row or closest pair first, takes
        # 1.0 -> 0.6 and then 0.0 -> 1.5 for 1.9; the optimal assignment costs 1.1.
        assert np.isclose(match_spectra([1.0, 0.0], [0.6, 1.5]), 1.1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            match_spectra([1.0], [1.0, 2.0])

    def test_empty_spectra(self):
        assert match_spectra([], []) == 0.0

    @pytest.mark.parametrize(
        "a, b",
        [([np.nan, 1.0], [1.0, 2.0]), ([1.0, 2.0], [np.inf, 1.0]), ([complex(0, -np.inf)], [0.0]), ([1e308], [-1e308])],
        ids=["nan", "inf", "complex_inf", "distance_overflows"],
    )
    def test_nonfinite_rejected(self, a, b):
        with pytest.raises(InvalidInput):
            match_spectra(a, b)

    @given(st.integers(1, 7).flatmap(lambda k: st.tuples(_spectra(k), _spectra(k))), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, ab, conjugate):
        a, b = (np.array(x, dtype=complex) for x in ab)
        if conjugate:
            # Conjugate pairs: the second half of each spectrum mirrors the first.
            h = a.size // 2
            a[h : 2 * h], b[h : 2 * h] = a[:h].conj(), b[:h].conj()
        cost = np.abs(a[:, None] - b[None, :])
        perms = np.array(list(itertools.permutations(range(a.size))))
        best = cost[np.arange(a.size), perms].sum(axis=1).min()
        assert abs(match_spectra(a, b) - best) <= 1e-12 * best

    @pytest.mark.parametrize("k", [1, 2, 5, 10, 31, 60])
    @pytest.mark.parametrize("ties", [False, True], ids=["continuous", "lattice"])
    def test_matches_scipy(self, k, ties):
        linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
        rng = np.random.default_rng(1000 * k + ties)
        for _ in range(5):
            if ties:
                a, b = (rng.integers(-2, 3, (k, 2)) @ np.array([1.0, 1j]) for _ in range(2))
            else:
                a, b = (rng.standard_normal(k) + 1j * rng.standard_normal(k) for _ in range(2))
            cost = np.abs(a[:, None] - b[None, :])
            best = cost[linear_sum_assignment(cost)].sum()
            assert abs(match_spectra(a, b) - best) <= 1e-12 * best


class TestNoiseSweep:
    def _spec(self):
        lams = np.append(random_linear_system(8, 4, seed=70).eigenvalues, 1.0)
        return random_linear_system(8, 5, prescribed=lams, seed=71)

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
        r_unc = effective_rank(clean.X1)
        r_cen = effective_rank(clean.X1 - clean.X1.mean(axis=1, keepdims=True))
        med_c, med_u = [], []
        for i, eta in enumerate(etas):
            d_c, d_u = [], []
            for j in range(R):
                pair = split_snapshots(add_noise(X, eta, _cell_seed(base_seed, i, j)))
                d_c.append(spectral_distance(centered_dmd(pair, r=r_cen).base.eigenvalues, spec.eigenvalues))
                unc = exact_dmd(pair, r=r_unc).eigenvalues
                d_u.append(_nearest_truth_distances(unc, spec.eigenvalues, exclude_near_unity=True).sum())
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
        return DmdModel(lams, modes, amps, r)

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


def _noise_pair():
    return split_snapshots(np.random.default_rng(9).standard_normal((4, 12)))


#: Calls with an argument their function refuses, and the message it gives.
#: Each raised an error of NumPy or Python instead (ZeroDivisionError,
#: KeyError, a matmul ValueError, a TypeError, LinAlgError), or passed, as
#: for a negative fs, and returned NaN for a NaN eigenvalue or sample.
BAD_ARGUMENTS = {
    "dft_fs_zero": (lambda: dft_power_spectrum(np.ones((2, 8)), 0.0), "fs must be positive and finite"),
    "dft_fs_negative": (lambda: dft_power_spectrum(np.ones((2, 8)), -1.0), "fs must be positive and finite"),
    "dft_fs_inf": (lambda: dft_power_spectrum(np.ones((2, 8)), np.inf), "fs must be positive and finite"),
    "dft_complex_data": (lambda: dft_power_spectrum(np.ones((2, 8), dtype=complex), 1.0), "data must be real and finite"),
    "dft_nan_data": (lambda: dft_power_spectrum(np.array([[1.0, np.nan, 0.0]]), 1.0), "data must be real and finite"),
    "roots_empty": (lambda: roots_of_unity_distance([], 4), "eigenvalues must be nonempty and finite"),
    "roots_nan": (lambda: roots_of_unity_distance([np.nan], 4), "eigenvalues must be nonempty and finite"),
    "spectral_distance_nan_estimate": (lambda: spectral_distance([np.nan], [1.0]), "estimated eigenvalues must be nonempty and finite"),
    "spectral_distance_inf_truth": (lambda: spectral_distance([1.0], [np.inf]), "truth eigenvalues must be nonempty and finite"),
    "spectral_distance_empty_estimate": (lambda: spectral_distance([], [1.0]), "estimated eigenvalues must be nonempty and finite"),
    "dmd_dt_nan": (lambda: dmd_power_spectrum(exact_dmd(_noise_pair()), np.nan), "dt must be positive and finite"),
    "freq_sub_2d_lambdas": (
        lambda: frequency_subtracted_dmd(_noise_pair(), [[0.5, 0.9]]),
        r"fixed_lambdas must be nonempty and one-dimensional, got shape \(1, 2\)",
    ),
    "reconstruct_x1_length": (
        lambda: reconstruct(exact_dmd(_noise_pair()), np.ones(3), 5),
        r"x1 must be a length-4 vector, got shape \(3,\)",
    ),
    "reconstruct_centered_x1_length": (
        lambda: reconstruct(centered_dmd(_noise_pair()), np.ones(5), 5),
        r"x1 must be a length-4 vector, got shape \(5,\)",
    ),
}


@pytest.mark.parametrize("call, message", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_bad_argument_raises_invalid_input(call, message):
    with pytest.raises(InvalidInput, match=message):
        call()
