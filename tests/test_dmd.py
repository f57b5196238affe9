"""Tests for the decomposition variants and diagnostics."""

import copy
import dataclasses
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from cdmd import (
    InvalidInput,
    LorenzParams,
    NoiseSweepResult,
    RankTooHigh,
    add_noise,
    centered_dmd,
    companion_dmd,
    consistency_residual,
    dft_power_spectrum,
    exact_dmd,
    frequency_subtracted_dmd,
    lorenz_rk4,
    match_spectra,
    random_linear_system,
    reconstruct,
    simulate,
    split_snapshots,
    synth_line_noise,
    synth_video,
    well_posed_initial_state,
)
from cdmd import linalg
from cdmd.analysis import _cell_seed
from cdmd.dmd import (
    COMPANION_MAX_T,
    TALL_FACTOR,
    TIE_TOL,
    SnapshotPair,
    _eigen_order,
    _eigenvalues,
    _frequency_basis,
    canonicalize_mode,
)
from cdmd.linalg import pinv, vandermonde
from cdmd.synth import LinearSystemSpec
from oracles import affine_dmd_direct


def golden_affine_trajectory():
    """A = diag(2,3), b = [1,2], x1 = [1,1]; hand-checked four snapshots."""
    spec = LinearSystemSpec(
        eigenvalues=np.array([2.0, 3.0]), eigenvector_matrix=np.eye(2, dtype=complex), bias=np.array([1.0, 2.0]),
    )
    X = simulate(spec, np.array([1.0, 1.0]), 3)
    return spec, X


class TestSplitSnapshots:
    def test_scalar_row(self):
        pair = split_snapshots(np.array([[1.0, 2.0, 3.0]]))
        assert np.array_equal(pair.X1, [[1.0, 2.0]])
        assert np.array_equal(pair.X2, [[2.0, 3.0]])

    def test_shift_property(self):
        X = np.arange(8.0).reshape(2, 4)
        pair = split_snapshots(X)
        assert pair.X1.shape == (2, 3)
        assert np.array_equal(pair.X2[:, :-1], pair.X1[:, 1:])

    def test_too_few_columns(self):
        with pytest.raises(InvalidInput):
            split_snapshots(np.array([[1.0]]))

    def test_pair_holds_a_read_only_copy(self):
        X = np.arange(8.0).reshape(2, 4)
        for pair in (split_snapshots(X), SnapshotPair(X[:, :-1], X[:, 1:])):
            for block in (pair.X1, pair.X2):
                with pytest.raises(ValueError):
                    block[0, 0] = -1.0
            assert not np.shares_memory(pair.X1, X) and not np.shares_memory(pair.X2, X)

    def test_independent_blocks_are_views_of_one_copy(self):
        # Blocks that are not shifted sit side by side in one read-only copy,
        # 2T columns at their common dtype.
        rng = np.random.default_rng(9)
        X1, X2 = rng.standard_normal((5, 7)), rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        pair = SnapshotPair(X1, X2)
        assert pair.X1.base is pair.X2.base is pair._data and pair._data.shape == (5, 14)
        assert pair.X1.dtype == pair.X2.dtype == complex
        assert np.array_equal(pair.X1, X1) and np.array_equal(pair.X2, X2)
        for block in (pair.X1, pair.X2):
            with pytest.raises(ValueError):
                block[0, 0] = -1.0

    def test_copies_are_read_only_pairs(self):
        # A pickled or deep-copied pair is rebuilt: its blocks stay read-only
        # views of one copy, it carries neither the kept QR nor the shifted
        # trajectory, and it fits as the original does.
        pair = split_snapshots(np.random.default_rng(7).standard_normal((60, 10)))
        model = exact_dmd(pair)
        assert "_factor" in vars(pair)
        for other in (pickle.loads(pickle.dumps(pair)), copy.deepcopy(pair)):
            assert "_factor" not in vars(other)
            for block in (other.X1, other.X2):
                with pytest.raises(ValueError):
                    block[0, 0] = -1.0
            assert np.shares_memory(other.X1, other.X2)
            assert np.array_equal(exact_dmd(other).eigenvalues, model.eigenvalues)

    @pytest.mark.parametrize("nonfinite", [np.nan, np.inf])
    @pytest.mark.parametrize("column", ["X1_first", "X2_last", "shared"])
    def test_nonfinite_entry_rejected_when_built(self, column, nonfinite):
        # A shifted pair checks its trajectory once: the first column of X1
        # and the last of X2 belong to one block only, and are checked too.
        X = np.random.default_rng(8).standard_normal((5, 7))
        X[2, {"X1_first": 0, "X2_last": -1, "shared": 3}[column]] = nonfinite
        for make in (split_snapshots, lambda X: SnapshotPair(X[:, :-1].copy(), X[:, 1:].copy())):
            with pytest.raises(InvalidInput, match="snapshot matrices contain non-finite entries"):
                make(X)

    @pytest.mark.parametrize("shape", [(60, 10), (12, 41)], ids=["tall", "wide"])
    def test_replaced_block_is_fitted_as_unshifted(self, shape):
        # dataclasses.replace builds the pair again: a new block, the
        # time-reversed pair or a repeated block must not be fitted through
        # the old trajectory or its QR.
        rng = np.random.default_rng(6)
        pair = split_snapshots(rng.standard_normal(shape))
        exact_dmd(pair), centered_dmd(pair)
        X2 = rng.standard_normal(pair.X2.shape)
        for blocks in ({"X2": X2}, {"X1": pair.X2, "X2": pair.X1}, {"X1": pair.X2}):
            replaced = dataclasses.replace(pair, **blocks)
            reference = SnapshotPair(*(np.array(blocks.get(name, getattr(pair, name))) for name in ("X1", "X2")))
            assert np.array_equal(exact_dmd(replaced).eigenvalues, exact_dmd(reference).eigenvalues)
            assert np.array_equal(centered_dmd(replaced).bias, centered_dmd(reference).bias)

    @pytest.mark.parametrize("shape", [(60, 10), (12, 41)], ids=["tall", "wide"])
    def test_changing_the_source_leaves_fits_unchanged(self, shape):
        # A tall pair keeps the QR of its first fit; it must still describe the pair's data.
        X = np.random.default_rng(4).standard_normal(shape)
        for make in (split_snapshots, lambda X: SnapshotPair(X[:, :-1], X[:, 1:])):
            pair = make(X)
            first = exact_dmd(pair), centered_dmd(pair)
            X += 1.0
            second = exact_dmd(pair), centered_dmd(pair)
            (exact1, centered1), (exact2, centered2) = first, second
            for a, b in ((exact1, exact2), (centered1.base, centered2.base)):
                assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("eigenvalues", "modes", "amplitudes"))
            assert np.array_equal(centered1.bias, centered2.bias)
            assert np.array_equal(centered1.fixed_point, centered2.fixed_point)


ARRAY_DATACLASSES = {
    "SnapshotPair": lambda: split_snapshots(golden_affine_trajectory()[1]),
    "DmdModel": lambda: exact_dmd(split_snapshots(golden_affine_trajectory()[1])),
    "CenteredDmdModel": lambda: centered_dmd(split_snapshots(golden_affine_trajectory()[1])),
    "FrequencyModel": lambda: frequency_subtracted_dmd(split_snapshots(golden_affine_trajectory()[1]), [1.0]),
    "CompanionModel": lambda: companion_dmd(golden_affine_trajectory()[1]),
    "LinearSystemSpec": lambda: golden_affine_trajectory()[0],
    "LorenzParams": LorenzParams,
    "NoiseSweepResult": lambda: NoiseSweepResult(np.ones(2), np.ones(2)),
    "PowerSpectrum": lambda: dft_power_spectrum(np.ones((2, 4)), 1.0),
}


@pytest.mark.parametrize("make", ARRAY_DATACLASSES.values(), ids=ARRAY_DATACLASSES.keys())
def test_array_dataclasses_compare_by_identity(make):
    # Field-wise == would ask NumPy for the truth value of an array comparison,
    # and a field-wise hash would hash an array.
    a, b = make(), make()
    assert a == a and not (a == b) and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


def _svd_shapes(monkeypatch, fit, pair):
    """Shapes of the matrices ``fit(pair)`` passes to ``numpy.linalg.svd``."""
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    fit(pair)
    return shapes


FITS = {
    "exact": exact_dmd,
    "centered": centered_dmd,
    "freq_subtracted": lambda pair, r=None: frequency_subtracted_dmd(pair, [np.exp(0.7j), np.exp(-0.7j)], r=r),
}


class TestCoordinateStep:
    """A tall shifted trajectory is fitted on the R factor of ``[X - mu1 1^T, mu1]``; any other pair on itself."""

    @pytest.mark.parametrize("fit", FITS)
    def test_tall_shifted_fit_svds_r_factor(self, monkeypatch, fit):
        # A centered fit takes the T + 1 rows of the shifted trajectory; the
        # others add back mu1, whose last row is not rounding, on T + 2.
        pair = split_snapshots(np.random.default_rng(0).standard_normal((60, 10)))
        assert pair.n >= TALL_FACTOR * (pair.T + 1)
        shapes = _svd_shapes(monkeypatch, FITS[fit], pair)
        assert (pair.T + (1 if fit == "centered" else 2), pair.T) in shapes
        assert all(shape[0] != pair.n for shape in shapes)

    @pytest.mark.parametrize("fit", FITS)
    def test_tall_unshifted_pair_svds_data(self, monkeypatch, fit):
        rng = np.random.default_rng(1)
        pair = SnapshotPair(rng.standard_normal((60, 9)), rng.standard_normal((60, 9)))
        assert (pair.n, pair.T) in _svd_shapes(monkeypatch, FITS[fit], pair)

    @pytest.mark.parametrize("fit", FITS)
    def test_wide_pair_svds_data(self, monkeypatch, fit):
        # A wide pair is its own coordinates, factored through its transpose.
        pair = split_snapshots(np.random.default_rng(2).standard_normal((4, 30)))
        shapes = _svd_shapes(monkeypatch, FITS[fit], pair)
        assert (pair.T, pair.n) in shapes
        assert (pair.n, pair.T) not in shapes

    @pytest.mark.filterwarnings("error")
    def test_tall_exact_fit_where_the_column_sums_overflow(self):
        # One row near 1e307: the sums behind its mean overflow, while the
        # column norms and sigma_max do not, and an uncentered fit needs no
        # mean. Scaling by a power of 2 leaves eigenvalues and modes unchanged.
        rng = np.random.default_rng(8)
        X = rng.uniform(-1e-3, 1e-3, (100, 49))
        X[0] = rng.uniform(1.0, 2.0, 49)
        scale = 2.0**1019
        with np.errstate(over="ignore"):
            assert not np.isfinite((X[0, :-1] * scale).sum())
        small, big = exact_dmd(split_snapshots(X)), exact_dmd(split_snapshots(X * scale))
        assert big.rank_used == small.rank_used == 48
        assert np.max(np.abs(big.eigenvalues - small.eigenvalues)) < 1e-12
        assert np.max(np.abs(big.modes - small.modes)) < 1e-11
        assert np.max(np.abs(big.amplitudes / scale - small.amplitudes)) < 1e-12 * np.max(np.abs(small.amplitudes))

    @pytest.mark.filterwarnings("error")
    def test_nonfinite_coordinates_rejected(self):
        # Every entry is finite, but the column norms overflow in the QR.
        with pytest.raises(InvalidInput, match="non-finite"):
            exact_dmd(split_snapshots(np.full((40, 4), 1e308)))


ONE_SVD_FITS = {
    "exact": exact_dmd,
    "centered": centered_dmd,
    "freq_conjugate_pair": lambda pair: frequency_subtracted_dmd(pair, [np.exp(0.7j), np.exp(-0.7j)]),
    "freq_single_complex": lambda pair: frequency_subtracted_dmd(pair, [np.exp(0.7j)]),
    "freq_complex_data": lambda pair: frequency_subtracted_dmd(
        SnapshotPair(pair.X1 + 1j * pair.X1[::-1], pair.X2 + 1j * pair.X2[::-1]), [np.exp(0.7j), np.exp(-0.7j)]
    ),
    "eigenvalues": lambda pair: _eigenvalues(np.stack([pair._data] * 2), 3),
    "eigenvalues_centered": lambda pair: _eigenvalues(np.stack([pair._data] * 2), 3, centered=True),
}


@pytest.mark.parametrize("shape", [(60, 10), (12, 41)])
@pytest.mark.parametrize("fit", ONE_SVD_FITS)
def test_one_svd_per_fit(monkeypatch, fit, shape):
    # Every fit, frequency subtraction included, does exactly one SVD: Lt^+ is
    # Q (Lt Q)^-1 from the basis of the projection, not a pseudoinverse.
    calls = []
    svd = linalg._svd

    def counting(M, compute_uv=True):
        calls.append(M.shape)
        return svd(M, compute_uv)

    monkeypatch.setattr(linalg, "_svd", counting)
    ONE_SVD_FITS[fit](split_snapshots(np.random.default_rng(3).standard_normal(shape)))
    assert len(calls) == 1


def test_one_qr_per_pair(monkeypatch):
    # Every fit of a tall pair from split_snapshots, centered or not, reads
    # its coordinates from one QR of the trajectory, taken on the first fit.
    pair = split_snapshots(np.random.default_rng(3).standard_normal((60, 10)))
    rows = []
    qr = np.linalg.qr

    def counting(a, *args, **kwargs):
        rows.append(np.shape(a)[0])
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    for r in (2, 4):
        exact_dmd(pair, r=r)
        centered_dmd(pair, r=r)
        frequency_subtracted_dmd(pair, [1.0, -1.0], r=r)
        frequency_subtracted_dmd(pair, [np.exp(0.7j), np.exp(-0.7j)], r=r)
    assert rows.count(pair.n) == 1


class TestKeptShiftedTrajectory:
    """A tall pair keeps the shifted trajectory ``[X - mu1 1^T, mu1]`` that its QR factored."""

    def test_kept_block_is_a_read_only_copy(self):
        X = np.random.default_rng(11).standard_normal((60, 10))
        pair = split_snapshots(X)
        centered_dmd(pair)
        Y = pair._factor[2]
        assert Y.shape == (60, 11) and not Y.flags.writeable
        assert not np.shares_memory(Y, X) and not np.shares_memory(Y, pair._data)
        assert np.array_equal(Y[:, :-1], X - pair.X1.mean(axis=1)[:, None])

    @pytest.mark.parametrize(
        "fit", [centered_dmd, lambda pair: frequency_subtracted_dmd(pair, [1.0, -1.0])], ids=["centered", "fs_pm1"]
    )
    def test_refit_forms_no_shifted_block(self, fit):
        # The first fit factors [X - mu1 1^T, mu1] and keeps it; a refit lifts
        # from its view X2 - mu1 1^T. On this pair the rest of the refit peaks
        # at about 0.32 blocks of X2's size, and forming the difference again
        # would add one block.
        pair = split_snapshots(synth_video(64, 64, 48, seed=0))
        first = fit(pair)
        tracemalloc.start()
        try:
            refit = fit(pair)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * pair.X2.nbytes
        first_fields, refit_fields = (dict(vars(m), **vars(m.base)) for m in (first, refit))
        for name, value in first_fields.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(refit_fields[name], value), name


def test_exact_fit_builds_no_basis(monkeypatch):
    # Over the empty set of fixed frequencies there is nothing to project out.
    calls = []

    def counting(*args):
        calls.append(args)
        return _frequency_basis(*args)

    monkeypatch.setattr("cdmd.dmd._frequency_basis", counting)
    rng = np.random.default_rng(3)
    for shape in [(60, 10), (12, 41)]:
        exact_dmd(split_snapshots(rng.standard_normal(shape)))
    _eigenvalues(rng.standard_normal((2, 5, 9)), 3)
    assert calls == []
    centered_dmd(split_snapshots(rng.standard_normal((12, 41))))
    assert len(calls) == 1


class TestTruncationRank:
    @pytest.mark.parametrize("r", [0, -1])
    @pytest.mark.parametrize("fit", FITS)
    def test_rank_below_one_rejected(self, fit, r):
        pair = split_snapshots(np.array([[1.0, 3, 7, 15], [1, 5, 17, 53]]))
        with pytest.raises(InvalidInput, match=f"requested rank {r} must be >= 1") as err:
            FITS[fit](pair, r=r)
        assert "all zero" not in str(err.value)

    @pytest.mark.parametrize("fit", FITS)
    def test_all_zero_data_rejected(self, fit):
        with pytest.raises(InvalidInput, match="all zero"):
            FITS[fit](split_snapshots(np.zeros((2, 6))))


class TestCanonicalizeMode:
    def test_unit_norm_positive_leading(self):
        v = np.array([-2.0, 1.0, 0.5])
        canon, s = canonicalize_mode(v)
        assert np.isclose(np.linalg.norm(canon), 1.0)
        assert canon[0].real > 0 and abs(canon[0].imag) < 1e-15
        assert np.allclose(s * canon, v)

    def test_complex_phase_removed(self):
        v = np.exp(1.3j) * np.array([1.0 + 0j, 2.0j])
        canon, s = canonicalize_mode(v)
        assert abs(canon[0].imag) < 1e-12 and canon[0].real > 0
        assert np.allclose(s * canon, v)

    def test_zero_vector_passthrough(self):
        canon, s = canonicalize_mode(np.zeros(3))
        assert np.array_equal(canon, np.zeros(3)) and s == 1.0

    def test_matrix_canonicalizes_each_column(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        M[:, 2] = 0.0
        M[0, 1] = 1e-12  # below tol * norm: the leading entry is the next one
        canon, s = canonicalize_mode(M)
        assert s.shape == (4,)
        for j in range(4):
            col, s_j = canonicalize_mode(M[:, j])
            assert np.array_equal(canon[:, j], col) and s[j] == s_j


class TestExactDmd:
    def test_diagonal_recovery(self):
        spec = LinearSystemSpec(eigenvalues=np.array([0.9, 0.5]), eigenvector_matrix=np.eye(2, dtype=complex))
        X = simulate(spec, np.array([1.0, 1.0]), 10)
        model = exact_dmd(split_snapshots(X))
        # Oracle: dense eigensolve of X2 X1^+.
        pair = split_snapshots(X)
        dense = np.linalg.eigvals(pair.X2 @ np.linalg.pinv(pair.X1))
        dense = dense[np.abs(dense) > 1e-10]
        assert match_spectra(model.eigenvalues, [0.9, 0.5]) < 1e-10
        assert match_spectra(model.eigenvalues, dense) < 1e-9

    def test_constant_data(self):
        X = np.outer([3.0, 4.0], np.ones(6))
        model = exact_dmd(split_snapshots(X))
        assert model.rank_used == 1
        assert abs(model.eigenvalues[0] - 1.0) < 1e-12
        canon_x, _ = canonicalize_mode(np.array([3.0, 4.0]))
        assert np.linalg.norm(model.modes[:, 0] - canon_x) < 1e-12

    def test_rank_too_high(self):
        X = np.outer([3.0, 4.0], np.ones(6))
        with pytest.raises(RankTooHigh):
            exact_dmd(split_snapshots(X), r=2)

    def test_modes_unit_norm_canonical(self):
        spec = random_linear_system(8, 5, seed=11)
        X = simulate(spec, well_posed_initial_state(spec, seed=12), 20)
        model = exact_dmd(split_snapshots(X))
        norms = np.linalg.norm(model.modes, axis=0)
        assert np.allclose(norms[norms > 0], 1.0)
        for col in model.modes.T:
            nz = col[np.abs(col) > 1e-10 * np.linalg.norm(col)] if np.linalg.norm(col) else []
            if len(nz):
                assert nz[0].real > 0

    def test_eigenvalue_ordering(self):
        spec = random_linear_system(8, 5, seed=13)
        X = simulate(spec, well_posed_initial_state(spec, seed=14), 20)
        model = exact_dmd(split_snapshots(X))
        mods = np.abs(model.eigenvalues)
        assert np.all(np.diff(mods) <= 1e-12)

    def test_eigenvalue_order_under_modulus_ties(self):
        # Descending modulus, then ascending angle; a conjugate pair whose
        # moduli differ by one ulp is ordered by angle, whichever is larger,
        # also one ulp either side of (k + 1/2) TIE_TOL max |lam|, where
        # rounding the moduli to multiples of the tolerance would part it.
        upper = 0.6 + 0.7j
        lower = complex(0.6, -np.nextafter(np.nextafter(0.7, 0.0), 0.0))
        assert abs(upper) - abs(lower) == np.spacing(abs(lower))
        for lams in ([0.5, upper, lower, 0.95], [lower, 0.5, 0.95, upper]):
            lams = np.array(lams)
            assert np.array_equal(lams[_eigen_order(lams)], [0.95, lower, upper, 0.5])
        tol = TIE_TOL * 2.0
        below, above = np.nextafter((1e11 + 0.5) * tol, 0.0), np.nextafter((1e11 + 0.5) * tol, 1.0)
        assert np.round(below / tol) != np.round(above / tol)
        assert np.array_equal(_eigen_order(np.array([2.0, above * 1j, -below * 1j, 0.1])), [0, 2, 1, 3])

    @pytest.mark.filterwarnings("error")
    def test_subnormal_singular_value_rejected(self):
        X1 = np.array([[5e-324, 0.0]])
        with pytest.raises(InvalidInput, match="too small to invert"):
            exact_dmd(SnapshotPair(X1, np.zeros_like(X1)))

    @pytest.mark.filterwarnings("error")
    def test_reduced_operator_overflow_rejected(self):
        # 1/sigma = 1e300 is finite, but Z = X2 V Sigma^-1 is not.
        with pytest.raises(InvalidInput, match="overflows"):
            exact_dmd(SnapshotPair([[1e-300, 0.0]], [[1e10, 0.0]]))

    def test_wide_fit_holds_no_copy_of_the_data(self):
        # Over the empty set of fixed frequencies the fitted block is X1
        # itself, a view: the SVD's T x n factor sets the peak, about 1.2
        # blocks of X1's size. A copy of X1 would add one more block.
        pair = split_snapshots(synth_line_noise(64, 1000.0, 5.0, 60.0, seed=0))
        tracemalloc.start()
        try:
            exact_dmd(pair, r=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * pair.X1.nbytes


class TestCenteredDmd:
    def test_golden_affine_example(self):
        _, X = golden_affine_trajectory()
        assert np.array_equal(X, [[1, 3, 7, 15], [1, 5, 17, 53]])
        model = centered_dmd(split_snapshots(X))
        assert match_spectra(model.base.eigenvalues, [2.0, 3.0]) < 1e-10
        assert np.allclose(model.bias, [1.0, 2.0], atol=1e-10)
        assert np.allclose(model.fixed_point, [-1.0, -1.0], atol=1e-10)
        assert np.isrealobj(model.bias) and np.isrealobj(model.fixed_point)

    def test_uncentered_fit_is_inconsistent_here(self):
        _, X = golden_affine_trajectory()
        pair = split_snapshots(X)
        assert consistency_residual(pair) > 1e-3
        unc = exact_dmd(pair)
        assert match_spectra(unc.eigenvalues, [2.0, 3.0]) > 1e-3

    def test_matches_exact_on_zero_mean_linear_data(self):
        from cdmd.dmd import SnapshotPair

        spec = random_linear_system(6, 4, seed=21)
        X = simulate(spec, well_posed_initial_state(spec, seed=22), 15)
        raw = split_snapshots(X)
        # Zero-mean data: center each snapshot block; centering is then a
        # no-op and both decompositions must coincide.
        pair = SnapshotPair(
            raw.X1 - raw.X1.mean(axis=1, keepdims=True),
            raw.X2 - raw.X2.mean(axis=1, keepdims=True),
        )
        cen = centered_dmd(pair, r=4)
        unc = exact_dmd(pair, r=4)
        assert match_spectra(cen.base.eigenvalues, unc.eigenvalues) < 1e-8

    def test_fixed_point_absent_with_unit_eigenvalue(self):
        lams = np.append(random_linear_system(6, 3, seed=23).eigenvalues, 1.0)
        spec = random_linear_system(6, 4, prescribed=lams, seed=24)
        X = simulate(spec, well_posed_initial_state(spec, seed=25), 15)
        # The raw data carry the unit eigenvalue; centering keeps it out, so
        # compare against the uncentered model instead.
        unc = exact_dmd(split_snapshots(X), r=4)
        assert np.min(np.abs(unc.eigenvalues - 1.0)) < 1e-8

    @pytest.mark.filterwarnings("error")
    def test_subnormal_singular_value_rejected(self):
        X1 = np.array([[5e-324, 0.0]])
        with pytest.raises(InvalidInput, match="too small to invert"):
            centered_dmd(SnapshotPair(X1, np.zeros_like(X1)))

    @pytest.mark.filterwarnings("error")
    def test_reduced_operator_overflow_rejected(self):
        with pytest.raises(InvalidInput, match="overflows"):
            centered_dmd(SnapshotPair([[1e-300, 0.0]], [[1e10, 0.0]]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [1, 40])
    def test_nonfinite_centered_data_rejected(self, n):
        # Finite data whose column means overflow (n = 1, fitted on itself)
        # or whose QR coordinates do (n = 40, a tall trajectory); in the
        # second row only the sums behind the mean of X2, and so the bias, do.
        for row in ([1.5e308, 1.7e308, 1.6e308, 1.4e308], [-1.6e308, 1e308, 1e308, 1.7e308]):
            with pytest.raises(InvalidInput, match="non-finite"):
                centered_dmd(split_snapshots(np.tile(row, (n, 1))))

    @pytest.mark.parametrize("shape", [(200, 29), (20, 299), (30, 30)], ids=["tall", "wide", "square"])
    def test_centering_drops_the_rank_by_one_at_any_offset(self, shape):
        # Two decaying rotations (rank 4) on a column offset: the raw pair has
        # rank 5 and the centered one rank 4. The offset leaves rounding of
        # about eps * offset in the data. Judged against the centered data
        # alone, that rounding counted as rank from an offset of about 1e6 on.
        n, T = shape
        rng = np.random.default_rng(9)
        A = np.zeros((4, 4))
        for k, (rho, theta) in enumerate([(0.999, 0.3), (0.998, 1.1)]):
            A[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = rho * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        Z = np.empty((4, T + 1))
        Z[:, 0] = rng.standard_normal(4)
        for t in range(T):
            Z[:, t + 1] = A @ Z[:, t]
        X = rng.standard_normal((n, 4)) @ Z
        c = rng.standard_normal((n, 1))
        for offset in (1.0, 1e2, 1e4, 1e6, 1e8):
            pair = split_snapshots(X + offset * c)
            exact = exact_dmd(pair).rank_used
            assert exact == 5
            assert centered_dmd(pair).base.rank_used == frequency_subtracted_dmd(pair, [1.0]).base.rank_used == exact - 1

    def test_wide_shifted_fit_holds_one_trajectory_copy(self):
        # One shifted copy of the pair's data, the centered first block and
        # the SVD's T x n factor. For a trajectory, n x (T+1), that is about 3
        # blocks of X1's size; shifted and centered copies of both blocks took
        # 4.2. Two independent blocks, n x 2T, add one block.
        rng = np.random.default_rng(0)
        X = rng.standard_normal((64, 5001))
        for pair, blocks in ((split_snapshots(X), 3.5), (SnapshotPair(X[:, :-1], rng.standard_normal((64, 5000))), 4.5)):
            tracemalloc.start()
            try:
                centered_dmd(pair, r=8)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < blocks * pair.X1.nbytes

    def test_256x256_video_fixed_point_is_background(self):
        # n = 65536: a dense n x n operator alone would take 34 GB.
        pair = split_snapshots(synth_video(256, 256, 48, seed=0))
        cen = centered_dmd(pair)
        unc = exact_dmd(pair)
        background, _ = canonicalize_mode(unc.modes[:, int(np.argmin(np.abs(unc.eigenvalues - 1.0)))])
        fixed, _ = canonicalize_mode(cen.fixed_point)
        assert np.linalg.norm(background - fixed) < 1e-6


def _assert_same_spectrum(a, b):
    assert a.shape == b.shape
    assert np.max(np.abs(np.sort_complex(a) - np.sort_complex(b))) <= 1e-10


class TestBatchedEigenvalues:
    """The eigenvalue-only path on stacks of trajectories, against full fits."""

    def test_noise_grid_stack_matches_looped_fits(self):
        lams = np.append(random_linear_system(8, 4, seed=70).eigenvalues, 1.0)
        spec = random_linear_system(8, 5, prescribed=lams, seed=71)
        X = simulate(spec, well_posed_initial_state(spec, seed=72), 20)
        for i, eta in enumerate([1e-5, 1e-3, 1e-2]):
            Y = np.stack([add_noise(X, eta, _cell_seed(4, i, j)) for j in range(6)])
            lam_c = _eigenvalues(Y, 4, centered=True)
            lam_u = _eigenvalues(Y, 5)
            for j, Yj in enumerate(Y):
                pair = split_snapshots(Yj)
                _assert_same_spectrum(lam_c[j], centered_dmd(pair, r=4).base.eigenvalues)
                _assert_same_spectrum(lam_u[j], exact_dmd(pair, r=5).eigenvalues)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lorenz_pair_matches_fits(self, seed):
        X = add_noise(lorenz_rk4(LorenzParams()), 0.03, seed)
        pair = split_snapshots(X)
        _assert_same_spectrum(_eigenvalues(X[None], 3, centered=True)[0], centered_dmd(pair, r=3).base.eigenvalues)
        _assert_same_spectrum(_eigenvalues(X[None], 3)[0], exact_dmd(pair, r=3).eigenvalues)

    def test_rank_deficient_slice_rejected(self):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((3, 4, 9))
        stack[1] = np.outer(rng.standard_normal(4), rng.standard_normal(9))  # rank 1
        with pytest.raises(RankTooHigh):
            _eigenvalues(stack, 2)
        assert _eigenvalues(stack, 1).shape == (3, 1)

    @pytest.mark.filterwarnings("error")
    def test_subnormal_slice_rejected(self):
        # The second slice's X1 = [5e-324, 0] has a subnormal singular value.
        Y = np.array([[[1.0, 2.0, 1.0]], [[5e-324, 0.0, 1.0]], [[3.0, 1.0, 1.0]]])
        with pytest.raises(InvalidInput, match="too small to invert"):
            _eigenvalues(Y, 1)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_slice_rejected(self):
        # The second slice's 1 / sigma is finite, but X2 W overflows Atilde.
        Y = np.array([[[2.0, 2.0, 2.0]], [[1e-300, 1e-300, 1e10]], [[3.0, 3.0, 3.0]]])
        with pytest.raises(InvalidInput, match="overflows"):
            _eigenvalues(Y, 1)
        assert np.allclose(_eigenvalues(Y[[0, 2]], 1), 1.0)

    def test_stack_needs_rank(self):
        with pytest.raises(InvalidInput, match="explicit rank"):
            _eigenvalues(np.ones((2, 3, 5)), None)


class TestAffineDmdDirect:
    def test_golden_example_exact(self):
        _, X = golden_affine_trajectory()
        A, b = affine_dmd_direct(split_snapshots(X))
        assert np.allclose(A, np.diag([2.0, 3.0]), atol=1e-9)
        assert np.allclose(b, [1.0, 2.0], atol=1e-9)

    def test_zero_mean_linear_data_gives_zero_bias(self):
        from cdmd.dmd import SnapshotPair

        spec = random_linear_system(5, 3, seed=31)
        X = simulate(spec, well_posed_initial_state(spec, seed=32), 12)
        raw = split_snapshots(X)
        pair = SnapshotPair(
            raw.X1 - raw.X1.mean(axis=1, keepdims=True),
            raw.X2 - raw.X2.mean(axis=1, keepdims=True),
        )
        _, b = affine_dmd_direct(pair)
        assert np.linalg.norm(b) < 1e-8 * max(np.linalg.norm(X), 1.0)

    def test_matches_centered_eigenvalues(self):
        spec = random_linear_system(7, 4, seed=33, bias="random")
        X = simulate(spec, well_posed_initial_state(spec, seed=34), 18)
        pair = split_snapshots(X)
        A, b = affine_dmd_direct(pair)
        cen = centered_dmd(pair, r=4)
        dense = np.linalg.eigvals(A)
        # Keep the 4 largest-modulus eigenvalues; the rest are numerically zero.
        dense = dense[np.argsort(-np.abs(dense))][:4]
        assert match_spectra(cen.base.eigenvalues, dense) < 1e-8
        assert np.linalg.norm(b - cen.bias) < 1e-8


class TestCompanionDmd:
    def test_scalar_example_minimum_norm(self):
        # c = X1^+ x_last is the minimum-norm solution: for data [1, 2, 4],
        # c = [0.8, 1.6] and the companion eigenvalues are {2, -0.4}.
        model = companion_dmd(np.array([[1.0, 2.0, 4.0]]))
        assert np.allclose(model.c_coeffs, [0.8, 1.6], atol=1e-12)
        assert match_spectra(model.companion_eigenvalues, [2.0, -0.4]) < 1e-10
        assert model.residual_norm < 1e-12

    def test_size_guard(self):
        X = np.random.default_rng(48).standard_normal((2, COMPANION_MAX_T + 2))
        with pytest.raises(InvalidInput, match=f"at most {COMPANION_MAX_T} snapshot pairs"):
            companion_dmd(X)

    def test_matches_dmd_on_full_column_rank_data(self):
        spec = random_linear_system(8, 5, seed=41)
        X = simulate(spec, well_posed_initial_state(spec, seed=42), 5)
        pair = split_snapshots(X)
        assert np.linalg.matrix_rank(pair.X1) == 5
        comp = companion_dmd(X)
        dmd = exact_dmd(pair)
        assert match_spectra(comp.companion_eigenvalues, dmd.eigenvalues) < 1e-8


class TestLargeRemovedTerm:
    """Fits whose second block carries a large term that the fit removes in r-space."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("fit", ["centered", "freq_subtracted"])
    def test_eigenvalues_of_the_operator(self, fit, seed):
        # X2 = A X1 + b h^T with |b| about 1e3, not a shifted trajectory:
        # centering removes b 1^T and frequency subtraction b cos(0.7 t). The
        # fits take u_r^H (C2 - P H) W as u_r^H (C2 W - P (H W)). H W
        # vanishes only up to rounding amplified by cond(X1) = 1e6, so without
        # the second term, or with its sign flipped, the eigenvalues miss this
        # bound in 4 or 5 of the 6 cases, by up to 82 x; with it they stay
        # below 1e-3 of it.
        rng = np.random.default_rng(seed)
        n, T = 6, 40
        lams = rng.uniform(0.3, 0.9, n)
        V = rng.standard_normal((n, n))
        A = V @ np.diag(lams) @ np.linalg.inv(V)
        X1 = np.linalg.qr(rng.standard_normal((n, n)))[0] * np.logspace(0, -6, n) @ rng.standard_normal((n, T))
        b = 1e3 * rng.standard_normal(n)
        if fit == "centered":
            model = centered_dmd(SnapshotPair(X1, A @ X1 + b[:, None])).base
            X1_fit = X1 - X1.mean(axis=1, keepdims=True)
        else:
            t = np.arange(T)
            pair = SnapshotPair(X1, A @ X1 + np.outer(b, np.cos(0.7 * t)))
            model = frequency_subtracted_dmd(pair, [np.exp(0.7j), np.exp(-0.7j)]).base
            Q = np.linalg.qr(np.column_stack([np.cos(0.7 * t), np.sin(0.7 * t)]))[0]
            X1_fit = X1 - (X1 @ Q) @ Q.T
        sigma_min = np.linalg.svd(X1_fit, compute_uv=False)[-1]
        bound = 1e-13 * np.linalg.cond(V) * np.linalg.norm(b) * np.sqrt(T) / sigma_min
        assert model.rank_used == n
        assert match_spectra(model.eigenvalues, lams) <= bound


class TestFrequencySubtractedDmd:
    def test_unit_lambda_equals_centering(self):
        _, X = golden_affine_trajectory()
        pair = split_snapshots(X)
        sub = frequency_subtracted_dmd(pair, [1.0])
        cen = centered_dmd(pair)
        assert match_spectra(sub.base.eigenvalues, cen.base.eigenvalues) < 1e-9
        assert match_spectra(sub.base.eigenvalues, [2.0, 3.0]) < 1e-9
        # The forcing column is the centered fit's bias, here and on tall and
        # wide data with column offsets 10, 1e3 and 1e6 times the fluctuations,
        # at the rank of the same data without the offset, which centering
        # removes. Projecting the unshifted data instead kept rank 48 of 47 on
        # the tall pair at 1e3, with B[:, 0] off by 1.2 relative.
        rng = np.random.default_rng(5)
        cases = [(pair, 2)]
        for n, T in [(4096, 48), (64, 4999)]:
            X, offset = rng.standard_normal((n, T + 1)), rng.standard_normal((n, 1))
            rank = centered_dmd(split_snapshots(X)).base.rank_used
            cases.extend((split_snapshots(X + scale * offset), rank) for scale in (10.0, 1e3, 1e6))
        for pair, rank in cases:
            sub = frequency_subtracted_dmd(pair, [1.0])
            cen = centered_dmd(pair)
            assert sub.base.rank_used == cen.base.rank_used == rank
            assert np.linalg.norm(sub.B[:, 0] - cen.bias) <= 1e-12 * np.linalg.norm(cen.bias)
        # A nearly coincident pair leaves Lt singular at the rank rule's
        # tolerance: no Lt^+ to recover B with, so the fit raises, naming both.
        with pytest.raises(InvalidInput, match=r"\(1\+0j\) and \(1\.0000000000001\+0j\) are too close"):
            frequency_subtracted_dmd(cases[0][0], [1.0, 1.0 + 1e-13])

    @pytest.mark.parametrize(
        "fit, k",
        [(centered_dmd, 1), (lambda pair: frequency_subtracted_dmd(pair, [0.5, 0.9]), 2)],
        ids=["centered", "freq_sub"],
    )
    def test_fixed_frequency_count_checked_before_factoring(self, fit, k, monkeypatch):
        # Centering is the count check at lambda = [1]: a pair with T = 1 has
        # no snapshot left once the mean is taken out.
        def fail(*args):
            raise AssertionError("the pair was factored before its count was checked")

        monkeypatch.setattr("cdmd.dmd._coordinates", fail)
        pair = split_snapshots(np.random.default_rng(5).standard_normal((40, k + 1)))  # tall, T = k
        with pytest.raises(InvalidInput, match=rf"need fewer fixed frequencies \({k}\) than snapshots \({k}\)"):
            fit(pair)

    def test_empty_set_rejected(self):
        # The projected fit takes an empty set (that is exact DMD); the public
        # entry point still asks for at least one fixed frequency.
        with pytest.raises(InvalidInput, match="fixed_lambdas must be nonempty"):
            frequency_subtracted_dmd(split_snapshots(golden_affine_trajectory()[1]), [])

    def test_complex_forcing_removed(self):
        spec = random_linear_system(10, 5, seed=43, bias="random")
        x1 = well_posed_initial_state(spec, seed=44, forcing_lambda=-1j)
        X = simulate(spec, x1, 9, forcing_lambda=-1j)
        pair = split_snapshots(X)
        sub = frequency_subtracted_dmd(pair, [-1j], r=5)
        assert match_spectra(sub.base.eigenvalues, spec.eigenvalues) < 1e-8
        plain = exact_dmd(pair, r=6)
        assert np.min(np.abs(plain.eigenvalues - (-1j))) < 1e-8

    def test_two_forcing_lambdas(self):
        # Data forced at both +1 and -1: x_{j+1} = A x_j + b1 + b2 (-1)^{j-1}.
        spec = random_linear_system(10, 4, seed=45, bias="random")
        rng = np.random.default_rng(46)
        b2 = rng.standard_normal(10)
        x1 = well_posed_initial_state(spec, seed=47)
        A = spec.matrix
        # Particular offset for the (-1)-forcing keeps the trajectory low rank.
        d = np.linalg.solve(-np.eye(10) - A, b2)
        x = x1 + d
        X = np.empty((10, 14))
        X[:, 0] = x
        for j in range(13):
            x = A @ x + spec.bias + b2 * (-1.0) ** j
            X[:, j + 1] = x
        sub = frequency_subtracted_dmd(split_snapshots(X), [1.0, -1.0], r=4)
        assert match_spectra(sub.base.eigenvalues, spec.eigenvalues) < 1e-8

    @pytest.mark.parametrize("lam", [-1j, 0.5 + 0.5j, np.exp(0.7j), -1.0, 0.9])
    def test_dominant_forcing_recovered(self, lam):
        # The forcing is about 1e6 times the modal content, which the float64
        # data carry only to about 1e6 * eps relative; B must still equal the
        # generator's b (simulate adds b * lam**(j-1) at step j, so B = b).
        # Without the Q (Qh W) term of the lift Z = X2 (W - Q (Qh W)), or with
        # its sign flipped, B is wrong by more than 1e-2 relative on these
        # systems, against at most 4e-8 with it.
        for seed in range(5):
            spec = random_linear_system(9, 4, seed=40_000 + seed, bias="random")
            spec = dataclasses.replace(spec, bias=1e6 * spec.bias)
            x1 = well_posed_initial_state(spec, seed=41_000 + seed, forcing_lambda=lam)
            X = simulate(spec, x1, 12, forcing_lambda=lam)
            sub = frequency_subtracted_dmd(split_snapshots(X), [lam], r=4)
            assert np.linalg.norm(sub.B[:, 0] - spec.bias) <= 1e-7 * np.linalg.norm(spec.bias)

    @pytest.mark.parametrize("T", [500, 2000])
    @pytest.mark.parametrize("lam", [0.98, 1.0, 1.01, 1.02, 1.03])
    def test_growing_forcing_fits_or_raises(self, lam, T):
        # The late columns carry the forcing at |lam|^T times the dynamics, and
        # the dynamics only to that forcing's rounding. At T = 2000 and lam =
        # 1.02 or 1.03 (|lam|^T = 1.6e17 and 4.1e25) the projection leaves
        # only that rounding: the rank rule, at the scale of the removed
        # content, keeps none of it, where at the scale of the projected data
        # alone the fit returned B off by 0.9 relative and eigenvalues off by
        # 2 or more, in silence. The other cases, at |lam|^T up to 4.4e8, fit.
        spec = random_linear_system(30, 4, seed=3, bias="random")
        X = simulate(spec, well_posed_initial_state(spec, 5, forcing_lambda=lam), T, forcing_lambda=lam)
        pair = split_snapshots(X)
        if T == 2000 and lam > 1.01:
            with pytest.raises(RankTooHigh, match="requested rank 4 but only 0 singular values"):
                frequency_subtracted_dmd(pair, [lam], r=4)
            # The data are not zero: the error names the scale of the removed content.
            with pytest.raises(InvalidInput, match=r"no singular value lies above rel_tol \* \S+, the size") as err:
                frequency_subtracted_dmd(pair, [lam])
            assert "all zero" not in str(err.value)
            return
        sub = frequency_subtracted_dmd(pair, [lam], r=4)
        assert np.linalg.norm(sub.B[:, 0] - spec.bias) <= 1e-7 * np.linalg.norm(spec.bias)
        assert match_spectra(sub.base.eigenvalues, spec.eigenvalues) < 1e-8

    def test_overflowing_forcing_named(self):
        pair = split_snapshots(np.random.default_rng(0).standard_normal((4, 5000)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match=r"modulus 1\.5\b.*length 4999"):
                frequency_subtracted_dmd(pair, [1.5], r=2)
            # Decaying powers underflow to zero, which is representable: the fit goes through.
            sub = frequency_subtracted_dmd(pair, [0.5, 0.25], r=2)
        assert sub.base.rank_used == 2 and np.all(np.isfinite(sub.B))

    def test_wide_fit_holds_no_complex_copy_of_the_data(self):
        # B = (X2 Q - Z (u_r^H C1 Q)) (Lt Q)^-1 with the real basis Q makes no
        # complex copy of X2 and no n x T difference: 2.2 blocks of X1's size,
        # against 3.1 with both and 2.3 with one complex copy of X2.
        pair = split_snapshots(np.random.default_rng(0).standard_normal((64, 5001)))
        lam = np.exp(2j * np.pi * 60 / 1000)
        tracemalloc.start()
        try:
            frequency_subtracted_dmd(pair, [lam, lam.conjugate()], r=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * pair.X1.nbytes

    def test_complex_basis_fit_memory(self):
        # One lambda with no conjugate: Q, from the QR of Lt^H, is complex, so
        # the projected block is complex. It is formed in the buffer of (C1 Q) Qh, and the
        # wide SVD takes its transpose, a view, not a conjugated copy.
        pair = split_snapshots(np.random.default_rng(0).standard_normal((64, 5001)))
        tracemalloc.start()
        try:
            frequency_subtracted_dmd(pair, [np.exp(2j * np.pi * 60 / 1000)], r=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * pair.X1.nbytes

    def test_real_lambdas_take_a_real_basis(self):
        # A conjugate-closed set, all-real or not, gets a real Q whatever the
        # data: the same projector and (Lt Q)^-1 as the complex basis from the
        # QR of Lt^H. Real lams give real powers and a real (Lt Q)^-1 too.
        T = 40
        for lams in ([1.0, -1.0, 0.5], [1.0, np.exp(0.7j), np.exp(-0.7j)]):
            lams = np.array(lams, dtype=complex)
            Lt = vandermonde(lams, T).T
            Qc = np.linalg.qr(Lt.conj().T)[0]
            Q, LtQ_inv = _frequency_basis(lams, T)
            assert np.isrealobj(Q) and np.isrealobj(LtQ_inv) == (not np.any(lams.imag))
            assert np.linalg.norm(Q @ Q.T - Qc @ Qc.conj().T) <= 1e-14
            assert np.linalg.norm(Q @ LtQ_inv - np.linalg.pinv(Lt)) <= 1e-14 * np.linalg.norm(np.linalg.pinv(Lt))
        # On complex data the real basis of the complex set removes what its complex basis does.
        rng = np.random.default_rng(2)
        truth, t = 0.95 * np.exp(1j * np.array([0.3, 1.1, 1.9, 2.6])), np.arange(T + 1)
        X = (rng.standard_normal((20, 4)) + 1j * rng.standard_normal((20, 4))) @ truth[:, None] ** t
        X += (rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))) @ lams[:, None] ** t
        pair = split_snapshots(X)
        P = np.eye(T) - Qc @ Qc.conj().T
        fit = frequency_subtracted_dmd(pair, lams, r=4).base.eigenvalues
        _assert_same_spectrum(fit, truth)
        _assert_same_spectrum(fit, exact_dmd(SnapshotPair(pair.X1 @ P, pair.X2 @ P), r=4).eigenvalues)

    def test_validation(self):
        pair = split_snapshots(np.arange(8.0).reshape(2, 4))
        with pytest.raises(InvalidInput):
            frequency_subtracted_dmd(pair, [1.0, 1.0])
        with pytest.raises(InvalidInput):
            frequency_subtracted_dmd(pair, [1.0, -1.0, 1j])


class TestReconstruct:
    def test_constant_single_mode(self):
        X = np.outer([1.0, 0.0], np.ones(5))
        model = exact_dmd(split_snapshots(X))
        out = reconstruct(model, np.array([1.0, 0.0]), 4)
        assert np.allclose(out, np.outer([1.0, 0.0], np.ones(4)))

    def test_linear_data_roundtrip(self):
        spec = random_linear_system(6, 4, seed=51)
        X = simulate(spec, well_posed_initial_state(spec, seed=52), 12)
        model = exact_dmd(split_snapshots(X))
        out = reconstruct(model, X[:, 0], X.shape[1])
        assert np.linalg.norm(out - X) < 1e-8 * np.linalg.norm(X)

    def test_complex_data_roundtrip(self):
        # A complex trajectory of a real system: the forecast keeps its
        # imaginary part and matches the data.
        spec = random_linear_system(6, 4, seed=51)
        x1 = well_posed_initial_state(spec, seed=52) + 1j * well_posed_initial_state(spec, seed=55)
        X = simulate(spec, x1, 12)
        out = reconstruct(exact_dmd(split_snapshots(X)), X[:, 0], X.shape[1])
        assert np.iscomplexobj(out) and np.linalg.norm(out.imag) > 0.1 * np.linalg.norm(out)
        assert np.linalg.norm(out - X) < 1e-8 * np.linalg.norm(X)

    def test_affine_data_roundtrip_via_fixed_point(self):
        _, X = golden_affine_trajectory()
        model = centered_dmd(split_snapshots(X))
        out = reconstruct(model, X[:, 0], X.shape[1])
        assert np.linalg.norm(out - X) < 1e-8 * np.linalg.norm(X)

    def test_rejects_zero_steps(self):
        _, X = golden_affine_trajectory()
        model = exact_dmd(split_snapshots(X))
        with pytest.raises(InvalidInput):
            reconstruct(model, X[:, 0], 0)

    def test_unit_eigenvalue_bias_sum_matches_loop(self):
        # A has eigenvalue 1 and b a component along it, so the state drifts
        # linearly and the centered fit keeps lambda = 1 with no fixed point.
        # The bias sum of reconstruct then equals the step-by-step recursion
        # s_k = Phi (lambda * Phi^+ s_{k-1}) + b that it replaces.
        rng = np.random.default_rng(8)
        V = rng.standard_normal((3, 3))
        A = V @ np.diag([1.0, 0.9, 0.5]) @ np.linalg.inv(V)
        b = rng.standard_normal(3)
        X = np.empty((3, 12))
        X[:, 0] = rng.standard_normal(3)
        for k in range(11):
            X[:, k + 1] = A @ X[:, k] + b
        model = centered_dmd(split_snapshots(X))
        assert model.fixed_point is None
        steps = 2000
        base = model.base
        expected = np.zeros((3, steps), dtype=complex)
        modes_pinv = pinv(base.modes)
        s = np.zeros(3, dtype=complex)
        for k in range(1, steps):
            s = base.modes @ (base.eigenvalues * (modes_pinv @ s)) + model.bias
            expected[:, k] = s
        expected += reconstruct(base, X[:, 0], steps)
        out = reconstruct(model, X[:, 0], steps)
        assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(expected)
        assert np.linalg.norm(out[:, :12] - X) <= 1e-8 * np.linalg.norm(X)

    def test_real_output_for_conjugate_spectrum(self):
        spec = random_linear_system(6, 4, seed=53)
        X = simulate(spec, well_posed_initial_state(spec, seed=54), 12)
        out = reconstruct(exact_dmd(split_snapshots(X)), X[:, 0], 5)
        assert np.isrealobj(out)


class TestConsistencyResidual:
    def test_linear_trajectory_zero(self):
        spec = random_linear_system(6, 4, seed=61)
        X = simulate(spec, well_posed_initial_state(spec, seed=62), 12)
        pair = split_snapshots(X)
        assert consistency_residual(pair) < 1e-10 * np.linalg.norm(pair.X2)

    def test_golden_affine_positive(self):
        _, X = golden_affine_trajectory()
        assert consistency_residual(split_snapshots(X)) > 1e-3

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pinv_formula(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(2, 12)), int(rng.integers(1, 6))
        X = rng.standard_normal((n, k)) @ rng.standard_normal((k, int(rng.integers(k + 4, 30)))) + rng.standard_normal((n, 1))
        pair = split_snapshots(X)
        old = np.linalg.norm(pair.X2 - pair.X2 @ (pinv(pair.X1) @ pair.X1))
        assert old > 1e-3 * np.linalg.norm(pair.X2)
        assert abs(consistency_residual(pair) - old) <= 1e-12 * old

    def test_no_t_by_t_allocation(self):
        pair = split_snapshots(np.random.default_rng(65).standard_normal((64, 5000)))
        tracemalloc.start()
        try:
            consistency_residual(pair)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * pair.X1.nbytes  # a 5000 x 5000 product alone is 78 x the input

    def test_low_rank_affine_consistent(self):
        # Low-rank system with the fixed point outside the eigenvector span:
        # the raw data remain linearly consistent.
        spec = random_linear_system(8, 4, seed=63, bias="random")
        X = simulate(spec, well_posed_initial_state(spec, seed=64), 20)
        pair = split_snapshots(X)
        assert consistency_residual(pair) < 1e-8 * np.linalg.norm(pair.X2)
