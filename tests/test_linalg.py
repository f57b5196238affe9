"""Tests for the dense linear-algebra substrate."""

import dataclasses
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from cdmd import (
    InvalidInput,
    RankTooHigh,
    centered_dmd,
    consistency_residual,
    exact_dmd,
    frequency_subtracted_dmd,
    random_linear_system,
    split_snapshots,
    well_posed_initial_state,
)
from cdmd import linalg
from cdmd.dmd import _eigenvalues
from cdmd.experiments import ExperimentConfig, run_experiment
from cdmd.linalg import (
    centered_pinv_update,
    effective_rank,
    pinv,
    vandermonde,
)
from cdmd.synth import LinearSystemSpec, simulate
from oracles import unit_eigenvalue_certificate


def _diag_system(diag, bias=None):
    diag = np.asarray(diag, dtype=complex)
    return LinearSystemSpec(eigenvalues=diag, eigenvector_matrix=np.eye(diag.size, dtype=complex), bias=bias)


class TestPinv:
    def test_identity(self):
        assert np.allclose(pinv(np.eye(3)), np.eye(3))

    def test_diagonal_with_zero(self):
        assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_penrose_condition_rectangular(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((5, 3))
        P = pinv(M)
        assert np.linalg.norm(M @ P @ M - M) < 1e-10

    def test_zero_matrix(self):
        assert np.allclose(pinv(np.zeros((2, 3))), np.zeros((3, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            pinv(np.array([[np.nan, 1.0]]))

    @pytest.mark.parametrize("rel_tol", [0.0, 1.0, 2.0, -1.0, np.nan])
    @pytest.mark.parametrize(
        "truncate",
        [
            pinv,
            centered_pinv_update,
            effective_rank,
            lambda M, rel_tol: effective_rank(M, method="optimal_hard_threshold", rel_tol=rel_tol),
            lambda X1, rel_tol: exact_dmd(split_snapshots(X1), rel_tol=rel_tol),
            lambda X1, rel_tol: centered_dmd(split_snapshots(X1), rel_tol=rel_tol),
            lambda X1, rel_tol: frequency_subtracted_dmd(split_snapshots(X1), [0.5], rel_tol=rel_tol),
        ],
        ids=["pinv", "centered_pinv_update", "effective_rank", "effective_rank_oht", "exact_dmd", "centered_dmd", "freq_sub"],
    )
    def test_rejects_bad_tol(self, truncate, rel_tol):
        # rel_tol = 0 would keep round-off singular values; rel_tol >= 1 keeps none.
        X = np.random.default_rng(1).standard_normal((3, 6))
        with pytest.raises(InvalidInput, match="rel_tol"):
            truncate(X, rel_tol=rel_tol)

    @pytest.mark.filterwarnings("error")
    def test_subnormal_singular_value_rejected(self):
        # 1 / 5e-324 overflows; the pseudoinverse used to come back as [[inf], [0]].
        with pytest.raises(InvalidInput, match="too small to invert"):
            pinv(np.array([[5e-324, 0.0]]))


class TestEffectiveRank:
    def test_exact_rank(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 8))
        assert effective_rank(M) == 3

    def test_zero_matrix(self):
        assert effective_rank(np.zeros((4, 4))) == 0

    def test_optimal_hard_threshold_known_noise(self):
        rng = np.random.default_rng(4)
        M = 10.0 * rng.standard_normal((40, 6)) @ rng.standard_normal((6, 60))
        M = M + 0.1 * rng.standard_normal(M.shape)
        assert effective_rank(M, method="optimal_hard_threshold", noise_hint=0.1) == 6

    @pytest.mark.parametrize("noise_hint", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
    def test_bad_noise_hint_rejected(self, noise_hint):
        # On eye(3) a negative hint counted 3 and a NaN hint 0.
        with pytest.raises(InvalidInput, match="noise_hint must be nonnegative and finite"):
            effective_rank(np.eye(3), method="optimal_hard_threshold", noise_hint=noise_hint)

    def test_optimal_hard_threshold_unknown_noise(self):
        rng = np.random.default_rng(5)
        M = 10.0 * rng.standard_normal((40, 6)) @ rng.standard_normal((6, 60))
        M = M + 0.1 * rng.standard_normal(M.shape)
        assert effective_rank(M, method="optimal_hard_threshold") == 6

    def test_unknown_method(self):
        with pytest.raises(InvalidInput):
            effective_rank(np.eye(2), method="bogus")

    def test_range_invariant(self):
        assert 0 <= effective_rank(np.eye(3)) <= 3


class TestOneRankRule:
    def test_every_truncation_uses_the_rule(self, monkeypatch):
        # With the rule patched to one singular value, every default-rank
        # truncation in the package follows it.
        spec = random_linear_system(8, 4, seed=3, bias="random")
        pair = split_snapshots(simulate(spec, well_posed_initial_state(spec, seed=4), 20))
        _, _, Vt = np.linalg.svd(pair.X1, full_matrices=False)
        rank_one_residual = np.linalg.norm(pair.X2 - (pair.X2 @ Vt[:1].T) @ Vt[:1])
        assert consistency_residual(pair) < 1e-6 * rank_one_residual

        monkeypatch.setattr(linalg, "_rank", lambda s, rel_tol, scale=0.0: 1)
        assert exact_dmd(pair).rank_used == 1
        assert centered_dmd(pair).base.rank_used == 1
        assert frequency_subtracted_dmd(pair, [0.5]).base.rank_used == 1
        assert np.linalg.matrix_rank(pinv(pair.X1)) == 1
        assert effective_rank(pair.X1) == 1
        assert consistency_residual(pair) == pytest.approx(rank_one_residual, rel=1e-12)
        with pytest.raises(RankTooHigh):
            _eigenvalues(np.stack([pair._data] * 2), r=2)


class TestVandermonde:
    def test_direct_powers(self):
        V = vandermonde([2.0, 3.0], 3)
        assert np.allclose(V, [[1, 1], [2, 3], [4, 9]])

    def test_repeated_generator_rank_one(self):
        V = vandermonde([2.0, 2.0], 4)
        assert np.linalg.matrix_rank(V) == 1

    def test_wide_rank_caps_at_length(self):
        lam = np.array([0.5, 0.9, -0.3, 1.1, 0.2 + 0.7j, 0.2 - 0.7j])
        V = vandermonde(lam, 4)
        assert V.shape == (4, 6)
        assert np.linalg.matrix_rank(V) == 4

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            vandermonde([], 3)

    @pytest.mark.parametrize("length", [1, 5])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf, complex(np.inf, 1.0)], ids=["nan", "neg_inf", "complex_inf"])
    def test_nonfinite_generator_named(self, bad, length):
        # The generators are checked, not their powers: at length 1 the only power is lambda**0 = 1.
        with pytest.raises(InvalidInput, match=re.escape(f"lambda = {np.asarray(bad)} is not finite")):
            vandermonde([0.5, bad], length)

    @pytest.mark.parametrize("big", [1.5, -1.5j, 1e200])
    def test_overflow_names_generator(self, big):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            named = re.escape(f"lambda = {complex(big)} (modulus {abs(big):.6g})")
            with pytest.raises(InvalidInput, match=rf"{named}.*length 5000"):
                vandermonde([0.5, big, 0.9j], 5000)


class TestCenteredPinvUpdate:
    def test_constant_columns_give_zero(self):
        X1 = np.outer([1.0, 2.0], np.ones(5))
        assert np.allclose(centered_pinv_update(X1), np.zeros((5, 2)))

    def test_branch1_unit_eigenvalue_system(self):
        # A = diag(1, 0.5): ones lies in the row space of X1, branch 1.
        X = simulate(_diag_system([1.0, 0.5]), np.array([1.0, 1.0]), 5)
        X1 = X[:, :-1]
        expected = pinv(X1 - X1.mean(axis=1, keepdims=True))
        assert np.linalg.norm(centered_pinv_update(X1) - expected) < 1e-10

    def test_branch2_no_unit_eigenvalue(self):
        X = simulate(_diag_system([0.9, 0.5]), np.array([1.0, 1.0]), 5)
        X1 = X[:, :-1]
        expected = pinv(X1 - X1.mean(axis=1, keepdims=True))
        assert np.linalg.norm(centered_pinv_update(X1) - expected) < 1e-10

    def test_single_column_rejected(self):
        with pytest.raises(InvalidInput):
            centered_pinv_update(np.array([[1.0], [2.0]]))

    @pytest.mark.parametrize("scale", [1e-2, 1e-6, 1e-8, 1e-10])
    def test_ones_along_a_weak_direction(self, scale):
        # The ones vector lies in the row space of X1, but only along a
        # direction carried at `scale` times the rest, where the SVD's row
        # space is rounded to about eps cond(X1). m is then that large, and
        # is still taken for zero: branch 1.
        rng = np.random.default_rng(11)
        X1 = rng.standard_normal((3, 3)) @ np.vstack([rng.standard_normal((2, 30)), scale * np.ones(30)])
        Xb1 = X1 - X1.mean(axis=1, keepdims=True)
        Xb1 = Xb1 - Xb1.mean(axis=1, keepdims=True)
        expected = pinv(Xb1)
        s1, s2 = np.linalg.svd(X1, compute_uv=False)[[0, 2]], np.linalg.svd(Xb1, compute_uv=False)[[0, 1]]
        bound = 1e-13 * (s1[0] / s1[1]) * (s2[0] / s2[1])
        assert np.linalg.norm(centered_pinv_update(X1) - expected) <= bound * np.linalg.norm(expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_t_by_t_formula(self, seed):
        # The closed form with m = (I - X1^+ X1)^H 1 built from the T x T product.
        rng = np.random.default_rng(seed)
        m, T = int(rng.integers(2, 8)), int(rng.integers(3, 12))
        X1 = rng.standard_normal((m, T))
        if seed % 2 == 0:  # ones in the row space: branch 1
            X1 = X1 - X1.mean(axis=1, keepdims=True) + np.outer(rng.standard_normal(m), np.ones(T))
        P, ones = pinv(X1), np.ones(T)
        mvec = ones - (P @ X1).conj().T @ ones
        if np.linalg.norm(mvec, np.inf) < 1e-8 * np.sqrt(T):
            nvec = P.conj().T @ ones
            expected = P - np.outer(P @ nvec, nvec.conj()) / (nvec.conj() @ nvec)
        else:
            expected = P - np.outer(mvec, ones @ P) / (ones @ mvec)
        assert np.linalg.norm(centered_pinv_update(X1) - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_no_t_by_t_allocation(self):
        X1 = np.random.default_rng(7).standard_normal((64, 5000))
        tracemalloc.start()
        try:
            centered_pinv_update(X1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * X1.nbytes  # a 5000 x 5000 product alone is 78 x the input


class TestUnitEigenvalueCertificate:
    def test_constant_trajectory_true(self):
        X = np.outer([1.0, -2.0], np.ones(6))
        assert unit_eigenvalue_certificate(X[:, :-1], X, tol=1e-8)

    def test_unit_eigenvalue_true(self):
        X = simulate(_diag_system([1.0, 0.5]), np.array([1.0, 1.0]), 6)
        assert unit_eigenvalue_certificate(X[:, :-1], X, tol=1e-8)

    def test_no_unit_eigenvalue_false(self):
        X = simulate(_diag_system([0.9, 0.5]), np.array([1.0, 1.0]), 6)
        assert not unit_eigenvalue_certificate(X[:, :-1], X, tol=1e-8)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            unit_eigenvalue_certificate(np.eye(2), np.eye(2), tol=1e-8)


def _same(a, b):
    """Bitwise equality of two fit results (dataclasses of arrays, or arrays)."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    return np.array_equal(a, b)


needs_openblas = pytest.mark.skipif(
    linalg._openblas_thread_functions() is None, reason="NumPy's bundled OpenBLAS not found"
)


@needs_openblas
class TestOneBlasThread:
    """Fits run on one OpenBLAS thread and give the caller's count back."""

    FITS = {
        "exact": lambda p: exact_dmd(p),
        "centered": lambda p: centered_dmd(p),
        "freq_subtracted": lambda p: frequency_subtracted_dmd(p, [1.0]),
        "eigenvalues": lambda p: _eigenvalues(p._data[None], r=3),
        "stacked_centered": lambda p: _eigenvalues(np.stack([p._data] * 2), r=3, centered=True),
    }

    @pytest.fixture
    def threads(self):
        """The BLAS thread count, set to 2 for the test so that a lowering shows."""
        get, set_ = linalg._openblas_thread_functions()
        before = get()
        set_(2)
        try:
            yield get
        finally:
            set_(before)

    def test_import_loads_no_library_and_starts_no_thread(self):
        code = (
            "import threading, cdmd; "
            "assert cdmd.linalg._openblas_thread_functions.cache_info().currsize == 0; "
            "assert threading.active_count() == 1"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    @staticmethod
    def _pair(n=12, T=40, seed=0):
        return split_snapshots(np.random.default_rng(seed).standard_normal((n, T + 1)))

    @staticmethod
    def _record_svd_threads(monkeypatch, get):
        seen = []
        svd = linalg._svd

        def recording(M, compute_uv=True):
            seen.append(get())
            return svd(M, compute_uv)

        monkeypatch.setattr(linalg, "_svd", recording)
        return seen

    @pytest.mark.parametrize("fit", FITS)
    def test_fit_sees_one_thread(self, fit, threads, monkeypatch):
        seen = self._record_svd_threads(monkeypatch, threads)
        self.FITS[fit](self._pair())
        assert seen and set(seen) == {1}
        assert threads() == 2

    def test_experiment_blas_between_fits_sees_one_thread(self, threads, monkeypatch, tmp_path):
        # fig4 takes effective_rank, an SVD without vectors, outside any fit;
        # run_experiment holds one thread around the whole runner, so it sees
        # one thread as the fits do.
        seen = []
        svd = linalg._svd

        def recording(M, compute_uv=True):
            seen.append((compute_uv, threads()))
            return svd(M, compute_uv)

        monkeypatch.setattr(linalg, "_svd", recording)
        run_experiment(ExperimentConfig("fig4_dft", output_dir=tmp_path))
        assert (False, 1) in seen and {count for _, count in seen} == {1}
        assert threads() == 2

    @pytest.mark.parametrize(
        "fit, error",
        [
            (lambda p: exact_dmd(p, r=50), RankTooHigh),
            (lambda p: centered_dmd(p, r=0), InvalidInput),
            (lambda p: frequency_subtracted_dmd(p, [1.0], r=50), RankTooHigh),
            (lambda p: frequency_subtracted_dmd(p, [1e10]), InvalidInput),
            (lambda p: _eigenvalues(p._data[None], r=50, centered=True), RankTooHigh),
        ],
    )
    def test_count_restored_after_raise(self, fit, error, threads):
        with pytest.raises(error):
            fit(self._pair())
        assert threads() == 2

    @pytest.mark.parametrize("fit", FITS)
    def test_results_identical_without_the_library(self, fit, threads, monkeypatch):
        # Without the library the gate does nothing: the fit runs at the
        # caller's 2 threads, which OpenBLAS does not split a pair this small over.
        pair = self._pair(seed=1)
        gated = self.FITS[fit](pair)
        monkeypatch.setattr(linalg, "_openblas_thread_functions", lambda: None)
        seen = self._record_svd_threads(monkeypatch, threads)
        ungated = self.FITS[fit](pair)
        assert set(seen) == {2}
        assert _same(gated, ungated)

    def test_concurrent_fits_share_one_lowering(self, threads, monkeypatch):
        # More Python threads than cores, switching as often as the interpreter
        # allows and around every get and set of the count: every fit must see
        # one thread, and the last to leave must restore the caller's count.
        seen = self._record_svd_threads(monkeypatch, threads)
        functions = linalg._openblas_thread_functions()

        def yielding(f):
            def call(*args):
                time.sleep(0)
                return f(*args)

            return call

        monkeypatch.setattr(linalg, "_openblas_thread_functions", lambda: tuple(map(yielding, functions)))
        pairs = [self._pair(seed=k) for k in range(8)]
        errors = []

        def work(pair):
            try:
                for fit in self.FITS.values():
                    for _ in range(5):
                        fit(pair)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(pair,)) for pair in pairs]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert len(seen) >= 8 * 5 * len(self.FITS) and set(seen) == {1}
        assert threads() == 2
