"""Tests for the dense linear-algebra substrate."""

import tracemalloc

import numpy as np
import pytest

from cdmd import InvalidInput
from cdmd.linalg import (
    centered_pinv_update,
    effective_rank,
    pinv,
    unit_eigenvalue_certificate,
    vandermonde,
)
from cdmd.synth import LinearSystemSpec, simulate


def _diag_system(diag, bias=None):
    diag = np.asarray(diag, dtype=complex)
    n = diag.size
    return LinearSystemSpec(
        n=n, r=n, eigenvalues=diag, eigenvector_matrix=np.eye(n, dtype=complex), bias=bias
    )


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

    def test_rejects_bad_tol(self):
        with pytest.raises(InvalidInput):
            pinv(np.eye(2), rel_tol=2.0)

    @pytest.mark.filterwarnings("error")
    def test_subnormal_singular_value_rejected(self):
        # 1 / 5e-324 overflows; the pseudoinverse used to come back as [[inf], [0]].
        with pytest.raises(InvalidInput, match="too small to invert"):
            pinv(np.array([[5e-324, 0.0]]))


class TestEffectiveRank:
    def test_exact_rank(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 8))
        assert effective_rank(M).r == 3

    def test_zero_matrix(self):
        assert effective_rank(np.zeros((4, 4))).r == 0

    def test_relative_gap_with_noise(self):
        # Oracle: known-rank factorization plus small noise; the largest
        # singular-value ratio gap sits at index 7.
        rng = np.random.default_rng(3)
        M = rng.standard_normal((10, 7)) @ rng.standard_normal((7, 30))
        M = M + 1e-6 * rng.standard_normal(M.shape)
        assert effective_rank(M, method="relative_gap").r == 7

    def test_optimal_hard_threshold_known_noise(self):
        rng = np.random.default_rng(4)
        M = 10.0 * rng.standard_normal((40, 6)) @ rng.standard_normal((6, 60))
        M = M + 0.1 * rng.standard_normal(M.shape)
        est = effective_rank(M, method="optimal_hard_threshold", noise_hint=0.1)
        assert est.r == 6

    def test_optimal_hard_threshold_unknown_noise(self):
        rng = np.random.default_rng(5)
        M = 10.0 * rng.standard_normal((40, 6)) @ rng.standard_normal((6, 60))
        M = M + 0.1 * rng.standard_normal(M.shape)
        est = effective_rank(M, method="optimal_hard_threshold")
        assert est.r == 6

    def test_unknown_method(self):
        with pytest.raises(InvalidInput):
            effective_rank(np.eye(2), method="bogus")

    def test_range_invariant(self):
        est = effective_rank(np.eye(3))
        assert 0 <= est.r <= 3 and est.method == "exact_tol"


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
