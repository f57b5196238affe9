"""Property-based and batch invariant tests.

Structural identities that must hold over families of random inputs:
pseudoinverse axioms, Vandermonde rank laws, the centered-pseudoinverse
closed form, centering/affine equivalence, spectrum-replacement behavior
under centering, uniqueness cross-checks, and generator round-trips.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cdmd import (
    InvalidInput,
    centered_dmd,
    exact_dmd,
    frequency_subtracted_dmd,
    match_spectra,
    random_linear_system,
    simulate,
    split_snapshots,
    well_posed_initial_state,
)
from cdmd.dmd import TALL_FACTOR, SnapshotPair
from cdmd.linalg import (
    EXACT_TOL,
    _truncated_svd,
    centered_pinv_update,
    effective_rank,
    pinv,
    vandermonde,
)
from oracles import affine_dmd_direct, unit_eigenvalue_certificate

finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)
finite_complex = st.complex_numbers(max_magnitude=100.0, allow_nan=False, allow_infinity=False)


def matrices(max_rows=6, max_cols=8):
    return st.integers(1, max_rows).flatmap(
        lambda m: st.integers(2, max_cols).flatmap(
            lambda n: arrays(np.float64, (m, n), elements=finite_floats)
        )
    )


class TestPenroseConditions:
    @given(matrices())
    @example(np.array([[5e-324, 0.0]]))
    @example(np.array([[3.41921463e-224, 3.41921463e-224]]))  # ||P||^2 overflows
    @settings(max_examples=100, deadline=None)
    def test_penrose(self, M):
        s = np.linalg.svd(M, compute_uv=False)
        with np.errstate(divide="ignore", over="ignore"):
            overflows = s[0] > 0 and not np.all(np.isfinite(1.0 / s[s > EXACT_TOL * s[0]]))
        if overflows:
            # 1/sigma of a kept singular value overflows: no finite pseudoinverse.
            with pytest.raises(InvalidInput):
                pinv(M)
            return
        P = pinv(M)
        # The conditions hold for (M/||M||, P ||M||) exactly when they hold for
        # (M, P); in these units no norm overflows for tiny but invertible sigma.
        # ||M|| is the largest entry magnitude: the 2-norm itself can underflow.
        norm_M = np.max(np.abs(M))
        if norm_M > 0:
            M, P = M / norm_M, P * norm_M
        nM = np.linalg.norm(M) or 1.0
        nP = np.linalg.norm(P) or 1.0
        # Scale by ||M|| ||P|| (the conditioning of the problem): floating
        # point cannot do better for near-singular inputs.
        scale = max(1.0, nM * nP)
        assert np.linalg.norm(M @ P @ M - M) <= 1e-9 * nM * scale
        assert np.linalg.norm(P @ M @ P - P) <= 1e-9 * nP * scale
        assert np.linalg.norm(M @ P - (M @ P).T) <= 1e-9 * scale
        assert np.linalg.norm(P @ M - (P @ M).T) <= 1e-9 * scale


def wide_matrices():
    """A real or complex m x T matrix with m < T, or an (R, m, T) stack of them."""
    shapes = st.tuples(st.sampled_from([(), (1,), (3,)]), st.integers(1, 4), st.integers(1, 6))
    return shapes.map(lambda b: (*b[0], b[1], b[1] + b[2])).flatmap(
        lambda shape: arrays(np.float64, shape, elements=finite_floats)
        | arrays(np.complex128, shape, elements=finite_complex)
    )


class TestWideSvd:
    @given(wide_matrices())
    @example(np.array([[2.22507386e-313 + 0j, 2.22507386e-313 + 0j]]))  # 1 / peak overflows
    @settings(max_examples=200, deadline=None)
    def test_factors_reproduce_the_matrix(self, M):
        # A wide M is factored through M^H; the factors returned are those of M.
        # Each slice is scaled by the power of two that brings its largest entry
        # into [0.5, 1), so no norm underflows; the scaling is exact, and for a
        # subnormal peak it is not the reciprocal, which overflows.
        e = -np.frexp(np.max(np.abs(M), axis=(-2, -1), keepdims=True))[1]
        M = np.ldexp(M.real, e) + 1j * np.ldexp(M.imag, e) if np.iscomplexobj(M) else np.ldexp(M, e)
        U, s, Vt = _truncated_svd(M, EXACT_TOL)
        r = s.shape[-1]
        s_ref = np.linalg.svd(M, compute_uv=False)
        assert np.all(np.abs(s - s_ref[..., :r]) <= 1e-13 * s_ref[..., :1])
        # A stack keeps its fewest rule-passing singular values; by Eckart-Young
        # the dropped ones bound the error of the best rank-r approximation.
        dropped = np.linalg.norm(s_ref[..., r:], axis=-1)
        error = np.linalg.norm(M - (U * s[..., None, :]) @ Vt, axis=(-2, -1))
        assert np.all(error <= 1e-13 * np.linalg.norm(M, axis=(-2, -1)) + dropped)
        assert np.all(np.abs(U.conj().swapaxes(-1, -2) @ U - np.eye(r)) <= 1e-13)
        assert np.all(np.abs(Vt @ Vt.conj().swapaxes(-1, -2) - np.eye(r)) <= 1e-13)


class TestVandermondeRankLaw:
    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_distinct_full_rank_and_duplicate_drop(self, seed):
        rng = np.random.default_rng(seed)
        q = rng.integers(2, 6)
        length = int(rng.integers(q, q + 4))
        while True:
            lam = rng.uniform(-1, 1, q) + 1j * rng.uniform(-1, 1, q)
            sep = np.abs(lam[:, None] - lam[None, :])
            np.fill_diagonal(sep, np.inf)
            if sep.min() > 1e-2:
                break
        assert np.linalg.matrix_rank(vandermonde(lam, length)) == q
        lam_dup = np.append(lam[:-1], lam[0])
        assert np.linalg.matrix_rank(vandermonde(lam_dup, length)) == q - 1


class TestCenteredPinvClosedForm:
    def test_equality_over_100_matrices_both_branches(self):
        branch1 = branch2 = 0
        for i in range(100):
            rng = np.random.default_rng(1000 + i)
            m, T = int(rng.integers(2, 8)), int(rng.integers(3, 10))
            if i % 2 == 0:
                # Ones in the row space: append a constant direction.
                X1 = rng.standard_normal((m, T))
                X1 = X1 - X1.mean(axis=1, keepdims=True) + np.outer(rng.standard_normal(m), np.ones(T))
                X1 = X1[: max(2, m - 1)]  # keep it generic
            else:
                X1 = rng.standard_normal((m, T))
            P = pinv(X1)
            mvec = np.ones(T) - (P @ X1).T @ np.ones(T)
            if np.linalg.norm(mvec, np.inf) < 1e-8 * np.sqrt(T):
                branch1 += 1
            else:
                branch2 += 1
            expected = pinv(X1 - X1.mean(axis=1, keepdims=True))
            got = centered_pinv_update(X1)
            assert np.linalg.norm(got - expected) <= 1e-9 * max(np.linalg.norm(expected), 1.0)
        assert branch1 > 0 and branch2 > 0

    def test_branch_dispatch_matches_certificate(self):
        # The branch-1 predicate (ones in the row space of X1) coincides with
        # the unit-eigenvalue certificate on well-posed linear trajectories.
        for i in range(40):
            with_unit = i % 2 == 0
            base = random_linear_system(6, 3, seed=2000 + i)
            lams = np.append(base.eigenvalues, 1.0) if with_unit else base.eigenvalues
            spec = random_linear_system(6, lams.size, prescribed=lams, seed=2100 + i)
            X = simulate(spec, well_posed_initial_state(spec, seed=2200 + i), 12)
            X1 = X[:, :-1]
            P = pinv(X1)
            mvec = np.ones(12) - (P @ X1).T @ np.ones(12)
            branch1 = np.linalg.norm(mvec, np.inf) < 1e-8 * np.sqrt(12)
            assert branch1 == with_unit
            assert unit_eigenvalue_certificate(X1, X, tol=1e-6) == with_unit


class TestCenteringAffineEquivalence:
    def test_equivalence_100_systems_both_regimes(self):
        for i in range(100):
            full_rank = i % 2 == 0
            n = 6
            r = n if full_rank else 3
            spec = random_linear_system(n, r, seed=3000 + i, bias="random")
            X = simulate(spec, well_posed_initial_state(spec, seed=3100 + i), 18)
            pair = split_snapshots(X)
            cen = centered_dmd(pair, r=r)
            A, b = affine_dmd_direct(pair)
            dense = np.linalg.eigvals(A)
            dense = dense[np.argsort(-np.abs(dense))][:r]
            assert match_spectra(cen.base.eigenvalues, dense) < 1e-8
            assert np.linalg.norm(b - cen.bias) < 1e-8 * max(np.linalg.norm(b), 1.0)


class TestCenteredSpectrumReplacement:
    def test_unit_eigenvalue_replaced_by_zero(self):
        # Linear data carrying a unit eigenvalue: the centered spectrum is
        # the uncentered one with the single eigenvalue 1 traded for 0, and
        # the non-background modes agree in canonical form.
        for i in range(30):
            base = random_linear_system(8, 4, seed=4000 + i)
            lams = np.append(base.eigenvalues, 1.0)
            spec = random_linear_system(8, 5, prescribed=lams, seed=4100 + i)
            X = simulate(spec, well_posed_initial_state(spec, seed=4200 + i), 16)
            pair = split_snapshots(X)
            unc = exact_dmd(pair, r=5)
            cen = centered_dmd(pair)
            assert cen.base.rank_used == 4
            i_unit = int(np.argmin(np.abs(unc.eigenvalues - 1.0)))
            assert abs(unc.eigenvalues[i_unit] - 1.0) < 1e-8
            replaced = unc.eigenvalues.copy()
            replaced[i_unit] = 0.0
            assert match_spectra(replaced, np.append(cen.base.eigenvalues, 0.0)) < 1e-8
            for j, lam in enumerate(cen.base.eigenvalues):
                k = int(np.argmin(np.abs(unc.eigenvalues - lam)))
                assert np.linalg.norm(cen.base.modes[:, j] - unc.modes[:, k]) < 1e-8

    def test_no_unit_eigenvalue_identical(self):
        for i in range(30):
            spec = random_linear_system(8, 5, seed=5000 + i)
            X = simulate(spec, well_posed_initial_state(spec, seed=5100 + i), 16)
            pair = split_snapshots(X)
            unc = exact_dmd(pair, r=5)
            cen = centered_dmd(pair, r=5)
            assert match_spectra(cen.base.eigenvalues, unc.eigenvalues) < 1e-8
            for j, lam in enumerate(cen.base.eigenvalues):
                k = int(np.argmin(np.abs(unc.eigenvalues - lam)))
                assert np.linalg.norm(cen.base.modes[:, j] - unc.modes[:, k]) < 1e-8


class TestUniqueness:
    def test_exact_dmd_matches_dense_eigensolve(self):
        for i in range(30):
            spec = random_linear_system(7, 4, seed=6000 + i)
            X = simulate(spec, well_posed_initial_state(spec, seed=6100 + i), 15)
            pair = split_snapshots(X)
            model = exact_dmd(pair, r=4)
            dense = np.linalg.eigvals(pair.X2 @ pinv(pair.X1))
            dense = dense[np.argsort(-np.abs(dense))][:4]
            assert match_spectra(model.eigenvalues, dense) < 1e-9

    def test_affine_recovery_regardless_of_bias(self):
        for i in range(30):
            spec = random_linear_system(7, 4, seed=7000 + i, bias="random")
            X = simulate(spec, well_posed_initial_state(spec, seed=7100 + i), 15)
            cen = centered_dmd(split_snapshots(X), r=4)
            assert match_spectra(cen.base.eigenvalues, spec.eigenvalues) < 1e-8


class TestConsistencyDichotomy:
    def test_full_rank_bias_is_inconsistent_low_rank_is_not(self):
        from cdmd import consistency_residual

        for i in range(20):
            full = random_linear_system(5, 5, seed=8000 + i, bias="random")
            Xf = simulate(full, well_posed_initial_state(full, seed=8100 + i), 15)
            pf = split_snapshots(Xf)
            assert consistency_residual(pf) > 1e-10 * np.linalg.norm(pf.X2)

            low = random_linear_system(8, 4, seed=8200 + i, bias="random")
            Xl = simulate(low, well_posed_initial_state(low, seed=8300 + i), 15)
            pl = split_snapshots(Xl)
            assert consistency_residual(pl) <= 1e-10 * np.linalg.norm(pl.X2)


class TestTotalMeanRankDrop:
    def test_rank_drops_by_one_with_unit_eigenvalue(self):
        for i in range(20):
            base = random_linear_system(8, 4, seed=9000 + i)
            lams = np.append(base.eigenvalues, 1.0)
            spec = random_linear_system(8, 5, prescribed=lams, seed=9100 + i)
            X = simulate(spec, well_posed_initial_state(spec, seed=9200 + i), 16)
            X1 = X[:, :-1]
            mu = X.mean(axis=1, keepdims=True)
            assert np.linalg.norm(mu) > 1e-8
            assert effective_rank(X1 - mu) == effective_rank(X1) - 1


class TestConjugateClosure:
    def test_spectra_conjugate_symmetric(self):
        for i in range(20):
            spec = random_linear_system(8, 5, seed=9500 + i, bias="random")
            X = simulate(spec, well_posed_initial_state(spec, seed=9600 + i), 16)
            pair = split_snapshots(X)
            for lams in (
                exact_dmd(pair).eigenvalues,
                centered_dmd(pair).base.eigenvalues,
            ):
                assert match_spectra(lams, np.conj(lams)) < 1e-9


class TestGeneratorRoundTrips:
    def test_linear_round_trip_100_specs(self):
        for i in range(100):
            rng = np.random.default_rng(10_000 + i)
            n = int(rng.integers(3, 10))
            r = int(rng.integers(1, n + 1))
            spec = random_linear_system(n, r, seed=10_000 + i)
            X = simulate(spec, well_posed_initial_state(spec, seed=20_000 + i), max(2 * n, r + 2))
            model = exact_dmd(split_snapshots(X), r=r)
            assert match_spectra(model.eigenvalues, spec.eigenvalues) < 1e-8

    def test_forced_round_trip(self):
        for i, lam in enumerate([-1j, 1j, -1.0, 0.5 + 0.5j]):
            spec = random_linear_system(9, 4, seed=30_000 + i, bias="random")
            x1 = well_posed_initial_state(spec, seed=31_000 + i, forcing_lambda=lam)
            X = simulate(spec, x1, 12, forcing_lambda=lam)
            sub = frequency_subtracted_dmd(split_snapshots(X), [lam], r=4)
            assert match_spectra(sub.base.eigenvalues, spec.eigenvalues) < 1e-8


class TestSnapshotPairValidation:
    @given(matrices(max_rows=4, max_cols=6))
    @settings(max_examples=25, deadline=None)
    def test_split_then_pair_invariants(self, X):
        pair = split_snapshots(X)
        assert pair.X1.shape == pair.X2.shape
        assert np.array_equal(pair.X2[:, :-1], pair.X1[:, 1:])

    def test_nonfinite_rejected(self):
        from cdmd import InvalidInput

        with pytest.raises(InvalidInput):
            SnapshotPair(np.array([[np.inf, 1.0]]), np.array([[1.0, 2.0]]))


def _regime_data(regime, seed):
    """Offset Gaussian data, n x (T+1), in one of three shape regimes, plus a rank to fit at.

    ``tall`` has n >> T (a shifted trajectory with ``n >= TALL_FACTOR * (T + 1)``,
    which the fits take in R-factor coordinates), ``wide`` has T >> n, and
    ``rank_deficient`` has rank k < min(n, T) and is fitted at its numerical
    rank (``None``); the other two are fitted at a drawn truncation rank.
    """
    rng = np.random.default_rng(seed)
    if regime == "tall":
        n, T = int(rng.integers(20, 61)), int(rng.integers(3, 9))
        assert n >= TALL_FACTOR * (T + 1)
    elif regime == "wide":
        n, T = int(rng.integers(2, 7)), int(rng.integers(20, 81))
    else:
        n, T = int(rng.integers(6, 31)), int(rng.integers(6, 31))
    if regime == "rank_deficient":
        k = int(rng.integers(1, min(n, T) - 1))
        X = rng.standard_normal((n, k)) @ rng.standard_normal((k, T + 1))
        r = None
    else:
        X = rng.standard_normal((n, T + 1))
        r = int(rng.integers(1, min(n, T)))
    return X + rng.standard_normal((n, 1)), r


def _dense_operator(Y1, Y2, r):
    """Dense n x n ``Y2 @ pinv_r(Y1)`` (truncated-SVD pseudoinverse at rank ``r``) and ``cond(I_r - Atilde)``.

    ``Atilde = U_r^H Y2 V_r Sigma_r^-1`` equals ``U_r^H A U_r`` for the dense operator ``A``.
    """
    U, s, Vt = np.linalg.svd(Y1, full_matrices=False)
    U, s, Vt = U[:, :r], s[:r], Vt[:r]
    A = Y2 @ ((Vt.conj().T / s) @ U.conj().T)
    return A, np.linalg.cond(np.eye(r) - U.conj().T @ A @ U)


def _assert_amplitudes_fit(model, x0):
    """``modes @ amplitudes`` is the least-squares projection of ``x0`` on the nonzero modes."""
    M = model.modes[:, np.linalg.norm(model.modes, axis=0) > 0]
    projection = M @ np.linalg.lstsq(M, x0, rcond=None)[0]
    assert np.linalg.norm(model.modes @ model.amplitudes - projection) <= 1e-13 * np.linalg.cond(M) * np.linalg.norm(x0)


REGIMES = st.sampled_from(["tall", "wide", "rank_deficient"])

#: Each regime with no extra column offset and with one far larger than the
#: data. Rank-deficient data take 1e3: at 1e6 the rounding of the stored data
#: (about 1e6 eps) lies above the 1e-12 rank cut, so they are no longer
#: numerically rank deficient.
REGIME_OFFSETS = st.sampled_from(
    [("tall", 0.0), ("tall", 1e6), ("wide", 0.0), ("wide", 1e6), ("rank_deficient", 0.0), ("rank_deficient", 1e3)]
)


def _offset_regime_data(regime, offset, seed):
    """``_regime_data`` plus a random column offset of scale ``offset``."""
    X, _ = _regime_data(regime, seed)
    return X + offset * np.random.default_rng(seed + 1).standard_normal((X.shape[0], 1))


def _kept_cond(M):
    """``sigma_max / sigma_r`` over the singular values above the exact rank cut."""
    s = np.linalg.svd(M, compute_uv=False)
    return s[0] / s[s > EXACT_TOL * s[0]][-1]


def _exactly_centered_data(seed, tall, offset):
    """Integer fluctuations ``F`` whose two snapshot blocks have zero row sums, on a per-row offset.

    Offsets are ``offset`` times integers 1..7 and ``offset`` is a power of 2,
    so every sum, mean and difference of explicit centering is exact in
    float64: ``X1 - mu1 1^T`` is ``F[:, :-1]`` and ``X2 - mu2 1^T`` is ``F[:, 1:]``.
    """
    rng = np.random.default_rng(seed)
    n, T = (int(rng.integers(20, 61)), int(rng.integers(3, 9))) if tall else (int(rng.integers(2, 7)), int(rng.integers(20, 81)))
    G = rng.integers(-512, 512, size=(n, T - 1)).astype(float)
    edge = -G.sum(axis=1)
    F = np.column_stack([edge, G, edge])
    X = F + offset * rng.integers(1, 8, size=(n, 1))
    return X, F, int(rng.integers(1, min(n, T)))


class TestReducedAgainstDenseOperator:
    """The reduced-coordinate bias, fixed point and forcing against a dense n x n reference."""

    @given(REGIMES, st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_centered_bias_and_fixed_point(self, regime, seed):
        X, r = _regime_data(regime, seed)
        pair = split_snapshots(X)
        cen = centered_dmd(pair, r=r)
        r = cen.base.rank_used
        mu1, mu2 = pair.X1.mean(axis=1), pair.X2.mean(axis=1)
        Xb1, Xb2 = pair.X1 - mu1[:, None], pair.X2 - mu2[:, None]
        Abar, cond = _dense_operator(Xb1, Xb2, r)
        bias = mu2 - Abar @ mu1
        scale = 1.0 + np.linalg.norm(Abar)
        assert np.linalg.norm(cen.bias - bias) <= 1e-13 * scale * (np.linalg.norm(mu2) + np.linalg.norm(mu1))
        _assert_amplitudes_fit(cen.base, Xb1[:, 0])
        if cen.fixed_point is None:
            return
        fixed_point = np.linalg.solve(np.eye(pair.n) - Abar, bias)
        assert np.linalg.norm(cen.fixed_point - fixed_point) <= 1e-13 * cond * scale * np.linalg.norm(fixed_point)

    @given(REGIME_OFFSETS, st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_exact_amplitudes_fit(self, regime_offset, seed):
        # Fitted in the coordinates of the pair, at the drawn rank and at the
        # numerical rank. Each nonzero mode is an eigenvector of the dense
        # X2 pinv_r(X1), to rounding of the data relative to sigma_r: on the
        # tall regime the coordinates add the column mean back to the
        # centered trajectory, and dropping its last row misses by O(1).
        X = _offset_regime_data(*regime_offset, seed)
        pair = split_snapshots(X)
        s = np.linalg.svd(pair.X1, compute_uv=False)
        for r in {_regime_data(regime_offset[0], seed)[1], None}:
            model = exact_dmd(pair, r=r)
            _assert_amplitudes_fit(model, X[:, 0])
            A, _ = _dense_operator(pair.X1, pair.X2, model.rank_used)
            keep = np.linalg.norm(model.modes, axis=0) > 0
            modes, lams = model.modes[:, keep], model.eigenvalues[keep]
            residual = np.linalg.norm(A @ modes - modes * lams, axis=0)
            norm_A = np.linalg.norm(A)
            assert np.all(residual <= 1e-13 * norm_A * s[0] / s[model.rank_used - 1] * (1.0 + norm_A / np.abs(lams)))

    @pytest.mark.parametrize("tall", [True, False], ids=["tall", "wide"])
    @pytest.mark.parametrize("seed", range(6))
    def test_centered_offset_much_larger_than_fluctuations(self, tall, seed):
        # Offsets about 1e6 times the fluctuations: the centered fit must lose no
        # more accuracy than explicit centering, which is exact on this data.
        X, F, r = _exactly_centered_data(seed, tall, 2.0**30)
        pair = split_snapshots(X)
        assert (pair.n >= TALL_FACTOR * (pair.T + 1)) == tall
        cen = centered_dmd(pair, r=r)
        mu1, mu2 = pair.X1.mean(axis=1), pair.X2.mean(axis=1)
        assert np.array_equal(pair.X1 - mu1[:, None], F[:, :-1]) and np.array_equal(pair.X2 - mu2[:, None], F[:, 1:])
        Abar, cond = _dense_operator(F[:, :-1], F[:, 1:], r)
        bias = mu2 - Abar @ mu1
        scale = 1.0 + np.linalg.norm(Abar)
        assert np.linalg.norm(cen.bias - bias) <= 1e-13 * scale * (np.linalg.norm(mu2) + np.linalg.norm(mu1))
        if cen.fixed_point is not None:
            fixed_point = np.linalg.solve(np.eye(pair.n) - Abar, bias)
            assert np.linalg.norm(cen.fixed_point - fixed_point) <= 1e-13 * cond * scale * np.linalg.norm(fixed_point)

    @given(REGIMES, st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_frequency_subtracted_forcing(self, regime, seed):
        X, r = _regime_data(regime, seed)
        pair = split_snapshots(X)
        rng = np.random.default_rng(seed)
        lam = np.exp(2j * np.pi * rng.uniform(0.05, 0.45))
        lams = [lam, np.conj(lam)] if pair.T > 3 else [lam]
        if r is not None:
            r = min(r, pair.T - len(lams))
        sub = frequency_subtracted_dmd(pair, lams, r=r)
        r = sub.base.rank_used
        Lt = vandermonde(lams, pair.T).T
        Lt_pinv = pinv(Lt)
        X1p = pair.X1 - (pair.X1 @ Lt_pinv) @ Lt
        X2p = pair.X2 - (pair.X2 @ Lt_pinv) @ Lt
        Ap, _ = _dense_operator(X1p, X2p, r)
        B = (pair.X2 - Ap @ pair.X1) @ Lt_pinv
        scale = (np.linalg.norm(pair.X2) + np.linalg.norm(Ap) * np.linalg.norm(pair.X1)) * np.linalg.norm(Lt_pinv)
        assert np.linalg.norm(sub.B - B) <= 1e-13 * scale
        _assert_amplitudes_fit(sub.base, X1p[:, 0])

    @given(REGIMES, st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_real_basis_matches_complex_projector(self, regime, seed):
        # Real data and a conjugate pair take the real basis; the same data
        # held as complex take the complex basis from the QR of Lt^H.
        X, r = _regime_data(regime, seed)
        pair = split_snapshots(X)
        if pair.T < 4:
            return
        lam = np.exp(2j * np.pi * np.random.default_rng(seed).uniform(0.05, 0.45))
        lams = [lam, np.conj(lam)]
        if r is not None:
            r = min(r, pair.T - 2)
        real = frequency_subtracted_dmd(pair, lams, r=r)
        cplx = frequency_subtracted_dmd(split_snapshots(X.astype(complex)), lams, r=r)
        r = real.base.rank_used
        assert cplx.base.rank_used == r

        Lt = vandermonde(lams, pair.T).T
        Lt_pinv = pinv(Lt)
        X1p = pair.X1 - (pair.X1 @ Lt_pinv) @ Lt
        X2p = pair.X2 - (pair.X2 @ Lt_pinv) @ Lt
        Ap, _ = _dense_operator(X1p, X2p, r)
        scale = (np.linalg.norm(pair.X2) + np.linalg.norm(Ap) * np.linalg.norm(pair.X1)) * np.linalg.norm(Lt_pinv)
        assert np.linalg.norm(real.B - cplx.B) <= 1e-13 * scale
        # Eigenvalues move by at most cond(eigenvectors) * ||perturbation|| (Bauer-Fike).
        U = np.linalg.svd(X1p, full_matrices=False)[0][:, :r]
        Atilde = U.conj().T @ Ap @ U
        kappa = np.linalg.cond(np.linalg.eig(Atilde)[1])
        assert match_spectra(real.base.eigenvalues, cplx.base.eigenvalues) <= 1e-13 * r * kappa * np.linalg.norm(Ap)


class TestCenteringAgainstExplicitCentering:
    """Centered DMD and the closed-form centered pseudoinverse against explicitly centered data."""

    @given(REGIME_OFFSETS, st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_centered_dmd_matches_affine_fit(self, regime_offset, seed):
        # Both fits at the numerical rank: centered_dmd's rank rule is the lstsq cut of affine_dmd_direct.
        pair = split_snapshots(_offset_regime_data(*regime_offset, seed))
        cen = centered_dmd(pair)
        A, b = affine_dmd_direct(pair)
        mu1, mu2 = pair.X1.mean(axis=1), pair.X2.mean(axis=1)
        scale = 1.0 + np.linalg.norm(A)
        assert np.linalg.norm(cen.bias - b) <= 1e-13 * scale * (np.linalg.norm(mu2) + np.linalg.norm(mu1))
        # On the data range A acts as the centered operator: each nonzero exact
        # mode is an eigenvector of A. A mode is Z v / lambda, so its rounding
        # grows as 1 / |lambda|.
        keep = np.linalg.norm(cen.base.modes, axis=0) > 0
        modes, lams = cen.base.modes[:, keep], cen.base.eigenvalues[keep]
        residual = np.linalg.norm(A @ modes - modes * lams, axis=0)
        assert np.all(residual <= 1e-13 * scale * (1.0 + np.linalg.norm(A) / np.abs(lams)))

    @given(REGIME_OFFSETS, st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_centered_pinv_update_matches_direct_centering(self, regime_offset, seed):
        X1 = _offset_regime_data(*regime_offset, seed)[:, :-1]
        # A second pass removes the rounding of the means, a rank-one term the
        # rank cut would keep when the offset dwarfs the data.
        Xb1 = X1 - X1.mean(axis=1, keepdims=True)
        Xb1 = Xb1 - Xb1.mean(axis=1, keepdims=True)
        expected = pinv(Xb1)
        got = centered_pinv_update(X1)
        assert np.linalg.norm(got - expected) <= 1e-13 * _kept_cond(X1) * _kept_cond(Xb1) * np.linalg.norm(expected)

    @given(st.sampled_from([0.0, 1e6, 1e7, 1e8]), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_centered_pinv_update_matches_or_raises_at_large_offsets(self, offset, seed):
        # Wide data: the ones vector lies outside the row space of X1, but at a
        # distance of about 1 / offset, so from 1e7 on m = (I - X1^+ X1) 1 can
        # sink to its rounding level. Then the branch cannot be told, and the
        # update raises rather than guess.
        X1 = _offset_regime_data("wide", offset, seed)[:, :-1]
        Xb1 = X1 - X1.mean(axis=1, keepdims=True)
        Xb1 = Xb1 - Xb1.mean(axis=1, keepdims=True)
        expected = pinv(Xb1)
        try:
            got = centered_pinv_update(X1)
        except InvalidInput as err:
            assert offset >= 1e7 and "row space" in str(err)
            return
        assert np.linalg.norm(got - expected) <= 1e-13 * _kept_cond(X1) * _kept_cond(Xb1) * np.linalg.norm(expected)
