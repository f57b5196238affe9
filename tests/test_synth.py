"""Tests for the synthetic data generators."""

import numpy as np
import pytest

from cdmd import (
    IntegrationOverflow,
    InvalidInput,
    LorenzParams,
    add_noise,
    dft_power_spectrum,
    lorenz_rk4,
    random_linear_system,
    simulate,
    synth_line_noise,
    synth_video,
    well_posed_initial_state,
)
from cdmd.linalg import effective_rank
from cdmd.synth import LinearSystemSpec
from oracles import unit_eigenvalue_certificate


class TestRandomLinearSystem:
    def test_distinct_eigenvalues_and_real_rank(self):
        spec = random_linear_system(10, 7, seed=1)
        sep = np.abs(spec.eigenvalues[:, None] - spec.eigenvalues[None, :])
        np.fill_diagonal(sep, np.inf)
        assert np.min(sep) >= 1e-3
        A = spec.matrix
        assert np.isrealobj(A)
        assert np.linalg.matrix_rank(A) == 7

    def test_prescribed_diag(self):
        spec = random_linear_system(2, 2, prescribed=[2.0, 3.0])
        assert sorted(np.linalg.eigvals(spec.matrix).real.round(9)) == [2.0, 3.0]

    def test_determinism(self):
        a = random_linear_system(8, 5, seed=7)
        b = random_linear_system(8, 5, seed=7)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvector_matrix, b.eigenvector_matrix)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            random_linear_system(3, 5)
        with pytest.raises(InvalidInput):
            random_linear_system(3, 2, prescribed=[1j, 2.0])  # not conjugate-closed

    def test_rank_zero_is_the_zero_system(self):
        spec = random_linear_system(5, 0, bias="random")
        assert spec.r == 0 and spec.eigenvalues.size == 0 and spec.eigenvector_matrix.shape == (5, 0)
        assert np.array_equal(spec.matrix, np.zeros((5, 5))) and spec.bias.shape == (5,)

    def test_sizes_read_off_the_arrays(self):
        spec = LinearSystemSpec([0.5, 0.2j, -0.2j], np.ones((4, 3)), bias=np.zeros(4))
        assert (spec.n, spec.r) == (4, 3)

    @pytest.mark.parametrize(
        "lams, V",
        [([0.5, 0.6], np.ones((3, 1))), ([0.5], np.ones(3)), ([], np.ones(3)), ([[0.5]], np.ones((3, 1)))],
        ids=["column_count", "vector", "rank_zero_vector", "2d_eigenvalues"],
    )
    def test_eigenvector_matrix_shape_rejected(self, lams, V):
        with pytest.raises(InvalidInput, match="one column per eigenvalue"):
            LinearSystemSpec(lams, V)

    def test_bias_length_read_off_the_matrix(self):
        with pytest.raises(InvalidInput, match="bias must be a length-3 vector"):
            LinearSystemSpec([0.5], np.ones((3, 1)), bias=np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan)], ids=["nan", "inf", "complex_nan"])
    def test_nonfinite_eigenvalue_rejected(self, bad):
        # NaN fails every comparison, so the distinctness check alone cannot catch it.
        with pytest.raises(InvalidInput, match="eigenvalues must be finite"):
            random_linear_system(3, 2, prescribed=[bad, 0.25], seed=1)
        with pytest.raises(InvalidInput, match="eigenvalues must be finite"):
            LinearSystemSpec([bad], np.ones((2, 1)))

    def test_negative_rank_rejected(self):
        with pytest.raises(InvalidInput, match="rank -1 must be >= 0"):
            random_linear_system(5, -1)

    @pytest.mark.parametrize("n, r, prescribed", [(10, 3, [0.5, 0.6]), (2, 2, [0.5, 0.6, 0.7])])
    def test_prescribed_count_must_match_rank(self, n, r, prescribed):
        # r is the rank of the drawn matrix, so a second count cannot override it.
        with pytest.raises(InvalidInput, match=f"rank {r} does not match the {len(prescribed)} prescribed"):
            random_linear_system(n, r, prescribed=prescribed)

    def test_random_bias(self):
        spec = random_linear_system(5, 3, seed=9, bias="random")
        assert spec.bias.shape == (5,)


class TestSimulate:
    def test_golden_affine_values(self):
        spec = LinearSystemSpec(
            eigenvalues=np.array([2.0, 3.0]), eigenvector_matrix=np.eye(2, dtype=complex), bias=np.array([1.0, 2.0]),
        )
        X = simulate(spec, np.array([1.0, 1.0]), 3)
        assert np.array_equal(X, [[1, 3, 7, 15], [1, 5, 17, 53]])

    def test_pure_forcing_powers(self):
        spec = LinearSystemSpec(eigenvalues=np.empty(0), eigenvector_matrix=np.empty((1, 0)), bias=np.array([1.0]))
        X = simulate(spec, np.array([0.0]), 3, forcing_lambda=2.0)
        assert np.array_equal(X, [[0.0, 1.0, 2.0, 4.0]])

    def test_constant_trajectory(self):
        spec = LinearSystemSpec(eigenvalues=np.array([1.0, 0.5]), eigenvector_matrix=np.eye(2, dtype=complex))
        X = simulate(spec, np.array([3.0, 0.0]), 5)
        assert np.allclose(X, np.outer([3.0, 0.0], np.ones(6)))

    def test_real_output_without_complex_forcing(self):
        spec = random_linear_system(6, 4, seed=15, bias="random")
        X = simulate(spec, well_posed_initial_state(spec, seed=16), 10)
        assert np.isrealobj(X)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, complex(0.5, np.nan)], ids=["nan", "inf", "complex_nan"])
    def test_nonfinite_forcing_rejected(self, lam):
        spec = random_linear_system(4, 2, seed=19, bias="random")
        with pytest.raises(InvalidInput, match="forcing_lambda must be finite"):
            simulate(spec, np.zeros(4), 5, forcing_lambda=lam)

    def test_forcing_requires_bias(self):
        spec = random_linear_system(4, 2, seed=17)
        with pytest.raises(InvalidInput):
            simulate(spec, well_posed_initial_state(spec, seed=18), 5, forcing_lambda=0.5)


class TestWellPosedInitialState:
    def test_excites_every_mode(self):
        spec = random_linear_system(9, 6, seed=21)
        x1 = well_posed_initial_state(spec, seed=22)
        coords = np.linalg.pinv(spec.eigenvector_matrix) @ x1
        assert np.all(np.abs(coords) > 1e-3)

    def test_affine_trajectory_has_expected_rank(self):
        spec = random_linear_system(10, 5, seed=23, bias="random")
        x1 = well_posed_initial_state(spec, seed=24)
        X = simulate(spec, x1, 20)
        assert effective_rank(X[:, :-1]) == 6  # modes + background offset

    def test_determinism(self):
        spec = random_linear_system(6, 4, seed=25)
        assert np.array_equal(
            well_posed_initial_state(spec, seed=26), well_posed_initial_state(spec, seed=26)
        )

    @pytest.mark.parametrize("lam", [np.nan, np.inf, complex(0.5, np.nan)], ids=["nan", "inf", "complex_nan"])
    def test_nonfinite_forcing_rejected(self, lam):
        spec = random_linear_system(4, 2, seed=19, bias="random")
        with pytest.raises(InvalidInput, match="forcing_lambda must be finite"):
            well_posed_initial_state(spec, seed=20, forcing_lambda=lam)

    def test_rank_zero_affine_state_is_the_fixed_point(self):
        # The zero system maps every state to b, so only x1 = b keeps the trajectory at rank 1.
        spec = random_linear_system(5, 0, bias="random", seed=1)
        X = simulate(spec, well_posed_initial_state(spec, seed=2), 6)
        assert np.array_equal(X, np.repeat(spec.bias[:, None], 7, axis=1))
        assert effective_rank(X[:, :-1]) == 1

    def test_rank_zero_linear_state_is_zero(self):
        spec = random_linear_system(4, 0, seed=3)
        assert np.array_equal(well_posed_initial_state(spec, seed=4), np.zeros(4))


class TestAddNoise:
    def test_zero_eta_identity(self):
        X = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(add_noise(X, 0.0), X)

    def test_moments(self):
        Z = add_noise(np.zeros((1000, 1000)), 1.0, 5)
        assert abs(Z.mean()) < 3.3 / 1000
        assert abs(Z.std() - 1.0) < 0.01

    def test_determinism(self):
        X = np.zeros((4, 4))
        a = add_noise(X, 0.1, 8)
        b = add_noise(X, 0.1, 8)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("eta", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
    def test_bad_eta_rejected(self, eta):
        with pytest.raises(InvalidInput, match="noise level must be nonnegative"):
            add_noise(np.zeros((2, 3)), eta)


class TestLorenzRk4:
    def test_shape_and_initial_column(self):
        X = lorenz_rk4(LorenzParams())
        assert X.shape == (3, 4800)
        assert np.array_equal(X[:, 0], [6.7673, 6.1253, 25.8706])

    def test_equilibrium_is_stationary(self):
        p = LorenzParams()
        fp = np.array([np.sqrt(p.beta * (p.rho - 1)), np.sqrt(p.beta * (p.rho - 1)), p.rho - 1])
        X = lorenz_rk4(LorenzParams(x0=fp, steps=50))
        assert np.max(np.abs(X - fp[:, None])) < 1e-9

    def test_fourth_order_convergence(self):
        # Global error over [0, 0.1] should scale as dt^4 within a factor 2.
        ref = lorenz_rk4(LorenzParams(dt=1e-5, steps=10001))[:, -1]
        errs = []
        for dt, steps in [(1e-3, 101), (5e-4, 201), (2.5e-4, 401)]:
            end = lorenz_rk4(LorenzParams(dt=dt, steps=steps))[:, -1]
            errs.append(np.linalg.norm(end - ref))
        r1 = errs[0] / errs[1]
        r2 = errs[1] / errs[2]
        assert 8.0 < r1 < 32.0 and 8.0 < r2 < 32.0

    @pytest.mark.parametrize(
        "x0", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]], [1.0, np.nan, 3.0], [np.inf, 0.0, 0.0]],
        ids=["short", "long", "row_matrix", "nan", "inf"],
    )
    def test_bad_initial_state_rejected(self, x0):
        with pytest.raises(InvalidInput, match="x0 must be a finite 3-vector"):
            LorenzParams(x0=x0)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -0.001], ids=["nan", "inf", "zero", "negative"])
    def test_bad_step_rejected(self, dt):
        # NaN fails dt <= 0 as well as dt > 0; a bad step is an argument error, not an overflow.
        with pytest.raises(InvalidInput, match="dt must be positive and finite"):
            LorenzParams(dt=dt, steps=3)

    def test_overflow_detection(self):
        with pytest.raises(IntegrationOverflow):
            lorenz_rk4(LorenzParams(dt=1.0, steps=100))


def _vector_lorenz_rk4(params):
    """Reference RK4 over NumPy 3-vectors, the integrator's earlier form."""

    def rhs(x):
        return np.array([
            params.sigma * (x[1] - x[0]),
            x[0] * (params.rho - x[2]) - x[1],
            x[0] * x[1] - params.beta * x[2],
        ])

    dt = params.dt
    X = np.empty((3, params.steps))
    X[:, 0] = params.x0
    x = params.x0.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, params.steps):
            k1 = rhs(x)
            k2 = rhs(x + 0.5 * dt * k1)
            k3 = rhs(x + 0.5 * dt * k2)
            k4 = rhs(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.all(np.isfinite(x)):
                raise IntegrationOverflow(f"non-finite state at step {k}")
            X[:, k] = x
    return X


class TestLorenzRk4AgainstVectorReference:
    @pytest.mark.parametrize(
        "params",
        [LorenzParams(), LorenzParams(dt=1e-2, steps=3000), LorenzParams(dt=1e-5, steps=10001)],
        ids=["default", "dt1e-2", "dt1e-5"],
    )
    def test_bitwise_equal(self, params):
        assert np.array_equal(lorenz_rk4(params), _vector_lorenz_rk4(params))

    def test_overflow_at_same_step(self):
        params = LorenzParams(dt=1.0, steps=100)
        with pytest.raises(IntegrationOverflow) as ref:
            _vector_lorenz_rk4(params)
        with pytest.raises(IntegrationOverflow) as got:
            lorenz_rk4(params)
        assert str(got.value) == str(ref.value)


class TestSynthVideo:
    def test_static_background_rank_one(self):
        X = synth_video(8, 8, 10, moving=False)
        assert effective_rank(X) == 1
        assert np.linalg.norm(X - X.mean(axis=1, keepdims=True)) < 1e-12

    def test_low_rank_and_certificate(self):
        X = synth_video(16, 16, 48)
        assert effective_rank(X[:, :-1]) <= 6
        assert unit_eigenvalue_certificate(X[:, :-1], X, tol=1e-6)

    def test_determinism(self):
        assert np.array_equal(synth_video(8, 8, 12, seed=3), synth_video(8, 8, 12, seed=3))

    @pytest.mark.parametrize("height, width", [(0, 8), (8, 0), (-2, 8)])
    def test_empty_frame_rejected(self, height, width):
        with pytest.raises(InvalidInput, match="need frames of at least 1 x 1 pixels"):
            synth_video(height, width, 12)


class TestSynthLineNoise:
    def test_shape(self):
        X = synth_line_noise(4, 200.0, 1.0, 60.0, seed=1)
        assert X.shape == (4, 200)

    def test_pure_tone_concentrates_at_f0(self):
        X = synth_line_noise(4, 200.0, 1.0, 50.0, seed=2, n_low_modes=0, noise_eta=0.0)
        spec = dft_power_spectrum(X, 200.0)
        assert spec.frequencies[np.argmax(spec.power)] == 50.0

    def test_default_peak_at_60hz(self):
        X = synth_line_noise(64, 1000.0, 5.0, 60.0, seed=3)
        spec = dft_power_spectrum(X, 1000.0)
        peak = spec.frequencies[np.argmax(spec.power)]
        assert abs(peak - 60.0) < 1.0

    def test_aliasing_rejected(self):
        # |f0| is checked: -60 Hz sampled at 100 Hz aliases as 60 Hz does.
        for f0 in (60.0, -60.0, np.nan):
            with pytest.raises(InvalidInput, match="must be below the Nyquist frequency"):
                synth_line_noise(2, 100.0, 0.1, f0)

    @pytest.mark.parametrize(
        "fs, duration, f0, message",
        [
            (-100.0, 1.0, -60.0, "fs must be positive and finite"),
            (0.0, 1.0, -60.0, "fs must be positive and finite"),
            (np.inf, 1.0, 60.0, "fs must be positive and finite"),
            (100.0, 0.001, 10.0, "must round to at least 2 samples"),
            (100.0, 0.0149, 10.0, "must round to at least 2 samples"),
            (100.0, np.inf, 10.0, "must round to at least 2 samples"),
        ],
        ids=["negative_fs", "zero_fs", "inf_fs", "one_tenth_sample", "one_sample", "inf_duration"],
    )
    def test_no_recording_rejected(self, fs, duration, f0, message):
        # Each returned fewer than 2 samples per channel or raised an error of NumPy or Python.
        with pytest.raises(InvalidInput, match=message):
            synth_line_noise(4, fs, duration, f0)

    def test_two_samples_accepted(self):
        assert synth_line_noise(4, 100.0, 0.015, 10.0).shape == (4, 2)

    def test_determinism(self):
        a = synth_line_noise(4, 200.0, 0.5, 60.0, seed=4)
        b = synth_line_noise(4, 200.0, 0.5, 60.0, seed=4)
        assert np.array_equal(a, b)
