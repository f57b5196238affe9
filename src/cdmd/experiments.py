"""Desk-scale experiment orchestration.

Each experiment reproduces one of the synthetic or surrogate studies,
emitting a JSON summary plus CSV plot data, and self-checks its headline
claims so CI can gate on the exit status.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    dft_power_spectrum,
    dmd_power_spectrum,
    match_spectra,
    noise_sweep,
    roots_of_unity_distance,
    spectral_distance,
)
from .dmd import (
    SnapshotPair,
    _eigenvalues,
    _frequency_basis,
    canonicalize_mode,
    centered_dmd,
    companion_dmd,
    consistency_residual,
    exact_dmd,
    frequency_subtracted_dmd,
    reconstruct,
    split_snapshots,
)
from .exceptions import InvalidInput
from .linalg import _one_blas_thread, effective_rank
from .synth import (
    LorenzParams,
    add_noise,
    lorenz_rk4,
    random_linear_system,
    simulate,
    synth_line_noise,
    synth_video,
    well_posed_initial_state,
)

@dataclass
class ExperimentConfig:
    experiment: str
    seed: int = 0
    overrides: dict = field(default_factory=dict)
    output_dir: Path = Path(".")

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise InvalidInput(f"unknown experiment {self.experiment!r}")
        self.output_dir = Path(self.output_dir)


class _Recorder:
    """Collects eigenvalue tables, metrics, and pass/fail assertions."""

    def __init__(self):
        self.eigenvalues = []
        self.metrics = {}
        self.assertions = []

    def spectra(self, path, spectra, prefix=""):
        """Record ``(method, eigenvalues)`` pairs, one summary entry per eigenvalue, under ``prefix + method``.

        Unless ``path`` is None, the same rows go to a ``method,re,im`` CSV
        there, under ``method``.
        """
        rows = []
        for method, lams in spectra:
            for lam in np.atleast_1d(lams):
                re, im = float(np.real(lam)), float(np.imag(lam))
                self.eigenvalues.append({"re": re, "im": im, "method": prefix + method})
                rows.append((method, re, im))
        if path is not None:
            _write_csv(path, ["method", "re", "im"], rows)

    def check(self, name, value, threshold, mode="lt"):
        value = float(value)
        passed = value < threshold if mode == "lt" else value > threshold
        self.assertions.append({"name": name, "passed": bool(passed), "value": value, "threshold": threshold})


def _write_csv(path, header, rows):
    """Write ``header`` and ``rows`` as ``csv.writer`` would, for fields that need no quoting.

    Every field cdmd writes is a Python float, an int or a name without ``,``,
    ``"`` or a line break, so each row is its fields' ``str`` joined by commas,
    formatted with one ``%s`` format string.
    """
    row_format = ",".join(["%s"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as f:
        f.writelines(row_format % tuple(row) for row in [header, *rows])


def _affine_system(n, T, r, seed):
    spec = random_linear_system(n, r, seed=seed, bias="random")
    x1 = well_posed_initial_state(spec, seed=seed + 1)
    return spec, simulate(spec, x1, T)


def _run_fig2(seed, params, out_dir, rec):
    panels = {
        "a": dict(n=10, T=30, r=5),   # n < T, low rank
        "b": dict(n=8, T=30, r=8),    # n < T, full rank
        "c": dict(n=40, T=12, r=5),   # n > T, low rank
        "d": dict(n=40, T=6, r=10),   # T < r, under-sampled
    }
    for panel, dims in panels.items():
        spec, X = _affine_system(dims["n"], dims["T"], dims["r"], seed + ord(panel))
        pair = split_snapshots(X)
        low_rank = dims["r"] < dims["n"] and dims["r"] <= dims["T"]
        full_rank = dims["r"] == dims["n"]
        undersampled = dims["T"] < dims["r"]

        if undersampled:
            cen = centered_dmd(pair)
            unc = exact_dmd(pair)
            rel = consistency_residual(pair) / np.linalg.norm(pair.X2)
            rec.check(f"fig2{panel}_uncentered_one_step_recon", rel, 1e-8)
            Xb1 = pair.X1 - pair.X1.mean(axis=1, keepdims=True)
            Xb2 = pair.X2 - pair.X2.mean(axis=1, keepdims=True)
            rel_c = consistency_residual(SnapshotPair(Xb1, Xb2)) / np.linalg.norm(Xb2)
            rec.check(f"fig2{panel}_centered_one_step_recon", rel_c, 1e-8)
        else:
            cen = centered_dmd(pair, r=spec.r)
            unc = exact_dmd(pair, r=spec.r + 1 if low_rank else None)
            rec.check(f"fig2{panel}_centered_matches_truth", match_spectra(cen.base.eigenvalues, spec.eigenvalues), 1e-8)
            if low_rank:
                truth_plus = np.append(spec.eigenvalues, 1.0)
                rec.check(f"fig2{panel}_uncentered_truth_plus_unit", match_spectra(unc.eigenvalues, truth_plus), 1e-8)
            if full_rank:
                rel = consistency_residual(pair) / np.linalg.norm(pair.X2)
                rec.check(f"fig2{panel}_inconsistency", rel, 1e-8, mode="gt")

        rec.spectra(
            out_dir / f"fig2_{panel}.csv",
            [("true", spec.eigenvalues), ("centered", cen.base.eigenvalues), ("uncentered", unc.eigenvalues)],
            prefix=f"{panel}_",
        )
    return {"panels": {k: v for k, v in panels.items()}}


def _run_fig3(seed, params, out_dir, rec):
    n, T, r = 10, 30, 7
    realizations = params["realizations"]
    etas = np.sort(np.append(np.logspace(-6, -2, 9), 0.005))
    # Linear system whose spectrum includes the unit eigenvalue, so the
    # uncentered fit carries the constant mode that the exclusion removes.
    lams = np.append(random_linear_system(n, r - 1, seed=seed).eigenvalues, 1.0)
    spec = random_linear_system(n, r, prescribed=lams, seed=seed + 1)
    result = noise_sweep(spec, etas, realizations, T, base_seed=seed)

    logs = np.log10(etas)
    slope_c = np.polyfit(logs, np.log10(result.median_distance_centered), 1)[0]
    slope_u = np.polyfit(logs, np.log10(result.median_distance_uncentered), 1)[0]
    rec.metrics.update(slope_centered=float(slope_c), slope_uncentered=float(slope_u))
    rec.check("fig3_slope_centered", abs(slope_c - 1.0), 0.15)
    rec.check("fig3_slope_uncentered", abs(slope_u - 1.0), 0.15)

    i = int(np.argmin(np.abs(etas - 0.005)))
    ratio = result.median_distance_centered[i] / result.median_distance_uncentered[i]
    ratio = max(ratio, 1.0 / ratio)
    rec.metrics["ratio_at_eta_0.005"] = float(ratio)
    rec.check("fig3_methods_agree_at_0.005", ratio, 2.0)

    _write_csv(
        out_dir / "fig3_noise.csv",
        ["eta", "median_centered", "median_uncentered"],
        np.column_stack([etas, result.median_distance_centered, result.median_distance_uncentered]).tolist(),
    )
    return {"n": n, "T": T, "r": r, "realizations": realizations}


def _run_fig4(seed, params, out_dir, rec):
    n, T, r = 10, 7, 5
    eta = params["eta"]
    spec, X = _affine_system(n, T, r, seed)

    mu = X.mean(axis=1, keepdims=True)
    Xc = X - mu
    rank_raw = effective_rank(X[:, :-1])
    rank_cen = effective_rank(Xc[:, :-1])
    rec.metrics.update(rank_raw=rank_raw, rank_centered=rank_cen)
    rec.check("fig4_rank_drop_by_one", abs((rank_raw - rank_cen) - 1), 0.5)

    comp = companion_dmd(Xc)
    d_clean = roots_of_unity_distance(comp.companion_eigenvalues, T + 1)
    rec.check("fig4_noiseless_not_roots_of_unity", d_clean, 1e-3, mode="gt")

    Y = add_noise(X, eta, seed + 17)
    Yc = Y - Y.mean(axis=1, keepdims=True)
    comp_noisy = companion_dmd(Yc)
    d_noisy = roots_of_unity_distance(comp_noisy.companion_eigenvalues, T + 1)
    rec.check("fig4_noisy_roots_of_unity", d_noisy, 1e-8)
    d_truth = spectral_distance(comp_noisy.companion_eigenvalues, spec.eigenvalues)
    rec.check("fig4_companion_misses_truth", d_truth, 1e-2, mode="gt")

    cen = centered_dmd(split_snapshots(Y), r=r)
    d_cen = spectral_distance(cen.base.eigenvalues, spec.eigenvalues)
    rec.check("fig4_centered_tracks_truth", d_cen, 10 * eta)

    rec.spectra(
        out_dir / "fig4_dft.csv",
        [
            ("true", spec.eigenvalues),
            ("companion_noiseless", comp.companion_eigenvalues),
            ("companion_noisy", comp_noisy.companion_eigenvalues),
            ("centered_noisy", cen.base.eigenvalues),
        ],
    )
    return {"n": n, "T": T, "r": r, "eta": eta}


def _run_fig5(seed, params, out_dir, rec):
    n, T, r = 10, 9, 5
    lam = params["lambda"]
    spec = random_linear_system(n, r, seed=seed, bias="random")
    x1 = well_posed_initial_state(spec, seed=seed + 1, forcing_lambda=lam)
    X = simulate(spec, x1, T, forcing_lambda=lam)
    pair = split_snapshots(X)

    sub = frequency_subtracted_dmd(pair, [lam], r=r)
    rec.check("fig5_subtracted_matches_truth", match_spectra(sub.base.eigenvalues, spec.eigenvalues), 1e-8)

    plain = exact_dmd(pair, r=r + 1)
    rec.check("fig5_plain_contains_forcing", np.min(np.abs(plain.eigenvalues - lam)), 1e-8)
    truth_plus = np.append(spec.eigenvalues, lam)
    rec.check("fig5_plain_truth_plus_forcing", match_spectra(plain.eigenvalues, truth_plus), 1e-8)

    rec.spectra(
        out_dir / "fig5_fixed_freq.csv",
        [("true", spec.eigenvalues), ("subtracted", sub.base.eigenvalues), ("plain", plain.eigenvalues)],
    )
    return {"n": n, "T": T, "r": r, "lambda": {"re": lam.real, "im": lam.imag}}


def _run_fig6(seed, params, out_dir, rec):
    eta, n_seeds = params["eta"], params["noise_seeds"]
    if n_seeds < 1:
        raise InvalidInput(f"fig6_lorenz needs noise_seeds >= 1, got {n_seeds}")
    X = lorenz_rk4(LorenzParams())
    pair = split_snapshots(X)

    clean = exact_dmd(pair, r=3)
    rec.check("fig6_eigenvalue_near_one", np.min(np.abs(clean.eigenvalues - 1.0)), 0.01)
    cen_clean = centered_dmd(pair, r=3)
    rec.spectra(None, [("uncentered_noiseless", clean.eigenvalues), ("centered_noiseless", cen_clean.base.eigenvalues)])

    recon_u = reconstruct(clean, X[:, 0], X.shape[1])
    recon_c = reconstruct(cen_clean, X[:, 0], X.shape[1])
    t = np.arange(X.shape[1]) * LorenzParams().dt
    _write_csv(
        out_dir / "fig6_reconstruction.csv",
        ["t", "x", "y", "z", "x_dmd", "y_dmd", "z_dmd", "x_centered", "y_centered", "z_centered"],
        np.column_stack([t, X.T, np.real(recon_u).T, np.real(recon_c).T]).tolist(),
    )

    # The noisy fits go through the stacked eigenvalue path 10 realisations at
    # a time: one stack of all of them raised the peak RSS of the suites from
    # 78 to 135 MB.
    grow_centered = 0
    decay_uncentered = 0
    for start in range(0, n_seeds, 10):
        Y = np.stack([add_noise(X, eta, seed + k) for k in range(start, min(start + 10, n_seeds))])
        grow_centered += int(np.sum(np.max(np.abs(_eigenvalues(Y, 3, centered=True)), axis=-1) > 1.0))
        decay_uncentered += int(np.sum(np.max(np.abs(_eigenvalues(Y, 3)), axis=-1) < 1.0))
    rec.metrics.update(grow_centered=grow_centered, decay_uncentered=decay_uncentered, noise_seeds=n_seeds)
    rec.check("fig6_centered_majority_growing", grow_centered, n_seeds / 2, mode="gt")
    rec.check("fig6_uncentered_majority_decaying", decay_uncentered, n_seeds / 2, mode="gt")
    return {"eta": eta, "noise_seeds": n_seeds, "lorenz": "sigma=10 rho=28 beta=8/3 dt=0.001 steps=4800"}


def _run_fig7(seed, params, out_dir, rec):
    X = synth_video(params["height"], params["width"], params["T"], seed=seed)
    pair = split_snapshots(X)
    unc = exact_dmd(pair)
    cen = centered_dmd(pair)

    i_bg = int(np.argmin(np.abs(unc.eigenvalues - 1.0)))
    bg_mode, _ = canonicalize_mode(unc.modes[:, i_bg])
    c_mode, _ = canonicalize_mode(cen.fixed_point)
    rec.metrics["background_mode_mismatch"] = float(np.linalg.norm(bg_mode - c_mode))
    rec.check("fig7_background_equals_fixed_point", np.linalg.norm(bg_mode - c_mode), 1e-6)

    others = np.delete(unc.eigenvalues, i_bg)
    rec.check("fig7_nonbackground_spectra_match", match_spectra(others, cen.base.eigenvalues), 1e-8)

    rec.spectra(out_dir / "fig7_video.csv", [("uncentered", unc.eigenvalues), ("centered", cen.base.eigenvalues)])
    return params


def _run_fig8(seed, params, out_dir, rec):
    channels, fs, duration, f0 = 64, 1000.0, 5.0, 60.0
    dt = 1.0 / fs
    pair = split_snapshots(synth_line_noise(channels, fs, duration, f0, seed=seed))  # the pair's copy is the only one
    lam_pair = np.array([np.exp(2j * np.pi * f0 * dt), np.exp(-2j * np.pi * f0 * dt)])

    before = exact_dmd(pair, r=8)
    sub = frequency_subtracted_dmd(pair, lam_pair, r=6)

    Q = _frequency_basis(lam_pair, pair.T)[0]  # real: a conjugate pair
    spec_before = dft_power_spectrum(pair.X1, fs)
    spec_after = dft_power_spectrum(pair.X1 - (pair.X1 @ Q) @ Q.T, fs)
    i60 = int(np.argmin(np.abs(spec_before.frequencies - f0)))
    reduction = spec_before.power[i60] / spec_after.power[i60]
    rec.metrics["dft_60hz_reduction"] = float(reduction)
    rec.check("fig8_dft_60hz_suppressed_10x", reduction, 10.0, mode="gt")

    gap = np.min(np.abs(sub.base.eigenvalues[:, None] - lam_pair[None, :]))
    rec.check("fig8_no_60hz_eigenvalue_after", gap, 1e-3, mode="gt")

    dmd_before = dmd_power_spectrum(before, dt)
    rec.metrics["dmd_peak_before_hz"] = float(dmd_before.frequencies[np.argmax(dmd_before.power)])

    _write_csv(
        out_dir / "fig8_dft_power.csv",
        ["frequency_hz", "power_before", "power_after"],
        np.column_stack([spec_before.frequencies, spec_before.power, spec_after.power]).tolist(),
    )
    rec.spectra(out_dir / "fig8_spectra.csv", [("before", before.eigenvalues), ("after", sub.base.eigenvalues)])
    return {"channels": channels, "fs": fs, "duration": duration, "f0": f0}


def _run_custom(seed, params, out_dir, rec):
    from .cli import load_matrix

    path, rank = params["input"], params["rank"]
    if path is None:
        raise InvalidInput("custom experiment requires an 'input' override with a matrix path")
    pair = split_snapshots(load_matrix(path))
    unc = exact_dmd(pair, r=rank)
    cen = centered_dmd(pair, r=rank)
    rec.spectra(out_dir / "custom_spectra.csv", [("uncentered", unc.eigenvalues), ("centered", cen.base.eigenvalues)])
    rec.metrics["consistency_residual"] = consistency_residual(pair)
    return params


#: Each experiment's runner and its parameters as ``name: (type, default)``.
#: ``run_experiment`` converts every override to its parameter's type.
_RUNNERS = {
    "fig2_spectra": (_run_fig2, {}),
    "fig3_noise": (_run_fig3, {"realizations": (int, 100)}),
    "fig4_dft": (_run_fig4, {"eta": (float, 1e-3)}),
    "fig5_fixed_freq": (_run_fig5, {"lambda": (complex, -1j)}),
    "fig6_lorenz": (_run_fig6, {"eta": (float, 0.03), "noise_seeds": (int, 100)}),
    "fig7_video": (_run_fig7, {"height": (int, 16), "width": (int, 16), "T": (int, 48)}),
    "fig8_linenoise": (_run_fig8, {}),
    "custom": (_run_custom, {"input": (str, None), "rank": (int, None)}),
}
EXPERIMENTS = tuple(_RUNNERS)


def run_experiment(config: ExperimentConfig) -> dict:
    """Run one experiment; writes the JSON summary and CSV data files.

    The overrides are converted to the types of the experiment's parameters
    first: a key the experiment does not take, or a value its type rejects,
    raises InvalidInput naming both. Returns the summary dict; the
    ``assertions`` entries record the pass/fail state of the experiment's
    self-checks.
    """
    name = config.experiment
    runner, table = _RUNNERS[name]
    params = {key: default for key, (_, default) in table.items()}
    for key, value in config.overrides.items():
        if key not in table:
            raise InvalidInput(f"experiment {name!r} has no parameter {key!r}; it takes: {', '.join(table) or 'none'}")
        kind = table[key][0]
        try:
            params[key] = kind(value)
        except (TypeError, ValueError):
            raise InvalidInput(f"experiment {name!r}: parameter {key!r} must be {kind.__name__}, got {value!r}") from None
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rec = _Recorder()
    with _one_blas_thread():  # the BLAS calls between fits too
        reported = runner(config.seed, params, out_dir, rec)
    summary = {
        "experiment": name,
        "seed": config.seed,
        "version": __version__,
        "config": {"overrides": {k: str(v) for k, v in config.overrides.items()}, "output_dir": str(out_dir)},
        "params": reported,
        "eigenvalues": rec.eigenvalues,
        "metrics": rec.metrics,
        "assertions": rec.assertions,
    }
    with open(out_dir / f"{name}_summary.json", "w") as f:
        json.dump(summary, f, indent=2)
    return summary
