"""The benchmark's three workloads.

Each workload builds its inputs from the seed when constructed (the input
generation that ``setup_s`` includes), runs one op per ``op`` call, and
``check`` returns the names of the output checks an op's result failed;
``missed_claims`` returns the noise-dependent claims it missed, which are
reported but do not fail the op. Both run after the traced run's wrappers
are removed, so their library calls are not counted.
Library functions are always looked up on their module at call time, so
the traced run's wrappers see every call.

``op`` takes ``span``, a context-manager factory the traced run uses to mark
calls from the benchmark into a layer; untraced it records nothing.
"""

from __future__ import annotations

import json

import numpy as np

import cdmd
import cdmd.cli
import cdmd.dmd


class Workload:
    """A workload with no noise-dependent claims."""

    def missed_claims(self, out):
        return []


# Experiment assertions that test a statistic of random draws (noise
# realisations or a random system) against an empirical threshold. Their
# outcome depends on the draw, not on whether the fit computed its answer
# correctly: fig4_centered_tracks_truth misses its 10 * eta threshold on about
# half of all seeds, while the fit is exact on noiseless data and its error
# grows linearly with eta. They are reported by name, value and threshold on
# every run; every other assertion is an output check.
STATISTICAL_CLAIMS = frozenset({
    "fig3_slope_centered",
    "fig3_slope_uncentered",
    "fig3_methods_agree_at_0.005",
    "fig4_companion_misses_truth",
    "fig4_centered_tracks_truth",
    "fig6_centered_majority_growing",
    "fig6_uncentered_majority_decaying",
})


class Suites(Workload):
    """Every canned experiment with default parameters, in order.

    The paper-reproduction path: thousands of tiny fits (fig3, fig6), where
    per-fit Python overhead in ``dmd`` and ``analysis`` dominates and LAPACK
    is a small share; large-n paths and file parsing are bypassed.
    """

    def __init__(self, seed, workdir):
        self.seed, self.workdir = seed, workdir
        self.names = [name for name in cdmd.EXPERIMENTS if name != "custom"]

    def op(self, span):
        summaries = []
        for name in self.names:
            with span(f"experiments.{name}"):
                config = cdmd.ExperimentConfig(name, seed=self.seed, output_dir=self.workdir)
                summaries.append(cdmd.run_experiment(config))
        return summaries

    def _missed(self, summaries):
        return [a for s in summaries for a in s["assertions"] if not a["passed"]]

    def check(self, summaries):
        return [a["name"] for a in self._missed(summaries) if a["name"] not in STATISTICAL_CLAIMS]

    def missed_claims(self, summaries):
        return [a for a in self._missed(summaries) if a["name"] in STATISTICAL_CLAIMS]


class Video(Workload):
    """A 64 x 64 synthetic clip, n = 4096 with 48 snapshot pairs (n >> T).

    One op fits centered DMD (a second SVD, a dense n x n operator and an
    O(n^3) fixed-point solve) and exact DMD, the in-workload control.
    """

    def __init__(self, seed, workdir):
        self.pair = cdmd.split_snapshots(cdmd.synth_video(64, 64, 48, seed=seed))

    def op(self, span):
        return cdmd.centered_dmd(self.pair), cdmd.exact_dmd(self.pair)

    def check(self, fits):
        centered, exact = fits
        failed = []
        i_bg = int(np.argmin(np.abs(exact.eigenvalues - 1.0)))
        others = np.delete(exact.eigenvalues, i_bg)
        lams = centered.base.eigenvalues
        if others.size != lams.size or not cdmd.match_spectra(others, lams) < 1e-8:
            failed.append("video_nonbackground_spectra_match")
        fixed = centered.fixed_point
        if fixed is None:
            failed.append("video_background_equals_fixed_point")
        else:
            background, _ = cdmd.dmd.canonicalize_mode(exact.modes[:, i_bg])
            fixed, _ = cdmd.dmd.canonicalize_mode(fixed)
            if not np.linalg.norm(background - fixed) < 1e-6:
                failed.append("video_background_equals_fixed_point")
        return failed


class LineNoiseCli(Workload):
    """Three CLI decompositions of a 64 x 5000 line-noise recording (T >> n).

    The matrix is written once as text; each op parses it three times through
    ``cdmd.cli.main`` in-process, so text parsing and the complex Vandermonde
    projection dominate.
    """

    F0, FS = 60.0, 1000.0

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.path = workdir / "linenoise.txt"
        cdmd.cli.save_matrix(cdmd.synth_line_noise(64, self.FS, 5.0, self.F0, seed=seed), self.path)
        lam = complex(np.exp(2j * np.pi * self.F0 / self.FS))
        self.line_pair = np.array([lam, lam.conjugate()])
        self.commands = [
            ("dmd", 8, []),
            ("centered-dmd", 8, []),
            ("freq-sub", 6, ["--lambda", f"{lam.real!r},{lam.imag!r}", "--lambda", f"{lam.real!r},{-lam.imag!r}"]),
        ]

    def _out(self, command):
        return self.workdir / f"{command}.json"

    def op(self, span):
        codes = []
        for command, rank, extra in self.commands:
            argv = [command, "--input", str(self.path), "--rank", str(rank), *extra, "--out", str(self._out(command))]
            try:
                codes.append(cdmd.cli.main(argv))
            except SystemExit as exc:  # argparse rejects the arguments
                codes.append(exc.code if isinstance(exc.code, int) else 1)
        return codes

    def check(self, codes):
        failed = []
        for (command, rank, _), code in zip(self.commands, codes):
            out = self._out(command)
            if code != 0:
                failed.append(f"{command}_exit_code")
                continue
            try:
                payload = json.loads(out.read_text())
                out.unlink()
            except (OSError, ValueError):
                failed.append(f"{command}_json_parses")
                continue
            if payload.get("rank_used") != rank:
                failed.append(f"{command}_rank_used")
            if command == "freq-sub":
                lams = np.array([complex(e["re"], e["im"]) for e in payload["eigenvalues"]])
                if not np.min(np.abs(lams[:, None] - self.line_pair[None, :])) >= 1e-3:
                    failed.append("freq-sub_clear_of_60hz")
        return failed


WORKLOADS = {"suites": Suites, "video": Video, "linenoise_cli": LineNoiseCli}
