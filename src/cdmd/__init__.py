"""Dynamic mode decomposition with data centering and fixed-frequency subtraction."""

__version__ = "0.1.0"

from .analysis import (
    NoiseSweepResult,
    PowerSpectrum,
    dft_power_spectrum,
    dmd_power_spectrum,
    match_spectra,
    noise_sweep,
    roots_of_unity_distance,
    spectral_distance,
)
from .dmd import (
    CenteredDmdModel,
    CompanionModel,
    DmdModel,
    FrequencyModel,
    SnapshotPair,
    centered_dmd,
    companion_dmd,
    consistency_residual,
    exact_dmd,
    frequency_subtracted_dmd,
    reconstruct,
    split_snapshots,
)
from .exceptions import IntegrationOverflow, InvalidInput, ParseError, RankTooHigh
from .experiments import EXPERIMENTS, ExperimentConfig, run_experiment
from .linalg import (
    effective_rank,
    pinv,
    vandermonde,
)
from .synth import (
    LinearSystemSpec,
    LorenzParams,
    add_noise,
    lorenz_rk4,
    random_linear_system,
    simulate,
    synth_line_noise,
    synth_video,
    well_posed_initial_state,
)

__all__ = [name for name in dir() if not name.startswith("_")]
