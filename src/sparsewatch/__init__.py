"""Online change detection for partially observed high-dimensional streams.

The package monitors a stream x_t in R^p of which only m coordinates can be
observed per step.  The normal regime follows a low-dimensional background
basis; a change adds a sparse combination of anomaly basis columns.  Each
step the monitor refits a spike-slab variational posterior over the anomaly
coefficients from exponentially decayed residual statistics, tests a
quadratic detection statistic against a calibrated threshold, and picks the
next observation subset by sampling the posterior's best guess of where the
anomaly shows.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .bases import (
    BasisDictionary,
    bspline_basis,
    fourier_basis,
    identity_anomaly_basis,
    kron_basis,
    load_basis_csv,
    pca_basis,
    save_basis_csv,
)
from .detection import (
    DetectionInputs,
    alarm_check,
    lambda_stat,
    log_pbf_exact,
    marginal_h0,
    marginal_h1_exact,
)
from .engine import (
    EngineState,
    RunLengthSummary,
    StepOutcome,
    calibrate_threshold,
    collect_h0_trajectories,
    evaluate,
    init,
    replay_run_lengths,
    search_threshold,
    step,
    study,
)
from .errors import (
    CalibrationError,
    CapabilityError,
    DataError,
    DimensionError,
    NumericalError,
    SparsewatchError,
    StateError,
)
from .inference import (
    BackgroundPosterior,
    DecayedStats,
    FitResult,
    ModelConfig,
    SpikeSlabPosterior,
    absorb_sample,
    elbo,
    fit,
    update_background,
    vb_coordinate_sweep,
)
from .sampling import (
    OracleScorer,
    SensingPlan,
    draw_anomaly_sample,
    score_variables,
    select_top_m,
    synthesize_anomaly_signal,
)
from .simgen import (
    Scenario,
    gen_stream,
    load_stream_csv,
    save_stream_csv,
)

__all__ = [
    "__version__",
    # bases
    "BasisDictionary",
    "fourier_basis",
    "bspline_basis",
    "kron_basis",
    "pca_basis",
    "identity_anomaly_basis",
    "save_basis_csv",
    "load_basis_csv",
    # inference
    "ModelConfig",
    "SpikeSlabPosterior",
    "DecayedStats",
    "BackgroundPosterior",
    "FitResult",
    "absorb_sample",
    "vb_coordinate_sweep",
    "elbo",
    "update_background",
    "fit",
    # detection
    "DetectionInputs",
    "marginal_h0",
    "marginal_h1_exact",
    "log_pbf_exact",
    "lambda_stat",
    "alarm_check",
    # sampling
    "SensingPlan",
    "OracleScorer",
    "draw_anomaly_sample",
    "synthesize_anomaly_signal",
    "score_variables",
    "select_top_m",
    # engine
    "EngineState",
    "StepOutcome",
    "RunLengthSummary",
    "init",
    "step",
    "collect_h0_trajectories",
    "replay_run_lengths",
    "search_threshold",
    "calibrate_threshold",
    "evaluate",
    "study",
    # simgen
    "Scenario",
    "gen_stream",
    "save_stream_csv",
    "load_stream_csv",
    # errors
    "SparsewatchError",
    "DimensionError",
    "DataError",
    "StateError",
    "CapabilityError",
    "CalibrationError",
    "NumericalError",
]
