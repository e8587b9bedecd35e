"""Elastic shape analysis for motion quality assessment.

Registers scalar motion trajectories in square-root velocity space,
separates phase from amplitude variability, and scores curves against a
healthy reference mean with amplitude, phase, and cosine distances.
"""

from .core import (
    DegenerateInputError,
    DimensionError,
    DistanceTriple,
    InsufficientDataError,
    ParameterError,
    SrvfCurve,
    TimeGrid,
    Trajectory,
    Warping,
    common_grid,
    inner_product,
    l2_norm,
)
from .preprocess import RawRecording, butterworth_lowpass, derivative, resample
from .registration import (
    Alignment,
    RegistrationResult,
    align_to_reference,
    alignment_cost,
    amplitude_distance,
    cosine_distance,
    from_srvf,
    group_action,
    optimal_warping,
    phase_amplitude_separation,
    phase_distance,
    to_srvf,
)
from .analytics import (
    DistanceMatrix,
    RegressionResult,
    TTestResult,
    linear_regression,
    pairwise_matrix,
    rolling_correlation,
    t_two_sided_pvalue,
    welch_t_test,
)
from .inputs import ManifestEntry, ManifestError, PipelineConfig, load_manifest
from .pipeline import CohortReport, IngestResult, ingest, run_pipeline

__version__ = "0.1.0"
