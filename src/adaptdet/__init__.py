"""Adaptive detection of a matrix-valued rank-one subspace signal in unknown
Gaussian noise with limited training data.

Five detectors (GLRGDD-RU, AMGDD-RU, GLRGDD, AMGDD, Bose's GLRT) plus a
seeded Monte Carlo harness for threshold calibration, PD-versus-SNR
experiments, and empirical CFAR checks.
"""

__version__ = "0.1.0"

from .detectors import DetectorKind, Statistic, appendix_identities, compute, evaluate
from .errors import ConfigError, NonFiniteStatisticError, SingularMatrixError
from .linalg import TOL, hermitize
from .montecarlo import (CalibrationResult, CfarReport, PdCurve, calibrate_thresholds,
                         cfar_check, estimate_pd, pd_curves, simulate_statistics,
                         threshold_from_h0)
from .scenario import (Scenario, SignalCoordinates, make_scenario, make_signal,
                       random_directions, random_subspaces, scale_to_snr, snr_of,
                       toeplitz_covariance)
from .transform import (SubspaceFactorization, TransformedData,
                        factor_waveform_subspace, signal_coefficient)
from .config import ExperimentConfig, build_scenario, format_config, parse_config
from .verify import run_verification

__all__ = [
    "__version__",
    "CalibrationResult", "CfarReport", "ConfigError", "DetectorKind",
    "ExperimentConfig", "NonFiniteStatisticError", "PdCurve", "Scenario",
    "SignalCoordinates", "SingularMatrixError", "Statistic", "SubspaceFactorization", "TOL",
    "TransformedData", "appendix_identities", "build_scenario", "calibrate_thresholds",
    "cfar_check", "compute", "estimate_pd", "evaluate", "factor_waveform_subspace",
    "format_config", "hermitize", "make_scenario", "make_signal", "parse_config",
    "pd_curves", "random_directions", "random_subspaces", "run_verification",
    "scale_to_snr", "signal_coefficient", "simulate_statistics", "snr_of",
    "threshold_from_h0", "toeplitz_covariance",
]
