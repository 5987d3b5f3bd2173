"""Adaptive detection of a matrix-valued rank-one subspace signal in unknown
Gaussian noise with limited training data.

Five detectors (GLRGDD-RU, AMGDD-RU, GLRGDD, AMGDD, Bose's GLRT) plus a
seeded Monte Carlo harness for threshold calibration, PD-versus-SNR
experiments, and empirical CFAR checks.
"""

__version__ = "0.1.0"

from .detectors import (DetectorKind, Statistic, amgdd, amgdd_ru, appendix_identities,
                        bose_glrt, compute, evaluate, glrgdd, glrgdd_ru)
from .errors import ConfigError, NonFiniteStatisticError, SingularMatrixError
from .linalg import TOL, hermitize, hpd_solve
from .montecarlo import (CalibrationResult, CfarReport, PdCurve, calibrate_threshold,
                         calibrate_thresholds, cfar_check, estimate_pd, pd_curve,
                         pd_curves, simulate_statistics, threshold_from_h0)
from .scenario import (Scenario, SignalCoordinates, make_scenario, make_signal,
                       random_directions, random_subspaces, sample_noise, scale_to_snr,
                       snr_of, toeplitz_covariance)
from .transform import (SubspaceFactorization, TransformedData,
                        factor_waveform_subspace, signal_coefficient, transform_data)
from .config import ExperimentConfig, build_scenario, format_config, parse_config
from .verify import run_verification

__all__ = [
    "__version__",
    "CalibrationResult", "CfarReport", "ConfigError", "DetectorKind",
    "ExperimentConfig", "NonFiniteStatisticError", "PdCurve", "Scenario",
    "SignalCoordinates", "SingularMatrixError", "Statistic", "SubspaceFactorization", "TOL",
    "TransformedData", "amgdd", "amgdd_ru", "appendix_identities", "bose_glrt",
    "build_scenario", "calibrate_threshold", "calibrate_thresholds", "cfar_check",
    "compute", "estimate_pd", "evaluate", "factor_waveform_subspace", "format_config",
    "glrgdd", "glrgdd_ru", "hermitize", "hpd_solve", "make_scenario", "make_signal",
    "parse_config", "pd_curve", "pd_curves", "random_directions", "random_subspaces",
    "run_verification", "sample_noise", "scale_to_snr", "signal_coefficient",
    "simulate_statistics", "snr_of", "threshold_from_h0", "toeplitz_covariance",
    "transform_data",
]
