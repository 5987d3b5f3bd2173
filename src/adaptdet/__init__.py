"""Adaptive detection of a matrix-valued rank-one subspace signal in unknown
Gaussian noise with limited training data.

Five detectors (GLRGDD-RU, AMGDD-RU, GLRGDD, AMGDD, Bose's GLRT) plus a
seeded Monte Carlo harness for threshold calibration, PD-versus-SNR
experiments, and empirical CFAR checks.
"""

__version__ = "0.1.0"

import importlib

from .detectors import DetectorKind, appendix_identities, evaluate
from .errors import ConfigError, NonFiniteStatisticError, SingularMatrixError
from .linalg import TOL, hermitize
from .montecarlo import (CfarReport, PdCurve, calibrate_thresholds, cfar_check, pd_curves,
                         simulate_statistics, threshold_from_h0)
from .scenario import (Scenario, make_scenario, make_signal, random_directions,
                       random_subspaces, scale_to_snr, snr_of, toeplitz_covariance)
from .transform import (SubspaceFactorization, TransformedData,
                        factor_waveform_subspace, signal_coefficient)
from .config import ExperimentConfig, build_scenario, format_config, parse_config

__all__ = [
    "__version__", "CfarReport", "ConfigError", "DetectorKind", "ExperimentConfig",
    "NonFiniteStatisticError", "PdCurve", "Scenario", "SingularMatrixError",
    "SubspaceFactorization", "TOL", "TransformedData",
    "appendix_identities", "build_scenario", "calibrate_thresholds", "cfar_check",
    "evaluate", "factor_waveform_subspace", "format_config", "hermitize",
    "make_scenario", "make_signal", "parse_config", "pd_curves", "random_directions",
    "random_subspaces", "run_verification", "scale_to_snr", "signal_coefficient",
    "simulate_statistics", "snr_of", "threshold_from_h0", "toeplitz_covariance",
]


def __getattr__(name):
    # adaptdet.verify serves only `adaptdet verify`: it loads on first use
    # (PEP 562), so a run that never verifies does not pay for its import
    if name in ("verify", "run_verification"):
        verify = importlib.import_module(".verify", __name__)
        return verify if name == "verify" else verify.run_verification
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
