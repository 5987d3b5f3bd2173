"""Exception types shared across the package."""

import numpy as np


class SingularMatrixError(np.linalg.LinAlgError):
    """Triangular factorization failed: the matrix is numerically singular."""


class ConfigError(ValueError):
    """Experiment configuration is malformed or violates a dimension constraint."""


class NonFiniteStatisticError(ArithmeticError):
    """A detection statistic came out NaN or infinite."""
