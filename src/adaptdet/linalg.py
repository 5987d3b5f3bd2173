"""Complex-matrix kernels used by every other module.

Input coercion, Hermitian parts and Cholesky factors, plus the package's
numerical tolerances.  All matrices are dense 2-D complex128 arrays in
row-major (C) order, the convention used repo-wide.
Every function is pure and safe to call from any number of threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError

__all__ = [
    "TOL",
    "Tolerances",
    "as_cmatrix",
    "cholesky",
    "hermitize",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances for the whole package (single source of truth)."""

    check_rtol: float = 1e-10      # Hermitian input checks
    rank_sv_rtol: float = 1e-8     # smallest/largest singular value full-rank test
    identity_rtol: float = 1e-8    # algebraic-identity / equivalence residual budget
    stat_unit_margin: float = 1e-12  # bounded statistics stay below 1 by this margin


TOL = Tolerances()


def as_cmatrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce ``x`` to a 2-D complex128 array and reject non-finite entries."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def hermitize(g, name: str = "matrix") -> np.ndarray:
    """Return the Hermitian part (G + G^H)/2 of a square matrix."""
    g = as_cmatrix(g, name)
    if g.shape[0] != g.shape[1]:
        raise ValueError(f"{name} must be square, got shape {g.shape}")
    return 0.5 * (g + g.conj().T)


def cholesky(s, message: str) -> np.ndarray:
    """Lower Cholesky factor(s) of `s`; SingularMatrixError(message) if not PD."""
    try:
        return np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(message) from exc
