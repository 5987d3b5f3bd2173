"""Complex-matrix kernels used by every other module.

Input coercion, Hermitian parts and Hermitian positive-definite solves,
plus the package's numerical tolerances.  All matrices are dense 2-D
complex128 arrays in row-major (C) order, the convention used repo-wide.
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
    "hpd_solve",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances for the whole package (single source of truth)."""

    check_rtol: float = 1e-10      # Hermitian input checks
    rank_sv_rtol: float = 1e-8     # smallest/largest singular value full-rank test
    identity_rtol: float = 1e-8    # algebraic-identity / equivalence residual budget
    degenerate_rtol: float = 1e-12 # boundary-case detector agreement
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


def _require_square(a: np.ndarray, name: str) -> None:
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")


def hermitize(g, name: str = "matrix") -> np.ndarray:
    """Return the Hermitian part (G + G^H)/2 of a square matrix."""
    g = as_cmatrix(g, name)
    _require_square(g, name)
    return 0.5 * (g + g.conj().T)


def hpd_solve(s, b, name: str = "covariance") -> np.ndarray:
    """Solve S Y = B for Hermitian positive-definite S.

    Uses a Cholesky factorization S = F F^H and one solve against each
    factor; the explicit inverse is never formed.  The solution satisfies
    ``|S Y - B| <= 1e-10 |B|`` (Frobenius, relative) for well-conditioned S.

    Raises
    ------
    SingularMatrixError
        If the factorization fails, naming the offending matrix.
    """
    s = as_cmatrix(s, name)
    b = as_cmatrix(b, "right-hand side")
    _require_square(s, name)
    if s.shape[0] != b.shape[0]:
        raise ValueError(
            f"dimension mismatch: {name} is {s.shape}, right-hand side is {b.shape}"
        )
    factor = cholesky(s, f"singular covariance estimate: {name}")
    return np.linalg.solve(factor.conj().T, np.linalg.solve(factor, b))


def cholesky(s, message: str) -> np.ndarray:
    """Lower Cholesky factor(s) of `s`; SingularMatrixError(message) if not PD."""
    try:
        return np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(message) from exc
