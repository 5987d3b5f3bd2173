"""Complex-matrix kernels used by every other module.

Hermitian positive-definite solves, Hermitian matrix square roots, and
orthonormal row-space completion.  All matrices are dense 2-D complex128
arrays in row-major (C) order, the convention used repo-wide.  Every function is
pure and safe to call from any number of threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SingularMatrixError

__all__ = [
    "TOL",
    "Tolerances",
    "as_cmatrix",
    "hermitize",
    "hpd_solve",
    "inv_sqrt",
    "psd_sqrt",
    "orthonormal_complement",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances for the whole package (single source of truth)."""

    hermitian_rtol: float = 1e-12  # Hermitian round-trip of constructed matrices
    check_rtol: float = 1e-10      # Hermitian / semi-unitary input checks
    solve_rtol: float = 1e-10      # relative residual budget of hpd_solve
    psd_clamp_rtol: float = 1e-10  # eigenvalue clamp (relative to trace) in psd_sqrt
    rank_sv_rtol: float = 1e-8     # smallest/largest singular value full-rank test
    identity_rtol: float = 1e-8    # algebraic-identity / equivalence residual budget
    degenerate_rtol: float = 1e-12 # boundary-case detector agreement
    stat_unit_margin: float = 1e-12  # bounded statistics stay below 1 by this margin
    snr_rtol: float = 1e-12        # scale_to_snr self-consistency


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


def _check_hermitian(s: np.ndarray, name: str, rtol: float = TOL.check_rtol) -> None:
    dev = np.linalg.norm(s - s.conj().T)
    if dev > rtol * max(1.0, np.linalg.norm(s)):
        raise ValueError(f"{name} is not Hermitian (deviation {dev:.3e})")


def hermitize(g, name: str = "matrix") -> np.ndarray:
    """Return the Hermitian part (G + G^H)/2 of a square matrix."""
    g = as_cmatrix(g, name)
    _require_square(g, name)
    return 0.5 * (g + g.conj().T)


def hpd_solve(s, b, name: str = "covariance") -> np.ndarray:
    """Solve S Y = B for Hermitian positive-definite S.

    Uses a Cholesky factorization of S; the explicit inverse is never
    formed.  The solution satisfies ``|S Y - B| <= 1e-10 |B|`` (Frobenius,
    relative) for well-conditioned S.

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
    try:
        factor = scipy.linalg.cho_factor(s, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"singular covariance estimate: {name}") from exc
    return scipy.linalg.cho_solve(factor, b, check_finite=False)


def _eigh_checked(s, name: str) -> tuple[np.ndarray, np.ndarray]:
    s = as_cmatrix(s, name)
    _require_square(s, name)
    _check_hermitian(s, name)
    w, v = np.linalg.eigh(s)
    return w, v


def inv_sqrt(s, name: str = "matrix") -> np.ndarray:
    """Unique Hermitian PD inverse square root W of S, with W S W = I.

    Computed from the full eigendecomposition; intended for the small
    matrices (a few dozen rows) this package works with.
    """
    w, v = _eigh_checked(s, name)
    if w[0] <= 0.0:
        raise ValueError(
            f"{name} is not positive definite (min eigenvalue {w[0]:.3e})"
        )
    root = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return 0.5 * (root + root.conj().T)


def psd_sqrt(s, name: str = "matrix") -> np.ndarray:
    """Hermitian PSD square root of S.

    Eigenvalues in [-1e-10 * trace, 0) are clamped to zero; anything more
    negative is rejected as non-PSD.
    """
    w, v = _eigh_checked(s, name)
    floor = -TOL.psd_clamp_rtol * max(float(np.trace(s).real), 0.0)
    if w[0] < floor:
        raise ValueError(
            f"{name} is not positive semidefinite (min eigenvalue {w[0]:.3e})"
        )
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return 0.5 * (root + root.conj().T)


def orthonormal_complement(c_par) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the rows of c_par.

    Given an M x K matrix with orthonormal rows (M < K), returns a
    (K-M) x K matrix whose rows are orthonormal, orthogonal to the rows of
    c_par, and together with them form a K x K unitary matrix.  The basis
    is the one produced by the SVD; any unitary rotation of it would do.
    """
    c = as_cmatrix(c_par, "c_par")
    m, k = c.shape
    if m >= k:
        raise ValueError(f"complement requires M < K (M={m}, K={k})")
    gram = c @ c.conj().T
    if np.max(np.abs(gram - np.eye(m))) > TOL.check_rtol:
        raise ValueError("c_par rows are not orthonormal")
    _, _, vh = np.linalg.svd(c, full_matrices=True)
    return np.ascontiguousarray(vh[m:])
