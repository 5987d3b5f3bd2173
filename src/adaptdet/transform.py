"""Right-unitary transformation of the test data.

One SVD of the waveform subspace matrix C = U diag(s) [V_1, V_2]^H gives
the unitary transformation [V_1, V_2]: it splits the test data into the
signal-bearing block X_par = X V_1 U^H and the signal-free block
X_perp = X V_2, and the augmented sample covariance matrix S_plus is formed
from the training data plus X_perp.  This turns a limited-training detection
problem into a sample-abundant one: the columns of X_perp act as extra
(virtual) training data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError
from .linalg import TOL, as_cmatrix, hermitize

__all__ = ["SubspaceFactorization", "TransformedData", "factor_waveform_subspace",
           "signal_coefficient", "transform_data"]


@dataclass(frozen=True, eq=False)
class SubspaceFactorization:
    """C = D C_par with semi-unitary C_par; C_perp completes the row space.

    All three come from one SVD C = U diag(s) [V_1, V_2]^H: c_par = U V_1^H
    (M x K, orthonormal rows, equal to (C C^H)^{-1/2} C), c_perp = V_2^H
    ((K-M) x K), so [c_par^H, c_perp^H] is K x K unitary, and
    d = U diag(s) U^H = (C C^H)^{1/2} is Hermitian PD.
    """

    c_par: np.ndarray
    c_perp: np.ndarray
    d: np.ndarray


@dataclass(frozen=True, eq=False)
class TransformedData:
    """Transformed test data and the augmented SCM.

    x_par (N x M) carries any subspace signal, x_perp (N x (K-M)) is
    signal-free, and s_plus = X_L X_L^H + x_perp x_perp^H is Hermitian PD
    whenever L + K >= M + N and the data are nondegenerate.
    """

    x_par: np.ndarray
    x_perp: np.ndarray
    s_plus: np.ndarray


def factor_waveform_subspace(c) -> SubspaceFactorization:
    """Factor a full-row-rank M x K matrix C into (c_par, c_perp, d) by one SVD."""
    c = as_cmatrix(c, "C")
    m, k = c.shape
    if m > k:
        raise ValueError(f"C must have at most as many rows as columns, got {c.shape}")
    u, sv, vh = np.linalg.svd(c, full_matrices=True)
    if sv[-1] <= TOL.rank_sv_rtol * sv[0]:
        raise ValueError("C is rank deficient")
    c_par = u @ vh[:m]
    c_perp = np.ascontiguousarray(vh[m:])
    d = hermitize((u * sv) @ u.conj().T, "D")
    return SubspaceFactorization(c_par=c_par, c_perp=c_perp, d=d)


def signal_coefficient(f: SubspaceFactorization, theta, alpha) -> np.ndarray:
    """J x M coefficient c = theta alpha^H D of the signal A theta alpha^H C.

    As C = D C_par and C C_perp^H = 0, the signal adds A c to X_par and
    nothing to X_perp.
    """
    return np.outer(theta, np.conj(alpha)) @ f.d


def transform_data(x, x_l, f: SubspaceFactorization) -> TransformedData:
    """Apply the right-unitary transformation and form the augmented SCM.

    x is the N x K test-data matrix, x_l the N x L training data (L may be
    zero).  Raises SingularMatrixError rather than returning a singular
    s_plus, which signals L + K < M + N or degenerate data.
    """
    x = as_cmatrix(x, "X")
    x_l = as_cmatrix(x_l, "X_L")
    k = f.c_par.shape[1]
    if x.shape[1] != k:
        raise ValueError(f"X must have {k} columns, got {x.shape[1]}")
    if x_l.shape[0] != x.shape[0]:
        raise ValueError(
            f"X_L must have {x.shape[0]} rows to match X, got {x_l.shape[0]}"
        )
    x_par = x @ f.c_par.conj().T
    x_perp = x @ f.c_perp.conj().T
    s_plus = hermitize(x_l @ x_l.conj().T + x_perp @ x_perp.conj().T, "S_plus")
    try:
        np.linalg.cholesky(s_plus)
    except np.linalg.LinAlgError as exc:
        n, l = x.shape[0], x_l.shape[1]
        raise SingularMatrixError(
            f"augmented SCM singular (N={n}, K={x.shape[1]}, M={f.c_par.shape[0]}, "
            f"L={l}): need L+K >= M+N and nondegenerate data"
        ) from exc
    return TransformedData(x_par=x_par, x_perp=x_perp, s_plus=s_plus)
