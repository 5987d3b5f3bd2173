"""Right-unitary transformation of the test data.

One SVD of the waveform subspace matrix C = U diag(s) [V_1, V_2]^H gives
the unitary transformation [V_1, V_2]: it splits the test data into the
signal-bearing block X_par = X V_1 U^H and the signal-free block
X_perp = X V_2, and the augmented sample covariance matrix S_plus is formed
from the training data plus X_perp.  This turns a limited-training detection
problem into a sample-abundant one: the columns of X_perp act as extra
(virtual) training data.

:func:`transform_stack` alone applies it and forms the covariance
estimates, for the Monte Carlo engine and the per-instance API alike; the
engine passes each block a buffer that its thread reuses.  It validates
nothing: :mod:`adaptdet.detectors` checks an instance's dimensions
and refuses a singular covariance estimate before any detector reads it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import TOL, as_cmatrix, hermitize

__all__ = ["SubspaceFactorization", "TransformedData", "factor_waveform_subspace",
           "signal_coefficient", "transform_size", "transform_stack"]


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
    """Transformed test data and the covariance estimates formed from it.

    x_par (N x M) carries any subspace signal, s_perp = X_perp X_perp^H of the
    signal-free X_perp (N x (K-M)), s_train = X_L X_L^H (the training SCM) and
    s_plus = s_perp + s_train, Hermitian PD whenever L + K >= M + N and the
    data are nondegenerate.  Fields may carry leading trial axes.
    """

    x_par: np.ndarray
    s_perp: np.ndarray
    s_train: np.ndarray

    @property
    def s_plus(self) -> np.ndarray:
        """Formed on each access; the engine adds the two into each bordered matrix."""
        return self.s_perp + self.s_train


def factor_waveform_subspace(c) -> SubspaceFactorization:
    """Factor a full-row-rank M x K matrix C into (c_par, c_perp, d) by one SVD."""
    c = as_cmatrix(c, "C")
    m, k = c.shape
    if not 0 < m <= k:
        raise ValueError(f"C must have at least one row and at most as many rows as "
                         f"columns, got {c.shape}")
    u, sv, vh = np.linalg.svd(c, full_matrices=True)
    if sv[-1] <= TOL.rank_sv_rtol * sv[0]:
        raise ValueError("C must have full row rank; this C is rank deficient")
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


def transform_size(n: int, k: int) -> int:
    """complex128 elements per trial that :func:`transform_stack` writes."""
    return n * (k + 2 * n)


def transform_stack(x, x_l, f: SubspaceFactorization, out=None) -> TransformedData:
    """Unvalidated transformation of test data x (..., N, K) and training
    data x_l (..., N, L) with any leading trial axes.  A trial's values do
    not depend on the other trials of its stack.

    X_par, X_perp and the two Grams are written into `out`, a contiguous
    complex128 buffer of at least ``transform_size(N, K)`` elements per
    trial (a new one when None), and the results are views of it.
    """
    *lead, n, k = x.shape
    m = f.c_par.shape[0]
    rows = math.prod(lead) * n
    if out is None:
        out = np.empty(math.prod(lead) * transform_size(n, k), dtype=np.complex128)
    x_par, x_perp, s_perp, s_train = (
        out[lo * rows:hi * rows].reshape(*lead, n, hi - lo)
        for lo, hi in itertools.pairwise((0, m, k, k + n, k + 2 * n)))
    # one GEMM over all rows of the stack: merging the trial axes of a block
    # slice is a view, and a row's product does not depend on the others
    x = x.reshape(rows, k)
    np.matmul(x, f.c_par.conj().T, out=x_par.reshape(rows, m))
    np.matmul(x, f.c_perp.conj().T, out=x_perp.reshape(rows, k - m))
    np.matmul(x_perp, np.conj(np.swapaxes(x_perp, -1, -2)), out=s_perp)
    np.matmul(x_l, np.conj(np.swapaxes(x_l, -1, -2)), out=s_train)
    return TransformedData(x_par, s_perp, s_train)
