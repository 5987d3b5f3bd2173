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

Which estimates it forms depends on (N, K, M, L) alone, never on the kinds
requested, so the per-instance API and the engine share one transform.
Where :func:`one_gram` holds (L < N and K < M + N) only GLRGDD-RU and
AMGDD-RU are valid and both read S_plus alone: it stores Y = [X_perp, X_L]
and :func:`adaptdet.kernels.reduce` forms S_plus = Y Y^H.  Elsewhere it
stores the Grams S_perp and S (the training SCM), which Bose's GLRT and
AMGDD read alone and ``reduce`` adds into S_plus; a Gram of Y there would
be a third Gram per trial.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import TOL, as_cmatrix, hermitize

__all__ = ["SubspaceFactorization", "TransformedData", "factor_waveform_subspace",
           "one_gram", "signal_coefficient", "transform_size", "transform_stack"]


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

    x_par (N x M) carries any subspace signal.  With two Grams,
    s_perp = X_perp X_perp^H of the signal-free X_perp (N x (K-M)) and
    s_train = X_L X_L^H (the training SCM), and y is None; where
    :func:`one_gram` holds, both are None and y = [X_perp, X_L]
    (N x (K-M+L)).  s_plus is Hermitian PD whenever L + K >= M + N and the
    data are nondegenerate.  Fields may carry leading trial axes.
    """

    x_par: np.ndarray
    s_perp: np.ndarray | None
    s_train: np.ndarray | None
    y: np.ndarray | None = None

    @property
    def s_plus(self) -> np.ndarray:
        """s_perp + s_train or Y Y^H, formed on each access; the engine forms
        it in each bordered matrix instead (see ``kernels.reduce``)."""
        if self.y is None:
            return self.s_perp + self.s_train
        return self.y @ np.conj(np.swapaxes(self.y, -1, -2))

    def __getitem__(self, index) -> TransformedData:
        """The trials that `index` selects from every field: ``td[t:t + 1]``
        is trial t as a stack of one, ``td[None]`` one instance as a stack."""
        return TransformedData(*(None if v is None else v[index] for v in vars(self).values()))


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


def one_gram(n: int, k: int, m: int, l: int) -> bool:
    """Whether :func:`transform_stack` stores Y = [X_perp, X_L] instead of
    S_perp and S: where L < N and K < M + N, so that AMGDD, GLRGDD and
    Bose's GLRT are all invalid and no valid kind reads S_perp or S alone."""
    return l < n and k < m + n


def transform_size(n: int, k: int, m: int, l: int) -> int:
    """complex128 elements per trial that :func:`transform_stack` writes."""
    return n * (k + l) if one_gram(n, k, m, l) else n * (k + 2 * n)


def transform_stack(x, x_l, f: SubspaceFactorization, out=None) -> TransformedData:
    """Unvalidated transformation of test data x (..., N, K) and training
    data x_l (..., N, L) with any leading trial axes.  A trial's values do
    not depend on the other trials of its stack.

    X_par and either X_perp and the two Grams or Y = [X_perp, X_L] (see
    :func:`one_gram`) are written into `out`, a contiguous complex128
    buffer of at least ``transform_size(N, K, M, L)`` elements per trial (a
    new one when None), and the results are views of it.
    """
    *lead, n, k = x.shape
    m, l = f.c_par.shape[0], x_l.shape[-1]
    rows = math.prod(lead) * n
    if out is None:
        out = np.empty(math.prod(lead) * transform_size(n, k, m, l), dtype=np.complex128)
    gram = one_gram(n, k, m, l)
    bounds = (0, m, k + l) if gram else (0, m, k, k + n, k + 2 * n)
    x_par, y, *grams = (out[lo * rows:hi * rows].reshape(*lead, n, hi - lo)
                        for lo, hi in itertools.pairwise(bounds))
    # one GEMM over all rows of the stack: merging the trial axes of a block
    # slice is a view, and a row's product does not depend on the others;
    # y is X_perp, or Y with X_perp in its leading K - M columns
    x = x.reshape(rows, k)
    np.matmul(x, f.c_par.conj().T, out=x_par.reshape(rows, m))
    np.matmul(x, f.c_perp.conj().T, out=y.reshape(rows, y.shape[-1])[:, :k - m])
    if gram:
        y[..., k - m:] = x_l
        return TransformedData(x_par, None, None, y)
    s_perp, s_train = grams
    np.matmul(y, np.conj(np.swapaxes(y, -1, -2)), out=s_perp)
    np.matmul(x_l, np.conj(np.swapaxes(x_l, -1, -2)), out=s_train)
    return TransformedData(x_par, s_perp, s_train)
