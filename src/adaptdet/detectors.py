"""The five detection statistics.

Two detectors built on the augmented SCM work whenever L + K >= M + N:

* GLRGDD-RU: generalized likelihood ratio statistic, bounded in [0, 1).
* AMGDD-RU: two-step (adaptive matched) variant, unbounded above.

Two classical detectors need a nonsingular training-only SCM (L >= N):

* GLRGDD: GLR statistic of the full SCM S + X X^H, the same test as
  GLRGDD-RU through the strictly increasing map t -> t / (1 - t).  Both are
  read from one value mu (see :mod:`adaptdet.kernels`): GLRGDD = mu and
  GLRGDD-RU = mu / (1 + mu).
* AMGDD: two-step variant on the training-only SCM.

Bose's GLRT uses no training data at all and requires K >= M + N; it is
GLRGDD-RU with an empty training set.

This module is the per-instance API: it validates one problem instance
(shapes, dimension constraints, a nonsingular covariance estimate) and
hands it to :mod:`adaptdet.kernels` as a stack of one trial at the single
signal point c = 0 (the data is taken as given).  The Monte Carlo engine
calls the same kernels on whole blocks of trials and SNR grids, so every
statistic has exactly one implementation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import SingularMatrixError
from .linalg import as_cmatrix, hermitize
from .transform import TransformedData, factor_waveform_subspace, transform_data

__all__ = ["DetectorKind", "Statistic", "glrgdd_ru", "amgdd_ru", "glrgdd", "amgdd",
           "bose_glrt", "appendix_identities", "compute"]


class DetectorKind(enum.Enum):
    """The five statistics with their validity preconditions."""

    GLRGDD_RU = "GLRGDD_RU"
    AMGDD_RU = "AMGDD_RU"
    GLRGDD = "GLRGDD"
    AMGDD = "AMGDD"
    BOSE_GLRT = "BOSE_GLRT"

    @property
    def bounded_below_one(self) -> bool:
        return self in (DetectorKind.GLRGDD_RU, DetectorKind.BOSE_GLRT)

    def check_dims(self, n: int, k: int, m: int, l: int) -> None:
        """Raise ValueError naming the violated inequality, if any."""
        if self in (DetectorKind.GLRGDD_RU, DetectorKind.AMGDD_RU):
            if l + k < m + n:
                raise ValueError(
                    f"{self.name} requires L+K >= M+N (L+K={l + k}, M+N={m + n})"
                )
        elif self is DetectorKind.BOSE_GLRT:
            if k < m + n:
                raise ValueError(
                    f"Bose constraint violated: {self.name} requires K >= M+N "
                    f"(K={k}, M+N={m + n})"
                )
        else:
            if l < n:
                raise ValueError(f"{self.name} requires L >= N (L={l}, N={n})")

    def is_valid(self, n: int, k: int, m: int, l: int) -> bool:
        try:
            self.check_dims(n, k, m, l)
        except ValueError:
            return False
        return True


@dataclass(frozen=True)
class Statistic:
    """A detector output: nonnegative, and below 1 for the bounded kinds."""

    value: float
    kind: DetectorKind

    def __post_init__(self):
        if not np.isfinite(self.value) or self.value < 0.0:
            raise ValueError(f"{self.kind.name} statistic must be finite and >= 0, "
                             f"got {self.value}")
        if self.kind.bounded_below_one and self.value >= 1.0:
            raise ValueError(f"{self.kind.name} statistic must lie in [0, 1), "
                             f"got {self.value}")


def _validated(kind: DetectorKind, x, x_l, a, c):
    """Coerce the raw data matrices and check their shapes against `kind`."""
    x = as_cmatrix(x, "X")
    x_l = as_cmatrix(x_l, "X_L")
    a = as_cmatrix(a, "A")
    c = as_cmatrix(c, "C")
    n, k = x.shape
    if x_l.shape[0] != n or a.shape[0] != n or c.shape[1] != k:
        raise ValueError(f"dimension mismatch: X is {x.shape}, X_L is {x_l.shape}, "
                         f"A is {a.shape}, C is {c.shape}")
    kind.check_dims(n, k, c.shape[0], x_l.shape[1])
    return x, x_l, a, c


def _training_scm(x_l: np.ndarray) -> np.ndarray:
    s = hermitize(x_l @ x_l.conj().T, "SCM")
    try:
        np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("singular covariance estimate: SCM") from exc
    return s


def _statistic(kind: DetectorKind, x_par: np.ndarray, s: np.ndarray,
               a: np.ndarray) -> Statistic:
    """`kind` from the kernel reduction of the estimate `s` of one instance."""
    red = kernels.reduce(x_par[None], s[None], a)
    v = kernels.at_signals(red, kernels.no_signal(a.shape[1], x_par.shape[1]))
    if kind in (DetectorKind.AMGDD_RU, DetectorKind.AMGDD):
        value = kernels.am(v)
    elif kind is DetectorKind.GLRGDD:
        value = kernels.glr(red, v)
    else:
        value = kernels.bounded(kernels.glr(red, v))
    return Statistic(float(value[0, 0]), kind)


def glrgdd_ru(td: TransformedData, a) -> Statistic:
    """GLR statistic on the augmented SCM; value in [0, 1)."""
    return _statistic(DetectorKind.GLRGDD_RU, td.x_par, td.s_plus, as_cmatrix(a, "A"))


def amgdd_ru(td: TransformedData, a) -> Statistic:
    """Two-step statistic on the augmented SCM; nonnegative, unbounded."""
    return _statistic(DetectorKind.AMGDD_RU, td.x_par, td.s_plus, as_cmatrix(a, "A"))


def glrgdd(x, x_l, a, c) -> Statistic:
    """GLR statistic on S + X X^H, computed as mu on the augmented SCM."""
    return compute(DetectorKind.GLRGDD, x, x_l, a, c)


def amgdd(x, x_l, a, c) -> Statistic:
    """Two-step statistic on the training-only SCM."""
    return compute(DetectorKind.AMGDD, x, x_l, a, c)


def bose_glrt(x, a, c) -> Statistic:
    """Training-free GLRT: GLRGDD-RU with an empty training set."""
    x = as_cmatrix(x, "X")
    return compute(DetectorKind.BOSE_GLRT, x, x[:, :0], a, c)


def compute(kind: DetectorKind, x, x_l, a, c) -> Statistic:
    """Evaluate any of the five statistics from raw data matrices."""
    x, x_l, a, c = _validated(kind, x, x_l, a, c)
    f = factor_waveform_subspace(c)
    if kind is DetectorKind.AMGDD:
        return _statistic(kind, x @ f.c_par.conj().T, _training_scm(x_l), a)
    if kind is DetectorKind.GLRGDD:
        _training_scm(x_l)  # GLRGDD is defined on a nonsingular training SCM
    elif kind is DetectorKind.BOSE_GLRT:
        x_l = x_l[:, :0]
    td = transform_data(x, x_l, f)
    return _statistic(kind, td.x_par, td.s_plus, a)


def appendix_identities(x, x_l, a, c) -> dict[str, float]:
    """Numerically evaluate the algebraic identities linking the two SCMs.

    Each identity is checked on the given data and reported as a relative
    Frobenius residual; on generic data with L >= N all residuals should
    sit at rounding level (<= 1e-8 with wide margin).  Explicit inverses
    are fine here: this is a diagnostic report, not a computation path.

    Identities covered:

    * ``woodbury_total_inverse``: (S + X X^H)^-1 expanded around the
      augmented SCM via the matrix inversion lemma.
    * ``resolvent_contraction``: I - P + P (I + P)^-1 P = (I + P)^-1 for
      the Hermitian block P = X_par^H S_plus^-1 X_par.
    * ``scm_update_inverse``: S^-1 - S^-1 S_perp S_plus^-1 = S_plus^-1.
      (The natural restatement of the update chain; the two sides are
      inverses, not sums.)
    * ``coupling_factor_reduction``: the coupling factor of the factored
      product form reduces to Phi_AX (I + P)^-1.
    * ``whitened_gram_reduction``: the whitened waveform gram factor
      reduces to I + P.
    """
    x, x_l, a, c = _validated(DetectorKind.GLRGDD, x, x_l, a, c)
    k, m = x.shape[1], c.shape[0]
    f = factor_waveform_subspace(c)
    td = transform_data(x, x_l, f)
    s = hermitize(x_l @ x_l.conj().T, "SCM")
    s_perp = td.x_perp @ td.x_perp.conj().T
    s_inv = np.linalg.inv(s)
    sp_inv = np.linalg.inv(td.s_plus)
    phi_ax = a.conj().T @ sp_inv @ td.x_par
    phi_x = hermitize(td.x_par.conj().T @ sp_inv @ td.x_par, "phi_x")
    shrink = np.linalg.inv(np.eye(m) + phi_x)

    residuals = {}
    lhs = np.linalg.inv(s + x @ x.conj().T)
    rhs = sp_inv - sp_inv @ td.x_par @ shrink @ td.x_par.conj().T @ sp_inv
    residuals["woodbury_total_inverse"] = _relative_residual(lhs, rhs)

    lhs = np.eye(m) - phi_x + phi_x @ shrink @ phi_x
    residuals["resolvent_contraction"] = _relative_residual(lhs, shrink)

    lhs = s_inv - s_inv @ s_perp @ sp_inv
    residuals["scm_update_inverse"] = _relative_residual(lhs, sp_inv)

    q_inv = np.linalg.inv(np.eye(k) + x.conj().T @ s_inv @ x)
    xi_ac = a.conj().T @ s_inv @ x @ q_inv @ f.c_par.conj().T
    residuals["coupling_factor_reduction"] = _relative_residual(xi_ac, phi_ax @ shrink)

    xi_c = np.linalg.inv(f.c_par @ q_inv @ f.c_par.conj().T)
    residuals["whitened_gram_reduction"] = _relative_residual(xi_c, np.eye(m) + phi_x)
    return residuals


def _relative_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    scale = max(np.linalg.norm(rhs), 1e-300)
    return float(np.linalg.norm(lhs - rhs) / scale)
