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

:func:`statistics` maps each kind to its covariance estimate and kernels;
the Monte Carlo engine calls it on blocks of trials.  The per-instance API,
:func:`evaluate` (:func:`compute` is its one-kind case), validates one
instance once for all its kinds, transforms it as the engine does, checks
once each covariance estimate they read and reads every kind from one
:func:`statistics` call on a stack of one at c = 0: the engine's value, bitwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import kernels
from .linalg import as_cmatrix, cholesky, hermitize
from .scenario import _full_rank, check_dimensions
from .transform import (TransformedData, factor_waveform_subspace, require_augmented_scm,
                        transform_stack)

__all__ = ["DetectorKind", "Statistic", "statistics", "glrgdd_ru", "amgdd_ru", "glrgdd",
           "amgdd", "bose_glrt", "appendix_identities", "evaluate", "compute"]


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


def statistics(kinds, td: TransformedData, a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(trials, P, len(kinds)) statistics of `kinds` from stacked transformed data
    at (P, J, M) signal coefficients c; unvalidated, LAPACK errors propagate."""
    glrgdd, glrgdd_ru = DetectorKind.GLRGDD, DetectorKind.GLRGDD_RU
    want = set(kinds)
    columns = {}
    # one reduction per covariance estimate: S_plus, S_perp and S
    if want & {glrgdd, glrgdd_ru, DetectorKind.AMGDD_RU}:
        plus = kernels.reduce(td.x_par, td.s_plus, a)
        v = kernels.at_signals(plus, c)
        if want & {glrgdd, glrgdd_ru}:
            columns[glrgdd] = kernels.glr(plus, v)
            columns[glrgdd_ru] = kernels.bounded(columns[glrgdd])
        if DetectorKind.AMGDD_RU in want:
            columns[DetectorKind.AMGDD_RU] = kernels.am(v)
    if DetectorKind.BOSE_GLRT in want:
        bose = kernels.reduce(td.x_par, td.s_perp, a)
        columns[DetectorKind.BOSE_GLRT] = kernels.bounded(
            kernels.glr(bose, kernels.at_signals(bose, c)))
    if DetectorKind.AMGDD in want:
        train = kernels.reduce(td.x_par, td.s_train, a)
        columns[DetectorKind.AMGDD] = kernels.am(kernels.at_signals(train, c))
    return np.stack([columns[kind] for kind in kinds], axis=-1)


def _prepared(kinds, x, x_l, a, c):
    """Check raw data against each of `kinds`, transform it once and refuse a
    singular covariance estimate that one of them reads, each checked once."""
    x = as_cmatrix(x, "X")
    x_l = as_cmatrix(x_l, "X_L")
    a = as_cmatrix(a, "A")
    c = as_cmatrix(c, "C")
    n, k = x.shape
    if x_l.shape[0] != n or a.shape[0] != n or c.shape[1] != k:
        raise ValueError(f"dimension mismatch: X is {x.shape}, X_L is {x_l.shape}, "
                         f"A is {a.shape}, C is {c.shape}")
    for kind in kinds:
        kind.check_dims(n, k, c.shape[0], x_l.shape[1])
    check_dimensions(n, k, c.shape[0], a.shape[1], x_l.shape[1])
    if not _full_rank(a):
        raise ValueError("A must have full column rank")
    f = factor_waveform_subspace(c)
    td = transform_stack(x, x_l, f)
    if {DetectorKind.GLRGDD_RU, DetectorKind.AMGDD_RU} & set(kinds):
        require_augmented_scm(td, x_l.shape[1])
    if {DetectorKind.GLRGDD, DetectorKind.AMGDD} & set(kinds):
        cholesky(td.s_train, "singular covariance estimate: SCM")
    if DetectorKind.BOSE_GLRT in kinds:
        require_augmented_scm(td, 0)  # S_perp, the augmented SCM of no training data
    return x, a, f, td


def _at_noise(kinds, td: TransformedData, a: np.ndarray) -> list[Statistic]:
    """`kinds` of one instance's transformed data, taken as noise (c = 0)."""
    one = TransformedData(**{name: value[None] for name, value in vars(td).items()})
    c = kernels.no_signal(a.shape[1], td.x_par.shape[1])
    values = statistics(kinds, one, a, c)[0, 0]
    return [Statistic(float(value), kind) for kind, value in zip(kinds, values)]


def glrgdd_ru(td: TransformedData, a) -> Statistic:
    """GLR statistic on the augmented SCM; value in [0, 1)."""
    return _at_noise([DetectorKind.GLRGDD_RU], td, as_cmatrix(a, "A"))[0]


def amgdd_ru(td: TransformedData, a) -> Statistic:
    """Two-step statistic on the augmented SCM; nonnegative, unbounded."""
    return _at_noise([DetectorKind.AMGDD_RU], td, as_cmatrix(a, "A"))[0]


def glrgdd(x, x_l, a, c) -> Statistic:
    """GLR statistic on S + X X^H, computed as mu on the augmented SCM."""
    return compute(DetectorKind.GLRGDD, x, x_l, a, c)


def amgdd(x, x_l, a, c) -> Statistic:
    """Two-step statistic on the training-only SCM."""
    return compute(DetectorKind.AMGDD, x, x_l, a, c)


def bose_glrt(x, a, c) -> Statistic:
    """Training-free GLRT: GLRGDD-RU with an empty training set."""
    return compute(DetectorKind.BOSE_GLRT, x, np.zeros(np.shape(x)[:1] + (0,)), a, c)


def evaluate(kinds, x, x_l, a, c) -> dict[DetectorKind, Statistic]:
    """Evaluate several statistics of one instance from raw data matrices:
    one validation, one transform and one :func:`statistics` call."""
    _, a, _, td = _prepared(kinds, x, x_l, a, c)
    return dict(zip(kinds, _at_noise(kinds, td, a)))


def compute(kind: DetectorKind, x, x_l, a, c) -> Statistic:
    """Evaluate any of the five statistics from raw data matrices."""
    return evaluate([kind], x, x_l, a, c)[kind]


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
    x, a, f, td = _prepared([DetectorKind.GLRGDD], x, x_l, a, c)
    k, m = x.shape[1], f.c_par.shape[0]
    s_inv = np.linalg.inv(td.s_train)
    sp_inv = np.linalg.inv(td.s_plus)
    phi_ax = a.conj().T @ sp_inv @ td.x_par
    phi_x = hermitize(td.x_par.conj().T @ sp_inv @ td.x_par, "phi_x")
    shrink = np.linalg.inv(np.eye(m) + phi_x)

    residuals = {}
    lhs = np.linalg.inv(td.s_train + x @ x.conj().T)
    rhs = sp_inv - sp_inv @ td.x_par @ shrink @ td.x_par.conj().T @ sp_inv
    residuals["woodbury_total_inverse"] = _relative_residual(lhs, rhs)

    lhs = np.eye(m) - phi_x + phi_x @ shrink @ phi_x
    residuals["resolvent_contraction"] = _relative_residual(lhs, shrink)

    lhs = s_inv - s_inv @ td.s_perp @ sp_inv
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
