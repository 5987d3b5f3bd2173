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
the Monte Carlo engine calls it on blocks of trials.  The per-instance
entry is :func:`evaluate`: it takes raw data (X, X_L, A, C) and a list of
kinds, validates the instance once, transforms it as the engine does,
checks once each covariance estimate the kinds read, reads them all from
one :func:`statistics` call on a stack of one at c = 0 (the engine's value,
bitwise) and returns each as a float.  Bose's GLRT reads no X_L, so an
empty N x 0 one will do.
"""

from __future__ import annotations

import enum

import numpy as np

from . import kernels
from .errors import SingularMatrixError
from .linalg import as_cmatrix, cholesky, hermitize
from .scenario import _full_rank, check_dimensions
from .transform import TransformedData, factor_waveform_subspace, transform_stack

__all__ = ["DetectorKind", "statistics", "appendix_identities", "evaluate"]


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
                    f"{self.name} requires L+K >= M+N (L+K={l + k} < M+N={m + n})"
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


def kind_list(kinds) -> list[DetectorKind]:
    """The one kinds-list rule: `kinds` as a list; a lone kind, [] or a repeat is refused."""
    if isinstance(kinds, DetectorKind):
        raise TypeError(f"kinds must be a list of detector kinds, got {kinds} alone: "
                        f"pass [{kinds}]")
    kinds = list(kinds)
    if not kinds:
        raise ValueError("empty detector list")
    # compared, not hashed: an entry that is no kind is left to check_dimensions
    if any(kind in kinds[:i] for i, kind in enumerate(kinds)):
        raise ValueError("duplicate detector in list")
    return kinds


def statistics(kinds, td: TransformedData, a: np.ndarray, c: np.ndarray,
               out=None) -> np.ndarray:
    """(trials, P, len(kinds)) statistics of `kinds` from stacked transformed data
    at (P, J, M) signal coefficients c; unvalidated, LAPACK errors propagate.
    Each reduction builds its bordered matrix in `out` (see ``kernels.reduce``)."""
    glr_full, glr_ru = DetectorKind.GLRGDD, DetectorKind.GLRGDD_RU
    want = set(kinds)
    columns = {}
    # one reduction per covariance estimate, S_perp, S and then S_plus, so that
    # no reduction's arrays are held while the next estimate is factored
    if DetectorKind.BOSE_GLRT in want:
        columns[DetectorKind.BOSE_GLRT] = kernels.bounded(
            kernels.glr(*kernels.reduce(td.x_par, td.s_perp, a, c, out=out)))
    if DetectorKind.AMGDD in want:
        columns[DetectorKind.AMGDD] = kernels.am(
            kernels.reduce(td.x_par, td.s_train, a, c, out=out)[0])
    if want & {glr_full, glr_ru, DetectorKind.AMGDD_RU}:
        v, r = kernels.reduce(td.x_par, td.s_perp, a, c, plus=td.s_train, out=out)
        if want & {glr_full, glr_ru}:
            columns[glr_full] = kernels.glr(v, r)
            columns[glr_ru] = kernels.bounded(columns[glr_full])
        if DetectorKind.AMGDD_RU in want:
            columns[DetectorKind.AMGDD_RU] = kernels.am(v)
    return np.stack([columns[kind] for kind in kinds], axis=-1)


def _prepared(kinds, x, x_l, a, c):
    """Check raw data against each of `kinds`, transform it once and refuse a
    singular covariance estimate that one of them reads, each checked once."""
    x = as_cmatrix(x, "X")
    x_l = as_cmatrix(x_l, "X_L")
    a = as_cmatrix(a, "A")
    c = as_cmatrix(c, "C")
    (n, k), m, l = x.shape, c.shape[0], x_l.shape[1]
    if x_l.shape[0] != n or a.shape[0] != n or c.shape[1] != k:
        raise ValueError(f"dimension mismatch: X is {x.shape}, X_L is {x_l.shape}, "
                         f"A is {a.shape}, C is {c.shape}")
    check_dimensions(n, k, m, a.shape[1], l, kinds)
    if not _full_rank(a):
        raise ValueError("A must have full column rank")
    f = factor_waveform_subspace(c)
    td = transform_stack(x, x_l, f)
    singular = (f"augmented SCM singular (N={n}, K={k}, M={m}, L={{}}): "
                "need L+K >= M+N and nondegenerate data")
    if {DetectorKind.GLRGDD_RU, DetectorKind.AMGDD_RU} & set(kinds):
        cholesky(td.s_plus, singular.format(l))
    if {DetectorKind.GLRGDD, DetectorKind.AMGDD} & set(kinds):
        cholesky(td.s_train, "singular covariance estimate: SCM")
    if DetectorKind.BOSE_GLRT in kinds:
        cholesky(td.s_perp, singular.format(0))  # S_perp: S_plus of no training data
    return x, a, f, td


def evaluate(kinds, x, x_l, a, c) -> dict[DetectorKind, float]:
    """Evaluate several statistics of one instance from raw data matrices:
    one validation, one transform and one :func:`statistics` call on a stack
    of one trial at c = 0, the instance's data taken as noise; a LAPACK
    failure there raises SingularMatrixError naming the kinds.  Each value
    must be finite and >= 0, and below 1 for the bounded kinds."""
    kinds = kind_list(kinds)
    _, a, f, td = _prepared(kinds, x, x_l, a, c)
    one = TransformedData(**{name: value[None] for name, value in vars(td).items()})
    try:
        values = statistics(kinds, one, a, kernels.no_signal(a.shape[1], f.c_par.shape[0]))
    except np.linalg.LinAlgError as exc:
        names = ", ".join(kind.name for kind in kinds)
        raise SingularMatrixError(f"{exc}: ill-conditioned covariance estimate for {names}") from exc
    out = {kind: float(value) for kind, value in zip(kinds, values[0, 0])}
    for kind, value in out.items():
        if not np.isfinite(value) or value < 0.0:
            raise ValueError(f"{kind.name} statistic must be finite and >= 0, got {value}")
        if kind.bounded_below_one and value >= 1.0:
            raise ValueError(f"{kind.name} statistic must lie in [0, 1), got {value}")
    return out


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
