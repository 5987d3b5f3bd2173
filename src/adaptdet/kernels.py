"""The five detection statistics, evaluated on stacks of trials.

Every statistic the package reports comes from the functions here.
Inputs carry a leading trial axis and each trial is computed independently
by numpy's stacked LAPACK calls, so a trial's value does not depend on the
stack it was computed in: the Monte Carlo engine passes blocks of trials,
the per-instance API in :mod:`adaptdet.detectors` passes a stack of one.

* ``ru_statistics`` gives [GLRGDD-RU, AMGDD-RU] on the augmented SCM;
  ``glrgdd_ru_statistic`` gives its first column alone, which is Bose's
  GLRT when S_plus is built from X_perp alone.
* ``classic_statistics`` gives [GLRGDD, AMGDD] on the training-only SCM.

Inputs are assumed validated (complex128, matching dimensions, positive
definite covariance estimates); the defensive checks live in
:mod:`adaptdet.detectors`.  Covariance estimates are hermitized here, so a
raw Gram-matrix sum may be passed.  Each estimate is LU-factored once, for
all of its right-hand sides together.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ru_statistics", "glrgdd_ru_statistic", "classic_statistics"]


def _ct(m):
    """Conjugate transpose of each matrix in a stack."""
    return np.conj(np.swapaxes(m, -1, -2))


def _herm(m):
    return 0.5 * (m + _ct(m))


def _top_eig(m):
    """Largest eigenvalue of each Hermitian matrix, clamped at 0."""
    lam = np.linalg.eigvalsh(_herm(m))[..., -1]
    return np.where(lam < 0.0, 0.0, lam)


def _inv_sqrt(g):
    """Hermitian inverse square root of each Hermitian PD matrix."""
    w, v = np.linalg.eigh(g)
    return (v * (1.0 / np.sqrt(w))[..., None, :]) @ _ct(v)


def _two_step(s, x_par, a, *more):
    """Two-step numerator Phi_AX^H Phi_A^-1 Phi_AX against S, then S^-1 X_par
    and S^-1 of each further right-hand side, from one LU factorization of S."""
    rhs = [np.broadcast_to(a, x_par.shape[:-1] + a.shape[-1:]), x_par, *more]
    si_a, *si = np.split(np.linalg.solve(s, np.concatenate(rhs, axis=-1)),
                         np.cumsum([b.shape[-1] for b in rhs])[:-1], axis=-1)
    a_h = _ct(a)
    phi_a = _herm(a_h @ si_a)
    phi_ax = a_h @ si[0]
    return _herm(_ct(phi_ax) @ np.linalg.solve(phi_a, phi_ax)), *si


def _ru_terms(x_par, s_plus, a):
    """GLRGDD-RU and the two-step numerator whose top eigenvalue is AMGDD-RU."""
    num, si_x = _two_step(_herm(s_plus), x_par, a)
    half = _inv_sqrt(np.eye(x_par.shape[-1]) + _herm(_ct(x_par) @ si_x))
    return _top_eig(half @ num @ half), num


def ru_statistics(x_par, s_plus, a) -> np.ndarray:
    """(trials, 2) array of [GLRGDD-RU, AMGDD-RU].

    x_par: (trials, N, M) signal block; s_plus: (trials, N, N) augmented
    SCM; a: (N, J) spatial subspace.
    """
    glr, num = _ru_terms(x_par, s_plus, a)
    return np.stack([glr, _top_eig(num)], axis=-1)


def glrgdd_ru_statistic(x_par, s_plus, a) -> np.ndarray:
    """(trials,) GLRGDD-RU alone: bitwise ``ru_statistics(...)[:, 0]``, one
    eigvalsh cheaper.  Bose's GLRT when S_plus is built from X_perp alone."""
    return _ru_terms(x_par, s_plus, a)[0]


def classic_statistics(x, s, a, c_par) -> np.ndarray:
    """(trials, 2) array of [GLRGDD, AMGDD] (GLRGDD in factored product form).

    x: (trials, N, K) test data; s: (trials, N, N) training-only SCM;
    a: (N, J) spatial subspace; c_par: (M, K) semi-unitary waveform rows.
    """
    s = _herm(s)
    cpar_h = _ct(c_par)
    a_h = _ct(a)
    x_h = _ct(x)
    num, _, si_x = _two_step(s, x @ cpar_h, a, x)
    q = _herm(np.eye(x.shape[-1]) + x_h @ si_x)
    t1 = np.linalg.solve(q, cpar_h)
    xi_ac = (a_h @ si_x) @ t1
    m_a = _herm(a_h @ np.linalg.solve(_herm(s + x @ x_h), a))
    core = _herm(_ct(xi_ac) @ np.linalg.solve(m_a, xi_ac))
    half = _inv_sqrt(_herm(c_par @ t1))
    out = np.empty((x.shape[0], 2))
    out[:, 0] = _top_eig(half @ core @ half)
    out[:, 1] = _top_eig(num)
    return out
