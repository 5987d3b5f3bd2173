"""The five detection statistics, evaluated on stacks of trials and signals.

Every statistic the package reports comes from the functions here.
Inputs carry a leading trial axis and each trial is computed independently
by numpy's stacked LAPACK calls, so a trial's value does not depend on the
stack it was computed in: the Monte Carlo engine passes blocks of trials,
the per-instance API in :mod:`adaptdet.detectors` passes a stack of one.

* ``ru_statistics`` gives [GLRGDD-RU, AMGDD-RU] on the augmented SCM;
  ``glrgdd_ru_statistic`` gives its first column alone, which is Bose's
  GLRT when S_plus is built from X_perp alone.
* ``classic_statistics`` gives [GLRGDD, AMGDD] on the training-only SCM.

The data passed in is the noise; the signal enters as a stack c of P
signal coefficients (P, J, M), and every statistic is returned for every
trial at every point, shape (trials, P, ...).  The signal A theta alpha^H C
lies in span(A) after the transformation: with C = D C_par it adds A c,
c = theta alpha^H D, to X_par and nothing to X_perp, so the covariance
estimates S_plus, S_perp and S do not depend on it.  A noise-only trial is
the single point c = 0, which gives bitwise the values of the noise alone.

A covariance estimate S enters only through the Gram of [A, X_par]
against S^-1, i.e. Phi_A = A^H S^-1 A, Phi_AX = A^H S^-1 X_par and
Psi = X_par^H S^-1 X_par, from one N x N solve per trial.  With Phi_A = L L^H
and V = L^-1 Phi_AX, V^H V = Phi_AX^H Phi_A^-1 Phi_AX; at X_par + A c these
become V + L^H c and Psi + c^H Phi_AX + Phi_AX^H c + c^H Phi_A c, small
products per point.  Each statistic is the top eigenvalue of a J x J
matrix: GLRGDD-RU = lambda_max(V (I + Psi)^-1 V^H) and AMGDD-RU =
lambda_max(V V^H) on S_plus (Bose's GLRT: the former on S_perp), AMGDD =
lambda_max(V V^H) on S, and GLRGDD = lambda_max(V (I - Psi)^-1 V^H) on the
full SCM T = S + X X^H.  The last is the factored product form
(Q = I + X^H S^-1 X) rewritten by identities that
:func:`adaptdet.detectors.appendix_identities` checks: by
``coupling_factor_reduction`` and ``woodbury_total_inverse`` its coupling
factor A^H S^-1 X Q^-1 C_par^H is A^H T^-1 X_par, and by
``whitened_gram_reduction``, ``woodbury_total_inverse`` and
``resolvent_contraction`` its waveform Gram C_par Q^-1 C_par^H is
I - X_par^H T^-1 X_par.  No K x K matrix is formed.  T contains the signal,
so GLRGDD keeps one N x N solve per trial and point; it is computed on T,
not mapped from GLRGDD-RU.

Inputs are assumed validated (complex128, matching dimensions, positive
definite covariance estimates); the defensive checks live in
:mod:`adaptdet.detectors`.  Covariance estimates are hermitized here, so a
raw Gram-matrix sum may be passed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["no_signal", "ru_statistics", "glrgdd_ru_statistic", "classic_statistics"]


def _ct(m):
    """Conjugate transpose of each matrix in a stack."""
    return np.conj(np.swapaxes(m, -1, -2))


def _herm(m):
    return 0.5 * (m + _ct(m))


def _top_eig(m):
    """Largest eigenvalue of each Hermitian matrix, clamped at 0."""
    lam = np.linalg.eigvalsh(_herm(m))[..., -1]
    return np.where(lam < 0.0, 0.0, lam)


def _reduce(s, a, x_par):
    """Cholesky factor L of Phi_A, V = L^-1 Phi_AX and Psi of the estimate S,
    from one solve of S against [A, X_par]."""
    j = a.shape[-1]
    b = np.concatenate([np.broadcast_to(a, x_par.shape[:-1] + a.shape[-1:]), x_par],
                       axis=-1)
    g = _herm(_ct(b) @ np.linalg.solve(_herm(s), b))
    l = np.linalg.cholesky(g[..., :j, :j])
    return l, np.linalg.solve(l, g[..., :j, j:]), g[..., j:, j:]


def _at_signals(l, v, psi, c):
    """V and Psi at X_par + A c for each coefficient of the stack c:
    (trials, P, J, M) and (trials, P, M, M)."""
    # with u = L^H c, V(c) = V + u and Psi(c) = Psi + w + w^H, w = u^H (V + u / 2)
    u = _ct(l)[:, None] @ c
    v = v[:, None]
    w = _ct(u) @ (v + 0.5 * u)
    return v + u, psi[:, None] + w + _ct(w)


def _glr(v, psi, sign):
    """lambda_max(V (I + sign Psi)^-1 V^H)."""
    return _top_eig(v @ np.linalg.solve(np.eye(psi.shape[-1]) + sign * psi, _ct(v)))


def no_signal(j: int, m: int) -> np.ndarray:
    """The stack of one zero signal coefficient: noise-only trials."""
    return np.zeros((1, j, m), dtype=np.complex128)


def ru_statistics(x_par, s_plus, a, c) -> np.ndarray:
    """(trials, P, 2) array of [GLRGDD-RU, AMGDD-RU].

    x_par: (trials, N, M) noise block; s_plus: (trials, N, N) augmented
    SCM; a: (N, J) spatial subspace; c: (P, J, M) signal coefficients.
    """
    v, psi = _at_signals(*_reduce(s_plus, a, x_par), c)
    return np.stack([_glr(v, psi, 1.0), _top_eig(v @ _ct(v))], axis=-1)


def glrgdd_ru_statistic(x_par, s_plus, a, c) -> np.ndarray:
    """(trials, P) GLRGDD-RU alone: bitwise ``ru_statistics(...)[..., 0]``, one
    eigvalsh cheaper.  Bose's GLRT when S_plus is built from X_perp alone."""
    return _glr(*_at_signals(*_reduce(s_plus, a, x_par), c), 1.0)


def classic_statistics(x, s, a, c_par, c) -> np.ndarray:
    """(trials, P, 2) array of [GLRGDD, AMGDD].

    x: (trials, N, K) noise test data; s: (trials, N, N) training-only SCM;
    a: (N, J) spatial subspace; c_par: (M, K) semi-unitary waveform rows;
    c: (P, J, M) signal coefficients.
    """
    x_par = x @ _ct(c_par)
    v, _ = _at_signals(*_reduce(s, a, x_par), c)
    glr = np.empty(v.shape[:2])
    for p in range(c.shape[0]):
        # T = S + X X^H holds the signal A c_p C_par: one solve of T per point,
        # against [A, X_par + A c_p] itself, since I - Psi cancels at high SNR
        signal_par = a @ c[p]
        x_p = x + signal_par @ c_par
        _, v_t, psi_t = _reduce(s + x_p @ _ct(x_p), a, x_par + signal_par)
        glr[:, p] = _glr(v_t, psi_t, -1.0)
    return np.stack([glr, _top_eig(v @ _ct(v))], axis=-1)
