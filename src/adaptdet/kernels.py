"""The five detection statistics, evaluated on stacks of trials and signals.

Every statistic the package reports comes from the functions here.
Inputs carry a leading trial axis and each trial is computed independently
by stacked LAPACK calls and elementwise arithmetic, so a trial's value does
not depend on the stack it was computed in: the Monte Carlo engine passes
blocks of trials, the per-instance API in :mod:`adaptdet.detectors` passes
a stack of one.

The data passed in is the noise; the signal enters as a stack c of P
signal coefficients (P, J, M), and every statistic is returned for every
trial at every point, shape (trials, P).  The signal A theta alpha^H C
lies in span(A) after the transformation: with C = D C_par it adds A c,
c = theta alpha^H D, to X_par and nothing to X_perp, so the covariance
estimates S_plus, S_perp and S do not depend on it.  A noise-only trial is
the single point c = 0, which gives bitwise the values of the noise alone.

``reduce`` takes what a covariance estimate S contributes, from one N x N
solve of S against [A, X_par] and the Gram Phi_A = A^H S^-1 A,
Phi_AX = A^H S^-1 X_par, Psi = X_par^H S^-1 X_par: the Cholesky factor L of
Phi_A = L L^H, V = L^-1 Phi_AX and the Cholesky factor R of I + W,
W = Psi - V^H V, all three from one Cholesky factorization of the Gram.  W is
X_par^H S^-1 X_par with the span of A projected out in the whitened space,
so it does not depend on the signal; at X_par + A c only V moves, to
V(c) = V + L^H c (``at_signals``).  Every grid point then costs small
products on V(c) and R:

* ``am`` gives lambda_max(V(c) V(c)^H): AMGDD-RU on S_plus, AMGDD on S.
* ``glr`` gives mu = lambda_max(V(c) (I + W)^-1 V(c)^H) as ``am`` of Y,
  with Y R^H = V(c) solved by substitution.  On S_plus, mu is GLRGDD and
  ``bounded(mu)`` = mu / (1 + mu) is GLRGDD-RU; on S_perp, ``bounded(mu)``
  is Bose's GLRT.

The grid-point stage is elementwise over the whole (trials, P) stack, a
Python loop over the short J or M axis, since a stacked ``@`` or LAPACK call
costs about a microsecond per tiny matrix.  The top eigenvalue of the J x J
Gram is in closed form for J <= 2; ``np.linalg.eigvalsh`` serves J >= 3.

GLRGDD is the statistic of the full SCM T = S + X X^H = S_plus + X_par X_par^H
(Kelly's update), lambda_max(V_T (I - Psi_T)^-1 V_T^H) in the reduction of T.
By the Woodbury identities that :func:`adaptdet.detectors.appendix_identities`
checks this equals mu on S_plus, and GLRGDD-RU = lambda_max(V(c) (I + Psi(c))^-1
V(c)^H) with Psi(c) = W + V(c)^H V(c) equals mu / (1 + mu).  Neither T nor
I - Psi_T is formed, so there is no N x N operation per grid point and no
cancellation as GLRGDD-RU approaches 1: 1 - GLRGDD-RU is 1 / (1 + mu).

Inputs are assumed validated (complex128, matching dimensions, positive
definite covariance estimates); :func:`adaptdet.detectors.statistics` is
the one caller.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["Reduction", "no_signal", "reduce", "at_signals", "glr", "am", "bounded"]


class Reduction(NamedTuple):
    """Per-trial reduction of one covariance estimate (see the module docstring)."""

    l: np.ndarray  # (trials, J, J), Phi_A = L L^H
    v: np.ndarray  # (trials, J, M), L^-1 Phi_AX
    r: np.ndarray  # (trials, M, M), I + W = R R^H with W = Psi - V^H V


def _ct(m):
    """Conjugate transpose of each matrix in a stack."""
    return np.conj(np.swapaxes(m, -1, -2))


def _inner(x, z):
    """sum_m x_m conj(z_m) over the short last axis of two stacks."""
    out = x[..., 0] * np.conj(z[..., 0])
    for m in range(1, x.shape[-1]):
        out += x[..., m] * np.conj(z[..., m])
    return out


def no_signal(j: int, m: int) -> np.ndarray:
    """The stack of one zero signal coefficient: noise-only trials."""
    return np.zeros((1, j, m), dtype=np.complex128)


def reduce(x_par, s, a) -> Reduction:
    """Reduction of the estimate S from one solve against [A, X_par].

    x_par: (trials, N, M) noise block; s: (trials, N, N) covariance
    estimate; a: (N, J) spatial subspace.
    """
    j = a.shape[-1]
    b = np.concatenate([np.broadcast_to(a, x_par.shape[:-1] + a.shape[-1:]), x_par],
                       axis=-1)
    g = _ct(b) @ np.linalg.solve(s, b)
    g = 0.5 * (g + _ct(g))  # Cholesky reads one triangle of G
    # the Cholesky factor of G + diag(0, I) is [[L, 0], [V^H, R]]
    g[..., j:, j:] += np.eye(x_par.shape[-1])
    f = np.linalg.cholesky(g)
    return Reduction(f[..., :j, :j], _ct(f[..., j:, :j]), f[..., j:, j:])


def at_signals(red: Reduction, c) -> np.ndarray:
    """V(c) = V + L^H c for each coefficient of the stack c: (trials, P, J, M)."""
    lh = _ct(red.l)[:, None]
    out = lh[..., :1] * c[:, :1]
    for k in range(1, c.shape[-2]):
        out += lh[..., k:k + 1] * c[:, k:k + 1]
    out += red.v[:, None]
    return out


def glr(red: Reduction, v) -> np.ndarray:
    """(trials, P) mu = lambda_max(V(c) (I + W)^-1 V(c)^H) of v = at_signals(red, c)."""
    # V(c) (I + W)^-1 V(c)^H = Y Y^H with Y R^H = V(c): R is lower triangular,
    # so column m of Y is (V(c)_m - sum_{n<m} Y_n conj(R_mn)) / R_mm
    r = red.r[:, None, None]
    inv_diag = 1.0 / np.diagonal(r, axis1=-2, axis2=-1).real
    y = np.empty_like(v)
    for m in range(v.shape[-1]):
        col = v[..., m]
        for n in range(m):
            col = col - y[..., n] * np.conj(r[..., m, n])
        y[..., m] = col * inv_diag[..., m]
    return am(y)


def am(v) -> np.ndarray:
    """(trials, P) lambda_max(V(c) V(c)^H) of v = at_signals(red, c), clamped at 0.

    In closed form for J <= 2, with no cancellation: ||v||^2 at J = 1, and
    (a + d)/2 + hypot((a - d)/2, |b|) for the Gram [[a, conj(b)], [b, d]]
    at J = 2.
    """
    j = v.shape[-2]
    if j > 2:
        lam = np.linalg.eigvalsh(v @ _ct(v))[..., -1]
        return np.where(lam < 0.0, 0.0, lam)
    a = _inner(v[..., 0, :], v[..., 0, :]).real
    if j == 1:
        return a
    d = _inner(v[..., 1, :], v[..., 1, :]).real
    b = _inner(v[..., 1, :], v[..., 0, :])
    return 0.5 * (a + d) + np.hypot(0.5 * (a - d), np.abs(b))


def bounded(mu):
    """mu / (1 + mu): the GLR statistic in [0, 1) of the augmented-SCM family."""
    return mu / (1.0 + mu)
