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

A statistic takes two calls: ``reduce`` once per covariance estimate S,
then ``glr`` or ``am`` on what it returns.  ``reduce`` reads what S
contributes from one stacked Cholesky factorization of the bordered matrix
[[S, B], [B^H, t I]], B = [A, X_par].  Its factor holds Z^H, Z = F^-1 B with S = F F^H, so
Z^H Z = B^H S^-1 B is the Gram of Phi_A = A^H S^-1 A, Phi_AX = A^H S^-1 X_par
and Psi = X_par^H S^-1 X_par.  One Cholesky factorization of the Gram plus
diag(0, I) then gives the factor L of Phi_A = L L^H, V = L^-1 Phi_AX and the factor R of
I + W, W = Psi - V^H V.  W is X_par^H S^-1 X_par with the span of A
projected out in the whitened space, so it does not depend on the signal;
at X_par + A c only V moves, to V(c) = V + L^H c.  ``reduce`` returns
V(c) at every point of the stack c, (trials, P, J, M), and R, (trials, M, M);
every grid point then costs small products on them:

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

import numpy as np

__all__ = ["bordered_size", "no_signal", "reduce", "glr", "am", "bounded"]


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


def bordered_size(n: int, j: int, m: int) -> int:
    """complex128 elements per trial of the matrix that :func:`reduce` factors."""
    return (n + j + m) ** 2


def reduce(x_par, s, a, c, *, plus=None, out=None) -> tuple[np.ndarray, np.ndarray]:
    """(V(c), R) of the estimate S = s (+ plus) from one bordered Cholesky factorization:
    V(c) = V + L^H c, (trials, P, J, M), and R, (trials, M, M), with I + W = R R^H.

    x_par: (trials, N, M) noise block; s, plus: (trials, N, N) stacks;
    a: (N, J) spatial subspace; c: (P, J, M) signal coefficients.  The
    bordered matrix is built in `out`, a contiguous complex128 buffer of
    ``bordered_size(N, J, M)`` elements per trial or more (a new one when
    None).
    """
    trials, n, m = x_par.shape
    j = a.shape[-1]
    size = n + j + m
    if out is None:
        out = np.empty(trials * size * size, dtype=np.complex128)
    # H = [[S, B], [B^H, t I]] with B = [A 2^e, X_par] has the factor
    # [[F, 0], [Z^H, *]]; numpy reads H's lower triangle only
    h = out[:trials * size * size].reshape(trials, size, size)
    np.add(s, 0.0 if plus is None else plus, out=h[:, :n, :n])
    mean = np.diagonal(h[:, :n, :n], axis1=1, axis2=2).real.sum(axis=1) / n
    # powers of two per trial, so exact: 2^e brings A's columns to the scale of
    # S, and t exceeds every eigenvalue of B^H S^-1 B while cond(S) < ~2^256
    e = np.frexp(mean * (j / np.vdot(a, a).real))[1] // 2
    np.multiply(a.conj().T, np.ldexp(1.0, e)[:, None, None], out=h[:, n:n + j, :n])
    np.conjugate(np.swapaxes(x_par, 1, 2), out=h[:, n + j:, :n])
    border = h[:, n:, :n].view(np.float64)
    t = np.frexp(np.einsum("tij,tij->t", border, border) / mean)[1] + 256
    np.multiply(np.eye(j + m), np.ldexp(1.0, np.minimum(t, 1023))[:, None, None],
                out=h[:, n:, n:])
    zh = np.linalg.cholesky(h)[:, n:, :n]
    # the Gram Z^H Z, Hermitian by construction, and conj(Z^H) go where H was
    zc = np.conjugate(zh, out=out[:trials * (j + m) * n].reshape(trials, j + m, n))
    g = np.matmul(zh, np.swapaxes(zc, 1, 2),
                  out=out[zc.size:zc.size + trials * (j + m) ** 2].reshape(trials, j + m, j + m))
    del zh  # H's factor, the largest array here, is not held while V(c) is built
    # the Cholesky factor of G + diag(0, I) is [[2^e L, 0], [V^H, R]]
    g[:, j:, j:] += np.eye(m)
    f = np.linalg.cholesky(g)
    # V(c) = V + L^H c with L = 2^-e f[:j, :j] and V = f[j:, :j]^H
    lh = _ct(f[:, :j, :j] * np.ldexp(1.0, -e)[:, None, None])[:, None]
    v = lh[..., :1] * c[:, :1]
    for k in range(1, j):
        v += lh[..., k:k + 1] * c[:, k:k + 1]
    v += _ct(f[:, j:, :j])[:, None]
    return v, f[:, j:, j:]


def glr(v, r) -> np.ndarray:
    """(trials, P) mu = lambda_max(V(c) (I + W)^-1 V(c)^H) of (v, r) = reduce(...)."""
    # V(c) (I + W)^-1 V(c)^H = Y Y^H with Y R^H = V(c): R is lower triangular,
    # so column m of Y is (V(c)_m - sum_{n<m} Y_n conj(R_mn)) / R_mm
    r = r[:, None, None]
    inv_diag = 1.0 / np.diagonal(r, axis1=-2, axis2=-1).real
    y = np.empty_like(v)
    for m in range(v.shape[-1]):
        col = v[..., m]
        for n in range(m):
            col = col - y[..., n] * np.conj(r[..., m, n])
        y[..., m] = col * inv_diag[..., m]
    return am(y)


def am(v) -> np.ndarray:
    """(trials, P) lambda_max(V(c) V(c)^H) of v, V(c) from reduce, clamped at 0.

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
    """mu / (1 + mu): the GLR statistic in [0, 1) of the augmented-SCM family;
    NaN, without a warning, for an infinite mu, which the engine and evaluate refuse."""
    with np.errstate(invalid="ignore"):
        return mu / (1.0 + mu)
