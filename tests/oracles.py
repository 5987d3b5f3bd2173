"""Independent brute-force formulations used only as test oracles.

Everything here is deliberately naive: explicit matrix inverses, principal
matrix square roots from scipy, a dense general (non-Hermitian)
eigensolver, and mpmath for references that must not lose digits.  None
of it shares code with the package's computation paths.  The one
exception is :func:`regime_instances`, which draws the instances of
``adaptdet verify`` for chosen regimes.
"""

import mpmath
import numpy as np
import scipy.linalg

from adaptdet.scenario import VERIFY_INSTANCE, stream
from adaptdet.verify import random_instance


def regime_instances(seed, count, *regimes):
    """Instances 0..count-1 cycling through `regimes`, drawn as verify.instance_stream
    draws its own: instance i is random_instance(regimes[i % len(regimes)],
    stream(seed, VERIFY_INSTANCE, i))."""
    return (random_instance(regimes[i % len(regimes)], stream(seed, VERIFY_INSTANCE, i))
            for i in range(count))


def dagger(m):
    return m.conj().T


def random_cmatrix(rng, rows, cols):
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_hpd(rng, n):
    g = random_cmatrix(rng, n, n)
    return g @ dagger(g) + n * np.eye(n)


def random_semi_unitary_rows(rng, rows, cols):
    _, _, vh = np.linalg.svd(random_cmatrix(rng, rows, cols), full_matrices=False)
    return vh


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_cmatrix(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def general_max_eig(matrix):
    """Largest eigenvalue (real part) via a dense general eigensolver."""
    return float(np.max(np.linalg.eigvals(matrix).real))


def ru_glr_direct(x_par, s_plus, a):
    """GLR statistic on the augmented SCM, built term by explicit inversion."""
    spi = np.linalg.inv(s_plus)
    m = x_par.shape[1]
    core = (dagger(x_par) @ spi @ a @ np.linalg.inv(dagger(a) @ spi @ a)
            @ dagger(a) @ spi @ x_par)
    shrink = np.linalg.inv(np.eye(m) + dagger(x_par) @ spi @ x_par)
    return general_max_eig(core @ shrink)


def ru_am_direct(x_par, s_plus, a):
    """Two-step statistic on the augmented SCM, by explicit inversion."""
    spi = np.linalg.inv(s_plus)
    core = (dagger(x_par) @ spi @ a @ np.linalg.inv(dagger(a) @ spi @ a)
            @ dagger(a) @ spi @ x_par)
    return general_max_eig(core)


def amgdd_projection_form(x, x_l, a, c):
    """AMGDD in the whitened projection form: P_C X~^H P_A~ X~ P_C."""
    s = x_l @ dagger(x_l)
    white = np.linalg.inv(scipy.linalg.sqrtm(s))
    x_t = white @ x
    a_t = white @ a
    p_c = dagger(c) @ np.linalg.inv(c @ dagger(c)) @ c
    p_a = a_t @ np.linalg.inv(dagger(a_t) @ a_t) @ dagger(a_t)
    return general_max_eig(p_c @ dagger(x_t) @ p_a @ x_t @ p_c)


def glrgdd_raw_form(x, x_l, a, c):
    """GLRGDD in the raw (unfactored) whitened form."""
    n, k = x.shape
    s = x_l @ dagger(x_l)
    white = np.linalg.inv(scipy.linalg.sqrtm(s))
    x_t = white @ x
    a_t = white @ a
    mid = np.linalg.inv(scipy.linalg.sqrtm(np.eye(k) + dagger(x_t) @ x_t))
    x_b = x_t @ mid
    c_b = c @ mid
    p_cb = dagger(c_b) @ np.linalg.inv(c_b @ dagger(c_b)) @ c_b
    gram = np.linalg.inv(dagger(a_t) @ np.linalg.inv(np.eye(n) + x_t @ dagger(x_t)) @ a_t)
    return general_max_eig(x_b @ p_cb @ dagger(x_b) @ a_t @ gram @ dagger(a_t))


def _mp_core_psi(xs, s, a_mp):
    """X^H S^-1 A (A^H S^-1 A)^-1 A^H S^-1 X and X^H S^-1 X, in mpmath."""
    si = s ** -1
    core = xs.H * si * a_mp * (a_mp.H * si * a_mp) ** -1 * a_mp.H * si * xs
    return core, xs.H * si * xs


def _mp_top_eig(m):
    return max(mpmath.re(e) for e in mpmath.eig(m, left=False, right=False))


def _mp_signal_data(x_par, a, c):
    """A and X_par + A c in mpmath, the float inputs taken as exact."""
    a_mp = mpmath.matrix(a.tolist())
    return a_mp, mpmath.matrix(x_par.tolist()) + a_mp * mpmath.matrix(c.tolist())


def mp_glr_pair(x_par, s_plus, a, c, dps=60):
    """GLRGDD-RU and GLRGDD at X_par + A c, in mpmath at `dps` digits.

    The float inputs are taken as exact; X_par + A c is formed in mpmath.
    GLRGDD-RU comes from the explicit-inverse form on S_plus and GLRGDD from
    the classical form on the full SCM T = S_plus + X X^H, so neither is
    mapped from the other.  Returns mpmath numbers.
    """
    with mpmath.workdps(dps):
        a_mp, xs = _mp_signal_data(x_par, a, c)
        eye = mpmath.eye(x_par.shape[1])
        s = mpmath.matrix(s_plus.tolist())
        core, psi = _mp_core_psi(xs, s, a_mp)
        t_ru = _mp_top_eig((eye + psi) ** -1 * core)
        core, psi = _mp_core_psi(xs, s + xs * xs.H, a_mp)
        return t_ru, _mp_top_eig((eye - psi) ** -1 * core)


def mp_two_step(x_par, s, a, c, dps=60):
    """The two-step statistic on the estimate S at X_par + A c, in mpmath:
    the top eigenvalue of X^H S^-1 A (A^H S^-1 A)^-1 A^H S^-1 X, by explicit
    inverses.  AMGDD-RU on S_plus, AMGDD on the training SCM."""
    with mpmath.workdps(dps):
        a_mp, xs = _mp_signal_data(x_par, a, c)
        return _mp_top_eig(_mp_core_psi(xs, mpmath.matrix(s.tolist()), a_mp)[0])
