"""Independent brute-force formulations used only as test oracles.

Everything here is deliberately naive: explicit matrix inverses, principal
matrix square roots from scipy, a dense general (non-Hermitian)
eigensolver, and mpmath for references that must not lose digits.  None
of it shares code with the package's computation paths.
"""

import mpmath
import numpy as np
import scipy.linalg


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


def mp_glr_pair(x_par, s_plus, a, c, dps=60):
    """GLRGDD-RU and GLRGDD at X_par + A c, in mpmath at `dps` digits.

    The float inputs are taken as exact; X_par + A c is formed in mpmath.
    GLRGDD-RU comes from the explicit-inverse form on S_plus and GLRGDD from
    the classical form on the full SCM T = S_plus + X X^H, so neither is
    mapped from the other.  Returns mpmath numbers.
    """
    with mpmath.workdps(dps):
        a_mp = mpmath.matrix(a.tolist())
        xs = mpmath.matrix(x_par.tolist()) + a_mp * mpmath.matrix(c.tolist())
        eye = mpmath.eye(x_par.shape[1])

        def core_psi(s):
            si = s ** -1
            core = xs.H * si * a_mp * (a_mp.H * si * a_mp) ** -1 * a_mp.H * si * xs
            return core, xs.H * si * xs

        def top_eig(m):
            return max(mpmath.re(e) for e in mpmath.eig(m, left=False, right=False))

        s = mpmath.matrix(s_plus.tolist())
        core, psi = core_psi(s)
        t_ru = top_eig((eye + psi) ** -1 * core)
        core, psi = core_psi(s + xs * xs.H)
        return t_ru, top_eig((eye - psi) ** -1 * core)
