"""Detection scenarios.

The spatial (A) and waveform (C) subspace matrices, whose shapes are the
problem dimensions, a Toeplitz noise covariance, signal construction, and
SNR-calibrated amplitude scaling.  A scenario factors C (one SVD) and R
(one Cholesky) once, when it is built; it is immutable and can be shared
freely across threads.  A signal enters the package only through its SNR,
set by :func:`scale_to_snr` from a scenario's A, C and factor of R.

Every seeded draw of the package is SFC64 from one registry, :func:`stream`,
keyed ``SeedSequence(seed, spawn_key=(purpose, *index))`` with disjoint
purposes, and every complex normal is :func:`complex_gaussian`'s; a change
of generator, key or draw layout bumps ``STREAM_VERSION``.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .linalg import TOL, as_cmatrix
from .transform import SubspaceFactorization, factor_waveform_subspace

__all__ = [
    "Scenario",
    "check_dimensions",
    "check_integer",
    "check_rho",
    "stream",
    "toeplitz_covariance",
    "random_subspaces",
    "random_directions",
    "complex_gaussian",
    "make_signal",
    "snr_of",
    "scale_to_snr",
    "make_scenario",
]

_SQRT_HALF = np.sqrt(0.5)  # CN(0, 1) scaling of complex_gaussian
_MAX_RANK_RETRIES = 100

STREAM_VERSION = 6
DOMAIN_NULL = 0       # engine H0 block b: calibration (and CFAR re-measurement)
DOMAIN_SIGNAL = 1     # engine H1 block b, shared by every SNR grid point
SUBSPACES = 2         # random_subspaces, so make_scenario's A and C
DIRECTIONS = 3        # random_directions, the engine's signal direction pair
VERIFY_INSTANCE = 4   # verify instance i
VERIFY_TRANSFORM = 5  # verify instance i's invariance transforms
DEFAULT_SEED = 20260810  # of `adaptdet preset` and `adaptdet verify` when none is given


def stream(seed: int, purpose: int, *index: int) -> np.random.Generator:
    """The stream of (seed, purpose, *index): the one place that seeds a draw."""
    key = np.random.SeedSequence(check_integer(seed, "seed"), spawn_key=(purpose, *index))
    return np.random.Generator(np.random.SFC64(key))


def as_cvector(x, name: str, size: int) -> np.ndarray:
    """`x` as a finite complex vector of length `size`."""
    a = np.asarray(x, dtype=np.complex128).ravel()
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    if a.size != size:
        raise ValueError(f"{name} must have length {size}, got {a.size}")
    return a


def check_dimensions(n: int, k: int, m: int, j: int, l: int, kinds=()) -> None:
    """Raise ValueError naming the violated dimension constraint, if any; the
    rule of each detector kind in `kinds` comes before L+K >= M+N, which it implies;
    raises TypeError for a dimension that is not an integer or an entry of
    `kinds` that is not a DetectorKind."""
    from .detectors import DetectorKind  # detectors imports this module
    _check_subspace_dimensions(n, k, m, j, l)
    for kind in kinds:
        if not isinstance(kind, DetectorKind):
            raise TypeError(f"detector kinds must be DetectorKind members, got {kind!r}")
        kind.check_dims(n, k, m, l)
    if l + k < m + n:
        raise ValueError(f"L+K={l + k} < M+N={m + n}")


def check_integer(value, name: str, low: int | None = 0) -> int:
    """The one rule for a seed, count, dimension or index of a public entry:
    refused, naming it, when below `low` (None: no bound) or not an integer,
    which would otherwise be truncated (seed 2.9 to seed 2's stream, trial
    2.9 to trial 2, True to dimension 1)."""
    try:
        if isinstance(value, bool):  # operator.index takes True as 1 (numpy's bool it refuses)
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def check_rho(rho) -> None:
    """The one rho rule: a real number, not a bool, in [0, 1); a str would
    otherwise fail the comparison with a TypeError that does not name it."""
    if isinstance(rho, bool) or not isinstance(rho, numbers.Real):
        raise TypeError(f"rho must be a number, got {rho!r}")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")


def _check_subspace_dimensions(n: int, k: int, m: int, j: int, l: int = 0) -> None:
    """The half of check_dimensions that random_subspaces shares: each
    dimension an integer, all positive (L may be 0), J <= N and M <= K."""
    for name, value in zip("NKMJL", (n, k, m, j, l)):
        check_integer(value, name, None)  # a non-positive one gets the message below
    if min(n, k, m, j) < 1 or l < 0:
        raise ValueError(f"dimensions must be positive (L may be 0): "
                         f"N={n}, K={k}, M={m}, J={j}, L={l}")
    if j > n:
        raise ValueError(f"J={j} > N={n}: spatial subspace cannot exceed channels")
    if m > k:
        raise ValueError(f"M={m} > K={k}: waveform subspace cannot exceed pulses")


@dataclass(frozen=True, eq=False)
class Scenario:
    """One detection problem: the spatial subspace A (N x J), the waveform
    subspace C (M x K), the noise covariance R (N x N) and the training-data
    count L.

    N: channels, K: test-data columns (pulses), M: waveform-subspace
    dimension, J: spatial-subspace dimension; all four are read from the
    shapes of A and C.  ``waveform`` is the factorization of C and
    ``coloring`` the lower Cholesky factor F of R = F F^H, both built once
    with the scenario.  F is real when R is (a Toeplitz R, so every preset),
    and the engine then colors the (re, im) parts of its white noise with
    one real product, half the flops of the complex product that a complex
    F (a complex Hermitian R) takes.
    """

    A: np.ndarray
    C: np.ndarray
    R: np.ndarray
    L: int
    N: int = field(init=False)
    K: int = field(init=False)
    M: int = field(init=False)
    J: int = field(init=False)
    waveform: SubspaceFactorization = field(init=False, repr=False)
    coloring: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a = as_cmatrix(self.A, "A")
        c = as_cmatrix(self.C, "C")
        r = as_cmatrix(self.R, "R")
        (n, j), (m, k) = a.shape, c.shape
        check_dimensions(n, k, m, j, self.L)
        if r.shape != (n, n):
            raise ValueError(f"R must be {n}x{n}, got {r.shape}")
        if not _full_rank(a):
            raise ValueError("A must have full column rank")
        waveform = factor_waveform_subspace(c)
        if np.linalg.norm(r - r.conj().T) > TOL.check_rtol * np.linalg.norm(r):
            raise ValueError("R is not Hermitian")
        try:
            coloring = np.linalg.cholesky(r)
        except np.linalg.LinAlgError as exc:
            raise ValueError("R is not positive definite") from exc
        for name, value in (("A", a), ("C", c), ("R", r), ("N", n), ("K", k), ("M", m),
                            ("J", j), ("waveform", waveform), ("coloring", coloring)):
            object.__setattr__(self, name, value)


def _full_rank(a: np.ndarray, rtol: float = TOL.rank_sv_rtol) -> bool:
    sv = np.linalg.svd(a, compute_uv=False)
    return bool(sv[-1] > rtol * sv[0])


def toeplitz_covariance(n: int, rho: float) -> np.ndarray:
    """N x N covariance with entries rho^|i-j| (real symmetric Toeplitz, PD)."""
    n = check_integer(n, "n", low=1)
    check_rho(rho)
    idx = np.arange(n)
    return (rho ** np.abs(idx[:, None] - idx[None, :])).astype(np.complex128)


def complex_gaussian(rng: np.random.Generator, *shape: int, out=None) -> np.ndarray:
    """The package's one complex-normal draw: IID CN(0, 1) entries, each one
    interleaved (re, im) pair of N(0, 1/2) parts, drawn into `out` (a new
    array of `shape` when None; a C-contiguous complex128 `out` fixes it)."""
    out = np.empty(shape, dtype=np.complex128) if out is None else out
    parts = rng.standard_normal(out=out.view(np.float64))
    parts *= _SQRT_HALF
    return out


def random_subspaces(n: int, j: int, m: int, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random full-rank subspace matrices A (N x J) and C (M x K).

    Entries are IID standard circular complex Gaussian; each matrix is
    redrawn (up to 100 times) until its smallest singular value exceeds
    1e-8 times its largest.  They are :func:`make_scenario`'s for the seed.
    """
    _check_subspace_dimensions(n, k, m, j)
    return _draw_subspaces(stream(seed, SUBSPACES), n, j, m, k)


def _draw_subspaces(rng, n, j, m, k):
    return _draw_full_rank(rng, n, j, "A"), _draw_full_rank(rng, m, k, "C")


def _draw_full_rank(rng, rows, cols, name, rtol=TOL.rank_sv_rtol):
    for _ in range(_MAX_RANK_RETRIES):
        cand = complex_gaussian(rng, rows, cols)
        if _full_rank(cand, rtol):
            return cand
    raise RuntimeError(f"could not draw a full-rank {name} in {_MAX_RANK_RETRIES} tries")


def random_directions(j: int, m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm (theta_dir, alpha_dir) on the complex sphere, from the DIRECTIONS stream."""
    j, m = check_integer(j, "J", low=1), check_integer(m, "M", low=1)
    rng = stream(seed, DIRECTIONS)
    theta = complex_gaussian(rng, j)
    alpha = complex_gaussian(rng, m)
    return theta / np.linalg.norm(theta), alpha / np.linalg.norm(alpha)


def make_signal(a, theta, alpha, c) -> np.ndarray:
    """Rank-one signal matrix A theta alpha^H C."""
    a = as_cmatrix(a, "A")
    c = as_cmatrix(c, "C")
    theta = as_cvector(theta, "theta", a.shape[1])
    alpha = as_cvector(alpha, "alpha", c.shape[0])
    return a @ np.outer(theta, alpha.conj()) @ c


def snr_of(scenario: Scenario, theta, alpha) -> float:
    """Output SNR (linear): (alpha^H C C^H alpha) * (theta^H A^H R^-1 A theta)."""
    theta = as_cvector(theta, "theta", scenario.J)
    alpha = as_cvector(alpha, "alpha", scenario.M)
    c_alpha = scenario.C.conj().T @ alpha
    waveform = float(np.real(c_alpha.conj() @ c_alpha))
    v = (scenario.A @ theta)[:, None]
    f = scenario.coloring
    r_inv_v = np.linalg.solve(f.conj().T, np.linalg.solve(f, v))
    spatial = float(np.real(v.conj().T @ r_inv_v)[0, 0])
    return waveform * spatial


def scale_to_snr(scenario: Scenario, theta_dir, alpha_dir, target_snr_db: float) -> np.ndarray:
    """theta_dir scaled so that (theta, alpha_dir) hits the target SNR (dB) exactly.

    Only theta is scaled and returned; alpha_dir stays the caller's.  The
    statistic depends on the signal matrix alone, so how the amplitude is split
    between theta and alpha is immaterial and one convention keeps runs
    reproducible.  A non-finite target or an overflowing power or theta is refused.
    """
    if not np.isfinite(target_snr_db):
        raise ValueError(f"target_snr_db must be finite, got {target_snr_db!r}")
    power = _snr_power(target_snr_db, "target_snr_db")
    theta_dir = as_cvector(theta_dir, "theta_dir", scenario.J)
    alpha_dir = as_cvector(alpha_dir, "alpha_dir", scenario.M)
    # exact power-of-two scales to unit size keep a tiny or huge direction's SNR in range
    t, a = (2.0 ** (np.frexp(np.abs(v).max(initial=0.0))[1] - 1) for v in (theta_dir, alpha_dir))
    base = snr_of(scenario, theta_dir / t, alpha_dir / a)
    if base <= 0.0:
        raise ValueError("zero-SNR direction: theta_dir/alpha_dir give no signal power")
    with np.errstate(over="ignore", invalid="ignore"):
        theta = np.sqrt(power / base) / a * (theta_dir / t)
    if not np.isfinite(theta).all():
        raise ValueError(f"target_snr_db {target_snr_db!r} needs a theta beyond the float range")
    return theta


def _snr_power(snr_db, name: str) -> float:
    """10^(snr_db/10) of a finite SNR (dB); refused above ~3082.5 dB, where it overflows."""
    try:
        return 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        raise ValueError(f"{name} {float(snr_db)!r} dB has a linear power 10^(snr/10) "
                         "beyond the float range") from None


def make_scenario(n: int, k: int, m: int, j: int, l: int, *, rho: float = 0.95,
                  seed: int = 0) -> Scenario:
    """Build a scenario with random fixed subspaces and a Toeplitz covariance."""
    a, c = random_subspaces(n, j, m, k, seed)
    return Scenario(A=a, C=c, R=toeplitz_covariance(n, rho), L=l)
