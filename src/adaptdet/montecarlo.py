"""Seeded, parallel Monte Carlo engine.

Threshold calibration at a target false-alarm probability, detection
probability over SNR grids, and empirical CFAR verification.

Reproducibility contract (stream layout ``STREAM_VERSION``): block b of
``BLOCK_TRIALS`` trials draws its white noise, trial by trial, in one call
from a counter-based Philox stream keyed by (master seed, stream domain,
b).  A trial's draws thus depend only on its key (seed, domain, trial) and
the block size, not on the trial count, the worker-thread count or the
scheduling: results are bitwise identical for any thread count and a
shorter run is a prefix of a longer one.  Changing the block size or the
key changes the draws and bumps ``STREAM_VERSION``.

An H1 trial's noise is drawn once and evaluated at every point of the SNR
grid: the signal only moves X_par (see :mod:`adaptdet.kernels`), so each
point costs small matrix products on the trial's reductions of its
covariance estimates, one N x N solve each for the whole grid.  The grid
points of a trial share its noise (common random numbers across SNR), a
point's value does not depend on which other points are evaluated with it,
and a grid can therefore be extended or cut without changing the points it
keeps.  Layout 3 keys the H1 stream as layout 2 keyed its first grid point;
the H0 streams are unchanged.

Each block, run by a thread pool, transforms the noise of all its trials
at once and evaluates it with :func:`adaptdet.detectors.statistics`, as the
per-instance API does (a trial's value does not depend on the block it sits
in), and writes a disjoint slice of a preallocated result array.  All
order-sensitive reductions (sorting, counting) happen on the full array in
trial order.  A non-finite statistic stops the run with the replay key of
its trial and grid point instead of being counted as a miss or sorted into
a threshold; a LAPACK failure stops it with ``SingularMatrixError`` naming
the stream, the grid and the trial range of the earliest failing block.

Each engine thread allocates one workspace per call, at its first block,
and every block it runs draws, colors and transforms into it (a short last
block uses its leading rows): one arena receives the white noise, a second
the colored noise, and the transformed data then overwrites the first.
New arrays per block would be handed back to the kernel by the allocator
and faulted in again by the next block.  :func:`replay_trial` draws a
trial's noise through the same block code.

Detectors requested together share the same draws per trial (common random
numbers), which sharpens PD comparisons between detectors.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .detectors import DetectorKind, statistics
from .errors import NonFiniteStatisticError, SingularMatrixError
from .linalg import as_cmatrix
from .scenario import Scenario, check_dimensions, random_directions, scale_to_snr
from .transform import signal_coefficient, transform_size, transform_stack

__all__ = ["CalibrationResult", "PdCurve", "CfarReport", "simulate_statistics",
           "threshold_from_h0", "calibrate_threshold", "calibrate_thresholds",
           "estimate_pd", "pd_curve", "pd_curves", "cfar_check", "replay_trial"]

STREAM_VERSION = 3
BLOCK_TRIALS = 256
_SQRT_HALF = np.sqrt(0.5)

# Stream domains keep draws from different purposes disjoint.
DOMAIN_NULL = 0        # H0 draws: calibration (and CFAR re-measurement, by design)
DOMAIN_SIGNAL = 1      # H1 draws, one per trial, shared by every SNR grid point
DOMAIN_NULL_FRESH = 2  # independent H0 draws for re-measuring an empirical PFA


@dataclass(frozen=True)
class CalibrationResult:
    kind: DetectorKind
    pfa_target: float
    trials: int
    threshold: float
    seed: int

    def __post_init__(self):
        _check_calibration_budget(self.pfa_target, self.trials)


@dataclass(frozen=True)
class PdCurve:
    kind: DetectorKind
    points: tuple[tuple[float, float], ...]  # (snr_db, pd), pd = count / trials
    trials_per_point: int
    threshold_used: float
    seed: int

    def __post_init__(self):
        _check_grid(snr for snr, _ in self.points)
        if any(not 0.0 <= pd <= 1.0 for _, pd in self.points):
            raise ValueError("pd values must lie in [0, 1]")


@dataclass(frozen=True)
class CfarReport:
    kind: DetectorKind
    pfa_target: float
    pfa_empirical: float
    threshold: float
    trials: int
    sigma: float

    @property
    def passed(self) -> bool:
        return abs(self.pfa_empirical - self.pfa_target) <= 4.0 * self.sigma


def _block_noise(seed: int, domain: int, block: int, count: int, n: int,
                 cols: int, out: np.ndarray) -> np.ndarray:
    """White CN(0, I) noise (count, n, cols) of the first `count` trials of
    block `block`, i.e. trials from block * BLOCK_TRIALS, of its stream,
    drawn into the head of the complex128 buffer `out`."""
    # The middle 0 is the grid-point slot of layout 2, where H1 drew one stream
    # per point; keeping it leaves the H0 draws and layout 2's first point as they were.
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(int(domain), 0, int(block)))
    draws = out[:count * n * cols].view(np.float64).reshape(count, n, cols, 2)
    np.random.Generator(np.random.Philox(ss)).standard_normal(out=draws)
    draws *= _SQRT_HALF
    return draws.view(np.complex128)[..., 0]


def _workspace(scenario: Scenario, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Arenas (white, colored) for blocks of up to `trials` trials.  `white`
    receives a block's white noise and, once that is colored into `colored`,
    the block's transformed data, which overwrites it."""
    n, k, l = scenario.N, scenario.K, scenario.L
    per_trial = max(n * (k + l), transform_size(n, k))
    return (np.empty(trials * per_trial, dtype=np.complex128),
            np.empty((trials, n, k + l), dtype=np.complex128))


def _noise_block(scenario: Scenario, seed: int, domain: int, block: int, count: int,
                 white: np.ndarray, colored: np.ndarray) -> np.ndarray:
    """Colored noise [X, X_L] (count, N, K + L) of the first `count` trials
    of block `block` of the stream (seed, domain), drawn into the arena
    `white` and colored into `colored`: the one code that fills a block, for
    the engine and :func:`replay_trial` alike."""
    noise = _block_noise(seed, domain, block, count, scenario.N, scenario.K + scenario.L,
                         white)
    return np.matmul(scenario.coloring, noise, out=colored[:count])


def replay_trial(scenario: Scenario, seed: int, domain: int,
                 trial: int) -> tuple[np.ndarray, np.ndarray]:
    """Noise (X, X_L), N x K and N x L, of the trial with replay key
    (seed, domain, trial), drawn and colored by the engine's own block code.

    :func:`adaptdet.detectors.evaluate` on it gives bitwise the engine's
    noise-only statistics of that trial.  A signal trial (DOMAIN_SIGNAL) is
    this noise at every grid point, with the point's signal added to X.
    """
    if trial < 0:
        raise ValueError(f"trial must be >= 0, got {trial}")
    block, row = divmod(int(trial), BLOCK_TRIALS)
    noise = _noise_block(scenario, seed, domain, block, row + 1,
                         *_workspace(scenario, row + 1))[row]
    return noise[:, :scenario.K].copy(), noise[:, scenario.K:].copy()


def _coefficients(scenario: Scenario, grid, seed: int) -> np.ndarray:
    """(P, J, M) signal coefficients of the seed's unit direction pair scaled
    to each SNR (dB) of `grid`."""
    theta, alpha = random_directions(scenario.J, scenario.M, seed)
    coords = (scale_to_snr(scenario, theta, alpha, snr) for snr in grid)
    stack = [signal_coefficient(scenario.waveform, co.theta, co.alpha) for co in coords]
    return np.array(stack, dtype=np.complex128).reshape(-1, scenario.J, scenario.M)


def simulate_statistics(scenario: Scenario, kinds, trials: int, seed: int, *,
                        coefficients=None, snr_db=None, domain: int = DOMAIN_NULL,
                        threads: int = 1) -> np.ndarray:
    """Statistics of `kinds` over `trials` independent realizations.

    Without `coefficients` the trials are noise only and the result is
    (trials, len(kinds)) float64; column j holds kinds[j].  With a (P, J, M)
    stack of signal coefficients c (the signal A theta alpha^H C has
    c = theta alpha^H D, see :func:`adaptdet.transform.signal_coefficient`)
    each trial's noise is evaluated at all P points and the result is
    (trials, P, len(kinds)).  `snr_db` labels the points in error messages.
    All kinds and points are evaluated on the same noise per trial.

    Raises NonFiniteStatisticError naming the replay key of the first
    trial whose statistics are not all finite.
    """
    kinds = list(kinds)
    if not kinds:
        raise ValueError("empty detector list")
    check_dimensions(scenario.N, scenario.K, scenario.M, scenario.J, scenario.L, kinds)
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    k = scenario.K
    if coefficients is None:
        if snr_db is not None:
            raise ValueError("snr_db given without coefficients: labels need grid points")
        c = kernels.no_signal(scenario.J, scenario.M)
    else:
        c = np.asarray(coefficients, dtype=np.complex128)
        if c.ndim != 3 or c.shape[1:] != (scenario.J, scenario.M):
            raise ValueError(f"coefficients must be (P, {scenario.J}, {scenario.M}), "
                             f"got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients contain non-finite entries")
    points = c.shape[0]
    names = ([f"{p} ({float(v)} dB)" for p, v in enumerate(snr_db)] if snr_db is not None
             else [str(p) for p in range(points)])
    if len(names) != points:
        raise ValueError(f"{len(names)} SNR labels for {points} grid points")
    grid = ""
    if coefficients is not None and points:
        grid = (f" at grid point {names[0]}" if points == 1
                else f" at grid points {names[0]} to {names[-1]}")

    out = np.empty((trials, points, len(kinds)), dtype=np.float64)
    # one workspace per engine thread, reused by every block it runs
    local = threading.local()

    def run_block(lo: int) -> None:
        hi = min(lo + BLOCK_TRIALS, trials)
        if not hasattr(local, "workspace"):
            local.workspace = _workspace(scenario, min(trials, BLOCK_TRIALS))
        white, colored = local.workspace
        noise = _noise_block(scenario, seed, domain, lo // BLOCK_TRIALS, hi - lo,
                             white, colored)
        # the white noise is colored by now: its arena takes the transformed data
        td = transform_stack(noise[:, :, :k], noise[:, :, k:], scenario.waveform, out=white)
        try:
            block = statistics(kinds, td, scenario.A, c)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"{exc} in trials {lo}..{hi - 1} of stream version {STREAM_VERSION}, "
                f"(seed, domain) = ({seed}, {domain}){grid}") from exc
        out[lo:hi] = block
        bad = np.argwhere(~np.isfinite(block).all(axis=-1))
        if bad.size:
            trial, p = int(bad[0, 0]), int(bad[0, 1])
            raise NonFiniteStatisticError(
                f"non-finite statistic in trial (seed, domain, trial) = "
                f"({seed}, {domain}, {lo + trial})"
                + (f" at grid point {names[p]}" if coefficients is not None else "")
                + f" of stream version {STREAM_VERSION}")

    starts = range(0, trials, BLOCK_TRIALS)
    if threads == 1 or trials <= BLOCK_TRIALS:
        for lo in starts:
            run_block(lo)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_block, starts))
    return out if coefficients is not None else out[:, 0]


def threshold_from_h0(stats, pfa: float) -> float:
    """Order-statistic threshold: the (m+1)-th largest H0 statistic.

    m = round(trials * pfa).  With the strict ``statistic > threshold``
    detection rule, exactly m of the calibration statistics would be
    declared detections.  Non-finite statistics are refused, since NaN
    would sort to the top and shift the threshold.
    """
    stats = np.asarray(stats, dtype=np.float64).ravel()
    trials = stats.size
    if trials == 0:
        raise ValueError("no statistics to calibrate on")
    if not 0.0 < pfa < 1.0:
        raise ValueError(f"pfa must lie in (0, 1), got {pfa}")
    m = int(round(trials * pfa))
    if m >= trials:
        raise ValueError(f"pfa {pfa} too large for {trials} trials")
    bad = int(np.count_nonzero(~np.isfinite(stats)))
    if bad:
        raise NonFiniteStatisticError(
            f"{bad} of {trials} calibration statistics are non-finite")
    return float(np.sort(stats)[::-1][m])


def _check_calibration_budget(pfa: float, trials: int) -> None:
    if not 0.0 < pfa < 1.0:
        raise ValueError(f"pfa must lie in (0, 1), got {pfa}")
    if trials * pfa < 20:
        raise ValueError(
            f"calibration refused: trials*pfa = {trials * pfa:g} < 20 "
            "(threshold variance too high to be meaningful)"
        )


def calibrate_threshold(scenario: Scenario, kind: DetectorKind, pfa: float,
                        trials: int, seed: int, *, threads: int = 1) -> CalibrationResult:
    """Calibrate one detector's threshold from `trials` noise-only realizations."""
    return calibrate_thresholds(scenario, [kind], pfa, trials, seed,
                                threads=threads)[kind]


def calibrate_thresholds(scenario: Scenario, kinds, pfa: float, trials: int,
                         seed: int, *, threads: int = 1) -> dict[DetectorKind, CalibrationResult]:
    """Thresholds for several detectors from one shared set of H0 draws."""
    _check_calibration_budget(pfa, trials)
    kinds = list(kinds)
    stats = simulate_statistics(scenario, kinds, trials, seed,
                                domain=DOMAIN_NULL, threads=threads)
    return {
        kind: CalibrationResult(kind, pfa, trials, threshold_from_h0(stats[:, j], pfa), seed)
        for j, kind in enumerate(kinds)
    }


def estimate_pd(scenario: Scenario, kind: DetectorKind, threshold: float,
                snr_db: float, trials: int, seed: int, *, threads: int = 1) -> float:
    """Detection probability at one SNR: count(statistic > threshold) / trials.

    The signal direction pair is a pair of unit vectors drawn from the seed.
    The trials are those of every grid point, so the result equals bitwise
    the ``pd_curves`` value at this SNR for the same seed, trials and
    threshold.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    coefficients = _coefficients(scenario, [snr_db], seed)
    stats = simulate_statistics(scenario, [kind], trials, seed, coefficients=coefficients,
                                snr_db=[snr_db], domain=DOMAIN_SIGNAL, threads=threads)
    return float(np.count_nonzero(stats[:, 0, 0] > threshold)) / trials


def _check_grid(snr_grid_db) -> tuple[float, ...]:
    grid = tuple(float(v) for v in snr_grid_db)
    if not np.all(np.isfinite(grid)) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"SNR grid must be finite and strictly increasing, got {grid}")
    return grid


def pd_curve(scenario: Scenario, kind: DetectorKind, snr_grid_db, pfa: float,
             calib_trials: int, pd_trials: int, seed: int, *, threads: int = 1) -> PdCurve:
    """Calibrate a threshold, then estimate PD over a strictly increasing grid."""
    return pd_curves(scenario, [kind], snr_grid_db, pfa, calib_trials, pd_trials,
                     seed, threads=threads)[kind]


def pd_curves(scenario: Scenario, kinds, snr_grid_db, pfa: float, calib_trials: int,
              pd_trials: int, seed: int, *, threads: int = 1) -> dict[DetectorKind, PdCurve]:
    """PD curves for several detectors with common random numbers.

    One calibration pass and one H1 pass are shared by all detectors and
    all grid points, so curve differences reflect the detectors rather than
    the draws, and each point's pd is that of :func:`estimate_pd` at its SNR.
    """
    if pd_trials < 1:
        raise ValueError(f"pd_trials must be >= 1, got {pd_trials}")
    kinds = list(kinds)
    grid = _check_grid(snr_grid_db)
    cals = calibrate_thresholds(scenario, kinds, pfa, calib_trials, seed,
                                threads=threads)
    stats = simulate_statistics(scenario, kinds, pd_trials, seed,
                                coefficients=_coefficients(scenario, grid, seed),
                                snr_db=grid, domain=DOMAIN_SIGNAL, threads=threads)
    thresholds = np.array([cals[kind].threshold for kind in kinds])
    pd_matrix = np.count_nonzero(stats > thresholds, axis=0) / pd_trials
    return {
        kind: PdCurve(
            kind=kind,
            points=tuple((snr, float(pd_matrix[i, j])) for i, snr in enumerate(grid)),
            trials_per_point=pd_trials,
            threshold_used=cals[kind].threshold,
            seed=seed,
        )
        for j, kind in enumerate(kinds)
    }


def cfar_check(scenario: Scenario, r_alt, kind: DetectorKind, pfa: float,
               trials: int, seed: int, *, threads: int = 1) -> CfarReport:
    """Empirical CFAR check across two noise covariances.

    Calibrates the threshold under ``scenario.R``, then measures the
    empirical PFA under ``r_alt`` using the same underlying white draws
    (only the coloring changes).  A CFAR statistic has the same H0
    distribution under both, so the empirical PFA should sit within four
    binomial standard errors of the target; when r_alt is a scalar multiple
    of scenario.R the statistics are identical up to rounding and the check
    is near-deterministic.
    """
    cal = calibrate_threshold(scenario, kind, pfa, trials, seed, threads=threads)
    alt = replace(scenario, R=as_cmatrix(r_alt, "r_alt"))
    stats = simulate_statistics(alt, [kind], trials, seed,
                                domain=DOMAIN_NULL, threads=threads)
    pfa_emp = float(np.count_nonzero(stats[:, 0] > cal.threshold)) / trials
    sigma = float(np.sqrt(pfa * (1.0 - pfa) / trials))
    return CfarReport(kind=kind, pfa_target=pfa, pfa_empirical=pfa_emp,
                      threshold=cal.threshold, trials=trials, sigma=sigma)
