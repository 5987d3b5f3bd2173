"""Seeded, parallel Monte Carlo engine.

Threshold calibration at a target false-alarm probability, detection
probability over SNR grids, and empirical CFAR verification, each for a
list of detector kinds on one shared set of draws.  Each returns
``{kind: result}`` with only what it computed, repeating no argument.

Reproducibility contract (stream layout ``STREAM_VERSION``): block b of
``BLOCK_TRIALS`` trials draws its white noise, trial by trial, in one
``scenario.complex_gaussian`` call from its own stream, ``scenario.stream(seed,
domain, b)``, the registry every seeded draw of the package comes from.  A
trial's draws thus depend only on its key (seed, domain, trial) and the block
size, not on the trial count, the worker-thread count or the scheduling:
results are bitwise identical for any thread count and a shorter run is a
prefix of a longer one.  Changing the block size bumps ``STREAM_VERSION`` as
a change of the registry's bit generator, keys or draw layout does.

The stream domain follows from whether a grid is given: a
:func:`simulate_statistics` call without ``snr_db`` draws H0 trials from
``DOMAIN_NULL``, one with an SNR grid draws H1 trials from
``DOMAIN_SIGNAL`` and scales the seed's direction pair to each point
itself, so a signal enters the engine only through its SNR.

An H1 trial's noise is drawn once and evaluated at every point of the SNR
grid: the signal only moves X_par (see :mod:`adaptdet.kernels`), so each
point costs small matrix products on the trial's reductions of its
covariance estimates, one factorization each for the whole grid.  The grid
points of a trial share its noise (common random numbers across SNR), a
point's value does not depend on which other points are evaluated with it,
and a grid can therefore be extended or cut without changing the points it
keeps.

The calling thread and up to ``threads - 1`` helper threads take the blocks
from one locked iterator, each into its own workspace, allocated once per call
so that no block faults in new arrays.  Each block transforms the noise of all
its trials at once, evaluates it with :func:`adaptdet.detectors.statistics` as
the per-instance API does (a trial's value does not depend on its block) and
writes a disjoint slice of a preallocated result array.  All order-sensitive
reductions (sorting, counting) happen on the full array in trial order.  A
non-finite statistic stops the run with the replay key of its trial and grid
point instead of being counted as a miss or sorted into a threshold; a LAPACK
failure stops it with ``SingularMatrixError`` naming the stream, the grid and
the replay key of the earliest failing trial, found by re-running the failing
block one trial at a time.  Once a block fails no thread takes another, and
the call raises what the lowest failing block raised.

Detectors requested together share the same draws per trial (common random
numbers), which sharpens PD comparisons between detectors.
"""

from __future__ import annotations

import numbers
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .detectors import DetectorKind, kind_list, statistics
from .errors import NonFiniteStatisticError, SingularMatrixError
from .linalg import as_cmatrix
from .scenario import (DOMAIN_NULL, DOMAIN_SIGNAL, STREAM_VERSION, Scenario, _snr_power,
                       check_dimensions, check_integer, complex_gaussian, random_directions,
                       scale_to_snr, stream)
from .transform import (TransformedData, signal_coefficient, transform_size,
                        transform_stack)

__all__ = ["PdCurve", "CfarReport", "simulate_statistics", "threshold_from_h0",
           "calibrate_thresholds", "pd_curves", "cfar_check", "replay_trial"]

BLOCK_TRIALS = 256


@dataclass(frozen=True)
class PdCurve:
    points: tuple[tuple[float, float], ...]  # (snr_db, pd), pd = count / trials
    threshold: float


@dataclass(frozen=True)
class CfarReport:
    pfa_empirical: float
    threshold: float
    sigma: float  # binomial standard error at the target pfa
    passed: bool  # |pfa_empirical - pfa| <= 4 sigma


def _workspace(scenario: Scenario, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Arenas (white, colored) for blocks of up to `trials` trials.  `white`
    receives a block's white noise and, once that is colored into `colored`,
    the block's transformed data, which overwrites it; `colored` then takes
    the bordered matrices of the block's reductions."""
    n, k, l = scenario.N, scenario.K, scenario.L
    return (np.empty(trials * max(n * (k + l), transform_size(n, k)), dtype=np.complex128),
            np.empty(trials * max(n * (k + l), kernels.bordered_size(n, scenario.J, scenario.M)),
                     dtype=np.complex128))


def _noise_block(scenario: Scenario, seed: int, domain: int, block: int, count: int,
                 white: np.ndarray, colored: np.ndarray) -> np.ndarray:
    """Colored noise [X, X_L] (count, N, K + L) of the first `count` trials
    of block `block` of the stream (seed, domain), drawn into the arena
    `white` and colored into `colored`: the one code that fills a block, for
    the engine and :func:`replay_trial` alike."""
    size, shape = count * scenario.N * (scenario.K + scenario.L), (count, scenario.N, -1)
    noise = complex_gaussian(stream(seed, domain, block), out=white[:size].reshape(shape))
    return np.matmul(scenario.coloring, noise, out=colored[:size].reshape(shape))


def replay_trial(scenario: Scenario, seed: int, domain: int,
                 trial: int) -> tuple[np.ndarray, np.ndarray]:
    """Noise (X, X_L), N x K and N x L, of the trial with replay key
    (seed, domain, trial), drawn and colored by the engine's own block code.

    :func:`adaptdet.detectors.evaluate` on it gives bitwise the engine's
    noise-only statistics of that trial.  A signal trial (DOMAIN_SIGNAL) is
    this noise at every grid point, with the point's signal added to X.
    Another domain is another purpose's stream, not engine noise: refused.
    """
    try:  # 1.0 == DOMAIN_SIGNAL, but is no stream key
        engine = check_integer(domain, "domain") in (DOMAIN_NULL, DOMAIN_SIGNAL)
    except (TypeError, ValueError):
        engine = False
    if not engine:
        raise ValueError(f"domain must be DOMAIN_NULL ({DOMAIN_NULL}) or "
                         f"DOMAIN_SIGNAL ({DOMAIN_SIGNAL}), got {domain}")
    block, row = divmod(check_integer(trial, "trial"), BLOCK_TRIALS)
    noise = _noise_block(scenario, seed, domain, block, row + 1,
                         *_workspace(scenario, row + 1))[row]
    return noise[:, :scenario.K].copy(), noise[:, scenario.K:].copy()


def _first_failure(kinds, td: TransformedData, a, c) -> int | None:
    """Row of the first trial of a block whose statistics raise LinAlgError
    alone; a stack of one gives bitwise the block's values."""
    for row in range(len(td.x_par)):
        try:
            statistics(kinds, TransformedData(*(v[row:row + 1] for v in vars(td).values())),
                       a, c)
        except np.linalg.LinAlgError:
            return row
    return None


def _coefficients(scenario: Scenario, grid, seed: int) -> np.ndarray:
    """(P, J, M) signal coefficients of the seed's unit direction pair scaled
    to each SNR (dB) of `grid`."""
    theta, alpha = random_directions(scenario.J, scenario.M, seed)
    thetas = (scale_to_snr(scenario, theta, alpha, snr) for snr in grid)
    stack = [signal_coefficient(scenario.waveform, t, alpha) for t in thetas]
    return np.array(stack, dtype=np.complex128).reshape(-1, scenario.J, scenario.M)


def simulate_statistics(scenario: Scenario, kinds, trials: int, seed: int, *,
                        snr_db=None, threads: int = 1) -> np.ndarray:
    """Statistics of `kinds` over `trials` independent realizations.

    Without `snr_db` the trials are noise only, drawn from the H0 stream
    (DOMAIN_NULL), and the result is (trials, len(kinds)) float64; column j
    holds kinds[j].  With a strictly increasing grid of P output SNRs (dB)
    the trials are drawn from the H1 stream (DOMAIN_SIGNAL), each trial's
    noise is evaluated with the seed's direction pair scaled to every point,
    and the result is (trials, P, len(kinds)); an empty grid draws nothing.
    All kinds and points are evaluated on the same noise per trial.

    Raises NonFiniteStatisticError naming the replay key of the first
    trial whose statistics are not all finite.
    """
    kinds = kind_list(kinds)
    check_dimensions(scenario.N, scenario.K, scenario.M, scenario.J, scenario.L, kinds)
    trials = check_integer(trials, "trials")
    check_integer(seed, "seed")
    threads = check_integer(threads, "threads", 1)
    k = scenario.K
    if snr_db is None:
        domain, c, names = DOMAIN_NULL, kernels.no_signal(scenario.J, scenario.M), []
    else:
        snrs = _check_grid(snr_db)
        domain, c = DOMAIN_SIGNAL, _coefficients(scenario, snrs, seed)
        names = [f"{p} ({v} dB)" for p, v in enumerate(snrs)]
    grid = ""
    if names:
        grid = (f" at grid point {names[0]}" if len(names) == 1
                else f" at grid points {names[0]} to {names[-1]}")

    out = np.empty((trials, len(c), len(kinds)), dtype=np.float64)

    def run_block(lo: int, white: np.ndarray, colored: np.ndarray) -> None:
        hi = min(lo + BLOCK_TRIALS, trials)
        noise = _noise_block(scenario, seed, domain, lo // BLOCK_TRIALS, hi - lo,
                             white, colored)
        # the white noise is colored by now: its arena takes the transformed data
        td = transform_stack(noise[:, :, :k], noise[:, :, k:], scenario.waveform, out=white)
        try:
            block = statistics(kinds, td, scenario.A, c, out=colored)
        except np.linalg.LinAlgError as exc:
            row = _first_failure(kinds, td, scenario.A, c)
            where = (f"trials {lo}..{hi - 1} of (seed, domain) = ({seed}, {domain})"
                     if row is None else
                     f"trial (seed, domain, trial) = ({seed}, {domain}, {lo + row})")
            raise SingularMatrixError(
                f"{exc} in {where}{grid} of stream version {STREAM_VERSION}") from exc
        out[lo:hi] = block
        bad = np.argwhere(~np.isfinite(block).all(axis=-1))
        if bad.size:
            trial, p = int(bad[0, 0]), int(bad[0, 1])
            raise NonFiniteStatisticError(
                f"non-finite statistic in trial (seed, domain, trial) = "
                f"({seed}, {domain}, {lo + trial})"
                + (f" at grid point {names[p]}" if names else "")
                + f" of stream version {STREAM_VERSION}")

    starts = range(0, trials, BLOCK_TRIALS) if len(c) else range(0)  # an empty grid draws nothing
    pending, lock, failed = iter(starts), threading.Lock(), {}  # failed: block start -> exception

    def take() -> int | None:
        with lock:  # once a block has failed no thread takes another
            return None if failed else next(pending, None)

    def work() -> None:
        workspace = _workspace(scenario, min(trials, BLOCK_TRIALS))
        for lo in iter(take, None):
            try:
                run_block(lo, *workspace)
            except BaseException as exc:  # an interrupted caller stops the helpers too
                with lock:
                    failed[lo] = exc

    helpers = [threading.Thread(target=work) for _ in range(min(threads, len(starts)) - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()  # the calling thread computes as well
    finally:
        for helper in helpers:
            helper.join()
    if failed:  # every lower block has run, so a serial run would stop here too
        raise failed[min(failed)]
    return out if snr_db is not None else out[:, 0]


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
    _check_pfa(pfa)
    m = int(round(trials * pfa))
    if m >= trials:
        raise ValueError(f"pfa {pfa} too large for {trials} trials")
    bad = int(np.count_nonzero(~np.isfinite(stats)))
    if bad:
        raise NonFiniteStatisticError(
            f"{bad} of {trials} calibration statistics are non-finite")
    return float(np.sort(stats)[::-1][m])


def _check_pfa(pfa) -> None:
    """The one pfa rule: a real number, not a bool, in (0, 1); a str would
    otherwise fail the comparison with a TypeError that does not name it."""
    if isinstance(pfa, bool) or not isinstance(pfa, numbers.Real):
        raise TypeError(f"pfa must be a number, got {pfa!r}")
    if not 0.0 < pfa < 1.0:
        raise ValueError(f"pfa must lie in (0, 1), got {pfa}")


def _check_calibration_budget(pfa: float, trials: int) -> None:
    _check_pfa(pfa)
    if trials * pfa < 20:
        raise ValueError(
            f"calibration refused: trials*pfa = {trials * pfa:g} < 20 "
            "(threshold variance too high to be meaningful)"
        )


def calibrate_thresholds(scenario: Scenario, kinds, pfa: float, trials: int,
                         seed: int, *, threads: int = 1) -> dict[DetectorKind, float]:
    """Thresholds (`threshold_from_h0`) for several detectors from one shared set of H0 draws."""
    trials = check_integer(trials, "trials")  # first: a str count would fail trials * pfa unnamed
    _check_calibration_budget(pfa, trials)
    kinds = kind_list(kinds)
    stats = simulate_statistics(scenario, kinds, trials, seed, threads=threads)
    return {kind: threshold_from_h0(stats[:, j], pfa) for j, kind in enumerate(kinds)}


def _check_grid(snr_grid_db) -> tuple[float, ...]:
    try:
        grid = tuple(float(v) for v in snr_grid_db)
    except (TypeError, ValueError):
        grid = None
    # a string iterates as characters and bytes as integers, so "69" would
    # read as 6 and 9 dB and b"69" as 54 and 57 dB
    if grid is None or isinstance(snr_grid_db, (str, bytes, bytearray)):
        raise TypeError(f"SNR grid must be a sequence of numbers, got {snr_grid_db!r}")
    if not np.all(np.isfinite(grid)) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"SNR grid must be finite and strictly increasing, got {grid}")
    for snr in grid:
        _snr_power(snr, "SNR grid point")
    return grid


def pd_curves(scenario: Scenario, kinds, snr_grid_db, pfa: float, calib_trials: int,
              pd_trials: int, seed: int, *, threads: int = 1) -> dict[DetectorKind, PdCurve]:
    """PD curves for several detectors with common random numbers.

    One calibration pass and one H1 pass are shared by all detectors and
    all grid points, so curve differences reflect the detectors rather than
    the draws.
    """
    pd_trials = check_integer(pd_trials, "pd_trials", 1)
    kinds = kind_list(kinds)
    grid = _check_grid(snr_grid_db)
    cals = calibrate_thresholds(scenario, kinds, pfa, calib_trials, seed,
                                threads=threads)
    stats = simulate_statistics(scenario, kinds, pd_trials, seed, snr_db=grid,
                                threads=threads)
    pd_matrix = np.count_nonzero(stats > [cals[kind] for kind in kinds], axis=0) / pd_trials
    return {kind: PdCurve(tuple(zip(grid, pd_matrix[:, j].tolist())), cals[kind])
            for j, kind in enumerate(kinds)}


def cfar_check(scenario: Scenario, r_alt, kinds, pfa: float, trials: int, seed: int, *,
               threads: int = 1) -> dict[DetectorKind, CfarReport]:
    """Empirical CFAR check of several detectors across two noise covariances.

    Calibrates the thresholds under ``scenario.R``, then measures the
    empirical PFAs under ``r_alt`` using the same underlying white draws
    (only the coloring changes).  One calibration pass and one re-measurement
    pass are shared by all detectors.  A CFAR statistic has the same H0
    distribution under both, so each empirical PFA should sit within four
    binomial standard errors of the target; when r_alt is a scalar multiple
    of scenario.R the statistics are identical up to rounding and the check
    is near-deterministic.
    """
    alt = replace(scenario, R=as_cmatrix(r_alt, "r_alt"))  # refused before calibrating
    kinds = kind_list(kinds)
    cals = calibrate_thresholds(scenario, kinds, pfa, trials, seed, threads=threads)
    stats = simulate_statistics(alt, kinds, trials, seed, threads=threads)
    pfa_emp = (np.count_nonzero(stats > [cals[kind] for kind in kinds], axis=0) / trials).tolist()
    sigma = float(np.sqrt(pfa * (1.0 - pfa) / trials))
    return {kind: CfarReport(pfa_emp[j], cals[kind], sigma, abs(pfa_emp[j] - pfa) <= 4.0 * sigma)
            for j, kind in enumerate(kinds)}
