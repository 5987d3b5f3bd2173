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
size, not on the trial count, the worker-thread count or the scheduling, and
each product that colors, transforms or evaluates them is one per trial,
whatever the BLAS kernel: results are bitwise identical for any thread count
and a shorter run is a prefix of a longer one.  Changing the block size bumps
``STREAM_VERSION`` as a change of the registry's bit generator, keys or draw
layout does.

A block's stream fills its draw in C order, so the draw of fewer trials, or
of fewer columns K + L per trial, is the head of a longer draw of the same
block.  Jobs at one (seed, domain) therefore read one draw of each block,
as long as the longest that any of them needs (:func:`simulate_jobs`).  The
three K outputs of ``adaptdet preset fig2``, at one seed, thus share their
normals; they did so when each was drawn apart, since the heads are the
same numbers.

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

The calling thread and up to ``threads - 1`` helper threads take units of
work, one block of one group of jobs, from one locked iterator, each into its
own arenas, allocated once per call so that no block faults in new arrays.
Each job of a unit transforms the noise of all its trials of the block at
once, evaluates it with :func:`adaptdet.detectors.statistics` as the
per-instance API does (a trial's value does not depend on its block) and
writes a disjoint slice of its preallocated result array.  All
order-sensitive reductions (sorting, counting) happen on the full arrays in
trial order, after the call.  A non-finite statistic stops the run with the
replay key of its trial and grid point instead of being counted as a miss or
sorted into a threshold; a LAPACK failure stops it with
``SingularMatrixError`` naming the stream, the grid and the replay key of the
earliest failing trial, found by re-running the failing block one trial at a
time.  Once a unit fails no thread takes another, and the call raises what
the lowest failing unit raised.  No job's result is returned before every
job has run, so a failure in one job of a call, such as one K of ``adaptdet
preset fig2``, leaves no output of the others.

Detectors requested together share the same draws per trial (common random
numbers), which sharpens PD comparisons between detectors.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import numbers
import threading
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

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

__all__ = ["PdCurve", "CfarReport", "Job", "simulate_jobs", "simulate_statistics",
           "threshold_from_h0", "calibrate_thresholds", "pd_curves", "cfar_check", "replay_trial"]

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


class Job(NamedTuple):
    """One job of :func:`simulate_jobs`: the arguments of one
    :func:`simulate_statistics` call, whose array it gives."""

    scenario: Scenario
    kinds: Sequence[DetectorKind]
    trials: int
    seed: int
    snr_db: Sequence[float] | None = None  # None: H0 trials; a grid (dB): H1 trials


def _draw(seed: int, domain: int, block: int, out: np.ndarray) -> np.ndarray:
    """The first ``out.size`` complex normals of block `block` of the stream
    (seed, domain), drawn into the flat arena `out`: the one code that draws
    a block, for the engine and :func:`replay_trial` alike."""
    return complex_gaussian(stream(seed, domain, block), out=out)


def _color(scenario: Scenario, drawn: np.ndarray, count: int, out: np.ndarray) -> np.ndarray:
    """Colored noise [X, X_L] (count, N, K + L) of the first `count` trials
    of a block from the head of its draw `drawn`, written into `out`.

    Each trial's white noise W is multiplied by the factor F of
    ``scenario.coloring``.  A real F (a real R, as every Toeplitz scenario
    has) multiplies the float64 view of W, whose columns interleave (re, im),
    since (F W)_re = F W_re and (F W)_im = F W_im: a real product of half the
    flops of the complex one, which would multiply by F's zero imaginary
    part.  A complex F (a complex Hermitian R) takes the complex product.
    """
    size, shape = count * scenario.N * (scenario.K + scenario.L), (count, scenario.N, -1)
    f, white, colored = scenario.coloring, drawn[:size], out[:size]
    if not f.imag.any():
        f, white, colored = f.real.copy(), white.view(np.float64), colored.view(np.float64)
    np.matmul(f, white.reshape(shape), out=colored.reshape(shape))
    return out[:size].reshape(shape)


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
    size = (row + 1) * scenario.N * (scenario.K + scenario.L)
    drawn = _draw(seed, domain, block, np.empty(size, dtype=np.complex128))
    noise = _color(scenario, drawn, row + 1, np.empty_like(drawn))[row]
    return noise[:, :scenario.K].copy(), noise[:, scenario.K:].copy()


class _OneBlasThread:
    """Holds a BLAS at one thread while any multi-thread engine call runs.

    The count is process-global, and engine calls from several user threads
    may overlap: the first to enter saves the count and sets 1, the last to
    leave restores it, so overlapping calls leave it as the first found it.
    """

    def __init__(self, get, set_):
        self.get, self.set = get, set_
        self._lock, self._calls, self._saved = threading.Lock(), 0, None

    def __enter__(self):
        with self._lock:
            if not self._calls:
                self._saved = self.get()
                self.set(1)
            self._calls += 1

    def __exit__(self, *exc):
        with self._lock:
            self._calls -= 1
            if not self._calls:
                self.set(self._saved)


_pin_lookup = threading.Lock()


def _one_blas_thread() -> _OneBlasThread | None:
    """The pin of numpy's bundled OpenBLAS, one per process even for concurrent
    first calls (two would each restore the count); None for another BLAS."""
    with _pin_lookup:
        return _find_blas_pin()


@functools.cache
def _find_blas_pin() -> _OneBlasThread | None:
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    try:  # the library numpy has loaded, so the count is numpy's
        lib = ctypes.CDLL(str(min(libs.glob("libscipy_openblas64_*.so"))))
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (ValueError, OSError, AttributeError):  # no such library or symbol
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return _OneBlasThread(get, set_)


def _first_failure(kinds, td: TransformedData, a, c) -> int | None:
    """Row of the first trial of a block whose statistics raise LinAlgError
    as a stack of one: every product is per trial, so it is bitwise the block's."""
    for row in range(len(td.x_par)):
        try:
            statistics(kinds, td[row:row + 1], a, c)
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


class _Task:
    """A checked job: its stream, signal coefficients and result array, the
    arena sizes of its blocks and what its error messages begin with, which
    names its position when the call has several jobs."""

    def __init__(self, job: Job, position: int | None):
        scenario, kinds, trials, seed, snr_db = job
        dims = (scenario.N, scenario.K, scenario.M, scenario.J, scenario.L)
        self.kinds = kind_list(kinds)
        check_dimensions(*dims, self.kinds)
        self.trials = check_integer(trials, "trials")
        self.seed = check_integer(seed, "seed")
        self.scenario = scenario
        self.label = "" if position is None else f"job {position} (N, K, M, J, L) = {dims}: "
        if snr_db is None:
            self.domain, self.c, self.names = DOMAIN_NULL, kernels.no_signal(scenario.J,
                                                                             scenario.M), []
        else:
            snrs = _check_grid(snr_db)
            self.domain, self.c = DOMAIN_SIGNAL, _coefficients(scenario, snrs, self.seed)
            self.names = [f"{p} ({v} dB)" for p, v in enumerate(snrs)]
        self.grid = ""
        if self.names:
            self.grid = (f" at grid point {self.names[0]}" if len(self.names) == 1
                         else f" at grid points {self.names[0]} to {self.names[-1]}")
        self.out = np.empty((self.trials, len(self.c), len(self.kinds)), dtype=np.float64)
        # an empty grid draws nothing
        self.blocks = -(-self.trials // BLOCK_TRIALS) if len(self.c) else 0
        n, k, l, rows = scenario.N, scenario.K, scenario.L, min(self.trials, BLOCK_TRIALS)
        self.width = n * (k + l)  # complex normals per trial
        # arenas (white, colored): `white` receives a block's white noise
        # and, once that is colored into `colored`, the block's transformed
        # data, which overwrites it; `colored` then takes the bordered
        # matrices of the block's reductions
        self.sizes = (rows * max(self.width, transform_size(n, k, scenario.M, l)),
                      rows * max(self.width, kernels.bordered_size(n, scenario.J, scenario.M)))
        self.draw_size = rows * self.width

    def count(self, block: int) -> int:
        return min(BLOCK_TRIALS, self.trials - block * BLOCK_TRIALS)

    def run(self, block: int, drawn: np.ndarray, white: np.ndarray,
            colored: np.ndarray) -> None:
        """Evaluate this job's trials of block `block` from the head of the
        block's draw `drawn` into its result."""
        sc, seed, domain = self.scenario, self.seed, self.domain
        lo = block * BLOCK_TRIALS
        hi = lo + self.count(block)
        noise = _color(sc, drawn, hi - lo, colored)
        # the draw is colored by now: `white` takes the transformed data
        td = transform_stack(noise[:, :, :sc.K], noise[:, :, sc.K:], sc.waveform, out=white)
        try:
            stats = statistics(self.kinds, td, sc.A, self.c, out=colored)
        except np.linalg.LinAlgError as exc:
            row = _first_failure(self.kinds, td, sc.A, self.c)
            where = (f"trials {lo}..{hi - 1} of (seed, domain) = ({seed}, {domain})"
                     if row is None else
                     f"trial (seed, domain, trial) = ({seed}, {domain}, {lo + row})")
            raise SingularMatrixError(f"{self.label}{exc} in {where}{self.grid} of stream "
                                      f"version {STREAM_VERSION}") from exc
        self.out[lo:hi] = stats
        bad = np.argwhere(~np.isfinite(stats).all(axis=-1))
        if bad.size:
            trial, p = int(bad[0, 0]), int(bad[0, 1])
            raise NonFiniteStatisticError(
                f"{self.label}non-finite statistic in trial (seed, domain, trial) = "
                f"({seed}, {domain}, {lo + trial})"
                + (f" at grid point {self.names[p]}" if self.names else "")
                + f" of stream version {STREAM_VERSION}")

    def result(self) -> np.ndarray:
        return self.out if self.domain == DOMAIN_SIGNAL else self.out[:, 0]


def simulate_jobs(jobs, *, threads: int = 1) -> list[np.ndarray]:
    """For each :class:`Job`, bitwise the array that :func:`simulate_statistics`
    returns for its arguments, all computed by one team of threads.

    Jobs with the same (seed, domain) form a group, and a unit of work is
    one block of one group: the thread that takes it draws the block once,
    as long as the longest prefix any job of the group reads, and then
    colors, transforms and evaluates each job's head of that draw in job
    order.  The calling thread and up to ``threads - 1`` helpers take the
    units from one locked iterator, ordered by the position of their
    group's first job and then by block.

    Every argument of every job is checked before the first draw.  Once a
    unit fails no thread takes another, and the call raises what the lowest
    failing unit raised: within a unit, its first failing job's exception,
    so that a serial run in unit order would stop at the same error.  With
    several jobs, the message of a numerical error begins with the failing
    job's position and its (N, K, M, J, L).

    With ``threads > 1`` and numpy's bundled OpenBLAS, BLAS runs on one
    thread for the length of the call, and its old thread count is restored
    afterwards (when the last of several overlapping calls ends).  The count
    is process-global: numpy work in another thread of the caller runs
    single-threaded while such a call runs.  With one thread, or another
    BLAS, the call leaves BLAS alone.
    """
    threads = check_integer(threads, "threads", 1)
    jobs = [Job(*job) for job in jobs]
    tasks = [_Task(job, None if len(jobs) == 1 else i) for i, job in enumerate(jobs)]
    groups: dict[tuple[int, int], list[_Task]] = {}
    for task in tasks:
        if task.blocks:
            groups.setdefault((task.seed, task.domain), []).append(task)
    units = [(group, block) for group in groups.values()
             for block in range(max(task.blocks for task in group))]
    # per thread: the two arenas of the largest job, and one that holds the
    # draw of a group with several jobs (a lone job draws into its `white`)
    sizes = [max((task.sizes[i] for task in tasks), default=0) for i in (0, 1)]
    sizes.append(max((task.draw_size for group in groups.values() if len(group) > 1
                      for task in group), default=0))

    def run_unit(group: list[_Task], block: int, white, colored, shared) -> None:
        readers = [task for task in group if block < task.blocks]
        size = max(task.count(block) * task.width for task in readers)
        drawn = _draw(group[0].seed, group[0].domain, block,
                      (white if len(group) == 1 else shared)[:size])
        for task in readers:
            task.run(block, drawn, white, colored)

    pending, lock, failed = iter(enumerate(units)), threading.Lock(), {}  # unit -> exception

    def take() -> tuple[int, tuple[list[_Task], int]] | None:
        with lock:  # once a unit has failed no thread takes another
            return None if failed else next(pending, None)

    def work() -> None:
        arenas = [np.empty(size, dtype=np.complex128) for size in sizes]
        for index, unit in iter(take, None):
            try:
                run_unit(*unit, *arenas)
            except BaseException as exc:  # an interrupted caller stops the helpers too
                with lock:
                    failed[index] = exc

    # the engine's threads take the cores: BLAS threads would only compete
    # with them
    with (_one_blas_thread() if threads > 1 else None) or contextlib.nullcontext():
        helpers = [threading.Thread(target=work) for _ in range(min(threads, len(units)) - 1)]
        for helper in helpers:
            helper.start()
        try:
            work()  # the calling thread computes as well
        finally:
            for helper in helpers:
                helper.join()
    if failed:  # every lower unit has run, so a serial run would stop here too
        raise failed[min(failed)]
    return [task.result() for task in tasks]


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
    trial whose statistics are not all finite.  The one-job case of
    :func:`simulate_jobs`.
    """
    return simulate_jobs([Job(scenario, kinds, trials, seed, snr_db)], threads=threads)[0]


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
    return _thresholds(kinds, simulate_statistics(scenario, kinds, trials, seed,
                                                  threads=threads), pfa)


def _thresholds(kinds, stats: np.ndarray, pfa: float) -> dict[DetectorKind, float]:
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


def _pd_jobs(scenario: Scenario, kinds, snr_grid_db, pfa: float, calib_trials: int,
             pd_trials: int, seed: int) -> list[Job]:
    """The checked [H0, H1] jobs of a :func:`pd_curves` experiment."""
    pd_trials = check_integer(pd_trials, "pd_trials", 1)
    kinds = kind_list(kinds)
    grid = _check_grid(snr_grid_db)
    calib_trials = check_integer(calib_trials, "trials")
    _check_calibration_budget(pfa, calib_trials)
    return [Job(scenario, kinds, calib_trials, seed), Job(scenario, kinds, pd_trials, seed, grid)]


def _pd_experiments(experiments, threads: int) -> list[dict[DetectorKind, PdCurve]]:
    """{kind: PdCurve} of each experiment, a tuple of :func:`pd_curves`'
    positional arguments, from one engine call over their [H0, H1] jobs."""
    plans = [(_pd_jobs(*experiment), experiment[3]) for experiment in experiments]
    stats = iter(simulate_jobs([job for jobs, _ in plans for job in jobs], threads=threads))
    curves = []
    for (h0, h1), pfa in plans:
        thresholds = _thresholds(h0.kinds, next(stats), pfa)
        pds = np.count_nonzero(next(stats) > list(thresholds.values()), axis=0) / h1.trials
        curves.append({kind: PdCurve(tuple(zip(h1.snr_db, pd)), thresholds[kind])
                       for kind, pd in zip(h1.kinds, pds.T.tolist())})
    return curves


def pd_curves(scenario: Scenario, kinds, snr_grid_db, pfa: float, calib_trials: int,
              pd_trials: int, seed: int, *, threads: int = 1) -> dict[DetectorKind, PdCurve]:
    """PD curves for several detectors with common random numbers.

    One calibration job and one H1 job, run by one engine call, are shared
    by all detectors and all grid points, so curve differences reflect the
    detectors rather than the draws.
    """
    return _pd_experiments([(scenario, kinds, snr_grid_db, pfa, calib_trials, pd_trials, seed)],
                           threads)[0]


def cfar_check(scenario: Scenario, r_alt, kinds, pfa: float, trials: int, seed: int, *,
               threads: int = 1) -> dict[DetectorKind, CfarReport]:
    """Empirical CFAR check of several detectors across two noise covariances.

    Calibrates the thresholds under ``scenario.R``, then measures the
    empirical PFAs under ``r_alt`` on the same white draws, each block
    drawn once (only the coloring changes).  The calibration job and the
    re-measurement job share one engine call and all detectors.  A CFAR
    statistic has the same H0 distribution under both, so each empirical PFA
    should sit within four binomial standard errors of the target; when r_alt is a scalar multiple
    of scenario.R the statistics are identical up to rounding and the check
    is near-deterministic.
    """
    alt = replace(scenario, R=as_cmatrix(r_alt, "r_alt"))  # refused before calibrating
    kinds = kind_list(kinds)
    trials = check_integer(trials, "trials")
    _check_calibration_budget(pfa, trials)
    h0, stats = simulate_jobs([Job(scenario, kinds, trials, seed), Job(alt, kinds, trials, seed)],
                              threads=threads)
    cals = _thresholds(kinds, h0, pfa)
    pfa_emp = (np.count_nonzero(stats > [cals[kind] for kind in kinds], axis=0) / trials).tolist()
    sigma = float(np.sqrt(pfa * (1.0 - pfa) / trials))
    return {kind: CfarReport(pfa_emp[j], cals[kind], sigma, abs(pfa_emp[j] - pfa) <= 4.0 * sigma)
            for j, kind in enumerate(kinds)}
