"""Seeded, parallel Monte Carlo engine.

Threshold calibration at a target false-alarm probability, detection
probability over SNR grids, and empirical CFAR verification.

Reproducibility contract: every trial draws from its own counter-based
stream keyed by (master seed, stream domain, grid point, trial index), so
results are bitwise identical for any worker-thread count and any
scheduling.  Trials are processed in fixed-size blocks by a thread pool;
each block forms the transformed data and covariance estimates of all its
trials at once, evaluates them with the stacked formulas of
:mod:`adaptdet.kernels` (a trial's value does not depend on the block it
sits in), and writes a disjoint slice of a preallocated result array.  All
order-sensitive reductions (sorting, counting) happen on the full array in
trial order.  A non-finite statistic stops the run with the replay key of
its trial instead of being counted as a miss or sorted into a threshold.

Detectors requested together share the same draws per trial (common random
numbers), which sharpens PD comparisons between detectors.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .detectors import DetectorKind
from .errors import NonFiniteStatisticError
from .linalg import as_cmatrix
from .scenario import (Scenario, SignalCoordinates, make_signal, noise_factor,
                       random_directions, scale_to_snr)
from .transform import factor_waveform_subspace

__all__ = ["CalibrationResult", "PdCurve", "CfarReport", "simulate_statistics",
           "threshold_from_h0", "calibrate_threshold", "calibrate_thresholds",
           "estimate_pd", "pd_curve", "pd_curves", "cfar_check"]

BLOCK_TRIALS = 256
_SQRT_HALF = np.sqrt(0.5)

# Stream domains keep draws from different purposes disjoint.
DOMAIN_NULL = 0        # H0 draws: calibration (and CFAR re-measurement, by design)
DOMAIN_SIGNAL = 1      # H1 draws, one sub-stream per SNR grid point
DOMAIN_NULL_FRESH = 2  # independent H0 draws for re-measuring an empirical PFA


@dataclass(frozen=True)
class CalibrationResult:
    kind: DetectorKind
    pfa_target: float
    trials: int
    threshold: float
    seed: int

    def __post_init__(self):
        if self.trials * self.pfa_target < 20:
            raise ValueError(
                f"calibration refused: trials*pfa = {self.trials * self.pfa_target:g} "
                "< 20 (threshold variance too high to be meaningful)"
            )


@dataclass(frozen=True)
class PdCurve:
    kind: DetectorKind
    points: tuple[tuple[float, float], ...]  # (snr_db, pd), pd = count / trials
    trials_per_point: int
    threshold_used: float
    seed: int

    def __post_init__(self):
        grid = [snr for snr, _ in self.points]
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"SNR grid must be strictly increasing, got {grid}")
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


def _trial_generator(seed: int, domain: int, point: int, trial: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(int(domain), int(point), int(trial)))
    return np.random.Generator(np.random.Philox(ss))


def _gram(m: np.ndarray) -> np.ndarray:
    """M M^H for each matrix in a stack."""
    return m @ np.conj(np.swapaxes(m, -1, -2))


def simulate_statistics(scenario: Scenario, kinds, trials: int, seed: int, *,
                        signal=None, domain: int = DOMAIN_NULL, point: int = 0,
                        threads: int = 1) -> np.ndarray:
    """Statistics of `kinds` over `trials` independent realizations.

    Returns (trials, len(kinds)) float64; column j holds kinds[j].  All
    kinds are evaluated on the same data per trial.  `signal` is an
    optional N x K matrix added to the noise of every trial (H1).

    Raises NonFiniteStatisticError naming the replay key of the first
    trial whose statistics are not all finite.
    """
    kinds = list(kinds)
    if not kinds:
        raise ValueError("empty detector list")
    for kind in kinds:
        kind.check_dims(scenario.N, scenario.K, scenario.M, scenario.L)
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    threads = max(1, int(threads))
    n, k, l = scenario.N, scenario.K, scenario.L
    sig = None
    if signal is not None:
        sig = as_cmatrix(signal, "signal")
        if sig.shape != (n, k):
            raise ValueError(f"signal must be {n}x{k}, got {sig.shape}")

    fact = factor_waveform_subspace(scenario.C)
    cpar_h, cperp_h = fact.c_par.conj().T, fact.c_perp.conj().T
    factor = noise_factor(scenario.R)
    a = scenario.A
    need_ru = any(kd in (DetectorKind.GLRGDD_RU, DetectorKind.AMGDD_RU) for kd in kinds)
    need_classic = any(kd in (DetectorKind.GLRGDD, DetectorKind.AMGDD) for kd in kinds)
    need_bose = DetectorKind.BOSE_GLRT in kinds
    out = np.empty((trials, len(kinds)), dtype=np.float64)

    def run_block(lo: int) -> None:
        hi = min(lo + BLOCK_TRIALS, trials)
        count = hi - lo
        z = np.empty((count, n, k + l), dtype=np.complex128)
        for idx in range(count):
            rng = _trial_generator(seed, domain, point, lo + idx)
            draws = rng.standard_normal((2, n, k + l))
            z[idx] = (draws[0] + 1j * draws[1]) * _SQRT_HALF
        colored = np.matmul(factor, z)
        x = colored[:, :, :k] if sig is None else colored[:, :, :k] + sig
        x_l = colored[:, :, k:]
        columns = {}
        if need_ru or need_bose:
            x_par = x @ cpar_h
            s_perp = _gram(x @ cperp_h)
        if need_ru or need_classic:
            s_train = _gram(x_l)
        if need_ru:
            ru = kernels.ru_statistics(x_par, s_perp + s_train, a)
            columns[DetectorKind.GLRGDD_RU], columns[DetectorKind.AMGDD_RU] = ru.T
        if need_classic:
            classic = kernels.classic_statistics(x, s_train, a, fact.c_par)
            columns[DetectorKind.GLRGDD], columns[DetectorKind.AMGDD] = classic.T
        if need_bose:
            columns[DetectorKind.BOSE_GLRT] = kernels.ru_statistics(x_par, s_perp, a)[:, 0]
        block = out[lo:hi]
        for col, kind in enumerate(kinds):
            block[:, col] = columns[kind]
        bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
        if bad.size:
            raise NonFiniteStatisticError(
                f"non-finite statistic in trial (seed, domain, point, trial) = "
                f"({seed}, {domain}, {point}, {lo + int(bad[0])})")

    starts = range(0, trials, BLOCK_TRIALS)
    if threads == 1 or trials <= BLOCK_TRIALS:
        for lo in starts:
            run_block(lo)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_block, starts))
    return out


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
                snr_db: float, trials: int, seed: int, *,
                coords: SignalCoordinates | None = None, directions=None,
                point: int = 0, threads: int = 1) -> float:
    """Detection probability at one SNR: count(statistic > threshold) / trials.

    The signal direction pair defaults to unit vectors drawn from the seed;
    pass `coords` to inject explicit signal coordinates (bypassing the SNR
    scaling, e.g. for the zero-signal degenerate case).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if coords is None:
        if directions is None:
            directions = random_directions(scenario.J, scenario.M, seed)
        coords = scale_to_snr(scenario, directions[0], directions[1], snr_db)
    sig = make_signal(scenario.A, coords.theta, coords.alpha, scenario.C)
    stats = simulate_statistics(scenario, [kind], trials, seed, signal=sig,
                                domain=DOMAIN_SIGNAL, point=point, threads=threads)
    return float(np.count_nonzero(stats[:, 0] > threshold)) / trials


def _check_grid(snr_grid_db) -> tuple[float, ...]:
    grid = tuple(float(v) for v in snr_grid_db)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"SNR grid must be strictly increasing, got {grid}")
    return grid


def pd_curve(scenario: Scenario, kind: DetectorKind, snr_grid_db, pfa: float,
             calib_trials: int, pd_trials: int, seed: int, *,
             directions=None, threads: int = 1) -> PdCurve:
    """Calibrate a threshold, then estimate PD over a strictly increasing grid."""
    return pd_curves(scenario, [kind], snr_grid_db, pfa, calib_trials, pd_trials,
                     seed, directions=directions, threads=threads)[kind]


def pd_curves(scenario: Scenario, kinds, snr_grid_db, pfa: float, calib_trials: int,
              pd_trials: int, seed: int, *, directions=None,
              threads: int = 1) -> dict[DetectorKind, PdCurve]:
    """PD curves for several detectors with common random numbers.

    One calibration pass and one H1 pass per grid point are shared by all
    detectors, so curve differences reflect the detectors rather than the
    draws.
    """
    kinds = list(kinds)
    grid = _check_grid(snr_grid_db)
    cals = calibrate_thresholds(scenario, kinds, pfa, calib_trials, seed,
                                threads=threads)
    if directions is None:
        directions = random_directions(scenario.J, scenario.M, seed)
    pd_matrix = np.empty((len(grid), len(kinds)), dtype=np.float64)
    for i, snr in enumerate(grid):
        coords = scale_to_snr(scenario, directions[0], directions[1], snr)
        sig = make_signal(scenario.A, coords.theta, coords.alpha, scenario.C)
        stats = simulate_statistics(scenario, kinds, pd_trials, seed, signal=sig,
                                    domain=DOMAIN_SIGNAL, point=i, threads=threads)
        for j, kind in enumerate(kinds):
            count = int(np.count_nonzero(stats[:, j] > cals[kind].threshold))
            pd_matrix[i, j] = count / pd_trials
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
