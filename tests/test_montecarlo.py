import time

import numpy as np
import pytest
from scipy import special, stats

from adaptdet import kernels, montecarlo
from adaptdet.detectors import DetectorKind, compute, evaluate, statistics
from adaptdet.errors import NonFiniteStatisticError, SingularMatrixError
from adaptdet.montecarlo import (BLOCK_TRIALS, DOMAIN_NULL, DOMAIN_NULL_FRESH,
                                 DOMAIN_SIGNAL, _coefficients, calibrate_threshold,
                                 cfar_check, estimate_pd, pd_curve, pd_curves,
                                 replay_trial, simulate_statistics, threshold_from_h0)
from adaptdet.scenario import (make_scenario, make_signal, random_directions, scale_to_snr,
                               toeplitz_covariance)
from adaptdet.transform import transform_stack

RU = DetectorKind.GLRGDD_RU
ALL = list(DetectorKind)


def _scenario(seed=17, **kw):
    params = dict(n=5, k=8, m=2, j=2, l=6, rho=0.5, seed=seed)
    params.update(kw)
    return make_scenario(**params)


class TestThresholdRule:
    def test_ten_statistics_at_pfa_point_two(self):
        stats = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
        threshold = threshold_from_h0(stats, 0.2)
        assert threshold == 0.8
        assert np.count_nonzero(stats > threshold) == 2

    def test_large_budget_indexing(self):
        rng = np.random.default_rng(0)
        stats = rng.permutation(np.arange(100_000, dtype=float))
        # m = round(1e5 * 1e-3) = 100, so the threshold is the 101st largest
        assert threshold_from_h0(stats, 1e-3) == 99_899.0

    def test_rejects_pfa_out_of_range(self):
        with pytest.raises(ValueError, match="pfa"):
            threshold_from_h0(np.ones(10), 1.5)

    def test_rejects_pfa_too_large_for_sample(self):
        with pytest.raises(ValueError, match="too large"):
            threshold_from_h0(np.ones(3), 0.9)

    def test_refuses_non_finite_statistics(self):
        # NaN would sort to the top: threshold 1.0 instead of 0.9899...
        stats = np.linspace(0.0, 1.0, 100)
        stats[40] = np.nan
        with pytest.raises(NonFiniteStatisticError, match="1 of 100"):
            threshold_from_h0(stats, 0.01)


class TestNonFiniteTrials:
    @pytest.mark.parametrize("name, kinds", [
        ("glr", [RU, DetectorKind.BOSE_GLRT]),
        ("am", [DetectorKind.AMGDD]),
    ])
    def test_names_replay_key_of_first_bad_trial(self, monkeypatch, name, kinds):
        real = getattr(kernels, name)

        def inf_in_row_3(*args):
            out = real(*args)
            out[3, 1] = np.inf
            out[4, 0] = np.nan
            return out

        monkeypatch.setattr(kernels, name, inf_in_row_3)
        sc = _scenario()
        snrs = [0.0, 6.0, 12.0]
        # every block has bad rows; the earliest trial in trial order is reported
        pattern = (r"\(seed, domain, trial\) = \(9, 1, 3\) at grid point 1 \(6\.0 dB\) "
                   rf"of stream version {montecarlo.STREAM_VERSION}")
        with pytest.raises(NonFiniteStatisticError, match=pattern):
            simulate_statistics(sc, kinds, 2 * BLOCK_TRIALS + 5, seed=9,
                                coefficients=_coefficients(sc, snrs, 9), snr_db=snrs,
                                domain=DOMAIN_SIGNAL, threads=2)

    def test_replay_key_reproduces_the_trial(self):
        # the (seed, domain, trial) key and the grid point's signal are enough
        # to recompute a value: replay_trial draws the trial's noise, shared by
        # every grid point
        sc = _scenario()
        snrs = [-3.0, 6.0, 15.0]
        theta, alpha = random_directions(sc.J, sc.M, 11)
        replayed = [1, BLOCK_TRIALS - 1, BLOCK_TRIALS, BLOCK_TRIALS + 1]
        stats = simulate_statistics(sc, ALL, BLOCK_TRIALS + 2, seed=11,
                                    coefficients=_coefficients(sc, snrs, 11), snr_db=snrs,
                                    domain=DOMAIN_SIGNAL)
        for trial in replayed:
            noise, x_l = replay_trial(sc, 11, DOMAIN_SIGNAL, trial)
            for p, snr in enumerate(snrs):
                coords = scale_to_snr(sc, theta, alpha, snr)
                x = noise + make_signal(sc.A, coords.theta, coords.alpha, sc.C)
                for col, kind in enumerate(ALL):
                    value = compute(kind, x, x_l, sc.A, sc.C).value
                    assert value == pytest.approx(stats[trial, p, col], rel=1e-10)

    @pytest.mark.parametrize("dims, kinds", [
        ((6, 10, 2, 2, 8), ALL),
        ((6, 6, 2, 2, 3), [RU, DetectorKind.AMGDD_RU]),  # L < N: the RU pair only
    ])
    def test_per_instance_api_is_bitwise_the_engine(self, dims, kinds):
        # compute and the engine share the transform and the dispatch, so a
        # replayed noise-only trial gives the engine's value to the last bit
        sc = make_scenario(*dims, seed=21)
        stats = simulate_statistics(sc, kinds, BLOCK_TRIALS + 2, seed=11)
        for trial in (0, 1, BLOCK_TRIALS - 1, BLOCK_TRIALS + 1):
            x, x_l = replay_trial(sc, 11, DOMAIN_NULL, trial)
            for col, kind in enumerate(kinds):
                value = compute(kind, x, x_l, sc.A, sc.C).value
                assert value == stats[trial, col], (trial, kind)

    @pytest.mark.parametrize("failing, trials, named", [
        # every block fails, the short last one at once and the full first one
        # late: the earliest block in trial order is named, not the first to fail
        ("every block", BLOCK_TRIALS + 5, f"trials 0..{BLOCK_TRIALS - 1} "),
        ("last block", 2 * BLOCK_TRIALS + 5,
         f"trials {2 * BLOCK_TRIALS}..{2 * BLOCK_TRIALS + 4} "),
    ])
    def test_lapack_failure_names_the_block(self, monkeypatch, failing, trials, named):
        def singular(red, v):
            if v.shape[0] == BLOCK_TRIALS:
                if failing == "last block":
                    return np.zeros((BLOCK_TRIALS, v.shape[1]))
                time.sleep(0.2)
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(kernels, "glr", singular)
        sc = _scenario()
        snrs = [0.0, 6.0]
        pattern = (f"Singular matrix in {named}of stream version "
                   rf"{montecarlo.STREAM_VERSION}, \(seed, domain\) = \(9, 1\) "
                   r"at grid points 0 \(0\.0 dB\) to 1 \(6\.0 dB\)")
        with pytest.raises(SingularMatrixError, match=pattern):
            simulate_statistics(sc, [RU], trials, seed=9,
                                coefficients=_coefficients(sc, snrs, 9),
                                snr_db=snrs, domain=DOMAIN_SIGNAL, threads=2)


class TestBlockWorkspace:
    TRIALS = 2 * BLOCK_TRIALS + 17  # two full blocks and a short one

    @pytest.mark.parametrize("snrs", [None, [0.0, 9.0, 18.0]])
    def test_reused_buffers_leak_nothing_into_a_short_block(self, snrs):
        # each engine thread reuses one workspace for all its blocks: the short
        # last block, whichever thread runs it, must read none of the rows a
        # full block left behind
        sc = _scenario()
        kw = {"domain": DOMAIN_NULL}
        if snrs is not None:
            kw = {"coefficients": _coefficients(sc, snrs, 13), "snr_db": snrs,
                  "domain": DOMAIN_SIGNAL}
        runs = [simulate_statistics(sc, ALL, self.TRIALS, seed=13, threads=threads, **kw)
                for threads in (1, 2, 4)]
        for other in runs[1:]:
            assert np.array_equal(other, runs[0])
        for trial in range(2 * BLOCK_TRIALS, self.TRIALS):
            x, x_l = replay_trial(sc, 13, kw["domain"], trial)
            if snrs is None:
                values = evaluate(ALL, x, x_l, sc.A, sc.C)
                assert [values[kind].value for kind in ALL] == list(runs[0][trial]), trial
            else:
                td = transform_stack(x[None], x_l[None], sc.waveform)
                values = statistics(ALL, td, sc.A, kw["coefficients"])[0]
                assert np.array_equal(values, runs[0][trial]), trial

    def test_every_block_draws_into_one_buffer(self, monkeypatch):
        # a thread's blocks draw into the memory of its first block rather
        # than into new arrays that the allocator hands back and faults in again
        draws = []
        block_noise = montecarlo._block_noise

        def recorded(*args, **kwargs):
            draws.append(block_noise(*args, **kwargs))
            return draws[-1]

        monkeypatch.setattr(montecarlo, "_block_noise", recorded)
        simulate_statistics(_scenario(), [RU], 10 * BLOCK_TRIALS, seed=3, threads=1)
        assert len(draws) == 10
        assert all(np.shares_memory(draw, draws[0]) for draw in draws[1:])

    def test_replay_refuses_a_negative_trial(self):
        with pytest.raises(ValueError, match="trial must be >= 0"):
            replay_trial(_scenario(), 1, DOMAIN_NULL, -1)


class TestCalibration:
    def test_refuses_tiny_false_alarm_budget(self):
        sc = _scenario()
        with pytest.raises(ValueError, match="calibration refused"):
            calibrate_threshold(sc, RU, 1e-3, 1000, seed=1)

    def test_bitwise_deterministic(self):
        sc = _scenario()
        first = calibrate_threshold(sc, RU, 0.05, 600, seed=2)
        second = calibrate_threshold(sc, RU, 0.05, 600, seed=2)
        assert first.threshold == second.threshold

    def test_threads_do_not_change_results(self):
        sc = _scenario()
        serial = simulate_statistics(sc, ALL, 1200, seed=3, threads=1)
        parallel = simulate_statistics(sc, ALL, 1200, seed=3, threads=4)
        assert np.array_equal(serial, parallel)

    def test_shorter_run_is_a_prefix_of_a_longer_one(self):
        # a trial's draws must not depend on the trial count or the thread split
        sc = _scenario()
        short = simulate_statistics(sc, ALL, 300, seed=3, threads=2)
        long = simulate_statistics(sc, ALL, 700, seed=3, threads=1)
        assert np.array_equal(short, long[:300])

    def test_common_random_numbers_across_detectors(self):
        sc = _scenario()
        joint = simulate_statistics(sc, ALL, 64, seed=4)
        alone = simulate_statistics(sc, [DetectorKind.AMGDD], 64, seed=4)
        assert np.array_equal(joint[:, ALL.index(DetectorKind.AMGDD)], alone[:, 0])

    def test_rejects_invalid_detector_for_scenario(self):
        sc = _scenario(l=3)  # L < N
        with pytest.raises(ValueError, match="AMGDD requires L >= N"):
            simulate_statistics(sc, [DetectorKind.AMGDD], 10, seed=0)

    def test_rejects_empty_detector_list(self):
        with pytest.raises(ValueError, match="empty detector list"):
            simulate_statistics(_scenario(), [], 10, seed=0)

    @pytest.mark.parametrize("threads", [0, -4])
    def test_rejects_thread_count_below_one(self, threads):
        with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
            simulate_statistics(_scenario(), [RU], 10, seed=0, threads=threads)

    def test_exactly_m_calibration_exceedances(self):
        sc = _scenario()
        trials, pfa = 500, 0.08
        cal = calibrate_threshold(sc, RU, pfa, trials, seed=5)
        stats = simulate_statistics(sc, [RU], trials, seed=5)[:, 0]
        assert np.count_nonzero(stats > cal.threshold) == round(trials * pfa)


class TestEstimatePd:
    def test_infinite_threshold_gives_zero(self):
        sc = _scenario()
        assert estimate_pd(sc, RU, np.inf, 10.0, 200, seed=6) == 0.0

    def test_saturates_at_high_snr(self):
        sc = _scenario()
        cal = calibrate_threshold(sc, RU, 0.05, 600, seed=7)
        assert estimate_pd(sc, RU, cal.threshold, 60.0, 400, seed=7) == 1.0

    def test_zero_signal_reduces_to_false_alarm_rate(self):
        # the H1 noise alone, which is the zero-signal trial of every grid
        # point (see test_grid_points_share_the_trial_noise)
        sc = _scenario()
        pfa, trials = 0.05, 4000
        cal = calibrate_threshold(sc, RU, pfa, 4000, seed=8)
        noise = simulate_statistics(sc, [RU], trials, seed=8, domain=DOMAIN_SIGNAL)
        pd = np.count_nonzero(noise[:, 0] > cal.threshold) / trials
        assert abs(pd - pfa) <= 4.0 * np.sqrt(pfa * (1 - pfa) / trials)

    def test_empirical_pfa_on_fresh_noise(self):
        sc = _scenario()
        pfa, trials = 0.05, 4000
        cal = calibrate_threshold(sc, RU, pfa, trials, seed=9)
        fresh = simulate_statistics(sc, [RU], trials, seed=9, domain=DOMAIN_NULL_FRESH)
        pfa_emp = np.count_nonzero(fresh[:, 0] > cal.threshold) / trials
        assert abs(pfa_emp - pfa) <= 4.0 * np.sqrt(pfa * (1 - pfa) / trials)


class TestPdCurves:
    def test_empty_grid_gives_empty_curve(self):
        sc = _scenario()
        curve = pd_curve(sc, RU, [], 0.05, 600, 100, seed=10)
        assert curve.points == ()

    def test_rejects_non_increasing_grid(self):
        sc = _scenario()
        with pytest.raises(ValueError, match="strictly increasing"):
            pd_curve(sc, RU, [3.0, 3.0], 0.05, 600, 100, seed=11)
        # refused before any draw, not as non-finite coefficients after calibration
        for grid in ([0.0, np.nan], [0.0, np.inf], [-np.inf, 0.0]):
            with pytest.raises(ValueError, match="SNR grid must be finite"):
                pd_curve(sc, RU, grid, 0.05, 600, 100, seed=11)

    def test_rejects_empty_pd_budget(self):
        with pytest.raises(ValueError, match="pd_trials must be >= 1, got 0"):
            pd_curve(_scenario(), RU, [0.0], 0.05, 600, 0, seed=11)

    def test_pd_values_are_exact_trial_ratios(self):
        sc = _scenario()
        curve = pd_curve(sc, RU, [0.0, 8.0, 16.0], 0.05, 600, 250, seed=12)
        for _, pd in curve.points:
            assert pd * 250 == pytest.approx(round(pd * 250), abs=1e-9)

    def test_monotone_after_seed_averaging(self):
        sc = _scenario()
        grid = [-5.0, 5.0, 15.0, 25.0]
        total = np.zeros(len(grid))
        for seed in (13, 14, 15):
            curve = pd_curve(sc, RU, grid, 0.05, 800, 400, seed=seed)
            total += [pd for _, pd in curve.points]
        averaged = total / 3
        assert np.all(np.diff(averaged) >= 0.0)

    def test_multi_detector_curves_share_draws(self):
        sc = _scenario()
        grid = [5.0, 15.0]
        joint = pd_curves(sc, ALL, grid, 0.05, 600, 300, seed=16)
        single = pd_curve(sc, DetectorKind.BOSE_GLRT, grid, 0.05, 600, 300, seed=16)
        assert joint[DetectorKind.BOSE_GLRT].points == single.points

    def test_estimate_pd_is_the_curve_value_at_its_snr(self):
        sc = _scenario()
        curve = pd_curve(sc, RU, [0.0, 6.0, 12.0], 0.05, 600, 600, seed=23)
        for snr, pd in curve.points:
            assert estimate_pd(sc, RU, curve.threshold_used, snr, 600, seed=23) == pd

    def test_sub_grid_keeps_the_points_it_shares(self):
        # a grid can be extended or cut without moving the points it keeps
        sc = _scenario()
        full = pd_curves(sc, ALL, [-3.0, 0.0, 3.0, 6.0, 9.0, 12.0], 0.05, 600, 600, seed=24)
        sub = pd_curves(sc, ALL, [3.0, 12.0], 0.05, 600, 600, seed=24)
        for kind in ALL:
            assert sub[kind].points == tuple(p for p in full[kind].points
                                             if p[0] in (3.0, 12.0))

    def test_grid_points_share_the_trial_noise(self):
        sc = _scenario()
        snrs = [-3.0, 0.0, 3.0, 6.0]
        full = simulate_statistics(sc, ALL, 300, seed=25,
                                   coefficients=_coefficients(sc, snrs, 25),
                                   domain=DOMAIN_SIGNAL)
        assert full.shape == (300, len(snrs), len(ALL))
        sub = simulate_statistics(sc, ALL, 300, seed=25,
                                  coefficients=_coefficients(sc, snrs[1::2], 25),
                                  domain=DOMAIN_SIGNAL)
        assert np.array_equal(sub, full[:, 1::2])
        # a zero coefficient gives the noise-only statistics of the H1 stream
        zero = np.zeros((1, sc.J, sc.M), dtype=complex)
        noise = simulate_statistics(sc, ALL, 300, seed=25, domain=DOMAIN_SIGNAL)
        assert np.array_equal(simulate_statistics(sc, ALL, 300, seed=25, coefficients=zero,
                                                  domain=DOMAIN_SIGNAL)[:, 0], noise)

    def test_grid_costs_no_covariance_solve_per_point(self, monkeypatch):
        # fig1 dimensions, two blocks: each block makes one N x N solve per
        # covariance estimate (S_plus, S_perp, S), whatever the grid size, and
        # the call colors the noise with the scenario's factor of R
        sc = make_scenario(12, 16, 3, 2, 14, rho=0.95, seed=26)
        counts = []
        for snrs in ([6.0], [float(v) for v in range(-4, 14, 2)]):
            c = _coefficients(sc, snrs, 26)
            calls = []

            def counted(fn):
                def wrapper(a, *args, **kwargs):
                    if np.shape(a)[-2:] == (sc.N, sc.N):
                        calls.append(fn.__name__)
                    return fn(a, *args, **kwargs)
                return wrapper

            with monkeypatch.context() as patch:
                for name in ("solve", "cholesky"):
                    patch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
                simulate_statistics(sc, ALL, BLOCK_TRIALS + 1, seed=26, coefficients=c,
                                    domain=DOMAIN_SIGNAL)
            counts.append((calls.count("solve"), calls.count("cholesky")))
        assert counts == [(3 * 2, 0), (3 * 2, 0)]

    @pytest.mark.parametrize("j, expected", [(2, 0), (3, 4 * 2)])
    def test_grid_takes_no_eigensolver_below_three_signal_dimensions(self, monkeypatch,
                                                                       j, expected):
        # fig1 dimensions, two blocks at P = 9: J <= 2 reads every top
        # eigenvalue in closed form; J = 3 calls eigvalsh once per statistic
        # (GLRGDD and AMGDD-RU on S_plus, Bose, AMGDD) and block
        sc = make_scenario(12, 16, 3, j, 14, rho=0.95, seed=26)
        c = _coefficients(sc, [float(v) for v in range(-4, 14, 2)], 26)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        simulate_statistics(sc, ALL, BLOCK_TRIALS + 1, seed=26, coefficients=c,
                            domain=DOMAIN_SIGNAL)
        assert len(calls) == expected

    def test_pd_curves_reuse_the_scenario_factorization_of_c(self, monkeypatch):
        # C's SVD and R's Cholesky factor both come with the scenario
        sc = _scenario()
        cholesky = np.linalg.cholesky

        def refused(*args, **kwargs):
            raise AssertionError("pd_curves took an SVD")

        def small_cholesky(a, *args, **kwargs):
            if np.shape(a)[-2:] == (sc.N, sc.N):
                raise AssertionError("pd_curves factored an N x N matrix")
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", refused)
        monkeypatch.setattr(np.linalg, "cholesky", small_cholesky)
        curves = pd_curves(sc, ALL, [0.0, 6.0], 0.05, 600, 100, seed=27)
        assert set(curves) == set(ALL)

    def test_rejects_misshapen_coefficients(self):
        sc = _scenario()
        with pytest.raises(ValueError, match=r"coefficients must be \(P, 2, 2\)"):
            simulate_statistics(sc, [RU], 10, seed=0, coefficients=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="1 SNR labels for 2 grid points"):
            simulate_statistics(sc, [RU], 10, seed=0, coefficients=np.zeros((2, 2, 2)),
                                snr_db=[0.0])
        # labels without a grid would be dropped, giving noise-only statistics
        for labels in ([30.0], [0.0, 6.0]):
            with pytest.raises(ValueError, match="snr_db given without coefficients"):
                simulate_statistics(sc, [RU], 10, seed=0, snr_db=labels, domain=DOMAIN_SIGNAL)


class TestExactNullLaw:
    """J = 1 under H0: GLRGDD-RU ~ Beta(M, L + K - M - N + 1), Bose ~ Beta(M, K - M - N + 1).

    The statistics are CFAR, so with R = I and A rotated onto the first
    coordinate, S_plus ~ CW_N(L + K - M, I) and the reduced statistic is a
    ratio of independent chi-squares (Kelly 1986; Bose & Steinhardt 1995).
    This checks draws, coloring, transform, kernels and threshold against
    theory, not against a second formula for the same algebra.
    """

    CASES = [((6, 10, 2, 1, 8), RU), ((12, 6, 3, 1, 11), RU), ((5, 4, 1, 1, 5), RU),
             ((6, 10, 2, 1, 8), DetectorKind.BOSE_GLRT)]
    TRIALS, SEED, PFA = 20_000, 123, 0.01

    @staticmethod
    def _law(dims, kind):
        n, k, m, _, l = dims
        extra = l if kind is RU else 0
        return stats.beta(m, extra + k - m - n + 1)

    @pytest.mark.parametrize("dims, kind", CASES)
    def test_null_draws_follow_the_beta_law(self, dims, kind):
        sc = make_scenario(*dims, rho=0.9, seed=31)
        draws = simulate_statistics(sc, [kind], self.TRIALS, seed=self.SEED)[:, 0]
        # four fixed-seed cases: at 1e-3 an exact engine fails one on ~0.4 % of
        # seeds, while the law one degree of freedom off reads p < 1e-29 on each
        assert stats.kstest(draws, self._law(dims, kind).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("dims, kind", CASES)
    def test_threshold_brackets_the_exact_quantile(self, dims, kind):
        # with exact cdf F, F(threshold) of the (m+1)-th largest of n draws is
        # Beta(n - m, m + 1); the threshold must sit in its central 99.9 %
        n, m = self.TRIALS, round(self.TRIALS * self.PFA)
        sc = make_scenario(*dims, rho=0.9, seed=31)
        law = self._law(dims, kind)
        lo, hi = law.ppf(stats.beta(n - m, m + 1).ppf([0.0005, 0.9995]))
        threshold = calibrate_threshold(sc, kind, self.PFA, n, self.SEED).threshold
        assert lo <= threshold <= hi


class TestExactSignalLaw:
    """J = M = 1 under H1: the engine's signal path against Kelly's law.

    A kind's covariance estimate holds n white samples: L + K - M for the RU
    pair and GLRGDD, K - M for Bose, L for AMGDD.  With nu = n - N + 1 the
    loss factor rho ~ Beta(n - N + 2, N - 1) and, given rho, nu * mu follows
    the noncentral F(2, 2 nu) law of noncentrality 2 rho a at output SNR a,
    where mu = GLRGDD is Kelly's GLR value, mu / (1 + mu) the bounded one
    and the two-step statistic is mu / rho (Kelly 1986; Robey et al. 1992).
    This checks the SNR scaling, the signal coefficients and the kernels'
    signal path against theory, not against a second formula for them.
    """

    CASES = ([((4, 8, 1, 1, 6), kind) for kind in ALL]
             + [((4, 4, 1, 1, 2), kind) for kind in (RU, DetectorKind.AMGDD_RU)])
    SNRS_DB, TRIALS, SEED = (2.0, 8.0), 4_000, 17
    NODES = 64

    @classmethod
    def _cdf(cls, dims, kind, snr_db):
        n, k, m, _, l = dims
        samples = {DetectorKind.BOSE_GLRT: k - m, DetectorKind.AMGDD: l}.get(kind, l + k - m)
        nu = samples - n + 1
        x, w = special.roots_legendre(cls.NODES)
        rho = 0.5 * (x + 1.0)
        weight = 0.5 * w * stats.beta(samples - n + 2, n - 1).pdf(rho)
        nc = 2.0 * rho * 10.0 ** (snr_db / 10.0)

        def cdf(t):
            t = np.asarray(t, dtype=float)[..., None]
            if kind.bounded_below_one:
                f = nu * t / (1.0 - t)
            elif kind is DetectorKind.GLRGDD:
                f = nu * t
            else:
                f = nu * rho * t
            return stats.ncf.cdf(f, 2, 2 * nu, nc) @ weight

        return cdf

    @pytest.mark.parametrize("dims, kind", CASES)
    def test_signal_draws_follow_the_noncentral_law(self, dims, kind):
        sc = make_scenario(*dims, rho=0.9, seed=5)
        draws = simulate_statistics(sc, [kind], self.TRIALS, self.SEED,
                                    coefficients=_coefficients(sc, self.SNRS_DB, self.SEED),
                                    domain=DOMAIN_SIGNAL)[:, :, 0]
        # level fixed before the first run, as for the null law
        for p, snr in enumerate(self.SNRS_DB):
            pvalue = stats.kstest(draws[:, p], self._cdf(dims, kind, snr)).pvalue
            assert pvalue > 1e-3, (snr, pvalue)


class TestCfar:
    def test_same_covariance_hits_target_exactly(self):
        sc = _scenario()
        trials, pfa = 2000, 0.05
        report = cfar_check(sc, sc.R, RU, pfa, trials, seed=17)
        assert report.pfa_empirical == round(trials * pfa) / trials
        assert report.passed

    def test_scalar_covariance_multiple_is_near_deterministic(self):
        sc = _scenario()
        report = cfar_check(sc, 100.0 * sc.R, RU, 0.05, 2000, seed=18)
        assert report.passed
        assert abs(report.pfa_empirical - 0.05) <= 5.0 / 2000

    def test_white_to_strongly_correlated(self):
        sc = _scenario(rho=0.0)
        r_alt = toeplitz_covariance(sc.N, 0.95)
        for kind in ALL:
            report = cfar_check(sc, r_alt, kind, 1e-2, 20_000, seed=19)
            assert report.passed, (kind, report)
