import copy
import dataclasses
import itertools
import re
import sys
import threading
import time

import numpy as np
import pytest
from scipy import special, stats

from adaptdet import kernels, montecarlo, scenario, verify
from adaptdet.detectors import DetectorKind, evaluate, statistics
from adaptdet.errors import NonFiniteStatisticError, SingularMatrixError
from adaptdet.montecarlo import (BLOCK_TRIALS, DOMAIN_NULL, DOMAIN_SIGNAL, Job, _coefficients,
                                 calibrate_thresholds, cfar_check, pd_curves, replay_trial,
                                 simulate_jobs, simulate_statistics, threshold_from_h0)
from adaptdet.scenario import (make_scenario, make_signal, random_directions, random_subspaces,
                               scale_to_snr, toeplitz_covariance)
from adaptdet.transform import transform_stack

RU = DetectorKind.GLRGDD_RU
ALL = list(DetectorKind)


def _numpy_stream(seed, *key):
    """A stream of layout 6 rebuilt from numpy alone."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=key)))


def _numpy_cn(rng, *shape):
    """Layout 6's complex normals rebuilt from numpy alone: (re, im) pairs."""
    pairs = rng.standard_normal((*shape, 2))
    return (pairs * np.sqrt(0.5)).view(np.complex128)[..., 0]


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

    def test_rejects_a_pfa_that_is_not_a_number(self):
        # a str would fail the range comparison with a TypeError naming nothing
        with pytest.raises(TypeError, match="pfa must be a number, got '0.1'"):
            threshold_from_h0(np.ones(100), "0.1")
        with pytest.raises(TypeError, match="pfa must be a number, got '0.1'"):
            calibrate_thresholds(_scenario(), [RU], "0.1", 1000, seed=0)

    @pytest.mark.parametrize("pfa", [False, True, np.False_, np.True_])
    def test_a_bool_pfa_is_no_number(self, pfa):
        # as for rho: True would otherwise get the range message, np.True_ the type one
        with pytest.raises(TypeError, match=rf"^pfa must be a number, got {pfa!r}$"):
            threshold_from_h0(np.ones(100), pfa)

    def test_rejects_no_statistics(self):
        with pytest.raises(ValueError, match="no statistics to calibrate on"):
            threshold_from_h0(np.array([]), 0.1)

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
    @pytest.mark.filterwarnings("error::RuntimeWarning")
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
            simulate_statistics(sc, kinds, 2 * BLOCK_TRIALS + 5, seed=9, snr_db=snrs,
                                threads=2)

    def test_replay_key_reproduces_the_trial(self):
        # the (seed, domain, trial) key and the grid point's signal are enough
        # to recompute a value: replay_trial draws the trial's noise, shared by
        # every grid point.  At 40 dB a strong signal, which the replay adds to
        # the data and the engine after the reduction, stays inside the budget
        sc = _scenario()
        snrs = [-3.0, 6.0, 15.0, 40.0]
        theta, alpha = random_directions(sc.J, sc.M, 11)
        replayed = [1, BLOCK_TRIALS - 1, BLOCK_TRIALS, BLOCK_TRIALS + 1]
        stats = simulate_statistics(sc, ALL, BLOCK_TRIALS + 2, seed=11, snr_db=snrs)
        for trial in replayed:
            noise, x_l = replay_trial(sc, 11, DOMAIN_SIGNAL, trial)
            for p, snr in enumerate(snrs):
                x = noise + make_signal(sc.A, scale_to_snr(sc, theta, alpha, snr), alpha, sc.C)
                for col, kind in enumerate(ALL):
                    value = evaluate([kind], x, x_l, sc.A, sc.C)[kind]
                    assert value == pytest.approx(stats[trial, p, col], rel=1e-10)

    @pytest.mark.parametrize("dims, kinds", [
        ((6, 10, 2, 2, 8), ALL),
        ((6, 6, 2, 2, 3), [RU, DetectorKind.AMGDD_RU]),  # L < N: the RU pair only
    ])
    def test_per_instance_api_is_bitwise_the_engine(self, dims, kinds):
        # evaluate and the engine share the transform and the dispatch, so a
        # replayed noise-only trial gives the engine's value to the last bit
        sc = make_scenario(*dims, seed=21)
        stats = simulate_statistics(sc, kinds, BLOCK_TRIALS + 2, seed=11)
        for trial in (0, 1, BLOCK_TRIALS - 1, BLOCK_TRIALS + 1):
            x, x_l = replay_trial(sc, 11, DOMAIN_NULL, trial)
            for col, kind in enumerate(kinds):
                value = evaluate([kind], x, x_l, sc.A, sc.C)[kind]
                assert value == stats[trial, col], (trial, kind)

    @pytest.mark.parametrize("failing, trials, named", [
        # every block fails, the short last one at once and the full first one
        # late: the earliest block in trial order is named, not the first to fail
        ("every block", BLOCK_TRIALS + 5, 0),
        ("last block", 2 * BLOCK_TRIALS + 5, 2 * BLOCK_TRIALS),
    ])
    def test_lapack_failure_names_the_block(self, monkeypatch, failing, trials, named):
        # the failing block is re-run one trial at a time, which names its trial
        def singular(red, v):
            if v.shape[0] == BLOCK_TRIALS:
                if failing == "last block":
                    return np.zeros((BLOCK_TRIALS, v.shape[1]))
                time.sleep(0.2)
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(kernels, "glr", singular)
        sc = _scenario()
        snrs = [0.0, 6.0]
        pattern = (rf"Singular matrix in trial \(seed, domain, trial\) = \(9, 1, {named}\) "
                   r"at grid points 0 \(0\.0 dB\) to 1 \(6\.0 dB\) of stream version "
                   rf"{montecarlo.STREAM_VERSION}$")
        with pytest.raises(SingularMatrixError, match=pattern):
            simulate_statistics(sc, [RU], trials, seed=9, snr_db=snrs, threads=2)

    def test_lapack_failure_of_no_single_trial_names_the_block(self, monkeypatch):
        # a block that fails as a stack while each of its trials passes alone
        # is named by its range of trials
        def stacks_fail(kinds, td, *args, **kwargs):
            if len(td.x_par) > 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return statistics(kinds, td, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "statistics", stacks_fail)
        pattern = (r"^Singular matrix in trials 0\.\.9 of \(seed, domain\) = \(9, 0\) of "
                   rf"stream version {montecarlo.STREAM_VERSION}$")
        with pytest.raises(SingularMatrixError, match=pattern):
            simulate_statistics(_scenario(), [RU], 10, seed=9)

    def test_lapack_failure_names_its_trial_inside_the_block(self, monkeypatch):
        # a reduction that fails on one trial's data alone, in the middle of the
        # second block: that trial is named, not the first trial of its block
        sc = _scenario()
        x, x_l = replay_trial(sc, 9, DOMAIN_NULL, BLOCK_TRIALS + 44)
        target = transform_stack(x, x_l, sc.waveform).x_par
        reduce = kernels.reduce

        def singular_at_target(x_par, *args, **kwargs):
            if any(np.array_equal(trial, target) for trial in x_par):
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return reduce(x_par, *args, **kwargs)

        monkeypatch.setattr(kernels, "reduce", singular_at_target)
        pattern = (r"Matrix is not positive definite in trial \(seed, domain, trial\) = "
                   rf"\(9, 0, {BLOCK_TRIALS + 44}\) of stream version "
                   rf"{montecarlo.STREAM_VERSION}$")
        with pytest.raises(SingularMatrixError, match=pattern):
            simulate_statistics(sc, ALL, 3 * BLOCK_TRIALS, seed=9, threads=2)


class TestBlockWorkspace:
    TRIALS = 2 * BLOCK_TRIALS + 17  # two full blocks and a short one

    @pytest.mark.parametrize("snrs", [None, [0.0, 9.0, 18.0]])
    def test_reused_buffers_leak_nothing_into_a_short_block(self, snrs):
        # each engine thread reuses one workspace for all its blocks: the short
        # last block, whichever thread runs it, must read none of the rows a
        # full block left behind
        sc = _scenario()
        runs = [simulate_statistics(sc, ALL, self.TRIALS, seed=13, snr_db=snrs, threads=threads)
                for threads in (1, 2, 4)]
        for other in runs[1:]:
            assert np.array_equal(other, runs[0])
        domain = DOMAIN_NULL if snrs is None else DOMAIN_SIGNAL
        for trial in range(2 * BLOCK_TRIALS, self.TRIALS):
            x, x_l = replay_trial(sc, 13, domain, trial)
            if snrs is None:
                values = evaluate(ALL, x, x_l, sc.A, sc.C)
                assert [values[kind] for kind in ALL] == list(runs[0][trial]), trial
            else:
                td = transform_stack(x[None], x_l[None], sc.waveform)
                values = statistics(ALL, td, sc.A, _coefficients(sc, snrs, 13))[0]
                assert np.array_equal(values, runs[0][trial]), trial

    def test_every_block_draws_into_one_buffer(self, monkeypatch):
        # a thread's blocks draw into the memory of its first block rather
        # than into new arrays that the allocator hands back and faults in again
        draws = []
        draw = montecarlo.complex_gaussian

        def recorded(*args, **kwargs):
            draws.append(draw(*args, **kwargs))
            return draws[-1]

        monkeypatch.setattr(montecarlo, "complex_gaussian", recorded)
        simulate_statistics(_scenario(), [RU], 10 * BLOCK_TRIALS, seed=3, threads=1)
        assert len(draws) == 10
        assert all(np.shares_memory(draw, draws[0]) for draw in draws[1:])
        # and so do the draws that two jobs of another K share
        draws.clear()
        simulate_jobs([Job(_scenario(), [RU], 10 * BLOCK_TRIALS, 3),
                       Job(_scenario(k=6), [RU], 5 * BLOCK_TRIALS, 3)], threads=1)
        assert len(draws) == 10
        assert all(np.shares_memory(draw, draws[0]) for draw in draws[1:])

    def test_replay_refuses_a_negative_trial(self):
        with pytest.raises(ValueError, match="trial must be >= 0"):
            replay_trial(_scenario(), 1, DOMAIN_NULL, -1)


class TestDispatch:
    # the calling thread and min(threads, blocks) - 1 helpers take the blocks
    # from one locked iterator

    def test_a_helper_s_failure_is_raised_by_the_caller(self, monkeypatch):
        # any exception of a block that a helper runs, not only a LinAlgError,
        # reaches the caller, and no helper outlives the call
        caller = threading.get_ident()

        def helper_fails(*args, **kwargs):
            if threading.get_ident() != caller:
                raise RuntimeError("a helper's block failed")
            time.sleep(0.2)  # the helper takes a block while the caller sleeps
            return statistics(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "statistics", helper_fails)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^a helper's block failed$"):
            simulate_statistics(_scenario(), [RU], 3 * BLOCK_TRIALS, seed=9, threads=2)
        assert threading.active_count() == before

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_the_lowest_failing_block_is_raised(self, monkeypatch, threads):
        # block 2 fails first in time and block 1 later: serial order meets
        # block 1 first, so every thread count raises block 1's exception
        draw = montecarlo._draw

        def blocks_fail(seed, domain, block, out):
            if block == 1:
                time.sleep(0.2)
            if block >= 1:
                raise RuntimeError(f"block {block} failed")
            return draw(seed, domain, block, out)

        monkeypatch.setattr(montecarlo, "_draw", blocks_fail)
        with pytest.raises(RuntimeError, match="^block 1 failed$"):
            simulate_statistics(_scenario(), [RU], 4 * BLOCK_TRIALS, seed=9, threads=threads)

    def test_no_thread_takes_a_block_after_a_failure(self, monkeypatch):
        # block 0 fails at once while block 1 is still running: blocks 2 to 9
        # are never drawn, since a later block's failure would not be raised
        drawn = []
        draw = montecarlo._draw

        def first_fails(seed, domain, block, out):
            drawn.append(block)
            if block == 0:
                raise RuntimeError("block 0 failed")
            time.sleep(0.2)
            return draw(seed, domain, block, out)

        monkeypatch.setattr(montecarlo, "_draw", first_fails)
        with pytest.raises(RuntimeError, match="^block 0 failed$"):
            simulate_statistics(_scenario(), [RU], 10 * BLOCK_TRIALS, seed=9, threads=2)
        assert set(drawn) <= {0, 1}

    def test_each_block_runs_once_under_contention(self, monkeypatch):
        # more threads than cores, switching as often as the interpreter allows:
        # a block taken twice or never shows in the drawn blocks or the result
        sc, trials = _scenario(), 40 * BLOCK_TRIALS
        serial = simulate_statistics(sc, [RU], trials, seed=5)
        drawn = []
        draw = montecarlo._draw

        def recorded(seed, domain, block, out):
            drawn.append(block)
            return draw(seed, domain, block, out)

        monkeypatch.setattr(montecarlo, "_draw", recorded)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = simulate_statistics(sc, [RU], trials, seed=5, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(drawn) == list(range(40))
        assert np.array_equal(parallel, serial)

    @pytest.mark.parametrize("threads, trials, snrs, helpers", [
        (4, 2 * BLOCK_TRIALS, None, 1),
        (2, 5 * BLOCK_TRIALS, None, 1),
        (1, 3 * BLOCK_TRIALS, None, 0),
        (4, BLOCK_TRIALS, None, 0),
        (4, 3 * BLOCK_TRIALS, [], 0),  # an empty grid has no block
    ])
    def test_starts_one_helper_per_thread_with_a_block(self, monkeypatch, threads, trials,
                                                       snrs, helpers):
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Counted)
        simulate_statistics(_scenario(), [RU], trials, seed=3, snr_db=snrs, threads=threads)
        assert len(started) == helpers

    def test_blas_runs_on_one_thread_inside_a_multi_thread_call(self, monkeypatch):
        # BLAS threads would compete with the engine's for the cores: a
        # 2-thread call pins numpy's OpenBLAS to one thread and gives the
        # count back afterwards; a 1-thread call leaves it alone
        pin = montecarlo._one_blas_thread()
        if pin is None:
            pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
        seen = []
        draw = montecarlo._draw

        def recorded(*args):
            seen.append(pin.get())
            return draw(*args)

        monkeypatch.setattr(montecarlo, "_draw", recorded)
        original = pin.get()
        pin.set(2)
        try:
            before = pin.get()
            simulate_statistics(_scenario(), [RU], 4 * BLOCK_TRIALS, seed=3, threads=2)
            assert seen == [1] * 4
            assert pin.get() == before
            seen.clear()
            simulate_statistics(_scenario(), [RU], 2 * BLOCK_TRIALS, seed=3, threads=1)
            assert seen == [before] * 2
        finally:
            pin.set(original)

    def test_overlapping_calls_restore_the_blas_count_when_the_last_ends(self):
        # the count is process-global: call A enters, call B enters, A leaves
        # while B still runs, then B leaves; saving and restoring per call
        # would give 3 back to B's run and leave 1 behind at the end
        count = [3]
        pin = montecarlo._OneBlasThread(lambda: count[0], lambda n: count.__setitem__(0, n))
        pin.__enter__()
        pin.__enter__()
        assert count == [1]
        pin.__exit__(None, None, None)
        assert count == [1]
        pin.__exit__(None, None, None)
        assert count == [3]


class TestColoring:
    # a real factor F of R colors the (re, im) view of the white noise with a
    # real product; a complex one takes the complex product

    @staticmethod
    def _complex_scenario():
        # R = D T D^H, with T Toeplitz and D a diagonal of unit-modulus phases,
        # is complex Hermitian PD, so its factor D F_T D^H is complex
        sc = make_scenario(6, 10, 2, 2, 8, rho=0.9, seed=21)
        phases = np.diag(np.exp(1j * np.linspace(0.3, 2.9, sc.N)))
        return dataclasses.replace(sc, R=phases @ sc.R @ phases.conj().T)

    @pytest.mark.parametrize("real", [True, False], ids=["real_factor", "complex_factor"])
    def test_each_trial_is_colored_as_its_product(self, real):
        sc = make_scenario(12, 16, 3, 2, 14, rho=0.95, seed=4) if real else self._complex_scenario()
        assert sc.coloring.imag.any() != real
        count = BLOCK_TRIALS
        drawn = montecarlo._draw(8, DOMAIN_NULL, 0,
                                 np.empty(count * sc.N * (sc.K + sc.L), dtype=np.complex128))
        colored = montecarlo._color(sc, drawn, count, np.empty_like(drawn))
        white = drawn.reshape(count, sc.N, -1)
        # F W to within a few units of roundoff of |F| |W|, not bitwise: which
        # bits a product rounds to is the BLAS kernel's business
        bound = 4 * sc.N * np.finfo(np.float64).eps * np.abs(sc.coloring)
        for trial in range(count):
            error = np.abs(colored[trial] - sc.coloring @ white[trial])
            assert (error <= bound @ np.abs(white[trial])).all(), trial

    def test_a_complex_factor_replays_bitwise_the_engine(self):
        sc = self._complex_scenario()
        stats = simulate_statistics(sc, ALL, BLOCK_TRIALS + 2, seed=11)
        for trial in (0, 1, BLOCK_TRIALS - 1, BLOCK_TRIALS + 1):
            x, x_l = replay_trial(sc, 11, DOMAIN_NULL, trial)
            values = evaluate(ALL, x, x_l, sc.A, sc.C)
            assert [values[kind] for kind in ALL] == list(stats[trial]), trial


class TestJobs:
    # simulate_jobs: jobs at one (seed, domain) read one draw per block, each
    # returning bitwise what simulate_statistics returns for it

    @staticmethod
    def _fig2_jobs():
        # fig2's N, M, J and L at three K; trial counts that leave later
        # blocks to one job of a group; both domains, two seeds, an empty grid
        sc = {k: make_scenario(12, k, 3, 2, 11, rho=0.95, seed=5) for k in (6, 10, 14)}
        pair = [RU, DetectorKind.AMGDD_RU]
        return [Job(sc[6], pair, 300, 7), Job(sc[14], pair, 700, 7, (0.0, 9.0)),
                Job(sc[10], [RU], 700, 7), Job(sc[14], pair, 300, 7),
                Job(sc[6], pair, 300, 7, (3.0,)), Job(sc[10], pair, 500, 7, ()),
                Job(sc[10], pair, 300, 8)]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_a_multi_job_call_is_one_call_per_job(self, threads):
        jobs = self._fig2_jobs()
        together = simulate_jobs(jobs, threads=threads)
        assert len(together) == len(jobs)
        for job, stats in zip(jobs, together):
            alone = simulate_statistics(*job[:4], snr_db=job.snr_db)
            assert stats.shape == alone.shape and stats.tobytes() == alone.tobytes(), job[1:]
        assert simulate_jobs([]) == []

    def test_a_block_s_shorter_draws_are_heads_of_its_longest(self):
        # what lets jobs share a draw, rebuilt from numpy alone: a block's
        # stream fills its draw in C order, so the draw of fewer trials or
        # columns is the head of the longest one
        for block, count in [(0, 136), (3, 208), (19, 256)]:
            longest = _numpy_cn(_numpy_stream(20260810, DOMAIN_NULL, block), count, 12, 25)
            for rows, cols in [(count, 17), (count, 21), (44, 25), (count - 1, 25)]:
                head = _numpy_cn(_numpy_stream(20260810, DOMAIN_NULL, block), rows, 12, cols)
                assert np.array_equal(head.ravel(), longest.ravel()[:head.size])

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_the_lowest_failing_unit_and_its_first_failing_job_are_raised(self, monkeypatch,
                                                                          threads):
        # units run group by group, in the order of each group's first job,
        # and a unit runs its jobs in job order.  Jobs 0 and 2 share the H0
        # group and both fail in its block 1, job 0 late; block 2 fails at
        # once, and so does the H1 group's block 0, whose unit comes after
        # every H0 unit: job 0's block 1 is raised at every thread count
        sc = [_scenario(seed=17 + i) for i in range(3)]
        jobs = [Job(sc[0], [RU], 3 * BLOCK_TRIALS, 9), Job(sc[1], [RU], 3 * BLOCK_TRIALS, 9, [0.0]),
                Job(sc[2], [RU], 3 * BLOCK_TRIALS, 9)]
        failing = {(0, 1), (2, 1), (0, 2), (1, 0)}
        local, draw, color = threading.local(), montecarlo._draw, montecarlo._color

        def drawn(seed, domain, block, out):
            local.block = block
            return draw(seed, domain, block, out)

        def colored(scenario, *args):
            job = next(i for i, s in enumerate(sc) if s is scenario)
            if (job, local.block) in failing:
                time.sleep(0.2 if (job, local.block) == (0, 1) else 0.0)
                raise RuntimeError(f"job {job} failed in block {local.block}")
            return color(scenario, *args)

        monkeypatch.setattr(montecarlo, "_draw", drawn)
        monkeypatch.setattr(montecarlo, "_color", colored)
        with pytest.raises(RuntimeError, match="^job 0 failed in block 1$"):
            simulate_jobs(jobs, threads=threads)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_a_numerical_error_names_its_job(self, monkeypatch, threads):
        # with several jobs the message begins with the failing job's position
        # and dimensions, and the rest is the one-job message.  Only the
        # 300-trial jobs have a 44-trial block, where trial 260 is not finite
        sc = _scenario()
        h0, h1 = Job(sc, [RU], 300, 9), Job(sc, [RU], 300, 9, [6.0])
        glr = kernels.glr

        def nan_in_trial_260(*args):
            out = glr(*args)
            if len(out) == 300 - BLOCK_TRIALS:
                out[260 - BLOCK_TRIALS] = np.nan
            return out

        monkeypatch.setattr(kernels, "glr", nan_in_trial_260)
        dims = r"\(N, K, M, J, L\) = \(5, 8, 2, 2, 6\): non-finite statistic in trial "
        with pytest.raises(NonFiniteStatisticError, match=(
                rf"^job 1 {dims}\(seed, domain, trial\) = \(9, 0, 260\) of stream version "
                rf"{montecarlo.STREAM_VERSION}$")):
            simulate_jobs([Job(sc, [RU], 200, 9), h0, h1], threads=threads)
        with pytest.raises(NonFiniteStatisticError, match=(
                rf"^job 0 {dims}\(seed, domain, trial\) = \(9, 1, 260\) at grid point 0 "
                rf"\(6\.0 dB\) of stream version {montecarlo.STREAM_VERSION}$")):
            simulate_jobs([h1, Job(sc, [RU], 200, 9), h0], threads=threads)


class TestStreamLayout:
    # Each purpose's layout rebuilt from numpy alone: the replay tests go through
    # the package's own stream code, so only these tests see a change of
    # generator, key, draw order or scaling.

    @pytest.mark.parametrize("seed, domain, block, count", [
        (11, DOMAIN_NULL, 0, BLOCK_TRIALS),
        (11, DOMAIN_SIGNAL, 3, BLOCK_TRIALS),
        (20260810, DOMAIN_NULL, 3, 7),  # a short block: the head of the same draw
    ])
    def test_block_draws_are_sfc64_keyed_by_seed_domain_and_block(self, seed, domain,
                                                                   block, count):
        assert montecarlo.STREAM_VERSION == 6
        assert BLOCK_TRIALS == 256
        assert (DOMAIN_NULL, DOMAIN_SIGNAL) == (0, 1)
        n, cols = 5, 14
        expected = _numpy_cn(_numpy_stream(seed, domain, block), count, n, cols)
        sc = _scenario(rho=0.0)  # N = 5, K + L = 14, colored by the identity: bytes kept
        arena = np.empty(BLOCK_TRIALS * n * cols, dtype=np.complex128)
        head = montecarlo._draw(seed, domain, block, arena[:count * n * cols])
        drawn = montecarlo._color(sc, head, count, np.empty_like(arena))
        assert drawn.shape == (count, n, cols)
        assert drawn.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [0, 11])
    def test_subspaces_are_sfc64_keyed_by_seed_and_purpose_2(self, seed):
        a, c = random_subspaces(6, 2, 3, 9, seed)
        rng = _numpy_stream(seed, 2)
        assert a.tobytes() == _numpy_cn(rng, 6, 2).tobytes()
        assert c.tobytes() == _numpy_cn(rng, 3, 9).tobytes()
        sc = make_scenario(6, 9, 3, 2, 8, seed=seed)
        assert sc.A.tobytes() == a.tobytes() and sc.C.tobytes() == c.tobytes()

    @pytest.mark.parametrize("seed", [0, 11])
    def test_directions_are_sfc64_keyed_by_seed_and_purpose_3(self, seed):
        theta, alpha = random_directions(2, 3, seed)
        rng = _numpy_stream(seed, 3)
        for drawn, size in ((theta, 2), (alpha, 3)):
            expected = _numpy_cn(rng, size)
            assert drawn.tobytes() == (expected / np.linalg.norm(expected)).tobytes()

    def test_verify_draws_are_sfc64_keyed_by_seed_purpose_and_instance(self, monkeypatch):
        seed, count = 11, 6
        for idx, inst in verify.instance_stream(seed, count):
            again = verify.random_instance(verify.REGIMES[idx % len(verify.REGIMES)],
                                           _numpy_stream(seed, 4, idx))
            for name in ("a", "c", "x", "x_l"):
                assert getattr(inst, name).tobytes() == getattr(again, name).tobytes()
        heads, check = [], verify._check_instance

        def recorded(idx, inst, rng, suites):
            heads.append((idx, copy.deepcopy(rng).standard_normal(8).tobytes()))
            check(idx, inst, rng, suites)

        monkeypatch.setattr(verify, "_check_instance", recorded)
        verify.run_verification(seed, count)
        assert heads == [(idx, _numpy_stream(seed, 5, idx).standard_normal(8).tobytes())
                         for idx in range(count)]

    def test_verify_instances_share_no_stream_with_the_scenario_draws(self, monkeypatch):
        # Instances 1000 and 1001 once drew exactly the streams of make_scenario's
        # subspaces and of random_directions at the same seed.
        seed, seen = 3, []
        draw = scenario.complex_gaussian

        def fingerprinted(rng, *shape, **kwargs):
            # the first draws of a fresh copy of the stream behind `rng`
            bg = rng.bit_generator
            seen.append(np.random.Generator(type(bg)(bg.seed_seq)).standard_normal(8).tobytes())
            return draw(rng, *shape, **kwargs)

        def streams(run):
            seen.clear()
            run()
            return set(seen)

        monkeypatch.setattr(scenario, "complex_gaussian", fingerprinted)
        subspaces = streams(lambda: make_scenario(12, 16, 3, 2, 14, seed=seed))
        directions = streams(lambda: random_directions(2, 3, seed))
        instances = streams(lambda: list(
            itertools.islice(verify.instance_stream(seed, 1002), 1000, None)))
        assert subspaces and directions and instances
        assert not instances & (subspaces | directions)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("snrs", [None, [0.0, 6.0]], ids=["noise", "grid"])
    def test_refuses_a_negative_seed_before_any_block(self, threads, snrs):
        with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
            simulate_statistics(_scenario(), [RU], 2 * BLOCK_TRIALS + 1, -5, snr_db=snrs,
                                threads=threads)

    @pytest.mark.parametrize("seed, domain, message", [
        (-5, DOMAIN_NULL, "seed must be >= 0, got -5"),
        (5, -1, r"domain must be DOMAIN_NULL \(0\) or DOMAIN_SIGNAL \(1\), got -1"),
    ], ids=["seed", "domain"])
    def test_replay_refuses_a_negative_key(self, seed, domain, message):
        with pytest.raises(ValueError, match=message):
            replay_trial(_scenario(), seed, domain, BLOCK_TRIALS)

    @pytest.mark.parametrize("domain", [scenario.SUBSPACES, scenario.DIRECTIONS,
                                        scenario.VERIFY_INSTANCE, scenario.VERIFY_TRANSFORM])
    def test_replay_refuses_a_domain_the_engine_does_not_draw(self, domain):
        # another purpose's stream colored as noise would pass for an engine trial
        with pytest.raises(ValueError, match=r"domain must be DOMAIN_NULL \(0\) or "
                                             rf"DOMAIN_SIGNAL \(1\), got {domain}$"):
            replay_trial(make_scenario(12, 16, 3, 2, 14, seed=1), 5, domain, 0)

    @pytest.mark.parametrize("domain", [1.0, 0.0, np.float64(1.0), 2.9, "1"],
                             ids=["1.0", "0.0", "float64", "2.9", "str"])
    def test_replay_refuses_a_non_integer_domain(self, domain):
        # 1.0 == DOMAIN_SIGNAL, but numpy would refuse it as a spawn key
        with pytest.raises(ValueError, match=r"domain must be DOMAIN_NULL \(0\) or "
                                             rf"DOMAIN_SIGNAL \(1\), got {domain}$"):
            replay_trial(_scenario(), 5, domain, 0)


class TestCalibration:
    def test_refuses_tiny_false_alarm_budget(self):
        sc = _scenario()
        with pytest.raises(ValueError, match="calibration refused"):
            calibrate_thresholds(sc, [RU], 1e-3, 1000, seed=1)

    def test_bitwise_deterministic(self):
        sc = _scenario()
        first = calibrate_thresholds(sc, [RU], 0.05, 600, seed=2)[RU]
        second = calibrate_thresholds(sc, [RU], 0.05, 600, seed=2)[RU]
        assert first == second

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

    @pytest.mark.parametrize("entry", [
        lambda sc, kinds: simulate_statistics(sc, kinds, 10, seed=0),
        lambda sc, kinds: montecarlo.calibrate_thresholds(sc, kinds, 0.05, 600, seed=0),
        lambda sc, kinds: pd_curves(sc, kinds, [0.0], 0.05, 600, 100, seed=0),
    ], ids=["simulate_statistics", "calibrate_thresholds", "pd_curves"])
    def test_refuses_a_lone_detector_kind_where_a_list_is_expected(self, entry):
        with pytest.raises(TypeError, match=r"kinds must be a list of detector kinds, got "
                                            r"DetectorKind\.GLRGDD_RU alone: pass "
                                            r"\[DetectorKind\.GLRGDD_RU\]"):
            entry(_scenario(), RU)

    @pytest.mark.parametrize("kinds, message", [
        ([], "empty detector list"),
        ([RU, DetectorKind.AMGDD_RU, RU], "duplicate detector in list"),
    ], ids=["empty", "repeated"])
    @pytest.mark.parametrize("entry", [
        lambda sc, data, kinds: evaluate(kinds, *data, sc.A, sc.C),
        lambda sc, data, kinds: simulate_statistics(sc, kinds, 10, seed=0),
        lambda sc, data, kinds: montecarlo.calibrate_thresholds(sc, kinds, 0.05, 600, seed=0),
        lambda sc, data, kinds: pd_curves(sc, kinds, [0.0], 0.05, 600, 100, seed=0),
    ], ids=["evaluate", "simulate_statistics", "calibrate_thresholds", "pd_curves"])
    def test_one_kinds_list_rule(self, monkeypatch, entry, kinds, message):
        # detectors.kind_list is the one place for it, and it refuses before any draw
        sc = _scenario()
        data = replay_trial(sc, 0, DOMAIN_NULL, 0)

        def refused(*args, **kwargs):
            raise AssertionError("drew a block before checking the kinds")

        monkeypatch.setattr(montecarlo, "_draw", refused)
        with pytest.raises(ValueError, match=message):
            entry(sc, data, kinds)

    def test_refuses_a_detector_kind_given_by_name(self):
        with pytest.raises(TypeError, match="DetectorKind members, got 'GLRGDD_RU'"):
            pd_curves(_scenario(), ["GLRGDD_RU"], [0.0], 0.05, 600, 100, seed=0)
        # the repeat check must not hash an entry before the type check sees it
        with pytest.raises(TypeError, match=r"DetectorKind members, got \['GLRGDD_RU'\]"):
            pd_curves(_scenario(), [["GLRGDD_RU"]], [0.0], 0.05, 600, 100, seed=0)

    @pytest.mark.parametrize("threads", [0, -4])
    def test_rejects_thread_count_below_one(self, threads):
        with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
            simulate_statistics(_scenario(), [RU], 10, seed=0, threads=threads)

    def test_exactly_m_calibration_exceedances(self):
        sc = _scenario()
        trials, pfa = 500, 0.08
        cal = calibrate_thresholds(sc, [RU], pfa, trials, seed=5)[RU]
        stats = simulate_statistics(sc, [RU], trials, seed=5)[:, 0]
        assert np.count_nonzero(stats > cal) == round(trials * pfa)

    def test_results_hold_only_what_was_computed(self):
        # a threshold is a bare float and a report's verdict a field, not
        # records repeating the caller's kind, pfa, trials and seed
        sc = _scenario(rho=0.0)
        pfa, trials = 0.05, 1000
        thresholds = calibrate_thresholds(sc, ALL, pfa, trials, seed=6)
        stats = simulate_statistics(sc, ALL, trials, seed=6)
        assert list(thresholds) == ALL
        for j, kind in enumerate(ALL):
            assert type(thresholds[kind]) is float
            assert thresholds[kind] == threshold_from_h0(stats[:, j], pfa)
        reports = cfar_check(sc, toeplitz_covariance(sc.N, 0.95), ALL, pfa, trials, seed=6)
        for kind, report in reports.items():
            assert report.threshold == thresholds[kind]
            assert report.passed == (abs(report.pfa_empirical - pfa) <= 4 * report.sigma)
        assert [f.name for f in dataclasses.fields(montecarlo.PdCurve)] == ["points", "threshold"]
        assert ([f.name for f in dataclasses.fields(montecarlo.CfarReport)]
                == ["pfa_empirical", "threshold", "sigma", "passed"])


class TestDetectionProbability:
    def test_refuses_a_negative_seed_before_drawing_the_directions(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("drew the directions before checking the seed")

        monkeypatch.setattr(montecarlo, "random_directions", refused)
        with pytest.raises(ValueError, match="seed must be >= 0, got -6"):
            simulate_statistics(_scenario(), [RU], 200, seed=-6, snr_db=[10.0])

    def test_saturates_at_high_snr(self):
        sc = _scenario()
        cal = calibrate_thresholds(sc, [RU], 0.05, 600, seed=7)[RU]
        stats = simulate_statistics(sc, [RU], 400, seed=7, snr_db=[60.0])
        assert np.count_nonzero(stats[:, 0, 0] > cal) == 400

    def test_zero_signal_reduces_to_false_alarm_rate(self):
        # the H1 noise alone, which is the zero-signal trial of every grid
        # point, evaluated block by block through the engine's own block code
        sc = _scenario()
        pfa, trials = 0.05, 4000
        cal = calibrate_thresholds(sc, [RU], pfa, 4000, seed=8)[RU]
        width = sc.N * (sc.K + sc.L)
        noise = []
        for block, lo in enumerate(range(0, trials, BLOCK_TRIALS)):
            count = min(BLOCK_TRIALS, trials - lo)
            drawn = montecarlo._draw(8, DOMAIN_SIGNAL, block,
                                     np.empty(count * width, dtype=np.complex128))
            x = montecarlo._color(sc, drawn, count, np.empty_like(drawn))
            td = transform_stack(x[:, :, :sc.K], x[:, :, sc.K:], sc.waveform)
            noise.append(statistics([RU], td, sc.A, kernels.no_signal(sc.J, sc.M))[:, 0, 0])
        pd = np.count_nonzero(np.concatenate(noise) > cal) / trials
        assert abs(pd - pfa) <= 4.0 * np.sqrt(pfa * (1 - pfa) / trials)

    def test_empirical_pfa_on_fresh_noise(self):
        sc = _scenario()
        pfa, trials = 0.05, 4000
        cal = calibrate_thresholds(sc, [RU], pfa, trials, seed=9)[RU]
        # independent H0 draws: those of another seed
        fresh = simulate_statistics(sc, [RU], trials, seed=10)
        pfa_emp = np.count_nonzero(fresh[:, 0] > cal) / trials
        assert abs(pfa_emp - pfa) <= 4.0 * np.sqrt(pfa * (1 - pfa) / trials)


class TestPdCurves:
    def test_empty_grid_gives_empty_curve(self, monkeypatch):
        # and draws nothing for it: calibration draws its 600 trials in 3
        # blocks, the H1 pass none
        blocks = []
        draw = montecarlo._draw

        def counted(seed, domain, *args):
            blocks.append(domain)
            return draw(seed, domain, *args)

        monkeypatch.setattr(montecarlo, "_draw", counted)
        assert pd_curves(_scenario(), [RU], [], 0.05, 600, 1000, seed=1)[RU].points == ()
        assert blocks == [DOMAIN_NULL] * 3
        stats = simulate_statistics(_scenario(), ALL, 1000, seed=1, snr_db=())
        assert stats.shape == (1000, 0, len(ALL))
        assert len(blocks) == 3

    def test_rejects_non_increasing_grid(self):
        sc = _scenario()
        with pytest.raises(ValueError, match="strictly increasing"):
            pd_curves(sc, [RU], [3.0, 3.0], 0.05, 600, 100, seed=11)
        # refused before any draw, not as non-finite coefficients after calibration
        for grid in ([0.0, np.nan], [0.0, np.inf], [-np.inf, 0.0]):
            with pytest.raises(ValueError, match="SNR grid must be finite"):
                pd_curves(sc, [RU], grid, 0.05, 600, 100, seed=11)

    def test_rejects_empty_pd_budget(self):
        with pytest.raises(ValueError, match="pd_trials must be >= 1, got 0"):
            pd_curves(_scenario(), [RU], [0.0], 0.05, 600, 0, seed=11)

    def test_pd_values_are_exact_trial_ratios(self):
        sc = _scenario()
        curve = pd_curves(sc, [RU], [0.0, 8.0, 16.0], 0.05, 600, 250, seed=12)[RU]
        for _, pd in curve.points:
            assert pd * 250 == pytest.approx(round(pd * 250), abs=1e-9)

    def test_monotone_after_seed_averaging(self):
        sc = _scenario()
        grid = [-5.0, 5.0, 15.0, 25.0]
        total = np.zeros(len(grid))
        for seed in (13, 14, 15):
            curve = pd_curves(sc, [RU], grid, 0.05, 800, 400, seed=seed)[RU]
            total += [pd for _, pd in curve.points]
        averaged = total / 3
        assert np.all(np.diff(averaged) >= 0.0)

    def test_multi_detector_curves_share_draws(self):
        sc = _scenario()
        grid = [5.0, 15.0]
        joint = pd_curves(sc, ALL, grid, 0.05, 600, 300, seed=16)
        bose = DetectorKind.BOSE_GLRT
        single = pd_curves(sc, [bose], grid, 0.05, 600, 300, seed=16)[bose]
        assert joint[bose].points == single.points

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
        full = simulate_statistics(sc, ALL, 300, seed=25, snr_db=snrs)
        assert full.shape == (300, len(snrs), len(ALL))
        sub = simulate_statistics(sc, ALL, 300, seed=25, snr_db=snrs[1::2])
        assert np.array_equal(sub, full[:, 1::2])

    def test_grid_costs_no_covariance_solve_per_point(self, monkeypatch):
        # fig1 dimensions, two blocks: each block makes one stacked bordered
        # Cholesky factorization per covariance estimate (S_plus, S_perp, S),
        # whatever the grid size, and no stacked solve; the SNR scaling makes two
        # single N x N solves per grid point against the scenario's factor of R,
        # which also colors the noise, so no N x N matrix is factored
        sc = make_scenario(12, 16, 3, 2, 14, rho=0.95, seed=26)
        bordered = sc.N + sc.J + sc.M
        counts = []
        for snrs in ([6.0], [float(v) for v in range(-4, 14, 2)]):
            calls = []

            def counted(fn):
                def wrapper(a, *args, **kwargs):
                    calls.append((fn.__name__, np.ndim(a), np.shape(a)[-1]))
                    return fn(a, *args, **kwargs)
                return wrapper

            with monkeypatch.context() as patch:
                for name in ("solve", "cholesky"):
                    patch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
                simulate_statistics(sc, ALL, BLOCK_TRIALS + 1, seed=26, snr_db=snrs)
            counts.append((calls.count(("cholesky", 3, bordered)),
                           sum(name == "solve" and ndim == 3 for name, ndim, _ in calls),
                           calls.count(("solve", 2, sc.N)),
                           sum(name == "cholesky" and size == sc.N for name, _, size in calls)))
        assert counts == [(3 * 2, 0, 2 * 1, 0), (3 * 2, 0, 2 * 9, 0)]

    @pytest.mark.parametrize("j, expected", [(2, 0), (3, 4 * 2)])
    def test_grid_takes_no_eigensolver_below_three_signal_dimensions(self, monkeypatch,
                                                                       j, expected):
        # fig1 dimensions, two blocks at P = 9: J <= 2 reads every top
        # eigenvalue in closed form; J = 3 calls eigvalsh once per statistic
        # (GLRGDD and AMGDD-RU on S_plus, Bose, AMGDD) and block
        sc = make_scenario(12, 16, 3, j, 14, rho=0.95, seed=26)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        simulate_statistics(sc, ALL, BLOCK_TRIALS + 1, seed=26,
                            snr_db=[float(v) for v in range(-4, 14, 2)])
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

    def test_refuses_a_bad_grid_before_any_draw(self, monkeypatch):
        # neither the seed's direction pair nor a block of noise is drawn
        def refused(*args, **kwargs):
            raise AssertionError("drew before checking the grid")

        monkeypatch.setattr(montecarlo, "random_directions", refused)
        monkeypatch.setattr(montecarlo, "_draw", refused)
        sc = _scenario()
        for grid in ([0.0, np.nan], [0.0, np.inf], [-np.inf, 0.0], [3.0, 3.0], [6.0, 0.0]):
            with pytest.raises(ValueError, match="SNR grid must be finite"):
                simulate_statistics(sc, [RU], 10, seed=0, snr_db=grid)
        for snr in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="SNR grid must be finite"):
                simulate_statistics(sc, [RU], 10, seed=0, snr_db=[snr])
        # a single SNR where a grid is expected
        for snr in (6.0, "69", b"69", bytearray(b"69"), ["6 dB"]):
            with pytest.raises(TypeError, match="SNR grid must be a sequence of numbers, got "
                                                + re.escape(repr(snr))):
                simulate_statistics(sc, [RU], 10, seed=0, snr_db=snr)
        with pytest.raises(TypeError, match=r"SNR grid must be a sequence of numbers, got 6\.0"):
            pd_curves(sc, [RU], 6.0, 0.05, 600, 100, seed=0)

    @pytest.mark.parametrize("top", [4000.0, np.float64(4000.0)], ids=["float", "np.float64"])
    def test_refuses_a_grid_whose_power_overflows_before_any_draw(self, monkeypatch, top):
        # 10^(snr/10) overflows above ~3082.5 dB: unrefused, pd_curves would
        # raise a bare OverflowError only after its whole calibration pass
        def refused(*args, **kwargs):
            raise AssertionError("drew before checking the grid")

        monkeypatch.setattr(montecarlo, "random_directions", refused)
        monkeypatch.setattr(montecarlo, "_draw", refused)
        sc = _scenario()
        message = r"SNR grid point 4000\.0 dB has a linear power 10\^\(snr/10\) beyond"
        with pytest.raises(ValueError, match=message):
            simulate_statistics(sc, [RU], 10, seed=0, snr_db=[0.0, top])
        with pytest.raises(ValueError, match=message):
            simulate_statistics(sc, [RU], 10, seed=0, snr_db=[top])
        monkeypatch.setattr(montecarlo, "simulate_jobs", refused)
        with pytest.raises(ValueError, match=message):
            pd_curves(sc, [RU], [0.0, top], 0.05, 600, 100, seed=0)

    def test_pd_curves_calls_the_engine_through_its_module_attribute(self, monkeypatch):
        # a wrapper on montecarlo.simulate_jobs (as a benchmark installs to
        # time each call) sees one call with the calibration and the H1 job
        calls = []
        engine = montecarlo.simulate_jobs

        def observed(jobs, **kwargs):
            calls.append(jobs)
            return engine(jobs, **kwargs)

        monkeypatch.setattr(montecarlo, "simulate_jobs", observed)
        sc = _scenario()
        pd_curves(sc, [RU], [0.0, 6.0], 0.05, 600, 100, seed=2)
        assert calls == [[Job(sc, [RU], 600, 2), Job(sc, [RU], 100, 2, (0.0, 6.0))]]


class TestExactNullLaw:
    """J = 1 under H0: GLRGDD-RU ~ Beta(M, L + K - M - N + 1), Bose ~ Beta(M, K - M - N + 1);
    at J = 2 the largest root of a complex matrix-beta matrix.

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
        threshold = calibrate_thresholds(sc, [kind], self.PFA, n, self.SEED)[kind]
        assert lo <= threshold <= hi

    @staticmethod
    def _largest_root_cdf(p, m, n):
        """CDF of the largest eigenvalue of a p x p complex matrix-beta matrix,
        density prod lambda^(m-p) (1-lambda)^(n-p) prod (lambda_i-lambda_j)^2
        (Khatri 1964; Chiani 2016): by Andreief's identity
        det[I_x(a+i+j+1, b+1) B(a+i+j+1, b+1)] / det[B(a+i+j+1, b+1)],
        with a = m - p and b = n - p."""
        alpha = np.add.outer(np.arange(p), np.arange(p)) + m - p + 1
        full = special.beta(alpha, n - p + 1)

        def cdf(x):
            x = np.asarray(x, dtype=float)[..., None, None]
            return np.linalg.det(special.betainc(alpha, n - p + 1, x) * full) / np.linalg.det(full)

        return cdf

    # J = 2, M = 3 at the presets' dimensions (N = 12): fig1 (K = 16, L = 14)
    # and fig2's K = 6, 10 and 14 (L = 11); n = samples - N + J, with L + K - M
    # samples for the RU pair and GLRGDD, K - M for Bose
    @pytest.mark.parametrize("dims, kinds", [
        ((12, 16, 3, 2, 14), [RU, DetectorKind.GLRGDD, DetectorKind.BOSE_GLRT]),
        ((12, 6, 3, 2, 11), [RU]), ((12, 10, 3, 2, 11), [RU]), ((12, 14, 3, 2, 11), [RU])])
    def test_null_draws_follow_the_largest_root_law(self, dims, kinds):
        n_dim, k, m, j, l = dims
        sc = make_scenario(*dims, rho=0.9, seed=31)
        draws = simulate_statistics(sc, kinds, self.TRIALS, seed=self.SEED)
        for kind, column in zip(kinds, draws.T):
            samples = k - m if kind is DetectorKind.BOSE_GLRT else l + k - m
            # GLRGDD = mu is t / (1 - t) of the largest root t = mu / (1 + mu)
            roots = column / (1.0 + column) if kind is DetectorKind.GLRGDD else column
            n = samples - n_dim + j
            # level fixed before the first run; one degree of freedom off is
            # refused at the same level
            pvalues = [stats.kstest(roots, self._largest_root_cdf(j, m, n + dn)).pvalue
                       for dn in (0, -1, 1)]
            assert pvalues[0] > 1e-3 and max(pvalues[1:]) < 1e-3, (kind, n, pvalues)


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

    # nu = 1 is each kind's minimum sample support: (4, 4, 1, 1, 1) and
    # (8, 8, 1, 1, 1) for the RU pair, K = M + N for Bose and L = N for the
    # classical pair
    CASES = ([((4, 8, 1, 1, 6), kind) for kind in ALL]
             + [(dims, kind) for dims in ((4, 4, 1, 1, 2), (4, 4, 1, 1, 1), (8, 8, 1, 1, 1))
                for kind in (RU, DetectorKind.AMGDD_RU)]
             + [((4, 5, 1, 1, 0), DetectorKind.BOSE_GLRT)]
             + [((4, 5, 1, 1, 4), kind) for kind in (DetectorKind.AMGDD, DetectorKind.GLRGDD)])
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
                                    snr_db=self.SNRS_DB)[:, :, 0]
        # level fixed before the first run, as for the null law
        for p, snr in enumerate(self.SNRS_DB):
            pvalue = stats.kstest(draws[:, p], self._cdf(dims, kind, snr)).pvalue
            assert pvalue > 1e-3, (snr, pvalue)


class TestCfar:
    def test_refuses_a_bad_alternative_covariance_before_calibrating(self, monkeypatch):
        calls = []
        simulate = montecarlo.simulate_jobs

        def counted(*args, **kwargs):
            calls.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "simulate_jobs", counted)
        with pytest.raises(ValueError, match="R is not positive definite"):
            cfar_check(_scenario(), np.ones((5, 5)), [RU], 0.005, 4000, seed=17)
        assert calls == []

    def test_refuses_a_lone_kind(self):
        with pytest.raises(TypeError, match=r"got DetectorKind\.GLRGDD_RU alone: pass "
                                            r"\[DetectorKind\.GLRGDD_RU\]"):
            cfar_check(_scenario(), np.eye(5), RU, 0.05, 1000, seed=17)

    def test_same_covariance_hits_target_exactly(self):
        sc = _scenario()
        trials, pfa = 2000, 0.05
        report = cfar_check(sc, sc.R, [RU], pfa, trials, seed=17)[RU]
        assert report.pfa_empirical == round(trials * pfa) / trials
        assert report.passed

    def test_scalar_covariance_multiple_is_near_deterministic(self):
        sc = _scenario()
        report = cfar_check(sc, 100.0 * sc.R, [RU], 0.05, 2000, seed=18)[RU]
        assert report.passed
        assert abs(report.pfa_empirical - 0.05) <= 5.0 / 2000

    def test_all_kinds_share_one_calibration_and_one_re_measurement(self, monkeypatch):
        # one engine call with the job under R and the job under r_alt for
        # five kinds, seen through the module attribute, and each kind's
        # report is that of a call for the kind alone
        sc = _scenario(rho=0.0)
        r_alt = toeplitz_covariance(sc.N, 0.95)
        calls = []
        simulate = montecarlo.simulate_jobs

        def counted(jobs, **kwargs):
            calls.append(jobs)
            return simulate(jobs, **kwargs)

        monkeypatch.setattr(montecarlo, "simulate_jobs", counted)
        reports = cfar_check(sc, r_alt, ALL, 0.05, 1000, seed=20)
        [(job, alt)] = calls
        assert job == Job(sc, ALL, 1000, 20)
        assert alt[1:] == (ALL, 1000, 20, None) and np.array_equal(alt.scenario.R, r_alt)
        assert list(reports) == ALL
        for kind in ALL:
            assert cfar_check(sc, r_alt, [kind], 0.05, 1000, seed=20)[kind] == reports[kind]

    def test_draws_each_block_once_and_reports_what_two_calls_report(self, monkeypatch):
        # the re-measurement colors the calibration's draws: 4 blocks for
        # 1000 trials, not 8, and the reports are bitwise those of a
        # calibration under R and a separate engine call under r_alt
        sc, pfa, trials = _scenario(), 0.05, 1000
        r_alt = toeplitz_covariance(sc.N, 0.9)
        thresholds = calibrate_thresholds(sc, ALL, pfa, trials, seed=21)
        stats = simulate_statistics(dataclasses.replace(sc, R=r_alt), ALL, trials, seed=21)
        draws = []
        draw = montecarlo.complex_gaussian

        def counted(*args, **kwargs):
            draws.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "complex_gaussian", counted)
        reports = cfar_check(sc, r_alt, ALL, pfa, trials, seed=21, threads=2)
        assert len(draws) == 4
        for j, kind in enumerate(ALL):
            empirical = np.count_nonzero(stats[:, j] > thresholds[kind]) / trials
            assert reports[kind].threshold == thresholds[kind]
            assert reports[kind].pfa_empirical == empirical

    def test_white_to_strongly_correlated(self):
        sc = _scenario(rho=0.0)
        reports = cfar_check(sc, toeplitz_covariance(sc.N, 0.95), ALL, 1e-2, 20_000, seed=19)
        for kind, report in reports.items():
            assert report.passed, (kind, report)
