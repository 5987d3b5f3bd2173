import ast
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import adaptdet
from adaptdet import montecarlo, scenario, verify
from adaptdet.config import ExperimentConfig
from adaptdet.detectors import DetectorKind
from adaptdet.montecarlo import (calibrate_thresholds, cfar_check, pd_curves, replay_trial,
                                 simulate_statistics)
from adaptdet.scenario import (DOMAIN_NULL, Scenario, complex_gaussian, make_scenario,
                               make_signal, random_directions, random_subspaces, scale_to_snr,
                               snr_of, stream, toeplitz_covariance)
from adaptdet.verify import instance_stream, run_verification

from oracles import dagger, random_cmatrix


class TestToeplitzCovariance:
    def test_rho_zero_is_identity(self):
        assert np.array_equal(toeplitz_covariance(2, 0.0), np.eye(2))

    def test_exponential_decay_entries(self):
        r = toeplitz_covariance(3, 0.95)
        assert r[0, 0] == pytest.approx(1.0)
        assert r[0, 1] == pytest.approx(0.95)
        assert r[0, 2] == pytest.approx(0.9025)
        assert np.allclose(r, r.T.conj())

    def test_positive_definite_at_size_twelve(self):
        np.linalg.cholesky(toeplitz_covariance(12, 0.95))

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.95, 0.99])
    def test_positive_definite_up_to_64(self, rho):
        np.linalg.cholesky(toeplitz_covariance(64, rho))

    @pytest.mark.parametrize("rho", [-0.1, 1.0, 1.5])
    def test_rejects_bad_rho(self, rho):
        with pytest.raises(ValueError, match=rf"^rho must lie in \[0, 1\), got {rho}$"):
            toeplitz_covariance(4, rho)

    def test_non_number_rho_is_named(self):
        with pytest.raises(TypeError, match="^rho must be a number, got '0.5'$"):
            make_scenario(5, 9, 2, 2, 6, rho="0.5")

    @pytest.mark.parametrize("rho", [False, True, np.False_, np.True_])
    def test_a_bool_rho_is_no_number(self, rho):
        # False would otherwise give the identity, and True a range error
        with pytest.raises(TypeError, match=rf"^rho must be a number, got {rho!r}$"):
            toeplitz_covariance(3, rho)


class TestRandomSubspaces:
    def test_square_spatial_matrix_is_nonsingular(self):
        a, _ = random_subspaces(5, 5, 2, 6, seed=11)
        sv = np.linalg.svd(a, compute_uv=False)
        assert sv[-1] > 1e-8 * sv[0]

    def test_deterministic_for_fixed_seed(self):
        first = random_subspaces(6, 2, 3, 9, seed=42)
        second = random_subspaces(6, 2, 3, 9, seed=42)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_rank_via_svd_oracle(self):
        a, c = random_subspaces(12, 2, 3, 16, seed=3)
        assert np.linalg.matrix_rank(a) == 2
        assert np.linalg.matrix_rank(c) == 3
        assert np.isfinite(np.linalg.cond(a))

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError, match="J=3 > N=2"):
            random_subspaces(2, 3, 1, 4, seed=0)
        with pytest.raises(ValueError, match="M=5 > K=4"):
            random_subspaces(2, 1, 5, 4, seed=0)

    def test_gives_up_on_a_rank_deficient_draw(self, monkeypatch):
        monkeypatch.setattr(scenario, "_full_rank", lambda *args: False)
        with pytest.raises(RuntimeError, match="could not draw a full-rank A in 100 tries"):
            random_subspaces(4, 2, 2, 6, seed=0)

    def test_refuses_a_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            random_subspaces(2, 1, 1, 4, seed=-1)


class TestComplexGaussian:
    def test_draws_into_out_in_place(self):
        # `out` fixes the shape and is returned; a new array of the shape holds the same draw
        out = np.empty((3, 4), dtype=np.complex128)
        assert complex_gaussian(np.random.Generator(np.random.SFC64(5)), out=out) is out
        fresh = complex_gaussian(np.random.Generator(np.random.SFC64(5)), 3, 4)
        assert fresh.shape == (3, 4) and fresh.tobytes() == out.tobytes()

    def test_zero_mean_white(self):
        # circular CN(0, I): zero mean, identity covariance, zero pseudo-covariance
        cols = 100_000
        z = complex_gaussian(np.random.Generator(np.random.Philox(1)), 4, cols)
        assert np.all(np.abs(z.mean(axis=1)) <= 4.0 / np.sqrt(cols))
        assert np.allclose(z @ dagger(z) / cols, np.eye(4), rtol=0, atol=0.02)
        assert np.allclose(z @ z.T / cols, 0, rtol=0, atol=0.02)


class TestMakeSignal:
    def test_zero_theta_gives_zero_matrix(self):
        rng = np.random.default_rng(0)
        a = random_cmatrix(rng, 4, 2)
        c = random_cmatrix(rng, 2, 6)
        sig = make_signal(a, np.zeros(2), np.ones(2), c)
        assert np.all(sig == 0)

    def test_scalar_case(self):
        sig = make_signal([[1.0]], [2.0], [3.0], [[1.0]])
        assert sig[0, 0] == pytest.approx(6.0)

    @pytest.mark.parametrize("theta, alpha, message", [
        (np.ones(3), np.ones(2), "theta must have length 2, got 3"),
        (np.ones(2), np.ones(1), "alpha must have length 2, got 1"),
    ], ids=["theta", "alpha"])
    def test_refuses_a_direction_of_the_wrong_length(self, theta, alpha, message):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=message):
            make_signal(random_cmatrix(rng, 4, 2), theta, alpha, random_cmatrix(rng, 2, 6))

    def test_output_is_rank_one(self):
        rng = np.random.default_rng(1)
        a = random_cmatrix(rng, 5, 2)
        c = random_cmatrix(rng, 3, 7)
        sig = make_signal(a, random_cmatrix(rng, 2, 1).ravel(),
                          random_cmatrix(rng, 3, 1).ravel(), c)
        sv = np.linalg.svd(sig, compute_uv=False)
        assert sv[1] <= 1e-10 * sv[0]

    def test_invariant_under_basis_change(self):
        rng = np.random.default_rng(2)
        a = random_cmatrix(rng, 5, 3)
        c = random_cmatrix(rng, 2, 6)
        theta = random_cmatrix(rng, 3, 1).ravel()
        alpha = random_cmatrix(rng, 2, 1).ravel()
        t = random_cmatrix(rng, 3, 3) + 2 * np.eye(3)
        base = make_signal(a, theta, alpha, c)
        moved = make_signal(a @ t, np.linalg.solve(t, theta), alpha, c)
        assert np.linalg.norm(moved - base) <= 1e-12 * np.linalg.norm(base)


def _small_scenario(seed=5):
    return make_scenario(4, 6, 2, 2, 5, rho=0.5, seed=seed)


_RU = DetectorKind.GLRGDD_RU
_CONFIG = ExperimentConfig(N=4, K=6, M=2, J=2, L=5, rho=0.5, pfa=0.05, snr_grid_db=(6.0,),
                           calib_trials=600, pd_trials=200, detectors=(_RU,), master_seed=7)

_DIMS = {"N": 12, "K": 16, "M": 3, "J": 2, "L": 14}
_A, _C = random_subspaces(12, 2, 3, 16, seed=1)


# every integer argument of a public entry: (the entry called with it, its name,
# its least value[, a value it runs with, the refusal of one below the least])
_INTEGER_ARGUMENTS = {
    "stream_seed": (lambda v: stream(v, DOMAIN_NULL, 0), "seed", 0),
    "simulate_statistics_seed": (lambda v: simulate_statistics(_small_scenario(), [_RU], 10, v),
                                 "seed", 0),
    "simulate_statistics_trials": (lambda v: simulate_statistics(_small_scenario(), [_RU], v, 1),
                                   "trials", 0),
    "simulate_statistics_threads": (
        lambda v: simulate_statistics(_small_scenario(), [_RU], 10, 1, threads=v), "threads", 1),
    "pd_curves_pd_trials": (lambda v: pd_curves(_small_scenario(), [_RU], [6.0], 0.05, 600, v, 1),
                            "pd_trials", 1),
    "run_verification_seed": (lambda v: run_verification(v, 1), "seed", 0),
    "run_verification_instance_count": (lambda v: run_verification(1, v), "instance_count", 0),
    "instance_stream_count": (lambda v: list(instance_stream(1, v)), "count", 0),
    "replay_trial_trial": (lambda v: replay_trial(_small_scenario(), 1, DOMAIN_NULL, v),
                           "trial", 0),
    "with_seed": (lambda v: _CONFIG.with_seed(v), "seed", 0),
    # read before the budget's trials * pfa; 0 keeps the budget's refusal
    "calibrate_thresholds_trials": (
        lambda v: calibrate_thresholds(_small_scenario(), [_RU], 0.05, v, 0), "trials", 0,
        600, "trials must be >= 0, got -1"),
    "cfar_check_trials": (
        lambda v: cfar_check(_small_scenario(), np.eye(4), [_RU], 0.05, v, 0), "trials", 0,
        600, "trials must be >= 0, got -1"),
    "toeplitz_covariance_n": (lambda v: toeplitz_covariance(v, 0.5), "n", 1),
    "random_directions_J": (lambda v: random_directions(v, 2, 1), "J", 1),
    "random_directions_M": (lambda v: random_directions(2, v, 1), "M", 1),
    # a Scenario reads N, K, M and J from A and C; its L goes through check_dimensions
    "Scenario_L": (lambda v: Scenario(A=_A, C=_C, R=np.eye(12), L=v), "L", 0,
                   14, "dimensions must be positive"),
}
# the dimensions, through make_scenario (random_subspaces' half of the check);
# a non-positive one keeps the dimension rule
for _name, _value in _DIMS.items():
    _INTEGER_ARGUMENTS[f"make_scenario_{_name}"] = (
        lambda v, name=_name: make_scenario(*{**_DIMS, name: v}.values()), _name,
        0 if _name == "L" else 1, _value, "dimensions must be positive")


class TestSnr:
    def test_zero_theta_gives_zero(self):
        sc = _small_scenario()
        assert snr_of(sc, np.zeros(2), np.ones(2)) == 0.0

    def test_scalar_case(self):
        sc = Scenario(A=[[1.0]], C=[[1.0]], R=[[1.0]], L=1)
        root2 = np.sqrt(2.0)
        assert snr_of(sc, [root2], [root2]) == pytest.approx(4.0, rel=1e-12)

    def test_matches_explicit_inverse(self):
        sc = _small_scenario()
        rng = np.random.default_rng(3)
        theta = random_cmatrix(rng, 2, 1).ravel()
        alpha = random_cmatrix(rng, 2, 1).ravel()
        r_inv = np.linalg.inv(sc.R)
        expected = float(np.real(
            (alpha.conj() @ sc.C @ dagger(sc.C) @ alpha)
            * (theta.conj() @ dagger(sc.A) @ r_inv @ sc.A @ theta)))
        assert snr_of(sc, theta, alpha) == pytest.approx(expected, rel=1e-10)

    def test_invariant_under_reparameterization(self):
        sc = _small_scenario()
        rng = np.random.default_rng(4)
        theta = random_cmatrix(rng, 2, 1).ravel()
        alpha = random_cmatrix(rng, 2, 1).ravel()
        t = random_cmatrix(rng, 2, 2) + 2 * np.eye(2)
        moved = replace(sc, A=sc.A @ t)
        assert snr_of(moved, np.linalg.solve(t, theta), alpha) == pytest.approx(
            snr_of(sc, theta, alpha), rel=1e-10)

    @pytest.mark.parametrize("theta, alpha, message", [
        (np.ones(3), np.ones(2), "theta{} must have length 2, got 3"),
        (np.ones(2), np.ones(1), "alpha{} must have length 2, got 1"),
    ], ids=["theta", "alpha"])
    def test_refuses_a_direction_of_the_wrong_length(self, theta, alpha, message):
        # numpy's matmul mismatch would name neither the direction nor its length
        sc = _small_scenario()
        with pytest.raises(ValueError, match=message.format("")):
            snr_of(sc, theta, alpha)
        with pytest.raises(ValueError, match=message.format("_dir")):
            scale_to_snr(sc, theta, alpha, 10.0)


class TestScaleToSnr:
    def test_fixed_point(self):
        sc = _small_scenario()
        theta, alpha = random_directions(sc.J, sc.M, 1)
        current_db = 10.0 * np.log10(snr_of(sc, theta, alpha))
        assert np.allclose(scale_to_snr(sc, theta, alpha, current_db), theta, rtol=1e-12)

    def test_doubling_scales_theta_by_sqrt2(self):
        sc = _small_scenario()
        theta, alpha = random_directions(sc.J, sc.M, 2)
        base_db = 10.0 * np.log10(snr_of(sc, theta, alpha))
        doubled = scale_to_snr(sc, theta, alpha, base_db + 10.0 * np.log10(2.0))
        gain = np.linalg.norm(doubled) / np.linalg.norm(theta)
        assert gain == pytest.approx(np.sqrt(2.0), rel=1e-10)

    @pytest.mark.parametrize("target_db", [-10.0, 0.0, 13.0, 30.0])
    def test_self_consistency(self, target_db):
        sc = _small_scenario()
        theta, alpha = random_directions(sc.J, sc.M, 3)
        achieved = snr_of(sc, scale_to_snr(sc, theta, alpha, target_db), alpha)
        assert achieved == pytest.approx(10.0 ** (target_db / 10.0), rel=1e-12)

    def test_rejects_zero_direction(self):
        sc = _small_scenario()
        with pytest.raises(ValueError, match="zero-SNR direction"):
            scale_to_snr(sc, np.zeros(2), np.ones(2), 10.0)

    @pytest.mark.parametrize("target_db", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_target(self, target_db):
        # unrefused, NaN gives a NaN theta without a word and inf a non-finite one
        sc = _small_scenario()
        theta, alpha = random_directions(sc.J, sc.M, 4)
        with pytest.raises(ValueError, match="target_snr_db must be finite"):
            scale_to_snr(sc, theta, alpha, target_db)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("target_db", [3083.0, 4000.0, np.float64(4000.0)],
                             ids=["3083.0", "4000.0", "np.float64(4000.0)"])
    def test_rejects_a_target_whose_power_overflows(self, target_db):
        # 10^(snr/10) is past the largest float above ~3082.5 dB: unrefused, a
        # Python float raises a bare OverflowError and an np.float64 gives an
        # infinite theta
        sc = make_scenario(4, 6, 2, 2, 5, rho=0.5, seed=5)
        theta, alpha = random_directions(sc.J, sc.M, 4)
        assert np.all(np.isfinite(scale_to_snr(sc, theta, alpha, 3082.0)))
        with pytest.raises(ValueError, match=rf"target_snr_db {float(target_db)!r} dB has a "
                                             r"linear power 10\^\(snr/10\) beyond the float"):
            scale_to_snr(sc, theta, alpha, target_db)

    def test_rejects_a_non_finite_direction(self):
        sc = _small_scenario()
        with pytest.raises(ValueError, match="theta_dir contains non-finite entries"):
            scale_to_snr(sc, np.array([1.0, np.nan]), np.ones(2), 10.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("theta_size, alpha_size", [
        (1e-155, 1.0), (1e-200, 1.0), (1e200, 1.0), (1.0, 1e-200), (1.0, 1e200)])
    def test_a_direction_far_from_unit_size_hits_the_target(self, theta_size, alpha_size):
        # the SNR of such a pair under- or overflows a float: scaled directly,
        # theta 1e-155 gave [inf+nanj, inf+nanj], theta 1e200 a NaN theta, and
        # theta or alpha 1e-200 were refused as a zero-SNR direction
        sc = make_scenario(4, 6, 2, 2, 5, rho=0.5, seed=5)
        unit = scale_to_snr(sc, np.ones(2), np.ones(2), 30.0)
        theta = scale_to_snr(sc, theta_size * np.ones(2), alpha_size * np.ones(2), 30.0)
        assert np.all(np.isfinite(theta))
        assert np.allclose(theta * alpha_size, unit, rtol=1e-13, atol=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_a_theta_beyond_the_float_range(self):
        # a tiny alpha needs a theta of about 1 / alpha, which may not exist
        sc = make_scenario(4, 6, 2, 2, 5, rho=0.5, seed=5)
        assert np.all(np.isfinite(scale_to_snr(sc, np.ones(2), 1e-300 * np.ones(2), 10.0)))
        with pytest.raises(ValueError, match="target_snr_db 3000.0 needs a theta beyond the "
                                             "float range"):
            scale_to_snr(sc, np.ones(2), 1e-300 * np.ones(2), 3000.0)

    def test_is_bitwise_the_direct_formula_on_unit_size_directions(self):
        # the power-of-two scales move no rounding: where sqrt(power / snr) *
        # theta_dir is finite, as for the engine's unit directions, theta is it
        # bitwise, so no signal trial moves
        rng = np.random.default_rng(5)
        for seed in range(6):
            sc = make_scenario(6, 9, 2, 3, 5, rho=0.5, seed=seed)
            for draw in range(10):
                theta, alpha = random_directions(sc.J, sc.M, 10 * seed + draw)
                if draw % 2:
                    theta, alpha = theta * rng.uniform(0.01, 100), alpha * rng.uniform(0.01, 100)
                for target_db in (-10.0, -3.3, 0.0, 6.0, 12.0, 31.7):
                    direct = np.sqrt(10.0 ** (target_db / 10.0) / snr_of(sc, theta, alpha)) * theta
                    assert np.array_equal(scale_to_snr(sc, theta, alpha, target_db), direct)


class TestScenarioValidation:
    def test_training_constraint_message(self):
        a, c = random_subspaces(12, 2, 3, 3, seed=0)
        with pytest.raises(ValueError, match=r"L\+K=14 < M\+N=15"):
            Scenario(A=a, C=c, R=toeplitz_covariance(12, 0.95), L=11)

    def test_rejects_spatial_subspace_too_large(self):
        with pytest.raises(ValueError, match="J=5 > N=4"):
            make_scenario(4, 8, 2, 5, 6)

    def test_rejects_waveform_subspace_too_large(self):
        with pytest.raises(ValueError, match="M=7 > K=6"):
            make_scenario(4, 6, 7, 2, 8)

    def test_rejects_nonpositive_dimensions(self):
        a, c = random_subspaces(3, 1, 1, 4, seed=1)
        with pytest.raises(ValueError, match="dimensions must be positive"):
            Scenario(A=a, C=c, R=np.eye(3), L=-1)

    @pytest.mark.parametrize("field, value, message", [
        ("R", np.eye(4), r"R must be 3x3, got \(4, 4\)"),
        ("R", np.eye(3) + np.diag([0.5, 0.0], 1), "R is not Hermitian"),
        # the check is relative to R's norm: no floor lets a tiny R through
        ("R", 1e-12 * np.array([[1, .5, 0], [.1, 1, 0], [0, 0, 1]]), "R is not Hermitian"),
        ("A", np.ones((3, 2)), "A must have full column rank"),
    ], ids=["R_shape", "R_not_hermitian", "R_not_hermitian_tiny", "A_rank_deficient"])
    def test_refuses_a_bad_matrix(self, field, value, message):
        a, c = random_subspaces(3, 2, 1, 4, seed=1)
        matrices = {"A": a, "C": c, "R": np.eye(3), field: value}
        with pytest.raises(ValueError, match=message):
            Scenario(L=3, **matrices)

    def test_dimensions_are_the_shapes_of_a_and_c(self):
        a, c = random_subspaces(5, 2, 3, 7, seed=1)
        sc = Scenario(A=a, C=c, R=np.eye(5), L=6)
        assert (sc.N, sc.J, sc.M, sc.K, sc.L) == (5, 2, 3, 7, 6)
        wider = replace(sc, A=random_subspaces(5, 3, 3, 7, seed=2)[0])
        assert (wider.N, wider.J, wider.M, wider.K) == (5, 3, 3, 7)

    def test_rejects_indefinite_covariance(self):
        a, c = random_subspaces(3, 1, 1, 4, seed=1)
        with pytest.raises(ValueError, match="positive definite"):
            Scenario(A=a, C=c, R=-np.eye(3), L=3)

    def test_rank_deficient_waveform_subspace_message(self):
        a, c = random_subspaces(3, 1, 2, 4, seed=1)
        with pytest.raises(ValueError, match="C must have full row rank"):
            Scenario(A=a, C=np.vstack([c[0], 2 * c[0]]), R=np.eye(3), L=3)

    def test_carries_the_factorization_of_c(self):
        sc = _small_scenario()
        assert np.allclose(sc.waveform.d @ sc.waveform.c_par, sc.C, rtol=0, atol=1e-12)
        moved = replace(sc, R=2.0 * sc.R)
        assert moved.waveform is not sc.waveform
        assert np.array_equal(moved.waveform.c_par, sc.waveform.c_par)
        # R's Cholesky factor is carried too, and rebuilt with a new R
        assert np.allclose(sc.coloring @ dagger(sc.coloring), sc.R, rtol=0, atol=1e-12)
        assert np.allclose(moved.coloring, np.sqrt(2.0) * sc.coloring, rtol=0, atol=1e-12)

    def test_make_scenario_refuses_a_negative_seed(self):
        # numpy's own refusal ("expected non-negative integer") names no argument
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            make_scenario(4, 8, 2, 2, 6, seed=-1)

    def test_random_directions_refuse_a_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            random_directions(2, 2, -1)

    @pytest.mark.parametrize("entry", [
        lambda seed: make_scenario(4, 8, 2, 2, 6, seed=seed),
        lambda seed: random_subspaces(2, 1, 1, 4, seed=seed),
        lambda seed: random_directions(2, 2, seed),
        lambda seed: simulate_statistics(_small_scenario(), [DetectorKind.GLRGDD_RU], 10, seed),
        lambda seed: simulate_statistics(_small_scenario(), [DetectorKind.GLRGDD_RU], 10, seed,
                                         snr_db=[6.0]),
        lambda seed: replay_trial(_small_scenario(), seed, DOMAIN_NULL, 3),
        lambda seed: next(instance_stream(seed, 1)),
    ], ids=["make_scenario", "random_subspaces", "random_directions", "simulate_statistics",
            "simulate_statistics_grid", "replay_trial", "instance_stream"])
    def test_seeded_entries_refuse_a_non_integer_seed(self, entry):
        # int() would truncate 2.9 to seed 2 and run seed 2's streams
        for seed in (2.9, 1.0, np.float64(1.7)):
            message = re.escape(f"seed must be an integer, got {seed!r}")
            with pytest.raises(TypeError, match=message):
                entry(seed)
        entry(np.int64(2))

    @pytest.mark.parametrize("seed, count, error, message", [
        (-1, 0, ValueError, "seed must be >= 0, got -1"),
        (2.5, 0, TypeError, "seed must be an integer, got 2.5"),
        (0, -1, ValueError, "count must be >= 0, got -1"),
    ], ids=["negative_seed", "fractional_seed", "negative_count"])
    def test_instance_stream_checks_its_arguments_when_called(self, seed, count, error,
                                                              message):
        # a generator would check them only on the first next(), and an empty
        # stream never
        with pytest.raises(error, match=re.escape(message)):
            instance_stream(seed, count)

    @pytest.mark.parametrize("case", list(_INTEGER_ARGUMENTS))
    def test_integer_arguments_follow_one_rule(self, monkeypatch, case):
        # truncation would run trial 2.9 as trial 2 and threads=2.5 as a thread
        # count; each refusal comes before the first block or instance is drawn
        entry, name, low, *exception = _INTEGER_ARGUMENTS[case]
        accepted, below = exception or (low, f"{name} must be >= {low}, got {low - 1}")
        draws = []
        for module, attr in ((montecarlo, "_draw"), (verify, "random_instance")):
            def counted(*args, _draw=getattr(module, attr), **kwargs):
                draws.append(args)
                return _draw(*args, **kwargs)
            monkeypatch.setattr(module, attr, counted)
        for value in (2.9, 1.0, np.float64(1.7), "7", True):
            with pytest.raises(TypeError, match=re.escape(f"{name} must be an integer, "
                                                          f"got {value!r}")):
                entry(value)
        with pytest.raises(ValueError, match=re.escape(below)):
            entry(low - 1)
        assert draws == []
        entry(np.int64(accepted))

    def test_directions_are_unit_norm_and_deterministic(self):
        d1 = random_directions(3, 2, 9)
        d2 = random_directions(3, 2, 9)
        assert np.linalg.norm(d1[0]) == pytest.approx(1.0)
        assert np.linalg.norm(d1[1]) == pytest.approx(1.0)
        assert np.array_equal(d1[0], d2[0])


class TestStreamRegistry:
    # numpy's seeding constructors, plus the bit generators and the legacy state
    _BUILDERS = {"SeedSequence", "SFC64", "Philox", "default_rng", "Generator", "PCG64",
                 "PCG64DXSM", "MT19937", "RandomState"}

    @classmethod
    def _sites(cls, node, owner, found):
        """(enclosing function, constructor) of every call that builds a seed
        stream below `node`, and every import from numpy.random."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls._sites(child, child.name, found)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in cls._BUILDERS:
                    found.add((owner, name))
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                modules = ([child.module or ""] if isinstance(child, ast.ImportFrom)
                           else [alias.name for alias in child.names])
                found.update((owner, f"import {m}") for m in modules
                             if m.startswith("numpy.random"))
            cls._sites(child, owner, found)
        return found

    def test_only_stream_builds_a_seeded_generator(self):
        sites = set()
        for path in sorted(Path(adaptdet.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            sites |= {(path.name, *site) for site in self._sites(tree, None, set())}
        assert sites == {("scenario.py", "stream", "SeedSequence"),
                         ("scenario.py", "stream", "SFC64"),
                         ("scenario.py", "stream", "Generator")}

    _ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}

    @classmethod
    def _environment_reads(cls, node, owner, found):
        """(enclosing function, name) of every os.environ or os.getenv read
        below `node`, and of every import of one from os."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls._environment_reads(child, child.name, found)
                continue
            if isinstance(child, ast.Attribute) and child.attr in cls._ENVIRONMENT:
                found.add((owner, child.attr))
            elif isinstance(child, ast.ImportFrom) and child.module == "os":
                found.update((owner, f"from os import {alias.name}") for alias in child.names
                             if alias.name in cls._ENVIRONMENT)
            cls._environment_reads(child, owner, found)
        return found

    def test_nothing_reads_the_environment(self):
        # a run's settings come from its config and command line alone, so a
        # stale variable cannot change a run that its command does not show
        sites = set()
        for path in sorted(Path(adaptdet.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            sites |= {(path.name, *site) for site in self._environment_reads(tree, None, set())}
        assert sites == set()

    @classmethod
    def _integer_reads(cls, node, owner, params, found):
        """(enclosing function, call) of every operator.index call below
        `node`, and of every int() applied to a parameter of its function."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = child.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                name = getattr(child, "name", "<lambda>")
                cls._integer_reads(child, f"{owner}.{name}" if owner else name, names, found)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Attribute) and func.attr == "index"
                        and getattr(func.value, "id", None) == "operator"):
                    found.add((owner, "operator.index"))
                if getattr(func, "id", None) == "int" and any(
                        isinstance(arg, ast.Name) and arg.id in params for arg in child.args):
                    found.add((owner, "int"))
            elif isinstance(child, ast.ImportFrom) and child.module == "operator":
                found.add((owner, "from operator import"))
            cls._integer_reads(child, owner, params, found)
        return found

    def test_only_check_integer_reads_an_integer_argument(self):
        # int() truncates: trial 2.9 would replay trial 2 and seed 2.9 run seed 2;
        # the command line's parser alone reads decimal text
        sites = set()
        for path in sorted(Path(adaptdet.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            sites |= {(path.name, *site) for site in self._integer_reads(tree, None, set(), set())}
        assert sites == {("scenario.py", "check_integer", "operator.index"),
                         ("cli.py", "_int_at_least.parse", "int")}
