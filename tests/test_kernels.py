import numpy as np
import pytest

from adaptdet import kernels
from adaptdet.scenario import (as_generator, make_scenario, make_signal, random_directions,
                               sample_noise, scale_to_snr)
from adaptdet.transform import factor_waveform_subspace

from oracles import (amgdd_projection_form, dagger, glrgdd_raw_form, ru_am_direct,
                     ru_glr_direct)


def _batch(scenario, trials, seed):
    rng = as_generator(seed)
    xb = np.empty((trials, scenario.N, scenario.K), dtype=np.complex128)
    xlb = np.empty((trials, scenario.N, scenario.L), dtype=np.complex128)
    for t in range(trials):
        xb[t] = sample_noise(scenario.R, scenario.K, rng)
        xlb[t] = sample_noise(scenario.R, scenario.L, rng)
    return xb, xlb


def _engine_stacks(scenario, trials, seed, signal=None):
    """Kernel inputs for a stack of trials, built as the Monte Carlo engine does."""
    f = factor_waveform_subspace(scenario.C)
    xb, xlb = _batch(scenario, trials, seed)
    if signal is not None:
        xb = xb + signal
    x_par = xb @ dagger(f.c_par)
    x_perp = xb @ dagger(f.c_perp)
    s_perp = x_perp @ np.conj(np.swapaxes(x_perp, 1, 2))
    s_train = xlb @ np.conj(np.swapaxes(xlb, 1, 2))
    return {"scenario": scenario, "c_par": f.c_par, "x": xb, "x_l": xlb,
            "x_par": x_par, "s_plus": s_perp + s_train, "s_perp": s_perp,
            "s_train": s_train}


_SCENARIO = make_scenario(6, 10, 2, 2, 8, rho=0.95, seed=21)


@pytest.fixture(scope="module")
def stacks():
    return _engine_stacks(_SCENARIO, 32, 5)


def _assert_kernels_match_oracles(stacks):
    # Reference values come from the explicit-inverse oracles in tests/oracles.py,
    # which share no code with the kernels.
    sc, a = stacks["scenario"], stacks["scenario"].A
    ru = kernels.ru_statistics(stacks["x_par"], stacks["s_plus"], a)
    bose = kernels.glrgdd_ru_statistic(stacks["x_par"], stacks["s_perp"], a)
    classic = kernels.classic_statistics(stacks["x"], stacks["s_train"], a, stacks["c_par"])
    for t in range(ru.shape[0]):
        x_par = stacks["x_par"][t]
        x, x_l = stacks["x"][t], stacks["x_l"][t]
        assert ru[t, 0] == pytest.approx(ru_glr_direct(x_par, stacks["s_plus"][t], a),
                                         rel=1e-8)
        assert ru[t, 1] == pytest.approx(ru_am_direct(x_par, stacks["s_plus"][t], a),
                                         rel=1e-8)
        assert bose[t] == pytest.approx(ru_glr_direct(x_par, stacks["s_perp"][t], a),
                                        rel=1e-8)
        assert classic[t, 0] == pytest.approx(glrgdd_raw_form(x, x_l, a, sc.C), rel=1e-8)
        assert classic[t, 1] == pytest.approx(amgdd_projection_form(x, x_l, a, sc.C),
                                              rel=1e-8)


def test_kernels_match_public_reference_path(stacks):
    _assert_kernels_match_oracles(stacks)


@pytest.mark.parametrize("snr_db", [0.0, 20.0, 40.0, 60.0])
def test_kernels_match_oracles_on_signal_data(snr_db):
    # H1 stacks, with the signal scaled and placed as the engine does
    theta, alpha = random_directions(_SCENARIO.J, _SCENARIO.M, 7)
    coords = scale_to_snr(_SCENARIO, theta, alpha, snr_db)
    signal = make_signal(_SCENARIO.A, coords.theta, coords.alpha, _SCENARIO.C)
    _assert_kernels_match_oracles(_engine_stacks(_SCENARIO, 12, 9, signal))


def test_zero_column_training_batch(stacks):
    # Bose's GLRT: the augmented SCM built from the virtual training data alone
    out = kernels.ru_statistics(stacks["x_par"], stacks["s_perp"], stacks["scenario"].A)
    assert out.shape == (stacks["x"].shape[0], 2)
    assert np.all((out[:, 0] >= 0) & (out[:, 0] < 1))


@pytest.mark.parametrize("estimate", ["s_plus", "s_perp"])
def test_bounded_column_alone_is_bitwise_the_pair_column(stacks, estimate):
    # the engine's Bose pass computes only this column
    a = stacks["scenario"].A
    pair = kernels.ru_statistics(stacks["x_par"], stacks[estimate], a)
    alone = kernels.glrgdd_ru_statistic(stacks["x_par"], stacks[estimate], a)
    assert np.array_equal(alone, pair[:, 0])


def test_trial_is_bitwise_independent_of_its_stack(stacks):
    # Byte-identical output across thread counts relies on this.
    a = stacks["scenario"].A
    ru = kernels.ru_statistics(stacks["x_par"], stacks["s_plus"], a)
    classic = kernels.classic_statistics(stacks["x"], stacks["s_train"], a, stacks["c_par"])
    bose = kernels.glrgdd_ru_statistic(stacks["x_par"], stacks["s_perp"], a)
    for t in range(ru.shape[0]):
        one = slice(t, t + 1)
        alone_ru = kernels.ru_statistics(stacks["x_par"][one], stacks["s_plus"][one], a)
        alone_cl = kernels.classic_statistics(stacks["x"][one], stacks["s_train"][one], a,
                                              stacks["c_par"])
        alone_bose = kernels.glrgdd_ru_statistic(stacks["x_par"][one], stacks["s_perp"][one], a)
        assert np.array_equal(alone_ru[0], ru[t])
        assert np.array_equal(alone_cl[0], classic[t])
        assert np.array_equal(alone_bose[0], bose[t])


def test_monotone_map_between_scm_families(stacks):
    # GLRGDD = t / (1 - t) of GLRGDD-RU, as computed on the engine's stacks
    a = stacks["scenario"].A
    t_ru = kernels.ru_statistics(stacks["x_par"], stacks["s_plus"], a)[:, 0]
    t_full = kernels.classic_statistics(stacks["x"], stacks["s_train"], a,
                                        stacks["c_par"])[:, 0]
    assert np.all(np.abs(t_full - t_ru / (1.0 - t_ru)) <= 1e-8 * (1.0 + t_full))


def test_square_waveform_subspace_two_step_agreement():
    # K = M: no virtual training data, so AMGDD-RU and AMGDD coincide
    scenario = make_scenario(4, 3, 3, 2, 6, rho=0.5, seed=22)
    c_par = factor_waveform_subspace(scenario.C).c_par
    xb, xlb = _batch(scenario, 16, 6)
    s_train = xlb @ np.conj(np.swapaxes(xlb, 1, 2))
    ru = kernels.ru_statistics(xb @ dagger(c_par), s_train, scenario.A)
    classic = kernels.classic_statistics(xb, s_train, scenario.A, c_par)
    assert np.allclose(ru[:, 1], classic[:, 1], rtol=1e-12, atol=0.0)
