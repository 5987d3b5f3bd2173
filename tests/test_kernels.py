import numpy as np
import pytest

from adaptdet import kernels
from adaptdet.scenario import (as_generator, make_scenario, make_signal, random_directions,
                               sample_noise, scale_to_snr)
from adaptdet.transform import factor_waveform_subspace, signal_coefficient

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
_SNRS_DB = (0.0, 20.0, 40.0, 60.0)


def _signal(snr_db):
    """The signal matrix at `snr_db` and its (1, J, M) coefficient stack."""
    theta, alpha = random_directions(_SCENARIO.J, _SCENARIO.M, 7)
    coords = scale_to_snr(_SCENARIO, theta, alpha, snr_db)
    f = factor_waveform_subspace(_SCENARIO.C)
    return (make_signal(_SCENARIO.A, coords.theta, coords.alpha, _SCENARIO.C),
            signal_coefficient(f, coords.theta, coords.alpha)[None])


def _zero(sc):
    return kernels.no_signal(sc.J, sc.M)


@pytest.fixture(scope="module")
def stacks():
    return _engine_stacks(_SCENARIO, 32, 5)


def _kernel_values(stacks, c):
    """The five statistics, (trials, P, 5), computed from noise stacks and a
    coefficient stack: [GLRGDD-RU, AMGDD-RU, Bose, GLRGDD, AMGDD]."""
    a = stacks["scenario"].A
    ru = kernels.ru_statistics(stacks["x_par"], stacks["s_plus"], a, c)
    bose = kernels.glrgdd_ru_statistic(stacks["x_par"], stacks["s_perp"], a, c)
    classic = kernels.classic_statistics(stacks["x"], stacks["s_train"], a,
                                         stacks["c_par"], c)
    return np.concatenate([ru, bose[..., None], classic], axis=-1)


def _assert_match_oracles(values, stacks):
    # Reference values come from the explicit-inverse oracles in tests/oracles.py,
    # which share no code with the kernels; `stacks` holds the data with any
    # signal already added.
    sc, a = stacks["scenario"], stacks["scenario"].A
    for t in range(values.shape[0]):
        x_par = stacks["x_par"][t]
        x, x_l = stacks["x"][t], stacks["x_l"][t]
        expected = [ru_glr_direct(x_par, stacks["s_plus"][t], a),
                    ru_am_direct(x_par, stacks["s_plus"][t], a),
                    ru_glr_direct(x_par, stacks["s_perp"][t], a),
                    glrgdd_raw_form(x, x_l, a, sc.C),
                    amgdd_projection_form(x, x_l, a, sc.C)]
        for value, ref in zip(values[t], expected):
            assert value == pytest.approx(ref, rel=1e-8)


def test_kernels_match_public_reference_path(stacks):
    _assert_match_oracles(_kernel_values(stacks, _zero(_SCENARIO))[:, 0], stacks)


@pytest.fixture(scope="module")
def signal_values():
    # one kernel call over the whole SNR stack, on noise stacks of 12 trials
    c = np.concatenate([_signal(snr)[1] for snr in _SNRS_DB])
    return _kernel_values(_engine_stacks(_SCENARIO, 12, 9), c)


@pytest.mark.parametrize("snr_db", _SNRS_DB)
def test_kernels_match_oracles_on_signal_data(signal_values, snr_db):
    # kernels: the noise and the signal coefficient; oracles: X + the signal matrix
    signal, _ = _signal(snr_db)
    values = signal_values[:, _SNRS_DB.index(snr_db)]
    _assert_match_oracles(values, _engine_stacks(_SCENARIO, 12, 9, signal))


def test_zero_column_training_batch(stacks):
    # Bose's GLRT: the augmented SCM built from the virtual training data alone
    sc = stacks["scenario"]
    out = kernels.ru_statistics(stacks["x_par"], stacks["s_perp"], sc.A, _zero(sc))
    assert out.shape == (stacks["x"].shape[0], 1, 2)
    assert np.all((out[..., 0] >= 0) & (out[..., 0] < 1))


@pytest.mark.parametrize("estimate", ["s_plus", "s_perp"])
def test_bounded_column_alone_is_bitwise_the_pair_column(stacks, estimate):
    # the engine's Bose pass computes only this column
    a = stacks["scenario"].A
    c = np.concatenate([_signal(snr)[1] for snr in _SNRS_DB])
    pair = kernels.ru_statistics(stacks["x_par"], stacks[estimate], a, c)
    alone = kernels.glrgdd_ru_statistic(stacks["x_par"], stacks[estimate], a, c)
    assert np.array_equal(alone, pair[..., 0])


def test_trial_is_bitwise_independent_of_its_stack(stacks):
    # Byte-identical output across thread counts relies on the trial axis, and
    # a grid that can be extended or cut relies on the point axis.
    c = np.concatenate([_zero(_SCENARIO)] + [_signal(snr)[1] for snr in _SNRS_DB])
    full = _kernel_values(stacks, c)
    for t in range(full.shape[0]):
        one = {key: (val[t:t + 1] if key in ("x", "x_l", "x_par", "s_plus", "s_perp",
                                             "s_train") else val)
               for key, val in stacks.items()}
        for p in range(c.shape[0]):
            assert np.array_equal(_kernel_values(one, c[p:p + 1])[0, 0], full[t, p])


def test_monotone_map_between_scm_families(stacks):
    # GLRGDD = t / (1 - t) of GLRGDD-RU, as computed on the engine's stacks
    a = stacks["scenario"].A
    c = np.concatenate([_zero(_SCENARIO)] + [_signal(snr)[1] for snr in _SNRS_DB[:2]])
    t_ru = kernels.ru_statistics(stacks["x_par"], stacks["s_plus"], a, c)[..., 0]
    t_full = kernels.classic_statistics(stacks["x"], stacks["s_train"], a,
                                        stacks["c_par"], c)[..., 0]
    assert np.all(np.abs(t_full - t_ru / (1.0 - t_ru)) <= 1e-8 * (1.0 + t_full))


def test_square_waveform_subspace_two_step_agreement():
    # K = M: no virtual training data, so AMGDD-RU and AMGDD coincide
    scenario = make_scenario(4, 3, 3, 2, 6, rho=0.5, seed=22)
    c_par = factor_waveform_subspace(scenario.C).c_par
    xb, xlb = _batch(scenario, 16, 6)
    s_train = xlb @ np.conj(np.swapaxes(xlb, 1, 2))
    zero = _zero(scenario)
    ru = kernels.ru_statistics(xb @ dagger(c_par), s_train, scenario.A, zero)
    classic = kernels.classic_statistics(xb, s_train, scenario.A, c_par, zero)
    assert np.allclose(ru[..., 1], classic[..., 1], rtol=1e-12, atol=0.0)
