from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adaptdet import kernels
from adaptdet.detectors import DetectorKind, statistics
from adaptdet.montecarlo import simulate_statistics
from adaptdet.scenario import (complex_gaussian, make_scenario, make_signal, random_directions,
                               scale_to_snr)
from adaptdet.transform import signal_coefficient, transform_stack

from oracles import (amgdd_projection_form, glrgdd_raw_form, mp_glr_pair, mp_two_step,
                     ru_am_direct, ru_glr_direct)


def _batch(scenario, trials, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    xb = np.empty((trials, scenario.N, scenario.K), dtype=np.complex128)
    xlb = np.empty((trials, scenario.N, scenario.L), dtype=np.complex128)
    for t in range(trials):
        xb[t] = scenario.coloring @ complex_gaussian(rng, scenario.N, scenario.K)
        xlb[t] = scenario.coloring @ complex_gaussian(rng, scenario.N, scenario.L)
    return xb, xlb


def _engine_stacks(scenario, trials, seed, signal=None):
    """Kernel inputs for a stack of trials, built as the Monte Carlo engine does."""
    xb, xlb = _batch(scenario, trials, seed)
    if signal is not None:
        xb = xb + signal
    return {"scenario": scenario, "x": xb, "x_l": xlb,
            "td": transform_stack(xb, xlb, scenario.waveform)}


_SCENARIO = make_scenario(6, 10, 2, 2, 8, rho=0.95, seed=21)
_SNRS_DB = (0.0, 20.0, 40.0, 60.0)


def _signal(snr_db):
    """The signal matrix at `snr_db` and its (1, J, M) coefficient stack."""
    theta_dir, alpha = random_directions(_SCENARIO.J, _SCENARIO.M, 7)
    theta = scale_to_snr(_SCENARIO, theta_dir, alpha, snr_db)
    return (make_signal(_SCENARIO.A, theta, alpha, _SCENARIO.C),
            signal_coefficient(_SCENARIO.waveform, theta, alpha)[None])


def _zero(sc):
    return kernels.no_signal(sc.J, sc.M)


@pytest.fixture(scope="module")
def stacks():
    return _engine_stacks(_SCENARIO, 32, 5)


_KINDS = [DetectorKind.GLRGDD_RU, DetectorKind.AMGDD_RU, DetectorKind.BOSE_GLRT,
          DetectorKind.GLRGDD, DetectorKind.AMGDD]


def _kernel_values(stacks, c):
    """The five statistics, (trials, P, 5), computed from noise stacks and a
    coefficient stack: [GLRGDD-RU, AMGDD-RU, Bose, GLRGDD, AMGDD]."""
    return statistics(_KINDS, stacks["td"], stacks["scenario"].A, c)


def _assert_match_oracles(values, stacks):
    # Reference values come from the explicit-inverse oracles in tests/oracles.py,
    # which share no code with the kernels; `stacks` holds the data with any
    # signal already added.
    sc, a, td = stacks["scenario"], stacks["scenario"].A, stacks["td"]
    for t in range(values.shape[0]):
        x_par = td.x_par[t]
        x, x_l = stacks["x"][t], stacks["x_l"][t]
        expected = [ru_glr_direct(x_par, td.s_plus[t], a),
                    ru_am_direct(x_par, td.s_plus[t], a),
                    ru_glr_direct(x_par, td.s_perp[t], a),
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


@pytest.mark.parametrize("snr_db", [60.0, 90.0, 120.0])
def test_glr_statistics_stay_accurate_near_their_bound(snr_db):
    # Against mpmath on the same float noise and estimates, with X_par + A c
    # formed in mpmath: GLRGDD and the two-step statistics keep their relative
    # accuracy and the bounded statistics their absolute accuracy, although
    # 1 - t falls to ~1e-12.
    st = _engine_stacks(_SCENARIO, 3, 13)
    hermitian = {key: 0.5 * (s + np.conj(np.swapaxes(s, 1, 2)))
                 for key, s in vars(st["td"]).items() if key.startswith("s_")}
    td = st["td"] = replace(st["td"], **hermitian)
    c = _signal(snr_db)[1]
    values = _kernel_values(st, c)[:, 0]
    ulp = 2.0 ** -52
    for t in range(values.shape[0]):
        t_ru, t_full = mp_glr_pair(td.x_par[t], td.s_plus[t], _SCENARIO.A, c[0])
        t_bose, _ = mp_glr_pair(td.x_par[t], td.s_perp[t], _SCENARIO.A, c[0])
        t_am_ru = mp_two_step(td.x_par[t], td.s_plus[t], _SCENARIO.A, c[0])
        t_am = mp_two_step(td.x_par[t], td.s_train[t], _SCENARIO.A, c[0])
        assert abs(values[t, 0] - t_ru) <= 2 * ulp
        assert abs(values[t, 2] - t_bose) <= 2 * ulp
        assert abs(values[t, 3] - t_full) <= 1e-12 * t_full
        assert abs(values[t, 1] - t_am_ru) <= 1e-12 * t_am_ru
        assert abs(values[t, 4] - t_am) <= 1e-12 * t_am


@pytest.mark.parametrize("j", [1, 3])
def test_kernels_match_oracles_at_other_subspace_ranks(j):
    # J = 1 takes the closed-form norm and J = 3 the eigvalsh path; both on a
    # two-point grid, against the same oracles as the J = 2 tests above
    sc = make_scenario(6, 10, 2, j, 8, rho=0.95, seed=21)
    theta_dir, alpha = random_directions(j, sc.M, 7)
    thetas = [scale_to_snr(sc, theta_dir, alpha, snr) for snr in (0.0, 20.0)]
    c = np.array([signal_coefficient(sc.waveform, theta, alpha) for theta in thetas])
    values = _kernel_values(_engine_stacks(sc, 6, 9), c)
    for p, theta in enumerate(thetas):
        signal = make_signal(sc.A, theta, alpha, sc.C)
        _assert_match_oracles(values[:, p], _engine_stacks(sc, 6, 9, signal))


@st.composite
def _gram_factors(draw):
    """A J x M matrix Y, J and M in 1..3, with entries from 1e-100 to 1e100."""
    j, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    magnitude = st.builds(lambda f, e: f * 10.0 ** e, st.floats(1.0, 10.0),
                          st.integers(-100, 99))
    shape = draw(st.sampled_from(["generic", "rank_one", "near_degenerate"]))
    if shape == "near_degenerate" and j == 2 and m >= 2:
        # a = d (1 - delta^2) and |b| = delta a, with delta down to 1e-20
        delta = 10.0 ** -draw(st.integers(1, 20))
        y = np.zeros((2, m), dtype=np.complex128)
        y[0, 0], y[1, 1] = 1.0, 1.0
        y[1, 0] = delta * np.exp(1j * draw(st.floats(0.0, 6.3)))
        return draw(magnitude) * y
    y = np.array([[draw(magnitude) * np.exp(1j * draw(st.floats(0.0, 6.3)))
                   for _ in range(m)] for _ in range(j)])
    if shape == "rank_one":
        # M = 1 with J = 2 is rank deficient too
        y = np.array([draw(st.floats(0.1, 1.0)) for _ in range(j)])[:, None] * y[:1]
    return y


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_gram_factors())
def test_top_eigenvalue_matches_eigvalsh(y):
    # eigvalsh itself is off by up to ~7 ulp on rank-one 2 x 2 Grams, where
    # the closed form stays within ~1 ulp of an mpmath evaluation
    expected = np.linalg.eigvalsh(y @ y.conj().T)[-1]
    value = kernels.am(y[None])[0]
    assert abs(value - expected) <= 16 * 2.0 ** -52 * expected


def test_zero_column_training_batch(stacks):
    # Bose's GLRT: the augmented SCM built from the virtual training data alone
    sc = stacks["scenario"]
    v, r = kernels.reduce(stacks["td"].x_par, stacks["td"].s_perp, sc.A, _zero(sc))
    out = np.stack([kernels.bounded(kernels.glr(v, r)), kernels.am(v)], axis=-1)
    assert out.shape == (stacks["x"].shape[0], 1, 2)
    assert np.all((out[..., 0] >= 0) & (out[..., 0] < 1))


@pytest.mark.parametrize("kinds, calls", [
    (_KINDS, 3),
    ([DetectorKind.GLRGDD_RU, DetectorKind.AMGDD_RU, DetectorKind.GLRGDD], 1),
    ([DetectorKind.BOSE_GLRT], 1),
    ([DetectorKind.AMGDD], 1),
    ([DetectorKind.AMGDD, DetectorKind.AMGDD_RU], 2),
])
def test_one_reduction_per_covariance_estimate(stacks, monkeypatch, kinds, calls):
    # S_perp, S and S_plus are each factored once per statistics call, however
    # many kinds and grid points read them
    reduce, seen = kernels.reduce, []

    def counted(*args, **kwargs):
        seen.append(args)
        return reduce(*args, **kwargs)

    monkeypatch.setattr(kernels, "reduce", counted)
    c = np.concatenate([_zero(_SCENARIO)] + [_signal(snr)[1] for snr in _SNRS_DB])
    values = statistics(kinds, stacks["td"], _SCENARIO.A, c)
    assert values.shape == (stacks["x"].shape[0], c.shape[0], len(kinds))
    assert len(seen) == calls


def test_reduction_reads_no_entry_above_the_diagonal(stacks, monkeypatch):
    # reduce leaves the block above the border unset: numpy's Cholesky reads
    # the lower triangle only, so NaN there gives bitwise the same reduction
    td, a = stacks["td"], stacks["scenario"].A
    trials, n, m = td.x_par.shape
    size = kernels.bordered_size(n, a.shape[1], m)
    factored = []
    cholesky = np.linalg.cholesky

    def recorded(h):
        factored.append(h.copy())
        return cholesky(h)

    monkeypatch.setattr(np.linalg, "cholesky", recorded)
    c = kernels.no_signal(a.shape[1], m)
    zero = kernels.reduce(td.x_par, td.s_perp, a, c, plus=td.s_train,
                          out=np.zeros(trials * size, dtype=np.complex128))
    nan = kernels.reduce(td.x_par, td.s_perp, a, c, plus=td.s_train,
                         out=np.full(trials * size, np.nan, dtype=np.complex128))
    above = factored[2][:, :n, n:]
    assert above.size and np.isnan(above).all()
    for got, expected in zip(nan, zero):
        assert np.array_equal(got, expected)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bounded_of_an_infinite_mu_is_nan_without_a_warning():
    mu = np.array([0.0, 0.37, 2.5e3, np.inf, np.nan])
    out = kernels.bounded(mu)
    assert out[:3].tobytes() == (mu[:3] / (1.0 + mu[:3])).tobytes()
    assert np.isnan(out[3:]).all()


@pytest.mark.parametrize("estimate", ["s_plus", "s_perp"])
def test_bounded_column_alone_is_bitwise_the_pair_column(estimate):
    # The engine computes the bounded statistic of an estimate alone (Bose's
    # GLRT on S_perp, or GLRGDD-RU requested by itself) or next to the other
    # statistics of the same reduction; either way it is the same column.
    kind = {"s_plus": DetectorKind.GLRGDD_RU, "s_perp": DetectorKind.BOSE_GLRT}[estimate]
    kinds = list(DetectorKind)
    every = simulate_statistics(_SCENARIO, kinds, 40, 3, snr_db=_SNRS_DB)
    alone = simulate_statistics(_SCENARIO, [kind], 40, 3, snr_db=_SNRS_DB)
    assert np.array_equal(alone[..., 0], every[..., kinds.index(kind)])


@pytest.mark.parametrize("low_sample", [False, True])
def test_trial_is_bitwise_independent_of_its_stack(stacks, low_sample):
    # Byte-identical output across thread counts relies on the trial axis, and
    # a grid that can be extended or cut relies on the point axis.  At L < N
    # and K < M + N the transform keeps Y = [X_perp, X_L] in place of S_perp
    # and the training SCM, and only the two RU kinds are valid.
    c = np.concatenate([_zero(_SCENARIO)] + [_signal(snr)[1] for snr in _SNRS_DB])
    kinds = _KINDS
    if low_sample:
        stacks = _engine_stacks(make_scenario(10, 6, 2, 2, 7, rho=0.9, seed=3), 12, 5)
        kinds = _KINDS[:2]
    a = stacks["scenario"].A
    full = statistics(kinds, stacks["td"], a, c)
    for t in range(full.shape[0]):
        one = stacks["td"][t:t + 1]
        for p in range(c.shape[0]):
            assert np.array_equal(statistics(kinds, one, a, c[p:p + 1])[0, 0], full[t, p])


def test_monotone_map_between_scm_families(stacks):
    # GLRGDD = t / (1 - t) of GLRGDD-RU, as computed on the engine's stacks
    a = stacks["scenario"].A
    c = np.concatenate([_zero(_SCENARIO)] + [_signal(snr)[1] for snr in _SNRS_DB[:2]])
    t_ru = _kernel_values(stacks, c)[..., 0]
    t_full = _kernel_values(stacks, c)[..., 3]
    assert np.all(np.abs(t_full - t_ru / (1.0 - t_ru)) <= 1e-8 * (1.0 + t_full))


def test_square_waveform_subspace_two_step_agreement():
    # K = M: no virtual training data, so AMGDD-RU and AMGDD coincide
    scenario = make_scenario(4, 3, 3, 2, 6, rho=0.5, seed=22)
    td = _engine_stacks(scenario, 16, 6)["td"]
    values = statistics([DetectorKind.AMGDD_RU, DetectorKind.AMGDD], td, scenario.A,
                        _zero(scenario))
    assert np.allclose(values[..., 0], values[..., 1], rtol=1e-12, atol=0.0)
