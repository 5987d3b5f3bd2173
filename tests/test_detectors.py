import numpy as np
import pytest

import adaptdet.detectors
from adaptdet.detectors import DetectorKind, Statistic, appendix_identities, compute, evaluate
from adaptdet.errors import SingularMatrixError
from adaptdet.montecarlo import DOMAIN_SIGNAL, replay_trial
from adaptdet.scenario import (make_scenario, make_signal, random_directions, scale_to_snr,
                               toeplitz_covariance)
from adaptdet.transform import factor_waveform_subspace, transform_stack
from adaptdet.verify import REGIMES, instance_stream, random_instance, run_verification

from oracles import (amgdd_projection_form, glrgdd_raw_form, mp_glr_pair, random_cmatrix,
                     ru_am_direct, ru_glr_direct)


def _instances(regime, seed, count):
    return (inst for _, inst in instance_stream(seed, count, regimes=(regime,)))


def _philox_instance(regime, seed, *key):
    """An instance pinned by its data: drawn as stream layout 4 drew it."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))
    return random_instance(regime, rng)


def _zero_training_row(inst):
    x_l = inst.x_l.copy()
    x_l[0] = 0.0
    return x_l


class TestDetectorKind:
    def test_ru_constraint(self):
        with pytest.raises(ValueError, match=r"GLRGDD_RU requires L\+K >= M\+N"):
            DetectorKind.GLRGDD_RU.check_dims(n=12, k=3, m=3, l=11)

    def test_classic_constraint(self):
        with pytest.raises(ValueError, match="GLRGDD requires L >= N"):
            DetectorKind.GLRGDD.check_dims(n=12, k=16, m=3, l=11)

    def test_bose_constraint(self):
        with pytest.raises(ValueError, match=r"BOSE_GLRT requires K >= M\+N"):
            DetectorKind.BOSE_GLRT.check_dims(n=12, k=14, m=3, l=14)

    def test_is_valid(self):
        assert DetectorKind.AMGDD_RU.is_valid(12, 6, 3, 11)
        assert not DetectorKind.AMGDD.is_valid(12, 6, 3, 11)


class TestStatisticInvariants:
    def test_rejects_negative_value(self):
        with pytest.raises(ValueError, match=">= 0"):
            Statistic(-0.1, DetectorKind.AMGDD)

    def test_rejects_bounded_kind_at_one(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            Statistic(1.0, DetectorKind.GLRGDD_RU)

    def test_unbounded_kind_accepts_large_values(self):
        assert Statistic(17.5, DetectorKind.AMGDD).value == 17.5


class TestRuFamily:
    def test_zero_signal_block_gives_zero(self):
        rng = np.random.default_rng(0)
        c = random_cmatrix(rng, 2, 7)
        f = factor_waveform_subspace(c)
        # X built from complement rows only, so X C_par^H = 0
        x = random_cmatrix(rng, 4, 5) @ f.c_perp
        x_l = random_cmatrix(rng, 4, 6)
        for kind in (DetectorKind.GLRGDD_RU, DetectorKind.AMGDD_RU):
            assert compute(kind, x, x_l, random_cmatrix(rng, 4, 2), c).value <= 1e-12

    def test_scalar_glr_case(self):
        value = compute(DetectorKind.GLRGDD_RU, [[1.0]], [[1.0]], [[1.0]], [[1.0]]).value
        assert value == pytest.approx(0.5, rel=1e-12)

    def test_scalar_two_step_case(self):
        value = compute(DetectorKind.AMGDD_RU, [[1.0]], [[np.sqrt(2.0)]], [[1.0]], [[1.0]]).value
        assert value == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("regime", ["abundant", "lowsample"])
    def test_matches_explicit_inversion_oracle(self, regime):
        for inst in _instances(regime, 100, 10):
            td = transform_stack(inst.x, inst.x_l, factor_waveform_subspace(inst.c))
            glr = compute(DetectorKind.GLRGDD_RU, inst.x, inst.x_l, inst.a, inst.c).value
            am = compute(DetectorKind.AMGDD_RU, inst.x, inst.x_l, inst.a, inst.c).value
            assert glr == pytest.approx(ru_glr_direct(td.x_par, td.s_plus, inst.a), rel=1e-8)
            assert am == pytest.approx(ru_am_direct(td.x_par, td.s_plus, inst.a), rel=1e-8)

    def test_bounded_strictly_below_one(self):
        for inst in _instances("lowsample", 101, 20):
            value = compute(DetectorKind.GLRGDD_RU, inst.x, inst.x_l, inst.a, inst.c).value
            assert value < 1.0 - 1e-12


class TestGlrgdd:
    def test_zero_test_data_gives_zero(self):
        inst = next(_instances("abundant", 102, 1))
        value = compute(DetectorKind.GLRGDD, np.zeros_like(inst.x), inst.x_l, inst.a, inst.c).value
        assert value <= 1e-12

    def test_scale_invariance(self):
        inst = next(_instances("abundant", 103, 1))
        base = compute(DetectorKind.GLRGDD, inst.x, inst.x_l, inst.a, inst.c).value
        for c in (0.5, 2.0 + 1.0j, 300.0):
            scaled = compute(DetectorKind.GLRGDD, c * inst.x, c * inst.x_l, inst.a, inst.c).value
            assert abs(scaled - base) <= 1e-10 * (1.0 + abs(base))

    def test_monotone_map_to_ru_statistic(self):
        for inst in _instances("abundant", 104, 20):
            t_full = compute(DetectorKind.GLRGDD, inst.x, inst.x_l, inst.a, inst.c).value
            t_ru = compute(DetectorKind.GLRGDD_RU, inst.x, inst.x_l, inst.a, inst.c).value
            assert abs(t_full - t_ru / (1.0 - t_ru)) <= 1e-8 * (1.0 + t_full)

    def test_matches_raw_whitened_form(self):
        for inst in _instances("abundant", 105, 10):
            ours = compute(DetectorKind.GLRGDD, inst.x, inst.x_l, inst.a, inst.c).value
            reference = glrgdd_raw_form(inst.x, inst.x_l, inst.a, inst.c)
            assert ours == pytest.approx(reference, rel=1e-8)

    def test_requires_sample_abundance(self):
        inst = next(_instances("lowsample", 106, 1))
        with pytest.raises(ValueError, match="GLRGDD requires L >= N"):
            compute(DetectorKind.GLRGDD, inst.x, inst.x_l, inst.a, inst.c)

    def test_ill_conditioned_square_instance_matches_mpmath(self):
        # `adaptdet verify --seed 10` instance 99 of stream layout 4: square,
        # L = N = 3, cond(S) 1.8e6.  Cholesky reads one triangle of the Gram, so
        # an unsymmetrized Gram put GLRGDD 3.3e-8 off here.
        idx = 99
        inst = _philox_instance(REGIMES[idx % len(REGIMES)], 10, idx)
        td = transform_stack(inst.x, inst.x_l, factor_waveform_subspace(inst.c))
        t_ru, t_full = mp_glr_pair(td.x_par, td.s_plus, inst.a, np.zeros((inst.j, inst.m)))
        stats = evaluate([DetectorKind.GLRGDD, DetectorKind.GLRGDD_RU],
                         inst.x, inst.x_l, inst.a, inst.c)
        assert stats[DetectorKind.GLRGDD].value == pytest.approx(float(t_full), rel=1e-9)
        assert stats[DetectorKind.GLRGDD_RU].value == pytest.approx(float(t_ru), rel=1e-9)

    def test_zero_training_row_is_a_singular_scm(self):
        inst = next(_instances("abundant", 120, 1))
        with pytest.raises(SingularMatrixError, match="singular covariance estimate: SCM"):
            compute(DetectorKind.GLRGDD, inst.x, _zero_training_row(inst), inst.a, inst.c)


class TestAmgdd:
    def test_zero_test_data_gives_zero(self):
        inst = next(_instances("abundant", 107, 1))
        value = compute(DetectorKind.AMGDD, np.zeros_like(inst.x), inst.x_l, inst.a, inst.c).value
        assert value <= 1e-12

    def test_square_subspace_equals_ru_variant(self):
        for inst in _instances("square", 108, 10):
            classic = compute(DetectorKind.AMGDD, inst.x, inst.x_l, inst.a, inst.c).value
            ru = compute(DetectorKind.AMGDD_RU, inst.x, inst.x_l, inst.a, inst.c).value
            assert abs(classic - ru) <= 1e-12 * max(1.0, abs(ru))

    def test_matches_projection_form(self):
        for inst in _instances("abundant", 109, 10):
            ours = compute(DetectorKind.AMGDD, inst.x, inst.x_l, inst.a, inst.c).value
            reference = amgdd_projection_form(inst.x, inst.x_l, inst.a, inst.c)
            assert ours == pytest.approx(reference, rel=1e-8)

    def test_requires_sample_abundance(self):
        inst = next(_instances("lowsample", 110, 1))
        with pytest.raises(ValueError, match="AMGDD requires L >= N"):
            compute(DetectorKind.AMGDD, inst.x, inst.x_l, inst.a, inst.c)

    def test_zero_training_row_is_a_singular_scm(self):
        inst = next(_instances("abundant", 121, 1))
        with pytest.raises(SingularMatrixError, match="singular covariance estimate: SCM"):
            compute(DetectorKind.AMGDD, inst.x, _zero_training_row(inst), inst.a, inst.c)


class TestBoseGlrt:
    def test_equals_ru_statistic_without_training_data(self):
        for inst in _instances("notraining", 111, 10):
            direct = compute(DetectorKind.BOSE_GLRT, inst.x, np.zeros((inst.n, 0)),
                             inst.a, inst.c).value
            via_ru = compute(DetectorKind.GLRGDD_RU, inst.x,
                             np.zeros((inst.n, 0), complex), inst.a, inst.c).value
            assert abs(direct - via_ru) <= 1e-12 * max(1.0, via_ru)

    def test_zero_signal_block_gives_zero(self):
        rng = np.random.default_rng(5)
        c = random_cmatrix(rng, 2, 8)
        f = factor_waveform_subspace(c)
        x = random_cmatrix(rng, 3, 6) @ f.c_perp
        a = random_cmatrix(rng, 3, 2)
        assert compute(DetectorKind.BOSE_GLRT, x, np.zeros((3, 0)), a, c).value <= 1e-12

    def test_boundary_dimension_is_finite(self):
        # K = M + N exactly: the virtual SCM has just enough columns
        inst = _philox_instance("notraining", 112)
        x = inst.x[:, :inst.m + inst.n]
        c = inst.c[:, :inst.m + inst.n]
        value = compute(DetectorKind.BOSE_GLRT, x, np.zeros((inst.n, 0)), inst.a, c).value
        assert np.isfinite(value) and 0.0 <= value < 1.0

    def test_rejects_small_test_data(self):
        inst = next(_instances("square", 113, 1))
        with pytest.raises(ValueError, match=r"BOSE_GLRT requires K >= M\+N"):
            compute(DetectorKind.BOSE_GLRT, inst.x, np.zeros((inst.n, 0)), inst.a, inst.c)


class TestAppendixIdentities:
    def test_zero_test_data_is_exact(self):
        inst = next(_instances("abundant", 114, 1))
        residuals = appendix_identities(np.zeros_like(inst.x), inst.x_l, inst.a, inst.c)
        assert residuals["resolvent_contraction"] <= 1e-14
        assert residuals["scm_update_inverse"] <= 1e-12

    def test_square_subspace_collapses_update_chain(self):
        inst = next(_instances("square", 115, 1))
        residuals = appendix_identities(inst.x, inst.x_l, inst.a, inst.c)
        assert residuals["scm_update_inverse"] <= 1e-12

    def test_generic_residuals_at_rounding_level(self):
        for inst in _instances("abundant", 116, 10):
            residuals = appendix_identities(inst.x, inst.x_l, inst.a, inst.c)
            assert len(residuals) == 5
            assert max(residuals.values()) <= 1e-8

    def test_requires_sample_abundance(self):
        inst = next(_instances("lowsample", 117, 1))
        with pytest.raises(ValueError, match="requires L >= N"):
            appendix_identities(inst.x, inst.x_l, inst.a, inst.c)

    def test_zero_training_row_is_a_singular_scm(self):
        inst = _philox_instance("abundant", 120)
        with pytest.raises(SingularMatrixError, match="singular covariance estimate: SCM"):
            appendix_identities(inst.x, _zero_training_row(inst), inst.a, inst.c)


class TestComputeDispatcher:
    def test_each_kind_dispatches(self):
        inst = next(_instances("full", 118, 1))
        for kind in DetectorKind:
            stat = compute(kind, inst.x, inst.x_l, inst.a, inst.c)
            assert stat.kind is kind
            assert stat.value >= 0.0

    def test_checks_validity_first(self):
        inst = next(_instances("lowsample", 119, 1))
        with pytest.raises(ValueError, match="requires"):
            compute(DetectorKind.BOSE_GLRT, inst.x, inst.x_l, inst.a, inst.c)

    def test_rejects_mismatched_shapes(self):
        inst = next(_instances("full", 122, 1))
        with pytest.raises(ValueError, match="dimension mismatch"):
            compute(DetectorKind.AMGDD_RU, inst.x, inst.x_l[1:], inst.a, inst.c)
        with pytest.raises(ValueError, match="dimension mismatch"):
            compute(DetectorKind.GLRGDD, inst.x, inst.x_l, inst.a, inst.c[:, 1:])

    @pytest.mark.parametrize("entry", ["compute", "evaluate"])
    @pytest.mark.parametrize("kind", list(DetectorKind))
    def test_refuses_an_invalid_spatial_subspace(self, kind, entry):
        # every kind's own constraint holds in both cases, and both
        # per-instance entry points validate
        call = {"compute": lambda *data: compute(kind, *data),
                "evaluate": lambda *data: evaluate([kind], *data)}[entry]
        rng = np.random.default_rng(23)
        x, x_l, c = (random_cmatrix(rng, *shape) for shape in ((2, 6), (2, 4), (2, 6)))
        with pytest.raises(ValueError, match="J=3 > N=2"):
            call(x, x_l, random_cmatrix(rng, 2, 3), c)
        x, x_l, c = (random_cmatrix(rng, *shape) for shape in ((6, 10), (6, 8), (2, 10)))
        column = random_cmatrix(rng, 6, 1)
        with pytest.raises(ValueError, match="A must have full column rank"):
            call(x, x_l, np.hstack([column, column]), c)


class TestEvaluate:
    @pytest.mark.parametrize("regime", REGIMES + ("full",))
    def test_equals_per_kind_compute_bitwise(self, regime):
        # "full" is the regime where Bose with L > 0 rides with the RU kinds
        for inst in _instances(regime, 123, 8):
            kinds = inst.valid_kinds()
            stats = evaluate(kinds, inst.x, inst.x_l, inst.a, inst.c)
            assert list(stats) == list(kinds)
            for kind in kinds:
                alone = compute(kind, inst.x, inst.x_l, inst.a, inst.c)
                assert stats[kind].kind is kind and stats[kind].value == alone.value

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e100, 1e150])
    def test_every_kind_keeps_its_value_at_extreme_data_scales(self, scale):
        # the five statistics do not depend on a common scale of X and X_L, and
        # the reductions scale their bordered matrices per trial to match
        sc = make_scenario(12, 16, 3, 2, 14, rho=0.95, seed=26)
        noise, x_l = replay_trial(sc, 31, DOMAIN_SIGNAL, 7)
        theta, alpha = random_directions(sc.J, sc.M, 31)
        x = noise + make_signal(sc.A, scale_to_snr(sc, theta, alpha, 12.0), alpha, sc.C)
        kinds = list(DetectorKind)
        ref = evaluate(kinds, x, x_l, sc.A, sc.C)
        scaled = evaluate(kinds, scale * x, scale * x_l, sc.A, sc.C)
        for kind in kinds:
            assert scaled[kind].value == pytest.approx(ref[kind].value, rel=1e-12, abs=0.0)

    def test_a_lapack_failure_names_the_kinds(self):
        # data built here, not drawn from a package stream: one channel 1e-10
        # below the others passes the check of each estimate, then fails the
        # Cholesky factorization of its bordered matrix
        rng = np.random.default_rng(0)
        a, c = random_cmatrix(rng, 12, 2), random_cmatrix(rng, 3, 16)
        coloring = np.linalg.cholesky(toeplitz_covariance(12, 0.95))
        x, x_l = coloring @ random_cmatrix(rng, 12, 16), coloring @ random_cmatrix(rng, 12, 14)
        x[0] *= 1e-10
        x_l[0] *= 1e-10
        kinds = [DetectorKind.GLRGDD_RU, DetectorKind.AMGDD_RU, DetectorKind.GLRGDD,
                 DetectorKind.AMGDD]
        with pytest.raises(SingularMatrixError, match="ill-conditioned covariance estimate "
                                                      "for GLRGDD_RU, AMGDD_RU, GLRGDD, AMGDD$"):
            evaluate(kinds, x, x_l, a, c)

    def test_checks_every_kind(self):
        inst = next(_instances("lowsample", 124, 1))
        with pytest.raises(ValueError, match=r"BOSE_GLRT requires K >= M\+N"):
            evaluate([DetectorKind.GLRGDD_RU, DetectorKind.BOSE_GLRT],
                     inst.x, inst.x_l, inst.a, inst.c)

    def test_refuses_a_kind_given_by_name(self):
        inst = next(_instances("full", 126, 1))
        with pytest.raises(TypeError, match="DetectorKind members, got 'GLRGDD_RU'"):
            evaluate([DetectorKind.AMGDD_RU, "GLRGDD_RU"], inst.x, inst.x_l, inst.a, inst.c)

    def test_refuses_a_lone_kind_where_a_list_is_expected(self):
        inst = next(_instances("full", 126, 1))
        with pytest.raises(TypeError, match=r"kinds must be a list of detector kinds, got "
                                            r"DetectorKind\.AMGDD alone: pass "
                                            r"\[DetectorKind\.AMGDD\]"):
            evaluate(DetectorKind.AMGDD, inst.x, inst.x_l, inst.a, inst.c)

    def test_checks_the_estimate_each_kind_reads(self):
        # zero test data: S_perp = 0, while S_plus = S is PD
        inst = next(_instances("full", 125, 1))
        x = np.zeros_like(inst.x)
        ru = [DetectorKind.GLRGDD_RU, DetectorKind.AMGDD_RU, DetectorKind.AMGDD]
        assert set(evaluate(ru, x, inst.x_l, inst.a, inst.c)) == set(ru)
        with pytest.raises(SingularMatrixError, match=r"augmented SCM singular .*L=0"):
            evaluate(ru + [DetectorKind.BOSE_GLRT], x, inst.x_l, inst.a, inst.c)

    def test_verification_transforms_once_per_variant(self, monkeypatch):
        # one evaluation per (A, C, data) variant: the instance, A T, T C and
        # the scaled data, plus the identity report where GLRGDD is valid
        seed, count = 20260810, 12
        calls = []
        transform_stack = adaptdet.detectors.transform_stack

        def counted(*args, **kwargs):
            calls.append(1)
            return transform_stack(*args, **kwargs)

        monkeypatch.setattr(adaptdet.detectors, "transform_stack", counted)
        assert run_verification(seed=seed, instance_count=count).passed
        classic = sum(DetectorKind.GLRGDD in inst.valid_kinds()
                      for _, inst in instance_stream(seed, count))
        assert 0 < len(calls) <= 4 * count + classic
