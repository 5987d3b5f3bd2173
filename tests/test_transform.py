import numpy as np
import pytest

from adaptdet.detectors import DetectorKind, evaluate, statistics
from adaptdet.errors import SingularMatrixError
from adaptdet.kernels import no_signal
from adaptdet.scenario import as_generator, complex_gaussian, make_scenario
from adaptdet.transform import (SubspaceFactorization, factor_waveform_subspace,
                                transform_stack)

from oracles import dagger, random_cmatrix, random_semi_unitary_rows, random_unitary


class TestFactorWaveformSubspace:
    def test_scaled_coordinate_row(self):
        f = factor_waveform_subspace([[2.0, 0.0, 0.0]])
        assert np.allclose(f.c_par, [[1.0, 0.0, 0.0]], atol=1e-14)
        assert np.allclose(f.d, [[2.0]], atol=1e-14)
        # complement projects onto span{e2, e3}
        proj = dagger(f.c_perp) @ f.c_perp
        assert np.allclose(proj, np.diag([0.0, 1.0, 1.0]), atol=1e-12)

    def test_idempotent_on_semi_unitary_input(self):
        rng = np.random.default_rng(0)
        c = random_semi_unitary_rows(rng, 2, 7)
        f = factor_waveform_subspace(c)
        assert np.allclose(f.c_par, c, atol=1e-12)
        assert np.allclose(f.d, np.eye(2), atol=1e-12)

    def test_all_invariants_on_random_input(self):
        rng = np.random.default_rng(1)
        c = random_cmatrix(rng, 3, 16)
        f = factor_waveform_subspace(c)
        m, k = c.shape
        assert np.linalg.norm(f.c_par @ dagger(f.c_par) - np.eye(m)) <= 1e-10
        assert np.linalg.norm(f.c_perp @ dagger(f.c_perp) - np.eye(k - m)) <= 1e-10
        assert np.linalg.norm(f.c_perp @ dagger(f.c_par)) <= 1e-10
        assert np.linalg.norm(f.d @ f.c_par - c) <= 1e-10 * np.linalg.norm(c)
        stacked = np.vstack([f.c_par, f.c_perp])
        assert np.linalg.norm(stacked @ dagger(stacked) - np.eye(k)) <= 1e-10

    def test_square_input_has_empty_complement(self):
        rng = np.random.default_rng(2)
        c = random_cmatrix(rng, 3, 3)
        f = factor_waveform_subspace(c)
        assert f.c_perp.shape == (0, 3)

    def test_rejects_rank_deficient_input(self):
        row = np.array([[1.0, 2.0, 3.0, 4.0]])
        with pytest.raises(ValueError, match="rank deficient"):
            factor_waveform_subspace(np.vstack([row, 2 * row]))

    def test_rejects_more_rows_than_columns(self):
        with pytest.raises(ValueError, match="at most as many rows as columns"):
            factor_waveform_subspace(np.ones((3, 2)))

    # A C with repeated singular values has no unique U, but d and c_par are unique.
    @pytest.mark.parametrize("repeated", [False, True], ids=["random", "repeated_sv"])
    def test_d_is_the_square_root_and_c_par_its_solve(self, repeated):
        rng = np.random.default_rng(13)
        c = 2.0 * random_semi_unitary_rows(rng, 3, 9) if repeated else random_cmatrix(rng, 3, 9)
        f = factor_waveform_subspace(c)
        gram = c @ dagger(c)
        assert np.array_equal(f.d, dagger(f.d))
        assert np.linalg.eigvalsh(f.d)[0] > 0.0
        assert np.linalg.norm(f.d @ f.d - gram) <= 1e-12 * np.linalg.norm(gram)
        assert np.linalg.norm(f.c_par - np.linalg.solve(f.d, c)) <= 1e-12
        if repeated:
            assert np.allclose(f.d, 2.0 * np.eye(3), rtol=0, atol=1e-14)

    def test_complement_of_one_column(self):
        rng = np.random.default_rng(14)
        c = random_cmatrix(rng, 4, 5)
        f = factor_waveform_subspace(c)
        assert f.c_perp.shape == (1, 5)
        assert abs(np.linalg.norm(f.c_perp) - 1.0) <= 1e-12
        assert np.linalg.norm(f.c_perp @ dagger(c)) <= 1e-12 * np.linalg.norm(c)

    def test_one_svd_and_no_eigendecomposition(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted_svd(*args, **kwargs):
            calls.append(kwargs)
            return svd(*args, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("factor_waveform_subspace called an eigensolver")

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refused)
        factor_waveform_subspace(random_cmatrix(np.random.default_rng(15), 2, 6))
        assert len(calls) == 1


class TestTransformData:
    def _scenario_data(self, seed=3, n=5, k=9, m=3, j=2, l=7):
        sc = make_scenario(n, k, m, j, l, rho=0.5, seed=seed)
        rng = as_generator(seed + 100)
        x = sc.coloring @ complex_gaussian(rng, n, k)
        x_l = sc.coloring @ complex_gaussian(rng, n, l)
        return sc, x, x_l

    def test_zero_test_data(self):
        sc, _, x_l = self._scenario_data()
        f = factor_waveform_subspace(sc.C)
        td = transform_stack(np.zeros((sc.N, sc.K)), x_l, f)
        assert np.all(td.x_par == 0)
        assert np.all(td.s_perp == 0)
        assert np.allclose(td.s_plus, 0.5 * (x_l @ dagger(x_l) + (x_l @ dagger(x_l)).conj().T))

    def test_square_waveform_subspace_reduces_to_scm(self):
        sc, x, x_l = self._scenario_data(n=4, k=3, m=3, j=2, l=6)
        f = factor_waveform_subspace(sc.C)
        td = transform_stack(x, x_l, f)
        assert np.all(td.s_perp == 0)  # X_perp is 4 x 0
        scm = x_l @ dagger(x_l)
        assert np.allclose(td.s_plus, 0.5 * (scm + scm.conj().T), atol=1e-12)

    def test_no_training_data_regime(self):
        sc, x, _ = self._scenario_data(n=4, k=8, m=3, j=2, l=0)
        f = factor_waveform_subspace(sc.C)
        td = transform_stack(x, np.zeros((4, 0), complex), f)
        np.linalg.cholesky(td.s_plus)  # nonsingular

    def test_rejects_singular_augmented_scm(self):
        # L+K = M+N = 9 passes the dimension check, but a zero channel leaves
        # S_plus singular; the per-instance API refuses it before any detector
        rng = np.random.default_rng(4)
        c = random_cmatrix(rng, 3, 5)
        x = random_cmatrix(rng, 6, 5)
        x_l = random_cmatrix(rng, 6, 4)
        x[0], x_l[0] = 0.0, 0.0
        with pytest.raises(SingularMatrixError, match="augmented SCM singular"):
            evaluate([DetectorKind.GLRGDD_RU], x, x_l, random_cmatrix(rng, 6, 2), c)

    def test_energy_split(self):
        sc, x, x_l = self._scenario_data(seed=5)
        f = factor_waveform_subspace(sc.C)
        td = transform_stack(x, x_l, f)
        total = x @ dagger(x)
        split = td.x_par @ dagger(td.x_par) + td.s_perp
        assert np.linalg.norm(split - total) <= 1e-10 * np.linalg.norm(total)

    def test_noise_free_signal_is_annihilated(self):
        rng = np.random.default_rng(6)
        sc, _, x_l = self._scenario_data(seed=6)
        theta = random_cmatrix(rng, sc.J, 1)
        alpha = random_cmatrix(rng, sc.M, 1)
        x = sc.A @ theta @ dagger(alpha) @ sc.C
        f = factor_waveform_subspace(sc.C)
        td = transform_stack(x, x_l, f)
        # trace(S_perp) is the squared Frobenius norm of X_perp
        assert np.sqrt(np.trace(td.s_perp).real) <= 1e-10 * np.linalg.norm(x)


def _ru_pair(x, x_l, f, a):
    """GLRGDD-RU and AMGDD-RU through the engine's dispatch, for a given factorization."""
    td = transform_stack(x[None], x_l[None], f)
    kinds = [DetectorKind.GLRGDD_RU, DetectorKind.AMGDD_RU]
    return statistics(kinds, td, a, no_signal(a.shape[1], f.c_par.shape[0]))[0, 0]


class TestBasisIndependence:
    def test_complement_choice_does_not_matter(self):
        sc = make_scenario(5, 9, 3, 2, 7, rho=0.95, seed=7)
        rng = as_generator(8)
        x = sc.coloring @ complex_gaussian(rng, sc.N, sc.K)
        x_l = sc.coloring @ complex_gaussian(rng, sc.N, sc.L)
        f = factor_waveform_subspace(sc.C)
        rot = random_unitary(np.random.default_rng(9), sc.K - sc.M)
        f_rot = SubspaceFactorization(c_par=f.c_par, c_perp=rot @ f.c_perp, d=f.d)
        td = transform_stack(x, x_l, f)
        td_rot = transform_stack(x, x_l, f_rot)
        assert np.linalg.norm(td_rot.s_plus - td.s_plus) <= 1e-10 * np.linalg.norm(td.s_plus)
        base, rotated = _ru_pair(x, x_l, f, sc.A), _ru_pair(x, x_l, f_rot, sc.A)
        assert np.all(np.abs(rotated - base) <= 1e-8 * (1.0 + np.abs(base)))

    def test_row_space_scaling_of_c(self):
        sc = make_scenario(5, 9, 3, 2, 7, rho=0.95, seed=10)
        rng = as_generator(11)
        x = sc.coloring @ complex_gaussian(rng, sc.N, sc.K)
        x_l = sc.coloring @ complex_gaussian(rng, sc.N, sc.L)
        t = random_cmatrix(np.random.default_rng(12), sc.M, sc.M) + 2 * np.eye(sc.M)
        f, f_t = factor_waveform_subspace(sc.C), factor_waveform_subspace(t @ sc.C)
        td, td_t = transform_stack(x, x_l, f), transform_stack(x, x_l, f_t)
        assert np.linalg.norm(td_t.s_plus - td.s_plus) <= 1e-10 * np.linalg.norm(td.s_plus)
        base, moved = _ru_pair(x, x_l, f, sc.A), _ru_pair(x, x_l, f_t, sc.A)
        assert np.all(np.abs(moved - base) <= 1e-8 * (1.0 + np.abs(base)))
