import numpy as np
import pytest

from adaptdet.errors import SingularMatrixError
from adaptdet.linalg import hermitize, hpd_solve, inv_sqrt, orthonormal_complement, psd_sqrt

from oracles import dagger, random_cmatrix, random_hpd, random_semi_unitary_rows


class TestHermitize:
    def test_identity_unchanged(self):
        assert np.array_equal(hermitize(np.eye(3)), np.eye(3))

    def test_upper_triangular_case(self):
        out = hermitize([[1.0, 1.0j], [0.0, 1.0]])
        expected = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
        assert np.allclose(out, expected, atol=0, rtol=0)

    def test_output_is_hermitian(self):
        rng = np.random.default_rng(1)
        g = random_cmatrix(rng, 5, 5)
        h = hermitize(g)
        assert np.linalg.norm(h - dagger(h)) <= 1e-15

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            hermitize(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            hermitize([[np.nan, 0.0], [0.0, 1.0]])


class TestHpdSolve:
    def test_identity(self):
        rng = np.random.default_rng(2)
        b = random_cmatrix(rng, 4, 2)
        assert np.allclose(hpd_solve(np.eye(4), b), b, rtol=1e-14, atol=1e-14)

    def test_diagonal_scaling(self):
        y = hpd_solve(2.0 * np.eye(2), [[4.0], [6.0]])
        assert np.allclose(y, [[2.0], [3.0]], rtol=0, atol=1e-15)

    def test_residual_budget(self):
        rng = np.random.default_rng(3)
        s = random_hpd(rng, 6)
        b = random_cmatrix(rng, 6, 3)
        y = hpd_solve(s, b)
        assert np.linalg.norm(s @ y - b) <= 1e-10 * np.linalg.norm(b)

    def test_singular_names_matrix(self):
        with pytest.raises(SingularMatrixError, match="singular covariance estimate: SCM"):
            hpd_solve(np.zeros((3, 3)), np.eye(3), name="SCM")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            hpd_solve(np.eye(3), np.eye(4))


class TestInvSqrt:
    def test_identity(self):
        assert np.allclose(inv_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_scalar_multiple(self):
        assert np.allclose(inv_sqrt(4.0 * np.eye(2)), 0.5 * np.eye(2), atol=1e-14)

    def test_inverse_square_root_property(self):
        rng = np.random.default_rng(4)
        s = random_hpd(rng, 5)
        w = inv_sqrt(s)
        assert np.linalg.norm(w @ s @ w - np.eye(5)) <= 1e-10
        assert np.linalg.norm(w - dagger(w)) <= 1e-12

    def test_rejects_non_pd(self):
        with pytest.raises(ValueError, match="not positive definite"):
            inv_sqrt(-np.eye(2))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            inv_sqrt([[1.0, 1.0], [0.0, 1.0]])


class TestPsdSqrt:
    def test_squares_back(self):
        rng = np.random.default_rng(5)
        s = random_hpd(rng, 4)
        h = psd_sqrt(s)
        assert np.linalg.norm(h @ h - s) <= 1e-10 * np.linalg.norm(s)

    def test_zero_matrix(self):
        assert np.allclose(psd_sqrt(np.zeros((3, 3))), np.zeros((3, 3)), atol=0)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            psd_sqrt(np.diag([1.0, -1.0]))


class TestOrthonormalComplement:
    def test_coordinate_row(self):
        comp = orthonormal_complement(np.array([[1.0, 0.0, 0.0]]))
        assert comp.shape == (2, 3)
        assert np.linalg.norm(comp @ np.array([[1.0, 0.0, 0.0]]).conj().T) <= 1e-12
        assert np.allclose(comp @ dagger(comp), np.eye(2), atol=1e-12)

    def test_single_row_two_columns(self):
        c_par = np.array([[0.0, 1.0]])
        comp = orthonormal_complement(c_par)
        assert comp.shape == (1, 2)
        assert abs(comp @ dagger(c_par))[0, 0] <= 1e-12
        assert abs((comp @ dagger(comp))[0, 0] - 1.0) <= 1e-12

    def test_stacked_matrix_is_unitary(self):
        rng = np.random.default_rng(6)
        c_par = random_semi_unitary_rows(rng, 3, 8)
        comp = orthonormal_complement(c_par)
        stacked = np.vstack([c_par, comp])
        assert np.linalg.norm(stacked @ dagger(stacked) - np.eye(8)) <= 1e-10

    def test_rejects_square_input(self):
        with pytest.raises(ValueError, match="M < K"):
            orthonormal_complement(np.eye(3))

    def test_rejects_non_orthonormal_rows(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            orthonormal_complement(np.array([[2.0, 0.0, 0.0]]))
