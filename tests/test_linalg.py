import numpy as np
import pytest

from adaptdet.errors import SingularMatrixError
from adaptdet.linalg import hermitize, hpd_solve

from oracles import dagger, random_cmatrix, random_hpd


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

