import numpy as np
import pytest

from adaptdet.errors import SingularMatrixError
from adaptdet.linalg import as_cmatrix, cholesky, hermitize

from oracles import dagger, random_cmatrix, random_hpd


@pytest.mark.parametrize("data, shape", [(np.ones(3), r"\(3,\)"),
                                         (np.ones((2, 2, 2)), r"\(2, 2, 2\)")],
                         ids=["1-D", "3-D"])
def test_as_cmatrix_refuses_data_that_is_not_2d(data, shape):
    with pytest.raises(ValueError, match=rf"^X must be 2-D, got shape {shape}$"):
        as_cmatrix(data, "X")


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


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(4, dtype=complex), "I"), np.eye(4))

    def test_factor_and_solve_residual_budget(self):
        # S = F F^H with F lower triangular; the two solves against F and
        # F^H (how a scenario forms R^-1 v) meet |S Y - B| <= 1e-10 |B|
        rng = np.random.default_rng(3)
        s = random_hpd(rng, 6)
        b = random_cmatrix(rng, 6, 3)
        f = cholesky(s, "S")
        assert np.array_equal(f, np.tril(f))
        assert np.linalg.norm(f @ dagger(f) - s) <= 1e-12 * np.linalg.norm(s)
        y = np.linalg.solve(dagger(f), np.linalg.solve(f, b))
        assert np.linalg.norm(s @ y - b) <= 1e-10 * np.linalg.norm(b)

    def test_factors_a_stack(self):
        rng = np.random.default_rng(4)
        stack = np.stack([random_hpd(rng, 4) for _ in range(3)])
        factors = cholesky(stack, "stack")
        for s, f in zip(stack, factors):
            assert np.allclose(f, np.linalg.cholesky(s), rtol=0, atol=1e-14)

    def test_singular_names_matrix(self):
        with pytest.raises(SingularMatrixError, match="singular covariance estimate: SCM"):
            cholesky(np.zeros((3, 3), complex), "singular covariance estimate: SCM")
