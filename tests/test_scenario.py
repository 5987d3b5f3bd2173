import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import adaptdet
from adaptdet.scenario import (Scenario, complex_gaussian, make_scenario, make_signal,
                               random_directions, random_subspaces, scale_to_snr, snr_of,
                               toeplitz_covariance)

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
        with pytest.raises(ValueError, match="rho"):
            toeplitz_covariance(4, rho)


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

    def test_refuses_a_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            random_subspaces(2, 1, 1, 4, seed=-1)


class TestComplexGaussian:
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


class TestSnr:
    def test_zero_theta_gives_zero(self):
        sc = _small_scenario()
        assert snr_of(sc, np.zeros(2), np.ones(2)) == 0.0

    def test_scalar_case(self):
        sc = Scenario(N=1, K=1, M=1, J=1, L=1, A=[[1.0]], C=[[1.0]], R=[[1.0]])
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
        moved = Scenario(N=sc.N, K=sc.K, M=sc.M, J=sc.J, L=sc.L,
                         A=sc.A @ t, C=sc.C, R=sc.R)
        assert snr_of(moved, np.linalg.solve(t, theta), alpha) == pytest.approx(
            snr_of(sc, theta, alpha), rel=1e-10)


class TestScaleToSnr:
    def test_fixed_point(self):
        sc = _small_scenario()
        theta, alpha = random_directions(sc.J, sc.M, 1)
        current_db = 10.0 * np.log10(snr_of(sc, theta, alpha))
        coords = scale_to_snr(sc, theta, alpha, current_db)
        assert np.allclose(coords.theta, theta, rtol=1e-12)

    def test_doubling_scales_theta_by_sqrt2(self):
        sc = _small_scenario()
        theta, alpha = random_directions(sc.J, sc.M, 2)
        base_db = 10.0 * np.log10(snr_of(sc, theta, alpha))
        doubled = scale_to_snr(sc, theta, alpha, base_db + 10.0 * np.log10(2.0))
        gain = np.linalg.norm(doubled.theta) / np.linalg.norm(theta)
        assert gain == pytest.approx(np.sqrt(2.0), rel=1e-10)

    @pytest.mark.parametrize("target_db", [-10.0, 0.0, 13.0, 30.0])
    def test_self_consistency(self, target_db):
        sc = _small_scenario()
        theta, alpha = random_directions(sc.J, sc.M, 3)
        coords = scale_to_snr(sc, theta, alpha, target_db)
        achieved = snr_of(sc, coords.theta, coords.alpha)
        assert achieved == pytest.approx(10.0 ** (target_db / 10.0), rel=1e-12)

    def test_rejects_zero_direction(self):
        sc = _small_scenario()
        with pytest.raises(ValueError, match="zero-SNR direction"):
            scale_to_snr(sc, np.zeros(2), np.ones(2), 10.0)


class TestScenarioValidation:
    def test_training_constraint_message(self):
        a, c = random_subspaces(12, 2, 3, 3, seed=0)
        with pytest.raises(ValueError, match=r"L\+K=14 < M\+N=15"):
            Scenario(N=12, K=3, M=3, J=2, L=11, A=a, C=c,
                     R=toeplitz_covariance(12, 0.95))

    def test_rejects_spatial_subspace_too_large(self):
        with pytest.raises(ValueError, match="J=5 > N=4"):
            make_scenario(4, 8, 2, 5, 6)

    def test_rejects_waveform_subspace_too_large(self):
        with pytest.raises(ValueError, match="M=7 > K=6"):
            make_scenario(4, 6, 7, 2, 8)

    def test_rejects_nonpositive_dimensions(self):
        a, c = random_subspaces(3, 1, 1, 4, seed=1)
        with pytest.raises(ValueError, match="dimensions must be positive"):
            Scenario(N=3, K=4, M=1, J=1, L=-1, A=a, C=c, R=np.eye(3))

    def test_rejects_indefinite_covariance(self):
        a, c = random_subspaces(3, 1, 1, 4, seed=1)
        with pytest.raises(ValueError, match="positive definite"):
            Scenario(N=3, K=4, M=1, J=1, L=3, A=a, C=c, R=-np.eye(3))

    def test_rank_deficient_waveform_subspace_message(self):
        a, c = random_subspaces(3, 1, 2, 4, seed=1)
        with pytest.raises(ValueError, match="C must have full row rank"):
            Scenario(N=3, K=4, M=2, J=1, L=3, A=a, C=np.vstack([c[0], 2 * c[0]]),
                     R=np.eye(3))

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
