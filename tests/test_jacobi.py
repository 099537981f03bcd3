"""Oracle tests for spectral.symmetric_eigenvalues, the eigensolver behind K*."""

import numpy as np
import pytest

from masinfo.spectral import symmetric_eigenvalues


def charpoly_roots_2x2(m):
    # roots of (a-l)(d-l) - b^2
    a, b, d = m[0, 0], m[0, 1], m[1, 1]
    disc = np.sqrt((a - d) ** 2 / 4.0 + b * b)
    mid = (a + d) / 2.0
    return np.array([mid + disc, mid - disc])


def charpoly_roots_3x3(m):
    # coefficients of det(m - l I) = -l^3 + c2 l^2 + c1 l + c0
    c2 = np.trace(m)
    c1 = -0.5 * (np.trace(m) ** 2 - np.trace(m @ m))
    c0 = np.linalg.det(m)
    roots = np.roots([-1.0, c2, c1, c0])
    return np.sort(np.real(roots))[::-1]


class TestFixedMatrices:
    def test_rank_one(self):
        eigs = symmetric_eigenvalues([[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(eigs, [2.0, 0.0], atol=1e-12)

    def test_identity(self):
        eigs = symmetric_eigenvalues(np.eye(2))
        np.testing.assert_allclose(eigs, [1.0, 1.0], atol=1e-12)

    def test_cosine_half(self):
        # characteristic polynomial (1-l)^2 - 0.25 has roots 1.5 and 0.5
        eigs = symmetric_eigenvalues([[1.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(eigs, [1.5, 0.5], atol=1e-12)

    def test_n_equals_one(self):
        np.testing.assert_allclose(symmetric_eigenvalues([[3.5]]), [3.5])


class TestCharpolyOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_2x2_random(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((2, 2))
        m = 0.5 * (a + a.T)
        np.testing.assert_allclose(symmetric_eigenvalues(m), charpoly_roots_2x2(m), atol=1e-8)

    @pytest.mark.parametrize("seed", range(20))
    def test_3x3_random(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = rng.standard_normal((3, 3))
        m = 0.5 * (a + a.T)
        np.testing.assert_allclose(symmetric_eigenvalues(m), charpoly_roots_3x3(m), atol=1e-8)


class TestReconstruction:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_trace_and_frobenius(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        m = 0.5 * (a + a.T)
        eigs = symmetric_eigenvalues(m)
        assert abs(eigs.sum() - np.trace(m)) < 1e-8
        assert abs(np.sum(eigs ** 2) - np.sum(m * m)) < 1e-6

    def test_descending_order(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 6))
        eigs = symmetric_eigenvalues(0.5 * (a + a.T))
        assert np.all(np.diff(eigs) <= 0)


class TestValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.ones((2, 3)))

