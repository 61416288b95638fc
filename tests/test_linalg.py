"""Tests for the dense linear-algebra kernels, checked against naive oracles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from elmboost.linalg import NotPositiveDefiniteError, cholesky_solve, gram, ridge_solve

from helpers import gauss_jordan_solve, naive_matmul


class TestGram:
    def test_identity(self):
        assert np.array_equal(gram(np.eye(4)), np.eye(4))

    def test_column_vector_squared_norm(self):
        assert np.array_equal(gram(np.array([[1.0], [2.0], [2.0]])), np.array([[9.0]]))

    def test_random_against_naive(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((20, 8))
        got = gram(h)
        want = naive_matmul(h.T.copy(), h)
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()

    def test_exactly_symmetric_as_stored(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((30, 12))
        g = gram(h)
        assert np.array_equal(g, g.T)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(6)
        g = gram(rng.standard_normal((20, 8)))
        assert np.linalg.eigvalsh(g).min() >= -1e-10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gram(np.zeros((0, 3)))


class TestCholeskySolve:
    def test_identity_system(self):
        b = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(cholesky_solve(np.eye(3), b), b)

    def test_scalar_system(self):
        b = np.ones((3, 2))
        out = cholesky_solve(2.0 * np.eye(3), b)
        assert np.allclose(out, 0.5 * np.ones((3, 2)), rtol=0, atol=1e-15)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((8, 8))
        a = m.T @ m + np.eye(8)
        b = rng.standard_normal((8, 3))
        z = cholesky_solve(a, b)
        residual = np.linalg.norm(a @ z - b) / np.linalg.norm(b)
        assert residual < 1e-10

    def test_not_positive_definite_carries_pivot(self):
        a = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(NotPositiveDefiniteError) as excinfo:
            cholesky_solve(a, np.ones((3, 1)))
        assert excinfo.value.pivot_index == 1
        assert "not positive definite" in str(excinfo.value)

    def test_inputs_not_mutated(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((5, 5))
        a = m.T @ m + np.eye(5)
        b = rng.standard_normal((5, 2))
        a_copy, b_copy = a.copy(), b.copy()
        cholesky_solve(a, b)
        assert np.array_equal(a, a_copy) and np.array_equal(b, b_copy)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            cholesky_solve(np.zeros((3, 2)), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            cholesky_solve(np.eye(3), np.zeros((2, 1)))


class TestRidgeSolve:
    def test_identity_unregularized(self):
        y = np.arange(8.0).reshape(4, 2)
        assert np.allclose(ridge_solve(np.eye(4), y, 0.0), y, rtol=0, atol=1e-14)

    def test_identity_lambda_one_halves(self):
        y = np.arange(8.0).reshape(4, 2)
        assert np.allclose(ridge_solve(np.eye(4), y, 1.0), y / 2, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
    def test_matches_gauss_jordan_oracle(self, lam):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((20, 8))
        y = rng.standard_normal((20, 3))
        got = ridge_solve(h, y, lam)
        system = naive_matmul(h.T.copy(), h) + lam * np.eye(8)
        want = gauss_jordan_solve(system, naive_matmul(h.T.copy(), y))
        assert np.abs(got - want).max() < 1e-8 * max(np.abs(want).max(), 1.0)

    def test_normal_equations_residual(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            h = rng.standard_normal((25, 6))
            y = rng.standard_normal((25, 2))
            lam = [0.0, 0.5, 2.0][trial % 3]
            w = ridge_solve(h, y, lam)
            lhs = (h.T @ h + lam * np.eye(6)) @ w
            rhs = h.T @ y
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_regularization_shrinks_weights(self):
        rng = np.random.default_rng(11)
        h = rng.standard_normal((30, 7))
        y = rng.standard_normal((30, 2))
        norms = [np.linalg.norm(ridge_solve(h, y, lam)) for lam in (0.0, 0.1, 1.0, 10.0)]
        for smaller, larger in zip(norms[1:], norms[:-1]):
            assert smaller <= larger + 1e-12

    def test_singular_unregularized_fails(self):
        h = np.ones((4, 3))  # rank one, so HᵀH is singular
        with pytest.raises(NotPositiveDefiniteError):
            ridge_solve(h, np.ones((4, 1)), 0.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            ridge_solve(np.eye(2), np.eye(2), -0.5)



def test_lapack_is_imported_by_the_first_solve():
    # scipy.linalg costs about 28 MB of resident memory; scoring never solves
    script = """
import sys
import elmboost, elmboost.cli
assert "scipy.linalg" not in sys.modules, "importing elmboost imported scipy.linalg"
import numpy as np
from elmboost import HyperParams, RawDataset, normalize, one_hot_encode, train
images = np.random.default_rng(0).integers(0, 256, (20, 6), dtype=np.uint8)
data = normalize(RawDataset(images=images, labels=np.arange(20) % 2, num_classes=2))
model, _ = train(data, one_hot_encode(data.labels, 2), HyperParams(t_steps=1, levels=1, hidden=4))
assert np.isfinite(model.weights).all()
assert "scipy.linalg" in sys.modules
"""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
