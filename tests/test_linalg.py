"""Tests for the dense linear-algebra kernels, checked against naive oracles."""

import importlib
import importlib.machinery
import logging
import os
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

from elmboost import HyperParams, linalg, train
from elmboost.linalg import (
    NotPositiveDefiniteError,
    cholesky_solve,
    factor_solve,
    gram,
    ridge_factor,
    ridge_solve,
)

from helpers import (
    blas_threads,
    gauss_jordan_solve,
    make_dataset,
    naive_matmul,
    set_blas_threads,
)


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
        # the top 2 x 2 block is positive definite; dpotrf's wrapper refuses
        # the tall matrix too, but not with a ValueError
        tall = np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="square"):
            cholesky_solve(tall, np.zeros((3, 1)))
        with pytest.raises(ValueError, match="shape mismatch"):
            cholesky_solve(np.eye(3), np.zeros((2, 1)))

    def test_empty_system_rejected(self):
        # dpotrf factors a 0 x 0 matrix; dpotrs's wrapper then refuses it
        with pytest.raises(ValueError):
            cholesky_solve(np.zeros((0, 0)), np.zeros((0, 2)))


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

    @pytest.mark.parametrize("h, y, match", [
        (np.eye(3), np.ones(3), "factor_solve shape mismatch"),
        (np.eye(3), np.ones((2, 1)), "matmul"),
        (np.ones(3), np.ones((3, 1)), "gram needs a nonempty 2-D matrix"),
    ], ids=["1-D y", "row mismatch", "1-D h"])
    def test_shape_errors(self, h, y, match):
        with pytest.raises(ValueError, match=match):
            ridge_solve(h, y, 0.5)



def test_training_never_imports_scipy_linalg():
    # scipy.linalg costs 25-29 MB of resident memory for two LAPACK calls
    script = """
import sys
import elmboost, elmboost.cli
assert "scipy.linalg" not in sys.modules, "importing elmboost imported scipy.linalg"
import numpy as np
from elmboost import HyperParams, RawDataset, linalg, normalize, train
images = np.random.default_rng(0).integers(0, 256, (20, 6), dtype=np.uint8)
data = normalize(RawDataset(images=images, labels=np.arange(20) % 2, num_classes=2))
model, _ = train(data, HyperParams(t_steps=2, levels=2, hidden=4))
assert np.isfinite(model.weights).all()
assert linalg._lapack()[0].__name__ == "_flapack"
assert "scipy.linalg" not in sys.modules, "training imported scipy.linalg"
"""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr

def _spd(rng, n, lam=0.5):
    h = rng.standard_normal((n + 7, n))
    g = gram(h)
    g[np.diag_indices_from(g)] += lam
    return g


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


# (order, right-hand sides): past OpenBLAS's blocking edges and below them
LAPACK_SHAPES = [(1, 1), (2, 3), (3, 1), (7, 2), (16, 10), (31, 4), (64, 1), (65, 10),
                 (128, 3), (200, 7), (257, 10), (511, 2)]


class TestFlapack:
    """The _flapack module loaded from its file gives scipy.linalg.lapack's bits."""

    def test_loaded_from_its_file(self):
        from scipy.linalg import _flapack

        flapack = linalg._lapack()[0]
        assert flapack.__name__ == "_flapack" and flapack is not _flapack
        assert flapack.__file__ == _flapack.__file__

    @pytest.mark.parametrize("n, k", LAPACK_SHAPES)
    def test_factor_and_solve_match_scipy_bitwise(self, n, k):
        from scipy.linalg.lapack import dpotrf, dpotrs

        flapack = linalg._lapack()[0]
        rng = np.random.default_rng(n * 100 + k)
        a = _spd(rng, n)
        b = rng.standard_normal((n, k))
        want, info = dpotrf(a, lower=1)
        assert info == 0
        c = np.asfortranarray(a.copy())
        got, info = flapack.dpotrf(c, lower=1, clean=0, overwrite_a=1)
        assert info == 0 and got is c
        assert np.array_equal(_bits(np.tril(c)), _bits(want))
        z, info = flapack.dpotrs(c, b, lower=1)
        assert info == 0
        want_z, _ = dpotrs(want, b, lower=1)
        assert np.array_equal(_bits(z), _bits(want_z))
        assert z.flags.f_contiguous == want_z.flags.f_contiguous

    @pytest.mark.parametrize("n, pivot", [(1, 0), (3, 1), (8, 7), (40, 17), (300, 250)])
    def test_failing_pivot_matches_scipy(self, n, pivot):
        from scipy.linalg.lapack import dpotrf

        rng = np.random.default_rng(n)
        a = _spd(rng, n)
        a[pivot, pivot] = -1.0
        want = dpotrf(a, lower=1)[1]
        assert want > 0
        flapack = linalg._lapack()[0]
        assert flapack.dpotrf(np.asfortranarray(a.copy()), lower=1, clean=0, overwrite_a=1)[1] == want
        with pytest.raises(NotPositiveDefiniteError) as excinfo:
            cholesky_solve(a, np.ones((n, 1)))
        assert excinfo.value.pivot_index == want - 1

    @pytest.mark.parametrize("n, k", LAPACK_SHAPES[::3])
    def test_ridge_solve_matches_scipy_bitwise(self, n, k):
        # the parent formula: dpotrf on a copy of HᵀH + λI, then dpotrs on HᵀY
        from scipy.linalg.lapack import dpotrf, dpotrs

        rng = np.random.default_rng(n + k)
        h = rng.standard_normal((n + 9, n))
        y = rng.standard_normal((n + 9, k))
        g = gram(h)
        g[np.diag_indices_from(g)] += 0.3
        with linalg._lapack()[1]:  # ridge_solve runs LAPACK on one thread
            want = dpotrs(dpotrf(g, lower=1)[0], h.T @ y, lower=1)[0]
        got = ridge_solve(h, y, 0.3)
        assert np.array_equal(_bits(got), _bits(want))


class TestRidgeFactor:
    @pytest.mark.parametrize("n, j", [(5, 3), (40, 17), (300, 200), (129, 64)])
    def test_gram_exactly_symmetric_and_c_ordered(self, n, j):
        # ridge_factor hands gram's transpose to LAPACK as the same matrix
        g = gram(np.random.default_rng(j).standard_normal((n, j)))
        assert g.flags.c_contiguous
        assert np.array_equal(_bits(g), _bits(g.T))

    def test_factors_the_gram_in_place(self):
        rng = np.random.default_rng(12)
        c = ridge_factor(rng.standard_normal((30, 9)), 0.5)
        assert c.flags.f_contiguous and c.base is not None and c.base.flags.c_contiguous

    @pytest.mark.parametrize("lam", [0.0, 0.25, 3.0])
    def test_one_shot_solve_is_the_composition(self, lam):
        rng = np.random.default_rng(13)
        h = rng.standard_normal((50, 12))
        y = rng.standard_normal((50, 4))
        w = factor_solve(ridge_factor(h, lam), h.T @ y)
        assert np.array_equal(_bits(w), _bits(ridge_solve(h, y, lam)))
        assert np.array_equal(_bits(w), _bits(cholesky_solve(gram(h) + lam * np.eye(12), h.T @ y)))

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            ridge_factor(np.eye(3), -1.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
            ridge_factor(np.eye(3), lam)
        with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
            ridge_solve(np.eye(3), np.ones((3, 1)), lam)

    def test_singular_raises_with_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as excinfo:
            ridge_factor(np.ones((4, 3)), 0.0)
        assert excinfo.value.pivot_index == 1

    def test_factor_solve_shape_error(self):
        with pytest.raises(ValueError):
            factor_solve(ridge_factor(np.eye(3), 1.0), np.ones((2, 1)))
        with pytest.raises(ValueError):
            factor_solve(np.ones((3, 2)), np.ones((3, 1)))

    def test_factor_solve_reads_the_factor_in_any_layout(self):
        # LAPACK reads Fortran order; another layout or dtype is converted first
        rng = np.random.default_rng(14)
        c = ridge_factor(rng.standard_normal((20, 6)), 1.0)
        b = rng.standard_normal((6, 2))
        want = factor_solve(c, b)
        for other in (np.ascontiguousarray(c), np.tril(c).astype(np.longdouble)):
            assert np.array_equal(_bits(factor_solve(other, b)), _bits(want))

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_integer_encoding_is_factored_as_float(self, lam):
        h = np.array([[1, 0], [1, 1], [0, 2]])
        assert np.array_equal(ridge_factor(h, lam), ridge_factor(h.astype(np.float64), lam))
        y = np.array([[1.0], [0.0], [2.0]])
        assert np.array_equal(ridge_solve(h, y, lam), ridge_solve(h.astype(np.float64), y, lam))


class TestUsualImport:
    """Importing scipy.linalg._flapack the usual way gives the same module's bits."""

    @pytest.mark.parametrize("n, k", LAPACK_SHAPES[::4])
    def test_both_routes_give_the_same_bits(self, monkeypatch, n, k):
        rng = np.random.default_rng(n)
        a, b = _spd(rng, n), rng.standard_normal((n, k))
        first = cholesky_solve(a, b)
        usual = importlib.import_module("scipy.linalg._flapack")
        monkeypatch.setattr(linalg, "_LAPACK", (usual, linalg._lapack()[1]))
        assert np.array_equal(_bits(cholesky_solve(a, b)), _bits(first))

    def test_no_file_found_trains_the_same_bits(self, monkeypatch):
        rng = np.random.default_rng(17)
        data = make_dataset(rng, 40, 6, 3)
        hyper = HyperParams(t_steps=2, levels=2, hidden=7, master_seed=5)
        model, norms = train(data, hyper)
        usual = importlib.import_module("scipy.linalg._flapack")  # before the finder is gone
        monkeypatch.setattr(
            importlib.machinery.PathFinder, "find_spec", classmethod(lambda cls, *args: None)
        )
        monkeypatch.setattr(linalg, "_LAPACK", None)
        again, again_norms = train(data, hyper)
        assert linalg._lapack()[0] is usual
        assert np.array_equal(_bits(again.weights), _bits(model.weights))
        assert np.array_equal(_bits(again_norms), _bits(norms))

    @pytest.mark.parametrize("first", ["elmboost", "scipy.linalg"])
    def test_both_import_orders_coexist(self, first):
        script = f"""
import numpy as np
from elmboost import linalg
a, b = np.diag([4.0, 9.0]), np.ones((2, 1))
if {first!r} == "scipy.linalg":
    import scipy.linalg
z = linalg.cholesky_solve(a, b)
import scipy.linalg
from scipy.linalg import _flapack
assert linalg._lapack()[0].__name__ == "_flapack" and linalg._lapack()[0] is not _flapack
assert np.array_equal(scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True), b), z)
assert np.array_equal(linalg.cholesky_solve(a, b), z)
"""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr


class TestLapackStatus:
    """A LAPACK status the f2py wrappers never return here still ends in RuntimeError."""

    @staticmethod
    def _stub(monkeypatch, **calls):
        """Replace LAPACK by a module whose named calls are the given ones, keeping the thread pin."""
        flapack, threads = linalg._lapack()
        stub = types.SimpleNamespace(**{"dpotrf": flapack.dpotrf, "dpotrs": flapack.dpotrs, **calls})
        monkeypatch.setattr(linalg, "_LAPACK", (stub, threads))

    def test_invalid_dpotrf_argument(self, monkeypatch):
        self._stub(monkeypatch, dpotrf=lambda c, **kwargs: (c, -4))
        with pytest.raises(RuntimeError, match="invalid argument 4 passed to dpotrf"):
            cholesky_solve(np.eye(3), np.ones((3, 1)))

    @pytest.mark.parametrize("status", [-2, 1])
    def test_dpotrs_failure(self, monkeypatch, status):
        self._stub(monkeypatch, dpotrs=lambda c, b, **kwargs: (b, status))
        with pytest.raises(RuntimeError, match=f"dpotrs failed with status {status}"):
            cholesky_solve(np.eye(3), np.ones((3, 1)))


class TestLapackThreads:
    """Each LAPACK call holds LAPACK's OpenBLAS at one thread and restores the caller's count."""

    @pytest.fixture
    def lapack_on_three(self):
        """LAPACK's OpenBLAS on 3 threads; yields its library path."""
        lapack = linalg._lapack()[0].__file__
        saved = blas_threads(lapack)
        set_blas_threads(3, lapack)
        yield lapack
        set_blas_threads(saved, lapack)

    @pytest.mark.parametrize("n, k", [(128, 3), (257, 10), (784, 10)])
    def test_bits_do_not_depend_on_lapack_threads(self, lapack_on_three, n, k):
        # unpinned, OpenBLAS's dpotrf gives other bits on 3 threads than on 1 here
        rng = np.random.default_rng(n * k)
        h, y = rng.standard_normal((n + 9, n)), rng.standard_normal((n + 9, k))
        a, b = _spd(rng, n), rng.standard_normal((n, k))
        solved = {}
        for count in (1, 3):
            set_blas_threads(count, lapack_on_three)
            solved[count] = ridge_solve(h, y, 0.3), cholesky_solve(a, b)
            assert blas_threads(lapack_on_three) == count
        for one, three in zip(solved[1], solved[3]):
            assert np.array_equal(_bits(one), _bits(three))

    @staticmethod
    def _record(monkeypatch, lapack, before=lambda: None):
        """[(call, LAPACK's thread count inside it)], filled by wrappers around dpotrf / dpotrs.

        before runs first in every dpotrf.
        """
        seen = []
        flapack, threads = linalg._lapack()

        def recording(name, call, before):
            def wrapper(*args, **kwargs):
                before()
                seen.append((name, blas_threads(lapack)))
                return call(*args, **kwargs)

            return wrapper

        stand_in = types.SimpleNamespace(
            dpotrf=recording("dpotrf", flapack.dpotrf, before),
            dpotrs=recording("dpotrs", flapack.dpotrs, lambda: None),
        )
        monkeypatch.setattr(linalg, "_LAPACK", (stand_in, threads))
        return seen

    def test_calls_run_on_one_thread_and_restore(self, monkeypatch, lapack_on_three):
        recorded = self._record(monkeypatch, lapack_on_three)
        rng = np.random.default_rng(15)
        ridge_solve(rng.standard_normal((40, 12)), rng.standard_normal((40, 2)), 0.5)
        assert recorded == [("dpotrf", 1), ("dpotrs", 1)]
        assert blas_threads(lapack_on_three) == 3
        with pytest.raises(NotPositiveDefiniteError):
            ridge_factor(np.ones((4, 3)), 0.0)
        assert recorded[2:] == [("dpotrf", 1)]
        assert blas_threads(lapack_on_three) == 3

    def test_two_threads_factoring_at_once_restore(self, monkeypatch, lapack_on_three):
        both_inside = threading.Barrier(2, timeout=30)
        recorded = self._record(monkeypatch, lapack_on_three, both_inside.wait)
        a = _spd(np.random.default_rng(16), 20)
        errors = []

        def factor():
            try:
                ridge_factor(a, 0.5)
            except BaseException as exc:
                errors.append(exc)

        runners = [threading.Thread(target=factor) for _ in range(2)]
        for runner in runners:
            runner.start()
        for runner in runners:
            runner.join(timeout=60)
        assert not errors and not any(runner.is_alive() for runner in runners)
        assert recorded == [("dpotrf", 1), ("dpotrf", 1)]
        assert blas_threads(lapack_on_three) == 3


class TestOneBlasThread:
    """The package's BLAS pin: one thread inside, the caller's count restored after."""

    @pytest.fixture
    def three_threads(self):
        """numpy's and LAPACK's OpenBLAS both on 3 threads; yields LAPACK's library path."""
        lapack = linalg._lapack()[0].__file__
        saved = blas_threads(), blas_threads(lapack)
        set_blas_threads(3)
        set_blas_threads(3, lapack)
        yield lapack
        set_blas_threads(saved[0])
        set_blas_threads(saved[1], lapack)

    def test_pins_and_restores(self, three_threads):
        with linalg.one_blas_thread():
            assert blas_threads() == 1
            assert blas_threads(three_threads) == 3
            with linalg.one_blas_thread():
                assert blas_threads() == 1
                assert blas_threads(three_threads) == 3
            assert blas_threads() == 1
            assert blas_threads(three_threads) == 3
        assert blas_threads() == blas_threads(three_threads) == 3

    def test_restores_when_the_block_raises(self, three_threads):
        with pytest.raises(RuntimeError):
            with linalg.one_blas_thread():
                raise RuntimeError("inside")
        assert blas_threads() == blas_threads(three_threads) == 3

    def test_missing_setter_logs_once_and_changes_nothing(self, caplog):
        count = linalg._ThreadCount("a BLAS without setters", None)
        with caplog.at_level(logging.WARNING, logger="elmboost.linalg"):
            for _ in range(2):
                with count:
                    pass
        assert [r.getMessage().split(";")[0] for r in caplog.records] == [
            "a BLAS without setters exports no OpenBLAS thread setter"
        ]
