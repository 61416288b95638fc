"""The closed-form ridge solver and the Gram and Cholesky kernels under it.

Everything operates on 2-D float64 numpy arrays.  Products are plain numpy
``@``; the Cholesky factorization and its triangular solves are LAPACK's
``dpotrf`` and ``dpotrs``.  These functions add shape validation and the
positive-definiteness error contract the ridge solver relies on.

The ridge solve comes in two halves: ``ridge_factor`` (HᵀH + λI and its
Cholesky factor, which do not depend on the targets) and ``factor_solve``
(the triangular solves against a right-hand side).  ``ridge_factor`` factors
the Gram matrix in place: ``gram`` is exactly symmetric, so its transpose,
an F-ordered view of the same memory, is the same matrix in LAPACK's layout.

LAPACK is scipy's ``_flapack`` extension, whose f2py wrappers check their
arguments themselves.  It is loaded from its own file, which adds one
module; importing ``scipy.linalg`` would add 334 (scipy 1.17) and 25-29 MB
of resident memory for two functions.  Where no file is found (an editable
install has its own finder), ``scipy.linalg._flapack`` is imported the usual
way: the same module and calls, only costlier.  It is loaded once, when
LAPACK is first needed, so processes that only score or load models never
load it.  The wrappers hold the GIL while LAPACK runs.

OpenBLAS gives other bits on another thread count.  Each ``dpotrf`` and
``dpotrs`` call holds the BLAS under LAPACK at one thread, so every solver
here gives one answer whatever that copy's thread count is.
``one_blas_thread`` holds numpy's BLAS at one thread; ``lanes.in_order``
runs every two-lane walk inside it.  Both restore the caller's count.
"""

from __future__ import annotations

import ctypes
import importlib
import importlib.machinery
import importlib.util
import logging
import math
import os
import threading

import numpy as np

log = logging.getLogger(__name__)


class NotPositiveDefiniteError(ValueError):
    """Cholesky factorization hit a non-positive pivot."""

    def __init__(self, pivot_index: int, context: str = ""):
        self.pivot_index = pivot_index
        message = f"matrix is not positive definite (failing pivot {pivot_index})"
        if context:
            message = f"{message} {context}"
        super().__init__(message)


def _library(path):
    """The shared library at path, opened without running it as a Python module, or None."""
    try:
        return ctypes.CDLL(path)
    except OSError:
        return None


def _thread_calls(lib):
    """(get, set) of the thread count of the OpenBLAS that lib is or links, or None."""
    for prefix in ("scipy_", ""):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


class _ThreadCount:
    """The thread count of one OpenBLAS copy, held at 1 inside ``with``.

    Holders nest and may be on several threads: the first sets 1 and the
    last restores the count the first found, also when its block raises.
    Where the library exports no getter and setter, entering logs once and
    changes nothing.
    """

    _lock = threading.Lock()  # guards holders, saved and warned

    def __init__(self, what: str, lib):
        self.what = what
        self.calls = _thread_calls(lib)
        self.holders = 0
        self.saved = 0
        self.warned = False

    def __enter__(self) -> None:
        with self._lock:
            if self.calls is not None:
                if self.holders == 0:
                    self.saved = self.calls[0]()
                    self.calls[1](1)
                self.holders += 1
            elif not self.warned:
                self.warned = True
                log.warning(
                    "%s exports no OpenBLAS thread setter; its thread count is left "
                    "unchanged, so results may depend on it", self.what,
                )

    def __exit__(self, *exc) -> None:
        with self._lock:
            if self.calls is not None:
                self.holders -= 1
                if self.holders == 0:
                    self.calls[1](self.saved)


def _numpy_blas():
    try:
        return _library(importlib.import_module("numpy.linalg._umath_linalg").__file__)
    except (ImportError, AttributeError):
        return None


_NUMPY_THREADS = _ThreadCount("numpy's BLAS", _numpy_blas())
_LAPACK = None
_lapack_lock = threading.Lock()


def _lapack():
    """(scipy's _flapack module, the thread count of the BLAS under it), loaded by the first call."""
    global _LAPACK
    if _LAPACK is None:
        with _lapack_lock:  # one module, so one thread count per BLAS copy
            if _LAPACK is None:
                flapack = _load_flapack()
                _LAPACK = flapack, _ThreadCount("scipy's LAPACK", _library(flapack.__file__))
    return _LAPACK


def _load_flapack():
    """scipy's _flapack extension module, loaded from its file without importing scipy.linalg."""
    scipy = importlib.util.find_spec("scipy")
    dirs = [os.path.join(d, "linalg") for d in scipy.submodule_search_locations] if scipy else []
    spec = importlib.machinery.PathFinder.find_spec("_flapack", dirs)
    if spec is None:
        return importlib.import_module("scipy.linalg._flapack")
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack


def one_blas_thread() -> _ThreadCount:
    """A context that runs its block with numpy's BLAS on one thread.

    The thread count is process-wide.  Nested and concurrent blocks share
    one pin, and the last block to leave restores the count the first one
    found, also when the block raises.  The BLAS under LAPACK is not
    touched: each LAPACK call here pins its own.
    """
    return _NUMPY_THREADS


def gram(h: np.ndarray) -> np.ndarray:
    """HᵀH, exactly symmetric: numpy computes one triangle and mirrors it."""
    if h.ndim != 2 or h.size == 0:
        raise ValueError(f"gram needs a nonempty 2-D matrix, got shape {h.shape}")
    return h.T @ h


def _factor(c: np.ndarray) -> np.ndarray:
    """The Cholesky factor of the square c in the lower triangle of the array returned.

    That array is c itself when c is F-ordered float64; otherwise c is copied.
    """
    # dpotrf's wrapper refuses a non-square c itself, with its own error type
    # (not a ValueError); this check keeps the ValueError contract.
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"Cholesky factorization needs a square matrix, got {c.shape}")
    flapack, threads = _lapack()
    with threads:
        c, info = flapack.dpotrf(c, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise NotPositiveDefiniteError(info - 1)
    if info < 0:
        raise RuntimeError(f"invalid argument {-info} passed to dpotrf")
    return c


def factor_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a·Z = b given c, whose lower triangle is the Cholesky factor of a.

    Two triangular solves (``dpotrs``); b is not mutated and Z comes back
    F-ordered, as scipy's wrapper returns it.
    """
    if c.ndim != 2 or c.shape[0] != c.shape[1] or b.ndim != 2 or c.shape[0] != b.shape[0]:
        raise ValueError(f"factor_solve shape mismatch: {c.shape} vs {b.shape}")
    flapack, threads = _lapack()
    with threads:
        z, info = flapack.dpotrs(c, b, lower=1)
    if info != 0:
        raise RuntimeError(f"dpotrs failed with status {info}")
    return z


def cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a·Z = b for symmetric positive definite a.

    Factors a once (LAPACK ``dpotrf``) and applies two triangular solves
    (``dpotrs``); no explicit inverse is ever formed.  Inputs are not
    mutated.

    Raises:
        NotPositiveDefiniteError: a non-positive pivot was hit during the
            factorization; carries the zero-based pivot index.
    """
    return factor_solve(_factor(np.array(a, dtype=np.float64, order="F")), b)


def check_lam(lam: float) -> None:
    """Raise ValueError unless the ridge regularizer λ is finite and nonnegative."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and nonnegative, got {lam}")


def ridge_factor(h: np.ndarray, lam: float) -> np.ndarray:
    """Cholesky factor of HᵀH + λI, for factor_solve; it does not depend on the targets.

    λ must be finite and nonnegative (check_lam; ValueError otherwise).
    Returns an F-ordered J×J array whose lower triangle is the factor; the
    strict upper triangle keeps HᵀH.  The factor overwrites the Gram
    matrix's own memory, so no J×J copy is made.
    """
    check_lam(lam)
    g = gram(np.asarray(h, dtype=np.float64))
    if lam:
        g[np.diag_indices_from(g)] += lam
    return _factor(g.T)  # F-ordered: g is C-ordered and symmetric


def ridge_solve(h: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Closed-form ridge regression: solve (HᵀH + λI)·W = HᵀY.

    Returns the (h.cols × y.cols) minimizer of ‖HW − Y‖² + λ‖W‖².  With
    λ = 0 this degenerates to ordinary least squares and requires HᵀH to
    be nonsingular.  λ is checked as ridge_factor checks it.
    """
    return factor_solve(ridge_factor(h, lam), h.T @ y)
