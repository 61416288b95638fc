"""The closed-form ridge solver and the Gram and Cholesky kernels under it.

Everything operates on 2-D float64 numpy arrays.  Products are plain numpy
``@`` and the Cholesky factorization is LAPACK through scipy; these
functions add shape validation and the positive-definiteness error contract
the ridge solver relies on.

scipy's LAPACK module is imported by the first ``cholesky_solve`` call, not
with the package: it adds about 28 MB of resident memory, which processes
that only score or load models (``curve``, ``noise``, ``load``) never need.
"""

from __future__ import annotations

import numpy as np


class NotPositiveDefiniteError(ValueError):
    """Cholesky factorization hit a non-positive pivot."""

    def __init__(self, pivot_index: int, context: str = ""):
        self.pivot_index = pivot_index
        message = f"matrix is not positive definite (failing pivot {pivot_index})"
        if context:
            message = f"{message} {context}"
        super().__init__(message)


def gram(h: np.ndarray) -> np.ndarray:
    """HᵀH, exactly symmetric: numpy computes one triangle and mirrors it."""
    if h.ndim != 2 or h.size == 0:
        raise ValueError(f"gram needs a nonempty 2-D matrix, got shape {h.shape}")
    return h.T @ h


def cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a·Z = b for symmetric positive definite a.

    Factors a once (LAPACK ``dpotrf``) and applies two triangular solves
    (``dpotrs``); no explicit inverse is ever formed.  Inputs are not
    mutated.

    Raises:
        NotPositiveDefiniteError: a non-positive pivot was hit during the
            factorization; carries the zero-based pivot index.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"cholesky_solve needs a square matrix, got {a.shape}")
    if b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ValueError(f"cholesky_solve shape mismatch: {a.shape} vs {b.shape}")
    from scipy.linalg.lapack import dpotrf, dpotrs

    c, info = dpotrf(a, lower=1)
    if info > 0:
        raise NotPositiveDefiniteError(info - 1)
    if info < 0:
        raise ValueError(f"invalid argument {-info} passed to dpotrf")
    z, info = dpotrs(c, b, lower=1)
    if info != 0:
        raise ValueError(f"dpotrs failed with status {info}")
    return z


def ridge_solve(h: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Closed-form ridge regression: solve (HᵀH + λI)·W = HᵀY.

    Returns the (h.cols × y.cols) minimizer of ‖HW − Y‖² + λ‖W‖².  With
    λ = 0 this degenerates to ordinary least squares and requires HᵀH to
    be nonsingular.
    """
    if h.ndim != 2 or y.ndim != 2 or h.shape[0] != y.shape[0]:
        raise ValueError(f"ridge_solve shape mismatch: h is {h.shape}, y is {y.shape}")
    if lam < 0:
        raise ValueError(f"regularizer must be nonnegative, got {lam}")
    g = gram(h)
    if lam:
        g[np.diag_indices_from(g)] += lam
    return cholesky_solve(g, h.T @ y)

