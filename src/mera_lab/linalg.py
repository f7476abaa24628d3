"""Dense complex linear algebra kernel for desk-scale problems (dim <= 4096).

Thin, shape-checked wrappers around numpy.  Matrices are plain
row-major ndarrays treated as immutable values: every operation returns a
new array and never mutates its inputs, so results are safe to share
across concurrent tasks.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

#: Default absolute tolerance for elementwise comparisons.
DEFAULT_TOL = 1e-12


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the left factor as the most significant block."""
    return np.kron(np.asarray(a), np.asarray(b))


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def allclose(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Elementwise comparison with an absolute tolerance (shape-strict)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(a - b)) <= tol) if a.size else True
