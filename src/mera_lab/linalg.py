"""Dense complex helpers for desk-scale problems (dim <= 4096).

Thin wrappers around numpy.  Matrices are plain row-major ndarrays treated
as immutable values: every operation returns a new array and never mutates
its inputs, so results are safe to share across concurrent tasks.
"""

from __future__ import annotations

import numpy as np

#: Default absolute tolerance for elementwise comparisons.
DEFAULT_TOL = 1e-12


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the left factor as the most significant block."""
    return np.kron(np.asarray(a), np.asarray(b))


def allclose(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Elementwise comparison with an absolute tolerance (shape-strict)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(a - b)) <= tol) if a.size else True
