"""Antiferromagnetic Heisenberg chains (n <= 12 sites) and their exact spectra.

H = sum over bonds of [ (S+ S- + S- S+)/2 + Sz Sz ] with spin-1/2 operators,
coupling 1 and no constant shift, so a ferromagnetic bond contributes +1/4 on
the diagonal and an antiferromagnetic one -1/4 plus an exchange element 1/2.
The matrix is real symmetric in the computational basis.

H conserves total Sz, so it is block diagonal in the number of down spins.
One builder makes H on any ascending list of basis states closed under spin
exchange: ``hamiltonian`` gives it all 2^n states and ``sector_hamiltonian``
one fixed-magnetization sector (at most C(12, 6) = 924 states). The ``ed``
command works one Sz sector at a time and never forms the 2^n matrix;
``ground_state`` stays dense because its callers need the full state vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, NumericError, ResourceError, ShapeError

MAX_SITES = 12


class BoundaryCondition(str, Enum):
    OPEN = "open"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class SectorBasis:
    """Ascending full-space indices of the fixed-magnetization sector."""

    n: int
    n_down: int
    indices: tuple[int, ...]


def _bonds(n: int, bc: BoundaryCondition | str) -> list[tuple[int, int]]:
    if not 2 <= n <= MAX_SITES:
        raise ResourceError(f"site count {n} outside the supported range 2..{MAX_SITES}")
    bonds = [(i, i + 1) for i in range(n - 1)]
    if BoundaryCondition(bc) is BoundaryCondition.PERIODIC:
        bonds.append((n - 1, 0))
    return bonds


def _build_hamiltonian(n: int, states: np.ndarray, bonds: list[tuple[int, int]]) -> np.ndarray:
    """H on the span of ``states``, which must be ascending and closed under exchange."""
    dim = len(states)
    h = np.zeros((dim, dim))
    rows = np.arange(dim)
    for i, j in bonds:
        bi = (states >> (n - 1 - i)) & 1
        bj = (states >> (n - 1 - j)) & 1
        aligned = bi == bj
        h[rows, rows] += np.where(aligned, 0.25, -0.25)
        anti = rows[~aligned]
        flipped = states[anti] ^ ((1 << (n - 1 - i)) | (1 << (n - 1 - j)))
        h[np.searchsorted(states, flipped), anti] += 0.5
    return h


def hamiltonian(n: int, bc: BoundaryCondition | str = BoundaryCondition.PERIODIC) -> np.ndarray:
    """Dense 2^n x 2^n Heisenberg Hamiltonian; real symmetric."""
    bonds = _bonds(n, bc)
    return _build_hamiltonian(n, np.arange(1 << n), bonds)


def sector_basis(n: int, n_down: int) -> SectorBasis:
    """All basis states with exactly ``n_down`` down spins, ascending."""
    if not 0 <= n_down <= n:
        raise DomainError(f"down-spin count {n_down} invalid for {n} sites")
    states = np.arange(1 << n)
    ones = np.zeros_like(states)
    for k in range(n):
        ones += (states >> k) & 1
    return SectorBasis(n=n, n_down=n_down, indices=tuple(np.flatnonzero(ones == n_down).tolist()))


def sector_hamiltonian(
    n: int, n_down: int, bc: BoundaryCondition | str = BoundaryCondition.PERIODIC
) -> np.ndarray:
    """Block of H with ``n_down`` down spins, in ``sector_basis`` order; real symmetric."""
    bonds = _bonds(n, bc)
    states = np.array(sector_basis(n, n_down).indices, dtype=np.int64)
    return _build_hamiltonian(n, states, bonds)


def _fix_phase(state: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude amplitude real positive (ties: lowest index)."""
    mags = np.abs(state)
    top = float(mags.max())
    candidates = np.flatnonzero(mags >= top * (1.0 - 1e-12))
    pivot = state[int(candidates[0])]
    return state * (np.conj(pivot) / abs(pivot))


def ground_state(
    n: int, bc: BoundaryCondition | str = BoundaryCondition.PERIODIC
) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the chain; the state is normalized and phase-fixed."""
    h = hamiltonian(n, bc)
    values, vectors = np.linalg.eigh(h)
    state = vectors[:, 0].astype(complex)
    state = state / np.linalg.norm(state)
    return float(values[0]), _fix_phase(state)


def energy_expectation(h: np.ndarray, psi: np.ndarray) -> float:
    """Rayleigh quotient <psi|H|psi>/<psi|psi>; the result must be real."""
    h = np.asarray(h)
    psi = np.asarray(psi, dtype=complex)
    if h.shape[0] != h.shape[1] or h.shape[0] != psi.shape[0]:
        raise ShapeError(f"incompatible shapes {h.shape} and {psi.shape}")
    norm_sq = float(np.vdot(psi, psi).real)
    if norm_sq <= 0.0:
        raise DomainError("cannot score a zero state vector")
    value = complex(np.vdot(psi, h @ psi)) / norm_sq
    if abs(value.imag) > 1e-12:
        raise NumericError(f"expectation has imaginary residue {value.imag:.3e}")
    return value.real
