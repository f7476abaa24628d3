"""Bethe equations for the short periodic chain and quantities from roots.

Rapidity convention: poles at +/- i in the single-magnon phase and at
+/- 2i in the pairwise scattering factor,

    ((lambda_j + i)/(lambda_j - i))^L
        = prod_{k != j} (lambda_j - lambda_k + 2i)/(lambda_j - lambda_k - 2i).

Momentum and energy follow the same convention: e^{ip} = (lambda+i)/(lambda-i)
and E = L/4 - sum_j 2/(lambda_j^2 + 1), which reproduces the chain Hamiltonian
normalization used in :mod:`mera_lab.heisenberg` (no shift, coupling 1).
"""

from __future__ import annotations

import cmath
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericError, check_integer

_POLE_TOL = 1e-10
_REAL_TOL = 1e-12


def _check_length(L: int) -> None:
    """Raise :class:`DomainError` for a chain length that is not an integer, or one of fewer than two sites."""
    check_integer(L, "chain length")
    if L < 2:
        raise DomainError(f"chain length {L} too short")


class BetheRoots(NamedTuple):
    """Rapidities of one solution plus the worst equation residual."""

    roots: tuple[complex, ...]
    residual_norm: float


def bethe_residual(roots: list[complex] | tuple[complex, ...], L: int) -> list[complex]:
    """Per-root residual LHS - RHS of the Bethe system; zero iff solved.

    A chain of fewer than two sites, a rapidity on a pole, or one that leaves
    a residual non-finite, raises :class:`DomainError`.
    """
    _check_length(L)
    roots = [complex(r) for r in roots]
    for lam in roots:
        if abs(lam - 1j) < _POLE_TOL or abs(lam + 1j) < _POLE_TOL:
            raise DomainError(f"rapidity {lam} sits on a pole of the phase factor")
    for j, lj in enumerate(roots):
        for k, lk in enumerate(roots):
            if j < k and (abs(lj - lk - 2j) < _POLE_TOL or abs(lj - lk + 2j) < _POLE_TOL):
                raise DomainError(f"pair ({lj}, {lk}) sits on a scattering pole")
    out = []
    for j, lj in enumerate(roots):
        lhs = ((lj + 1j) / (lj - 1j)) ** L
        rhs = complex(1.0)
        for k, lk in enumerate(roots):
            if k != j:
                rhs *= (lj - lk + 2j) / (lj - lk - 2j)
        out.append(lhs - rhs)
    # A non-finite rapidity, or a difference of two that overflows, leaves NaN here.
    if not all(cmath.isfinite(r) for r in out):
        raise DomainError(f"rapidities {roots} give a non-finite residual")
    return out


def solve_two_magnon() -> BetheRoots:
    """Symmetric two-magnon solution lambda_1 = -lambda_2 of the L = 4 system.

    Newton iteration on the log (additive-phase) form of the equations,
    which for the symmetric pair reduces to

        L * phase(lambda) - phase_pair(2 lambda) = 2 pi,

    with phase(lambda) = 2 atan(1/lambda).  The analytic derivative is
    -2 (L - 1) / (lambda^2 + 1).  Starting from 0.5 this converges to
    1/sqrt(3) in a handful of steps.
    """
    L = 4

    def phase_gap(lam: float) -> float:
        return 2.0 * (L - 1) * np.arctan(1.0 / lam) - 2.0 * np.pi

    def phase_gap_prime(lam: float) -> float:
        return -2.0 * (L - 1) / (lam * lam + 1.0)

    lam = 0.5
    for _ in range(100):
        step = phase_gap(lam) / phase_gap_prime(lam)
        lam -= step
        if abs(step) < 1e-15:
            break
    else:
        raise NumericError("Newton iteration for the two-magnon roots did not converge")
    residuals = bethe_residual([lam, -lam], L)
    residual_norm = max(abs(r) for r in residuals)
    if residual_norm > 1e-12:
        raise NumericError(f"two-magnon solution has residual {residual_norm:.3e}")
    return BetheRoots(roots=(complex(lam), complex(-lam)), residual_norm=float(residual_norm))


def one_magnon_roots(L: int) -> list[float]:
    """Finite rapidities of the single-magnon states: cot(pi m / L), m = 1..L-1.

    The momentum-zero state corresponds to an infinite rapidity and is left
    out of the table.  A chain of fewer than two sites raises :class:`DomainError`.
    """
    _check_length(L)
    return [float(1.0 / np.tan(np.pi * m / L)) for m in range(1, L)]


def _real_rapidity(lam: complex) -> float:
    """The real part of a finite rapidity whose imaginary part is below _REAL_TOL."""
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise DomainError(f"rapidity {lam} is not finite")
    if abs(lam.imag) > _REAL_TOL:
        raise DomainError(f"momentum and energy are defined for real rapidities, got {lam}")
    return lam.real


def momenta_from_roots(roots: list[complex] | tuple[complex, ...]) -> list[float]:
    """Momenta p_j in (-pi, pi] with e^{ip_j} = (lambda_j + i)/(lambda_j - i).

    A complex or non-finite rapidity raises :class:`DomainError`.
    """
    out = []
    for lam in roots:
        lam = _real_rapidity(lam)
        p = float(np.angle((lam + 1j) / (lam - 1j)))
        if p <= -np.pi:
            p += 2.0 * np.pi
        out.append(p)
    return out


def energy_from_roots(roots: list[complex] | tuple[complex, ...], L: int) -> float:
    """Chain energy L/4 - sum_j 2/(lambda_j^2 + 1) for real roots.

    A chain of fewer than two sites, a complex or non-finite rapidity, or one
    whose square overflows, raises :class:`DomainError`.
    """
    _check_length(L)
    total = L / 4.0
    for lam in roots:
        lam = _real_rapidity(lam)
        try:
            total -= 2.0 / (lam ** 2 + 1.0)
        except OverflowError:
            raise DomainError(f"rapidity {lam!r} is too large to square") from None
    return float(total)
