"""Orthogonal 4-tap scaling filters from a two-rotation lattice.

The lattice builds the lowpass analysis filter (leftmost tap first) from two
planar rotations acting on the even/odd polyphase components:

    h = (cos t1 cos t2, cos t1 sin t2, -sin t1 sin t2, sin t1 cos t2).

The quadratic constraints (unit power, shift-2 orthogonality) hold for every
angle pair; the DC condition sum(h) = sqrt(2) holds exactly on the line
t1 + t2 = pi/4, and the constructor builds every filter on it, so the DC
condition holds by construction.  On that line the filter response also
vanishes at the band edge, and requiring the first derivative there to
vanish as well (zero degree-1 alternating moment) singles out t1 = -pi/12:
the D4 filter of the Daubechies family, whose closed-form taps
:func:`d4_coefficients` checks against the lattice at that angle.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DomainError, NumericError

_QUARTER_PI = np.pi / 4.0


class _Taps(NamedTuple):
    taps: tuple[float, float, float, float]


class ScalingFilter(_Taps):
    """Four lowpass taps satisfying the orthonormal filter constraints."""

    __slots__ = ()

    def __new__(cls, taps: tuple[float, float, float, float]) -> ScalingFilter:
        h = np.asarray(taps, dtype=float)
        if h.shape != (4,) or not np.isfinite(h).all():
            raise ContractError(f"expected exactly 4 finite taps, got {taps!r}")
        # Finite taps whose squares or products overflow give an infinite deviation.
        with np.errstate(over="ignore"):
            checks = {
                "sum(h) = sqrt(2)": float(h.sum()) - float(np.sqrt(2.0)),
                "sum(h^2) = 1": float((h ** 2).sum()) - 1.0,
                "shift-2 orthogonality": float(h[0] * h[2] + h[1] * h[3]),
            }
        for label, deviation in checks.items():
            if not abs(deviation) <= 1e-12:
                raise ContractError(f"filter violates {label} by {deviation:.3e}")
        return super().__new__(cls, taps)


class AngleReport(NamedTuple):
    """Raw juxtaposition of the circuit, root, and filter angles (radians)."""

    theta_star: float
    minus_pi_12: float
    bethe_angle: float
    two_theta: float
    arg_b_quoted: float
    deviations: dict[str, float]


def lattice_filter(theta1: float) -> ScalingFilter:
    """Filter from the two-rotation lattice at theta2 = pi/4 - theta1, on the DC line.

    A non-finite angle raises :class:`ContractError` before any trigonometry,
    so without numpy's warning.
    """
    if not math.isfinite(theta1):
        raise ContractError(f"lattice angle must be finite, got {theta1!r}")
    theta2 = _QUARTER_PI - theta1
    c1, s1 = np.cos(theta1), np.sin(theta1)
    c2, s2 = np.cos(theta2), np.sin(theta2)
    return ScalingFilter(taps=(float(c1 * c2), float(c1 * s2), float(-s1 * s2), float(s1 * c2)))


def d4_coefficients() -> ScalingFilter:
    """The 4-tap filter with two vanishing moments: ((1+sqrt 3), (3+sqrt 3), (3-sqrt 3), (1-sqrt 3)) / (4 sqrt 2).

    Taps more than 1e-12 from ``lattice_filter(-pi/12)``, the lattice's
    vanishing-moment filter, raise :class:`NumericError`.
    """
    root3 = np.sqrt(3.0)
    scale = 4.0 * np.sqrt(2.0)
    d4 = ScalingFilter(taps=tuple(float(t / scale) for t in (1.0 + root3, 3.0 + root3, 3.0 - root3, 1.0 - root3)))
    deviation = float(np.max(np.abs(np.subtract(d4.taps, lattice_filter(-np.pi / 12).taps))))
    if not deviation <= 1e-12:
        raise NumericError(f"D4 taps differ from the lattice filter at -pi/12 by {deviation:.3e}")
    return d4


def angle_report(theta_star: float, bethe_root: float) -> AngleReport:
    """Tabulate the optimal circuit angle against the filter and root angles.

    ``bethe_root`` is the positive rapidity of the symmetric two-magnon
    pair; its characteristic angle is phi = arctan(root).  All entries are
    raw numbers; no closeness is asserted anywhere.  A non-finite angle or
    root raises :class:`DomainError` before any arithmetic.
    """
    if not (math.isfinite(theta_star) and math.isfinite(bethe_root)):
        raise DomainError(f"angle report needs a finite angle and root, got {theta_star!r} and {bethe_root!r}")
    phi = float(np.arctan(bethe_root))
    minus_pi_12 = float(-np.pi / 12.0)
    two_theta = float(2.0 * abs(theta_star))
    arg_b_quoted = float(2.0 * np.pi / 3.0)
    deviations = {
        "theta_star_vs_minus_pi_12": float(theta_star - minus_pi_12),
        "two_theta_vs_bethe_angle": float(two_theta - phi),
        "arg_b_quoted_minus_half_pi_vs_bethe_angle": float(arg_b_quoted - np.pi / 2.0 - phi),
    }
    return AngleReport(
        theta_star=float(theta_star),
        minus_pi_12=minus_pi_12,
        bethe_angle=phi,
        two_theta=two_theta,
        arg_b_quoted=arg_b_quoted,
        deviations=deviations,
    )
