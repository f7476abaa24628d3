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
the D4 filter of the Daubechies family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

_QUARTER_PI = np.pi / 4.0


@dataclass(frozen=True)
class ScalingFilter:
    """Four lowpass taps satisfying the orthonormal filter constraints."""

    taps: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        taps = np.asarray(self.taps, dtype=float)
        if taps.shape != (4,):
            raise ContractError(f"expected exactly 4 taps, got {taps.shape}")
        checks = {
            "sum(h) = sqrt(2)": float(taps.sum()) - float(np.sqrt(2.0)),
            "sum(h^2) = 1": float((taps ** 2).sum()) - 1.0,
            "shift-2 orthogonality": float(taps[0] * taps[2] + taps[1] * taps[3]),
        }
        for label, deviation in checks.items():
            if abs(deviation) > 1e-12:
                raise ContractError(f"filter violates {label} by {deviation:.3e}")


@dataclass(frozen=True)
class AngleReport:
    """Raw juxtaposition of the circuit, root, and filter angles (radians)."""

    theta_star: float
    minus_pi_12: float
    bethe_angle: float
    two_theta: float
    arg_b_quoted: float
    deviations: dict[str, float]


def lattice_filter(theta1: float) -> ScalingFilter:
    """Filter from the two-rotation lattice at theta2 = pi/4 - theta1, on the DC line."""
    theta2 = _QUARTER_PI - theta1
    c1, s1 = np.cos(theta1), np.sin(theta1)
    c2, s2 = np.cos(theta2), np.sin(theta2)
    return ScalingFilter(taps=(float(c1 * c2), float(c1 * s2), float(-s1 * s2), float(s1 * c2)))


def d4_coefficients() -> ScalingFilter:
    """The 4-tap filter with two vanishing moments: ((1+sqrt 3), (3+sqrt 3), (3-sqrt 3), (1-sqrt 3)) / (4 sqrt 2)."""
    root3 = np.sqrt(3.0)
    scale = 4.0 * np.sqrt(2.0)
    return ScalingFilter(
        taps=(
            float((1.0 + root3) / scale),
            float((3.0 + root3) / scale),
            float((3.0 - root3) / scale),
            float((1.0 - root3) / scale),
        )
    )


def angle_report(theta_star: float, bethe_root: float) -> AngleReport:
    """Tabulate the optimal circuit angle against the filter and root angles.

    ``bethe_root`` is the positive rapidity of the symmetric two-magnon
    pair; its characteristic angle is phi = arctan(root).  All entries are
    raw numbers; no closeness is asserted anywhere.
    """
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
