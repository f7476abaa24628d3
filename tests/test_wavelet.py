import math
import warnings

import numpy as np
import pytest

from mera_lab import wavelet
from mera_lab.errors import ContractError, DomainError, NumericError

SQRT2 = np.sqrt(2.0)


def alternating_first_moment(taps) -> float:
    return float(sum((-1) ** k * k * t for k, t in enumerate(taps)))


def bisect_moment_angle() -> float:
    """Independent oracle: bisection root of the degree-1 alternating moment."""
    lo, hi = -np.pi / 4.0, 0.0
    f = lambda t: alternating_first_moment(wavelet.lattice_filter(t).taps)
    assert f(lo) * f(hi) < 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.sign(f(mid)) == np.sign(f(lo)):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestD4:
    def test_sum_is_sqrt2(self):
        taps = np.asarray(wavelet.d4_coefficients().taps)
        assert abs(taps.sum() - SQRT2) < 1e-15

    def test_unit_power(self):
        taps = np.asarray(wavelet.d4_coefficients().taps)
        assert abs((taps ** 2).sum() - 1.0) < 1e-15

    def test_vanishing_moments(self):
        taps = wavelet.d4_coefficients().taps
        zeroth = sum((-1) ** k * t for k, t in enumerate(taps))
        assert abs(zeroth) < 1e-14
        assert abs(alternating_first_moment(taps)) < 1e-14

    def test_shift_two_orthogonality(self):
        taps = wavelet.d4_coefficients().taps
        assert abs(taps[0] * taps[2] + taps[1] * taps[3]) < 1e-13

    def test_taps_off_the_lattice_filter_raise(self, monkeypatch):
        # The quadratic and DC constraints hold at every lattice angle; only the check
        # against the vanishing-moment angle catches taps of a neighbouring angle.
        original = wavelet.lattice_filter
        monkeypatch.setattr(wavelet, "lattice_filter", lambda theta1: original(theta1 + 1e-9))
        with pytest.raises(NumericError, match="D4 taps differ from the lattice filter"):
            wavelet.d4_coefficients()


class TestLatticeFilter:
    def test_zero_angle_degenerates_to_haar(self):
        taps = np.asarray(wavelet.lattice_filter(0.0).taps)
        expected = np.array([SQRT2 / 2.0, SQRT2 / 2.0, 0.0, 0.0])
        assert np.max(np.abs(taps - expected)) < 1e-15

    def test_orthonormality_on_grid(self):
        for theta in np.linspace(-np.pi, np.pi, 1000):
            taps = np.asarray(wavelet.lattice_filter(float(theta)).taps)
            assert abs(taps.sum() - SQRT2) < 1e-12
            assert abs((taps ** 2).sum() - 1.0) < 1e-12
            assert abs(taps[0] * taps[2] + taps[1] * taps[3]) < 1e-12

    def test_moment_angle_reproduces_d4(self):
        angle = bisect_moment_angle()
        assert abs(angle - (-np.pi / 12.0)) < 1e-12
        taps = np.asarray(wavelet.lattice_filter(angle).taps)
        expected = np.asarray(wavelet.d4_coefficients().taps)
        assert np.max(np.abs(taps - expected)) < 1e-12


class TestScalingFilterInvariants:
    def test_bad_taps_rejected(self):
        with pytest.raises(ContractError):
            wavelet.ScalingFilter((1.0, 0.0, 0.0, 0.0))

    # NaN compares false with every bound, so a NaN deviation must fail the check, not pass it.
    @pytest.mark.parametrize("taps", [(math.nan,) * 4, (math.nan, 0.5, 0.5, 0.5), (math.inf,) * 4, (-math.inf,) * 4])
    def test_non_finite_taps_rejected(self, taps):
        with pytest.raises(ContractError):
            wavelet.ScalingFilter(taps)

    # Each tap set once warned (invalid value, overflow) before it was refused.
    @pytest.mark.parametrize("taps", [(math.inf, 0.0, 0.0, 0.0), (math.inf, -math.inf, 0.5, 0.5), (1e200, 0.0, 0.0, 0.0)])
    def test_refused_without_a_warning(self, taps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError):
                wavelet.ScalingFilter(taps)

    @pytest.mark.parametrize("taps", [(), (SQRT2,), (0.5, 0.5, 0.5, 0.5, 0.0), ((0.5, 0.5), (0.5, 0.5))])
    def test_tap_count_other_than_four_rejected(self, taps):
        with pytest.raises(ContractError, match="exactly 4"):
            wavelet.ScalingFilter(taps)

    def test_lattice_filter_of_nan_rejected(self):
        with pytest.raises(ContractError):
            wavelet.lattice_filter(math.nan)

    def test_lattice_filter_of_inf_rejected(self):
        # Refused before np.cos and np.sin, which warn on an infinite angle.
        for angle in (math.inf, -math.inf):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ContractError, match="lattice angle must be finite"):
                    wavelet.lattice_filter(angle)


class TestAngleReport:
    @pytest.mark.parametrize(
        "theta_star, bethe_root", [(math.nan, 0.5), (math.inf, 0.5), (0.1, math.inf), (0.1, -math.inf), (0.1, math.nan)]
    )
    def test_non_finite_input_is_refused(self, theta_star, bethe_root):
        # Without the check NaN entries came back, and an infinite root read as a Bethe angle of pi/2.
        with pytest.raises(DomainError, match="finite angle and root"):
            wavelet.angle_report(theta_star, bethe_root)

    def test_angle_table_values(self):
        theta_star = -0.5 * np.arcsin(1.0 / np.sqrt(5.0))
        rep = wavelet.angle_report(theta_star, 1.0 / np.sqrt(3.0))
        assert abs(rep.bethe_angle - np.pi / 6.0) < 1e-15
        assert abs(rep.minus_pi_12 - (-np.pi / 12.0)) < 1e-15
        assert abs(rep.two_theta - 2.0 * abs(theta_star)) < 1e-15
        assert abs(rep.two_theta / np.pi - 0.1476) < 5e-4

    def test_deviations_are_raw_differences(self):
        theta_star = -0.5 * np.arcsin(1.0 / np.sqrt(5.0))
        rep = wavelet.angle_report(theta_star, 1.0 / np.sqrt(3.0))
        dev = rep.deviations
        assert abs(dev["theta_star_vs_minus_pi_12"] - (theta_star + np.pi / 12.0)) < 1e-15
        assert abs(dev["theta_star_vs_minus_pi_12"] / np.pi - 0.0095) < 1e-3
        assert abs(dev["two_theta_vs_bethe_angle"] - (2.0 * abs(theta_star) - np.pi / 6.0)) < 1e-15
        assert abs(dev["two_theta_vs_bethe_angle"] / np.pi - (-0.019)) < 1e-3
        # the quoted weight phase decomposes as pi/2 plus the root angle
        assert abs(dev["arg_b_quoted_minus_half_pi_vs_bethe_angle"]) < 1e-14
