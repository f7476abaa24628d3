import math

import numpy as np
import pytest

from mera_lab import bethe
from mera_lab.errors import DomainError
from mera_lab.heisenberg import BoundaryCondition, ground_state, hamiltonian

ROOT3_INV = 1.0 / np.sqrt(3.0)


class TestResidual:
    def test_symmetric_pair_solves_system(self):
        residuals = bethe.bethe_residual([ROOT3_INV, -ROOT3_INV], 4)
        assert all(abs(r) < 1e-13 for r in residuals)

    def test_wrong_pair_has_large_residual(self):
        residuals = bethe.bethe_residual([0.2, -0.2], 4)
        assert max(abs(r) for r in residuals) > 1e-3

    def test_single_magnon_unit_rapidity(self):
        # ((1+i)/(1-i))^4 = i^4 = 1 and the empty scattering product is 1.
        residuals = bethe.bethe_residual([1.0], 4)
        assert abs(residuals[0]) < 1e-14

    @pytest.mark.parametrize("roots", [[np.nan, 1.0], [np.inf], [1e308, -1e308]], ids=["nan", "inf", "overflow"])
    def test_non_finite_residual_rejected(self, roots):
        with pytest.raises(DomainError, match="non-finite residual"):
            bethe.bethe_residual(roots, 4)

    def test_pole_guards(self):
        with pytest.raises(DomainError):
            bethe.bethe_residual([1j], 4)
        with pytest.raises(DomainError):
            bethe.bethe_residual([1.0 + 1j, 1.0 - 1j], 4)


class TestTwoMagnonSolver:
    def test_root_value(self):
        solution = bethe.solve_two_magnon()
        lam = solution.roots[0].real
        assert lam == 1.0 / math.sqrt(3.0)
        assert abs(lam - 0.5773502691896258) < 1e-12
        assert abs(np.arctan(lam) - np.pi / 6.0) < 1e-12
        assert solution.roots[1] == -solution.roots[0]

    def test_residual_norm(self):
        solution = bethe.solve_two_magnon()
        assert solution.residual_norm < 1e-12

    def test_both_equations_checked_independently(self):
        solution = bethe.solve_two_magnon()
        residuals = bethe.bethe_residual(list(solution.roots), 4)
        assert len(residuals) == 2
        assert all(abs(r) < 1e-12 for r in residuals)

    def test_negated_pair_is_also_a_solution(self):
        solution = bethe.solve_two_magnon()
        forward = bethe.bethe_residual(list(solution.roots), 4)
        backward = bethe.bethe_residual([-r for r in solution.roots], 4)
        assert abs(max(abs(r) for r in forward) - max(abs(r) for r in backward)) < 1e-13


class TestMomenta:
    def test_ground_pair_momenta(self):
        momenta = bethe.momenta_from_roots([ROOT3_INV, -ROOT3_INV])
        assert abs(momenta[0] - 2.0 * np.pi / 3.0) < 1e-14
        assert abs((momenta[0] + momenta[1]) % (2.0 * np.pi)) < 1e-12

    def test_large_rapidity_limit(self):
        assert abs(bethe.momenta_from_roots([1e8])[0]) < 1e-7

    def test_zero_rapidity_maps_to_pi(self):
        assert abs(bethe.momenta_from_roots([0.0])[0] - np.pi) < 1e-14

    def test_negative_zero_rapidity_maps_to_pi(self):
        # (-0 + i)/(-0 - i) = -1 - 0i, whose angle is -pi; the momentum is folded into (-pi, pi].
        assert bethe.momenta_from_roots([-0.0]) == [np.pi]

    def test_complex_root_rejected(self):
        with pytest.raises(DomainError):
            bethe.momenta_from_roots([0.5 + 0.5j])

    @pytest.mark.parametrize("lam", [np.inf, -np.inf, np.nan, complex(0.5, np.nan)])
    def test_non_finite_root_rejected(self, lam):
        with pytest.raises(DomainError, match="not finite"):
            bethe.momenta_from_roots([lam])


class TestEnergy:
    def test_ground_pair_matches_exact_diagonalization(self):
        solution = bethe.solve_two_magnon()
        energy = bethe.energy_from_roots(solution.roots, 4)
        energy_ed, _ = ground_state(4, BoundaryCondition.PERIODIC)
        assert abs(energy - (-2.0)) < 1e-12
        assert abs(energy - energy_ed) < 1e-10

    def test_no_magnons_reference(self):
        assert bethe.energy_from_roots([], 4) == 1.0

    def test_single_magnon_cross_check(self, h4):
        # lambda = 1 has momentum pi/2 and energy 0; verify the plane wave
        # over single down-spin states is an explicit eigenvector at 0.
        energy = bethe.energy_from_roots([1.0], 4)
        assert abs(energy) < 1e-14
        p = bethe.momenta_from_roots([1.0])[0]
        assert abs(p - np.pi / 2.0) < 1e-14
        wave = np.zeros(16, dtype=complex)
        for x in range(4):
            wave[1 << (3 - x)] = np.exp(1j * p * x)
        assert np.max(np.abs(h4 @ wave - energy * wave)) < 1e-12

    def test_complex_roots_unsupported(self):
        with pytest.raises(DomainError):
            bethe.energy_from_roots([1j], 4)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_non_finite_root_rejected(self, lam):
        with pytest.raises(DomainError, match="not finite"):
            bethe.energy_from_roots([0.5, lam], 4)

    def test_root_whose_square_overflows_rejected(self):
        with pytest.raises(DomainError, match="too large"):
            bethe.energy_from_roots([1e200], 4)


class TestOneMagnonTable:
    def test_finite_rapidities(self):
        roots = bethe.one_magnon_roots(4)
        assert np.allclose(roots, [1.0, 0.0, -1.0], atol=1e-14)

    @pytest.mark.parametrize("L", [1, 0, -3])
    def test_chain_shorter_than_two_sites_rejected(self, L):
        with pytest.raises(DomainError, match="too short"):
            bethe.one_magnon_roots(L)

    @pytest.mark.parametrize("L", [1, 0, -3])
    def test_residual_and_energy_refuse_the_same_lengths(self, L):
        # One guard for the whole module: without it a 0-site residual read [0j] ("solved").
        with pytest.raises(DomainError, match="too short"):
            bethe.bethe_residual([0.5], L)
        with pytest.raises(DomainError, match="too short"):
            bethe.energy_from_roots([0.5], L)

    def test_chain_length_must_be_an_integer(self):
        with pytest.raises(DomainError, match="chain length must be an integer"):
            bethe.one_magnon_roots(2.5)
        with pytest.raises(DomainError, match="chain length must be an integer"):
            bethe.bethe_residual([0.5], 4.5)
        assert bethe.one_magnon_roots(np.int64(4)) == bethe.one_magnon_roots(4)

    def test_energies_appear_in_sector_spectrum(self):
        from mera_lab.heisenberg import sector_hamiltonian

        spectrum = np.linalg.eigvalsh(sector_hamiltonian(4, 1, BoundaryCondition.PERIODIC))
        for lam in bethe.one_magnon_roots(4):
            energy = bethe.energy_from_roots([lam], 4)
            assert np.min(np.abs(spectrum - energy)) < 1e-12
