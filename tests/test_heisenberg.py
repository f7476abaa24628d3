import numpy as np
import pytest

from mera_lab import heisenberg as hb
from mera_lab.errors import DomainError, ResourceError, ShapeError

from conftest import GROUND_PATTERN, SECTOR_INDICES, SZ0_BLOCK

OPEN = hb.BoundaryCondition.OPEN
PERIODIC = hb.BoundaryCondition.PERIODIC


def singlet_covering(n: int, pairs: list[tuple[int, int]]) -> np.ndarray:
    """Product of singlets (|01> - |10>)/sqrt(2) on the given 1-based site pairs.

    Built directly from the definition, independent of the Hamiltonian code.
    """
    state = np.zeros(1 << n, dtype=complex)
    for m in range(1 << n):
        bits = [(m >> (n - 1 - site)) & 1 for site in range(n)]
        amp = 1.0
        for i, j in pairs:
            bi, bj = bits[i - 1], bits[j - 1]
            if bi == bj:
                amp = 0.0
                break
            amp *= (1.0 if (bi, bj) == (0, 1) else -1.0) / np.sqrt(2.0)
        state[m] = amp
    return state


class TestHamiltonian:
    def test_two_site_open_spectrum(self):
        values = np.linalg.eigvalsh(hb.hamiltonian(2, OPEN))
        assert np.allclose(values, [-0.75, 0.25, 0.25, 0.25], atol=1e-14)

    def test_half_filling_block_is_exact(self):
        assert np.array_equal(hb.sector_hamiltonian(4, 2, PERIODIC), SZ0_BLOCK)

    def test_ground_energy_against_hand_eigenvector(self, h4):
        # Independent oracle: the known pattern is an exact eigenvector at -2.
        v = np.zeros(16)
        v[list(SECTOR_INDICES)] = GROUND_PATTERN
        assert np.max(np.abs(h4 @ v - (-2.0) * v)) < 1e-15
        energy, _ = hb.ground_state(4, PERIODIC)
        assert abs(energy - (-2.0)) < 1e-12

    def test_accepts_string_boundary(self):
        assert np.array_equal(hb.hamiltonian(3, "open"), hb.hamiltonian(3, OPEN))

    def test_real_symmetric_exactly(self):
        for n, bc in ((3, OPEN), (5, PERIODIC)):
            h = hb.hamiltonian(n, bc)
            assert np.array_equal(h, h.T)
            assert np.isrealobj(h)

    def test_site_count_bounds(self):
        with pytest.raises(ResourceError):
            hb.hamiltonian(1, OPEN)
        with pytest.raises(ResourceError):
            hb.hamiltonian(13, PERIODIC)


class TestSectorHamiltonian:
    @pytest.mark.parametrize("bc", [OPEN, PERIODIC])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_dense_slice(self, n, bc):
        # n = 2 periodic has the bond (0, 1) twice, so its exchange element is 1.
        h = hb.hamiltonian(n, bc)
        for n_down in range(n + 1):
            idx = np.array(hb.sector_basis(n, n_down).indices)
            assert np.array_equal(hb.sector_hamiltonian(n, n_down, bc), h[np.ix_(idx, idx)])

    def test_all_up_sector(self):
        assert np.array_equal(hb.sector_hamiltonian(4, 0, PERIODIC), np.array([[1.0]]))

    def test_largest_block_is_real_symmetric(self):
        block = hb.sector_hamiltonian(12, 6, PERIODIC)
        assert block.shape == (924, 924)
        assert np.array_equal(block, block.T)

    def test_bounds(self):
        with pytest.raises(ResourceError):
            hb.sector_hamiltonian(13, 6, PERIODIC)
        with pytest.raises(DomainError):
            hb.sector_hamiltonian(4, 5, PERIODIC)


class TestSectorBasis:
    def test_half_filling_four_sites(self):
        assert hb.sector_basis(4, 2).indices == SECTOR_INDICES

    def test_no_down_spins(self):
        assert hb.sector_basis(2, 0).indices == (0,)

    def test_single_down_three_sites(self):
        assert hb.sector_basis(3, 1).indices == (1, 2, 4)

    def test_invalid_count(self):
        with pytest.raises(DomainError):
            hb.sector_basis(3, 4)

    def test_matches_popcount_definition(self):
        for n_down in range(9):
            indices = hb.sector_basis(8, n_down).indices
            assert indices == tuple(m for m in range(256) if bin(m).count("1") == n_down)
            assert all(type(m) is int for m in indices)


class TestGroundState:
    def test_four_site_periodic_amplitudes(self, exact_ground):
        energy, state = exact_ground
        assert abs(energy - (-2.0)) < 1e-12
        target = np.zeros(16)
        target[list(SECTOR_INDICES)] = GROUND_PATTERN / np.sqrt(12.0)
        overlap = abs(np.vdot(state, target))
        assert abs(overlap - 1.0) < 1e-10
        outside = np.delete(state, list(SECTOR_INDICES))
        assert np.max(np.abs(outside)) < 1e-12

    def test_phase_fix_makes_pivot_positive(self, exact_ground):
        _, state = exact_ground
        pivot = state[np.argmax(np.abs(state))]
        assert pivot.imag == 0.0 and pivot.real > 0.0

    def test_two_site_singlet(self):
        energy, state = hb.ground_state(2, OPEN)
        assert abs(energy - (-0.75)) < 1e-14
        expected = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        assert np.max(np.abs(state - expected)) < 1e-14

    def test_four_site_open_energy_recorded(self):
        energy, state = hb.ground_state(4, OPEN)
        # Open-chain value recorded, not asserted against any target.
        assert np.isfinite(energy)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12
        print(f"open four-site ground energy: {energy:.12f}")


class TestEnergyExpectation:
    def test_diagonal(self):
        assert hb.energy_expectation(np.diag([0.0, 1.0]), np.array([1.0, 0.0])) == 0.0

    def test_exact_ground(self, h4, exact_ground):
        _, state = exact_ground
        assert abs(hb.energy_expectation(h4, state) - (-2.0)) < 1e-12

    def test_uniform_sector_superposition(self, h4):
        # Hand value: every row of the half-filling block sums to 1.
        assert np.allclose(SZ0_BLOCK @ np.ones(6), np.ones(6))
        psi = np.zeros(16)
        psi[list(SECTOR_INDICES)] = 1.0
        assert abs(hb.energy_expectation(h4, psi) - 1.0) < 1e-12

    def test_zero_vector_rejected(self, h4):
        with pytest.raises(DomainError):
            hb.energy_expectation(h4, np.zeros(16))

    def test_shape_mismatch(self, h4):
        with pytest.raises(ShapeError):
            hb.energy_expectation(h4, np.ones(8))


class TestSymmetries:
    def test_magnetization_sectors_reproduce_full_spectrum(self):
        for n in (3, 4, 6):
            full = np.sort(np.linalg.eigvalsh(hb.hamiltonian(n, PERIODIC)))
            collected = []
            for n_down in range(n + 1):
                collected.extend(np.linalg.eigvalsh(hb.sector_hamiltonian(n, n_down, PERIODIC)))
            assert np.allclose(np.sort(collected), full, atol=1e-10)

    def test_ground_state_spin_flip_symmetry(self, exact_ground):
        _, state = exact_ground
        amps = state[list(SECTOR_INDICES)]
        # bit complement maps the sector basis onto itself in reverse order
        assert np.max(np.abs(amps - amps[::-1])) < 1e-10

    def test_ground_state_is_two_covering_combination(self, exact_ground):
        _, state = exact_ground
        crossed = singlet_covering(4, [(1, 4), (2, 3)])
        adjacent = singlet_covering(4, [(1, 2), (3, 4)])
        rvb = crossed - adjacent
        rvb = rvb / np.linalg.norm(rvb)
        assert abs(abs(np.vdot(rvb, state)) - 1.0) < 1e-10
