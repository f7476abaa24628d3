import math
import tracemalloc

import numpy as np
import pytest

from mera_lab import bethe
from mera_lab import heisenberg as hb
from mera_lab.errors import DomainError, NumericError, ResourceError

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

    @pytest.mark.parametrize("bc", [OPEN, PERIODIC])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_pauli_kronecker_sum(self, n, bc):
        # Independent of the term emitter: H = sum over bonds of (XX + YY + ZZ) / 4.
        paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])]

        def at(op, site):
            return np.kron(np.kron(np.eye(1 << site), op), np.eye(1 << (n - 1 - site)))

        bonds = [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if bc is PERIODIC else [])
        expected = sum(at(p, i) @ at(p, j) for i, j in bonds for p in paulis) / 4
        assert np.array_equal(hb.hamiltonian(n, bc), expected)


class TestSectorHamiltonian:
    @pytest.mark.parametrize("bc", [OPEN, PERIODIC])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_dense_slice(self, n, bc):
        # n = 2 periodic has the bond (0, 1) twice, so its exchange element is 1.
        h = hb.hamiltonian(n, bc)
        for n_down in range(n + 1):
            idx = hb.sector_basis(n, n_down)
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
        assert np.array_equal(hb.sector_basis(4, 2), SECTOR_INDICES)

    def test_no_down_spins(self):
        assert np.array_equal(hb.sector_basis(2, 0), [0])

    def test_single_down_three_sites(self):
        assert np.array_equal(hb.sector_basis(3, 1), [1, 2, 4])

    def test_invalid_count(self):
        with pytest.raises(DomainError):
            hb.sector_basis(3, 4)

    def test_site_count_bounds(self):
        with pytest.raises(ResourceError):
            hb.sector_basis(1, 0)
        with pytest.raises(ResourceError):
            hb.sector_basis(13, 1)

    def test_matches_popcount_definition(self):
        for n_down in range(9):
            states = hb.sector_basis(8, n_down)
            assert np.array_equal(states, [m for m in range(256) if bin(m).count("1") == n_down])
            assert states.dtype == np.int64


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

    @pytest.mark.parametrize("n, bc, count", [(3, PERIODIC, 4), (5, OPEN, 2)])
    def test_degenerate_ground_state_is_refused(self, n, bc, count):
        with pytest.raises(NumericError, match=f"ground state is {count}-fold degenerate"):
            hb.ground_state(n, bc)


class TestGroundDegeneracy:
    def test_counts_levels_within_the_relative_tolerance(self):
        assert hb.ground_degeneracy(np.array([0.5, -1.0, -1.0 + 0.9e-10, -1.0 + 1.1e-10])) == 2
        # Below |E0| = 1 the tolerance stays 1e-10; above, it grows with |E0|.
        assert hb.ground_degeneracy(np.array([-0.1, -0.1 + 0.9e-10, -0.1 + 1.1e-10])) == 2
        assert hb.ground_degeneracy(np.array([-100.0, -100.0 + 0.9e-8, -100.0 + 1.1e-8])) == 2

    def test_single_level(self):
        assert hb.ground_degeneracy(np.array([3.0])) == 1


class TestFourSiteRing:
    def test_equals_the_uncached_builders_bit_for_bit(self):
        h, energy, ground = hb.four_site_ring()
        energy_ref, ground_ref = hb.ground_state(4, PERIODIC)
        assert np.array_equal(h, hb.hamiltonian(4, PERIODIC))
        assert energy == energy_ref
        assert np.array_equal(ground.view(np.uint64), ground_ref.view(np.uint64))

    def test_built_once_and_read_only(self):
        first = hb.four_site_ring()
        assert hb.four_site_ring() is first
        h, _, ground = first
        for array in (h, ground):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0


class TestEnergyExpectation:
    def test_exact_ground(self, h4, exact_ground):
        _, state = exact_ground
        assert abs(np.vdot(state, h4 @ state).real - (-2.0)) < 1e-12

    def test_uniform_sector_superposition(self, h4):
        # Hand value: every row of the half-filling block sums to 1.
        assert np.allclose(SZ0_BLOCK @ np.ones(6), np.ones(6))
        psi = np.zeros(16)
        psi[list(SECTOR_INDICES)] = 1.0
        assert abs(np.vdot(psi, h4 @ psi) / np.vdot(psi, psi) - 1.0) < 1e-12


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


class TestSpinFlip:
    @pytest.mark.parametrize("bc", [OPEN, PERIODIC])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_mirror_sector_is_the_reversed_block(self, n, bc):
        for n_down in range(n + 1):
            mirror = hb.sector_hamiltonian(n, n - n_down, bc)
            assert np.array_equal(mirror, hb.sector_hamiltonian(n, n_down, bc)[::-1, ::-1])

    @pytest.mark.parametrize("bc", [OPEN, PERIODIC])
    @pytest.mark.parametrize("n", range(2, 13, 2))
    def test_split_half_filling_spectrum_matches_whole_block(self, n, bc):
        whole = np.linalg.eigvalsh(hb.sector_hamiltonian(n, n // 2, bc))
        split = hb.sector_spectra(n, bc)[n // 2]
        assert split.shape == whole.shape
        assert np.max(np.abs(split - whole)) <= 1e-12

    @pytest.mark.parametrize("bc", [OPEN, PERIODIC])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_spectra_match_each_sector(self, n, bc):
        spectra = hb.sector_spectra(n, bc)
        assert len(spectra) == n + 1
        for n_down, values in enumerate(spectra):
            block = hb.sector_hamiltonian(n, n_down, bc)
            assert np.max(np.abs(values - np.linalg.eigvalsh(block))) <= 1e-12

    @pytest.mark.parametrize("n", [-1, 0, 1, 13])
    def test_spectra_refuse_unsupported_sizes(self, n):
        with pytest.raises(ResourceError, match="2..12"):
            hb.sector_spectra(n)

    def test_mirror_pairs_share_one_read_only_array(self):
        spectra = hb.sector_spectra(7, OPEN)
        for n_down in range(8):
            assert spectra[n_down] is spectra[7 - n_down]
            assert not spectra[n_down].flags.writeable


def both_boundaries(sizes):
    """(n, bc) cases for every size: id n on the ring, open-n on an open chain."""
    return [
        pytest.param(n, bc, id=str(n) if bc is PERIODIC else f"open-{n}") for bc in (PERIODIC, OPEN) for n in sizes
    ]


def group_order(n: int, bc: hb.BoundaryCondition) -> int:
    # The ring's shift by one site has order n; an open chain's site reversal has order 2.
    return n if bc is PERIODIC else 2


def sector_blocks(n: int, bc: hb.BoundaryCondition):
    """(sector block, its symmetry blocks m = 0..N/2) of every sector."""
    for n_down in range(n + 1):
        yield hb.sector_hamiltonian(n, n_down, bc), hb.symmetry_blocks(n, n_down, bc)


def shifted(word: str, r: int) -> str:
    # Shifting every site by one moves the last site to the front.
    return word[len(word) - r :] + word[: len(word) - r]


def momentum_block_from_sector(n: int, n_down: int, m: int) -> np.ndarray:
    """<b|H_k|a> on the normalized states sum_r e^{-i k r} T^r |a>, from the dense sector block.

    One state per orbit whose sum does not vanish, in ascending order of the
    orbit's smallest member.
    """
    indices = hb.sector_basis(n, n_down).tolist()
    position = {state: i for i, state in enumerate(indices)}
    columns = []
    for state in indices:
        word = format(state, f"0{n}b")
        if word != min(shifted(word, r) for r in range(n)):
            continue
        column = np.zeros(len(indices), dtype=complex)
        for r in range(n):
            column[position[int(shifted(word, r), 2)]] += np.exp(-2j * np.pi * m * r / n)
        if np.linalg.norm(column) > 1e-9:
            columns.append(column / np.linalg.norm(column))
    basis = np.array(columns).reshape(-1, len(indices)).T
    return basis.conj().T @ hb.sector_hamiltonian(n, n_down, PERIODIC) @ basis


class TestMomentumBlocks:
    """Symmetry blocks on both boundaries: ring momenta (ids n), open-chain reflection parities (ids open-n)."""

    @pytest.mark.parametrize("n, bc", both_boundaries([2, 4, 6, 9]))
    def test_orbits_match_string_rotations(self, n, bc):
        # g^r of a state's bit string: the ring shifts it by r sites, an open chain reverses it r times.
        order = group_order(n, bc)
        for n_down in range(n + 1):
            states = hb.sector_basis(n, n_down)
            representatives, shifts, periods = hb._orbits(n, states, bc)
            for state, rep, shift, period in zip(states, representatives, shifts, periods):
                word = format(state, f"0{n}b")
                images = [shifted(word, r) if bc is PERIODIC else word[:: (-1) ** r] for r in range(order)]
                assert format(rep, f"0{n}b") == min(images)
                assert shift == images.index(min(images))
                assert period == next(r for r in range(1, order + 1) if images[r % order] == word)
                assert np.count_nonzero(representatives == rep) == period

    @pytest.mark.parametrize("n, bc", both_boundaries([2, 5, 8]))
    def test_orbits_run_once_per_sector(self, monkeypatch, n, bc):
        # Every exchange image lies in the sector, so its orbit comes from the sector's table.
        calls = []
        orbits = hb._orbits

        def counting_orbits(*args):
            calls.append(args)
            return orbits(*args)

        monkeypatch.setattr(hb, "_orbits", counting_orbits)
        for n_down in range(n + 1):
            hb.symmetry_blocks(n, n_down, bc)
        assert len(calls) == n + 1

    @pytest.mark.parametrize("n, bc", both_boundaries(range(2, 13)))
    def test_block_sizes_sum_to_the_sector_dimension(self, n, bc):
        # Blocks m = 1..(N-1)/2 stand for block N - m as well.
        order = group_order(n, bc)
        for block, blocks in sector_blocks(n, bc):
            assert len(blocks) == order // 2 + 1
            assert sum(len(h_m) * (1 if 2 * m % order == 0 else 2) for m, h_m in enumerate(blocks)) == len(block)

    @pytest.mark.parametrize("n, bc", both_boundaries(range(2, 13)))
    def test_blocks_are_hermitian(self, n, bc):
        order = group_order(n, bc)
        for _, blocks in sector_blocks(n, bc):
            for m, h_m in enumerate(blocks):
                assert h_m.shape == (len(h_m), len(h_m))
                # sector_spectra counts the spectrum of a complex block twice.
                assert np.isrealobj(h_m) == (2 * m % order == 0)
                if len(h_m):
                    assert np.max(np.abs(h_m - h_m.conj().T)) <= 1e-14

    @pytest.mark.parametrize("n", range(2, 13))
    def test_opposite_momenta_are_complex_conjugates(self, n):
        # Only m <= n/2 is built; block n - m, formed here from the dense sector
        # block, must be the conjugate of block m, whose spectrum it shares.
        for n_down in range(n + 1):
            for m, h_k in enumerate(hb.symmetry_blocks(n, n_down, PERIODIC)):
                mirror = momentum_block_from_sector(n, n_down, (n - m) % n)
                assert mirror.shape == h_k.shape
                if len(h_k):
                    assert np.max(np.abs(mirror - h_k.conj())) <= 1e-14

    @pytest.mark.parametrize("n, bc", both_boundaries(range(2, 13)))
    def test_union_of_block_spectra_is_the_sector_spectrum(self, n, bc):
        order = group_order(n, bc)
        for block, blocks in sector_blocks(n, bc):
            parts = []
            for m, h_m in enumerate(blocks):
                if len(h_m):
                    values = np.linalg.eigvalsh(h_m)
                    parts.extend([values] if 2 * m % order == 0 else [values, values])
            union = np.sort(np.concatenate(parts))
            assert np.max(np.abs(union - np.linalg.eigvalsh(block))) <= 1e-12

    def test_twelve_site_ring_holds_no_dense_sector_block(self):
        # The 924 x 924 half-filling block alone is 6.8 MB.
        tracemalloc.start()
        try:
            hb.sector_spectra(12, PERIODIC)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_twelve_site_open_chain_solves_reflection_halves(self):
        # Half filling splits into 472 + 452 reflection states; the whole
        # 792 x 792 sector block and its eigvalsh peak at about 10 MB.
        tracemalloc.start()
        try:
            hb.sector_spectra(12, OPEN)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("n, m", [(4, 0), (6, 3), (8, 0), (10, 5), (12, 0)])
    def test_ground_state_momentum_is_pi_n_over_2(self, n, m):
        # k = 2 pi m / n = pi n / 2 (mod 2 pi)
        assert m == n * n // 4 % n
        energy = np.linalg.eigvalsh(hb.sector_hamiltonian(n, n // 2, PERIODIC))[0]
        blocks = hb.symmetry_blocks(n, n // 2, PERIODIC)
        holding = [j for j, h_k in enumerate(blocks) if len(h_k) and np.linalg.eigvalsh(h_k)[0] - energy <= 1e-10]
        assert holding == [m]

    def test_four_site_ground_momentum_matches_bethe(self):
        momenta = bethe.momenta_from_roots(bethe.solve_two_magnon(4).roots)
        total = math.remainder(sum(momenta), 2 * math.pi)
        assert abs(total) < 1e-12
        blocks = hb.symmetry_blocks(4, 2, PERIODIC)
        m = round(total / (2 * math.pi / 4)) % 4
        assert abs(np.linalg.eigvalsh(blocks[m])[0] - (-2.0)) < 1e-12
