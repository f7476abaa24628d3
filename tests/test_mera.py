import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from mera_lab import gates, mera
from mera_lab.errors import ContractError, DomainError, NumericError, ShapeError
from mera_lab.heisenberg import BoundaryCondition, hamiltonian, sector_basis

from conftest import GROUND_PATTERN, SECTOR_INDICES


def left_half_blocks(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Hand-evaluated 8x8 blocks mapping the two IR halves to the left output half.

    Derived once by composing the four layers on the subspace with site 1 up;
    kept here as an independent regression target for the circuit code.
    """
    c, s = np.cos(theta), np.sin(theta)
    m_from_left = np.array(
        [
            [1, 0, 0, 0, 0, 0, 0, 0],
            [0, c, 0, 0, 0, 0, 0, 0],
            [0, 0, c, 0, s, 0, 0, 0],
            [0, 0, 0, c * c, 0, c * s, 0, 0],
            [0, 0, -s, 0, c, 0, 0, 0],
            [0, 0, 0, -c * s, 0, c * c, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 0, 0, c],
        ],
        dtype=complex,
    )
    m_from_right = np.array(
        [
            [0, 0, 0, 0, 0, 0, 0, 0],
            [s, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, c * s, 0, s * s, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, -s * s, 0, c * s, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, s, 0],
        ],
        dtype=complex,
    )
    return m_from_left, m_from_right


def reordered_left_block(theta: float) -> np.ndarray:
    """Left-half map for spin-flip symmetric IR states, folded onto one half."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [
            [1, 0, 0, 0, 0, 0, 0, 0],
            [0, c, 0, 0, 0, 0, 0, s],
            [0, 0, c, 0, s, 0, 0, 0],
            [0, 0, 0, 1, 0, 2 * c * s, 0, 0],
            [0, 0, -s, 0, c, 0, 0, 0],
            [0, 0, 0, 0, 0, c * c - s * s, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 0],
            [0, s, 0, 0, 0, 0, 0, c],
        ],
        dtype=complex,
    )


def layered_circuit(gate: np.ndarray) -> np.ndarray:
    """The four layers as matrices: swap layer, gate on sites 2-3, twice."""
    inner = gates.embed(gate, 2, 4)
    swaps = gates.swap_layer(4)
    return swaps @ inner @ swaps @ inner


def reference_basis(gate: np.ndarray) -> list[np.ndarray]:
    """The u = 1 and q = 1 states of the mirrored family, with the circuit rebuilt from layers.

    Each is the left half (site 1 up) of the circuit output for the IR state
    u (|0101> + |1010>) + q (|0110> + |1001>), completed by its spin-flip image.
    """
    circuit = layered_circuit(gate)

    def mirrored(u: complex, q: complex) -> np.ndarray:
        wl = np.zeros(8, dtype=complex)
        wl[5] = u
        wl[6] = q
        omega = np.concatenate([wl, wl[::-1]])
        left = (circuit @ omega)[:8]
        return np.concatenate([left, left[::-1]])

    return [mirrored(1.0, 0.0), mirrored(0.0, 1.0)]


def reference_pencil(gate: np.ndarray, h: np.ndarray) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Basis states and the projected pencil (hm, sm), with the circuit rebuilt from layers."""
    basis = reference_basis(gate)
    hm = np.array([[np.vdot(x, h @ y) for y in basis] for x in basis])
    sm = np.array([[np.vdot(x, y) for y in basis] for x in basis])
    return basis, hm, sm


def reference_optimal_ratio(gate: np.ndarray, h: np.ndarray) -> tuple[float, float, np.ndarray]:
    """The 2x2 ratio solve one gate at a time, through LAPACK zhegvd (scipy)."""
    basis, hm, sm = reference_pencil(gate, h)
    values, vectors = scipy.linalg.eigh(hm, sm)
    u, q = vectors[:, 0]
    state = u * basis[0] + q * basis[1]
    return float(values[0]), float((-u / q).real), state / np.linalg.norm(state)


def reference_entropy(psi: np.ndarray, cut: int) -> float:
    """Entanglement entropy of one state, summing only its kept weights."""
    singulars = np.linalg.svd(psi.reshape(2 ** cut, -1), compute_uv=False)
    weights = singulars ** 2
    weights = weights / float(weights.sum())
    weights = weights[weights > 1e-15]
    return float(-(weights * np.log(weights)).sum()) + 0.0


def reference_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Fidelity of one pair, with numpy scalar arithmetic throughout."""
    na = float(np.vdot(a, a).real)
    nb = float(np.vdot(b, b).real)
    return float(abs(np.vdot(a, b)) ** 2 / (na * nb))


def bit_equal(a, b) -> bool:
    """Equal values and equal signs of zero, in the real and imaginary parts."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(np.imag(a)), np.signbit(np.imag(b)))
    )


ANGLES = st.floats(-4.0, 4.0)
SPECTRAL_PARAMETERS = st.complex_numbers(max_magnitude=10.0).filter(lambda nu: abs(nu + 2j) >= 1e-6)
# Parts up to 1e150 keep every pair sum of two products finite; zeros of both signs are drawn often.
GATE_PARTS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e150, 1e150))
GATE_ENTRIES = st.builds(complex, GATE_PARTS, GATE_PARTS)

#: A finite gate whose circuit products overflow, and a gate with no finite entry.
OVERFLOWING_GATES = [np.eye(4, dtype=complex) * 1e200, np.full((4, 4), np.inf, dtype=complex)]


def random_iso(rng: np.random.Generator) -> mera.IsometryParams:
    raw = rng.normal(size=8)
    left = raw[:4] / np.linalg.norm(raw[:4])
    right = raw[4:] / np.linalg.norm(raw[4:])
    return mera.IsometryParams(*left, *right)


def flip_symmetric_iso(rng: np.random.Generator) -> mera.IsometryParams:
    l01 = rng.uniform(0.2, 0.9)
    r01 = rng.uniform(0.2, 0.9)
    left = np.array([0.0, l01, l01, 0.0])
    right = np.array([0.0, r01, r01, 0.0])
    left /= np.linalg.norm(left)
    right /= np.linalg.norm(right)
    return mera.IsometryParams(*left, *right)


class TestIsometryParams:
    def test_trivial_zeroes_high_energy_slots(self):
        iso = mera.IsometryParams.trivial(1.0, 0.0, 0.6, 0.8)
        assert iso.l00 == iso.r00 == iso.r11 == iso.l11 == 0.0
        iso.validate()

    def test_validate_rejects_unnormalized(self):
        iso = mera.IsometryParams(0.0, 2.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ContractError):
            iso.validate()

    def test_validate_returns_the_larger_deviation(self):
        exact = mera.IsometryParams(0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
        assert exact.validate() == 0.0
        small, large = 1.0 + 1e-13, 1.0 + 3e-13
        for left, right in ((small, large), (large, small)):
            iso = mera.IsometryParams(0.0, left, 0.0, 0.0, 0.0, right, 0.0, 0.0)
            assert iso.validate() == abs(large * large - 1.0)
            assert 0.0 < iso.validate() <= 1e-12
        with pytest.raises(ContractError, match="right tensor"):
            mera.IsometryParams(0.0, small, 0.0, 0.0, 0.0, 1.0 + 1e-12, 0.0, 0.0).validate()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_validate_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ContractError):
            mera.IsometryParams.trivial(bad, 0.0, 0.6, 0.8).validate()
        with pytest.raises(ContractError):
            mera.IsometryParams.trivial(1.0, 0.0, 0.6, bad).validate()


class TestIrState:
    def test_product_of_unit_vectors(self):
        iso = mera.IsometryParams(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
        state = mera.ir_state(iso)
        expected = np.zeros(16, dtype=complex)
        expected[0] = 1.0
        assert np.array_equal(state, expected)

    def test_matches_componentwise_layout(self):
        rng = np.random.default_rng(31)
        iso = random_iso(rng)
        state = mera.ir_state(iso)
        left = iso.left_vector()
        right = iso.right_vector()
        for i in range(4):
            for j in range(4):
                assert state[4 * i + j] == left[i] * right[j]

    def test_trivial_support_pattern(self):
        iso = mera.IsometryParams.trivial(0.8, 0.6, 0.6, 0.8)
        state = mera.ir_state(iso)
        support = set(np.flatnonzero(np.abs(state) > 0))
        assert support == {5, 6, 9, 10}

    def test_unnormalized_rejected(self):
        bad = mera.IsometryParams(0.0, 0.5, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ContractError):
            mera.ir_state(bad)


class TestTrialState:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_circuit_output_raises(self, monkeypatch, bad):
        monkeypatch.setattr(mera, "circuit_matrix", lambda gate: np.full((16, 16), bad, dtype=complex))
        iso = mera.IsometryParams.trivial(1.0, 0.0, 0.6, 0.8)
        with pytest.raises(DomainError, match="non-finite"):
            mera.trial_state(gates.entangler_rotation(0.3), iso)

    @pytest.mark.parametrize("gate", OVERFLOWING_GATES, ids=["1e200", "inf"])
    def test_overflowing_gate_raises_without_a_warning(self, gate):
        iso = mera.IsometryParams.trivial(1.0, 0.0, 0.6, 0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="circuit output has norm nan"):
                mera.trial_state(gate, iso)

    def test_zero_angle_returns_ir_state(self):
        rng = np.random.default_rng(32)
        iso = random_iso(rng)
        ts = mera.trial_state(gates.entangler_rotation(0.0), iso)
        assert np.max(np.abs(ts.state - mera.ir_state(iso))) < 1e-15
        assert not ts.norm_applied

    def test_rotation_preserves_norm(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            theta = float(rng.uniform(-np.pi, np.pi))
            ts = mera.trial_state(gates.entangler_rotation(theta), random_iso(rng))
            assert abs(ts.raw_norm - 1.0) < 1e-13
            assert not ts.norm_applied

    def test_left_half_matches_hand_blocks(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            theta = float(rng.uniform(-np.pi, np.pi))
            iso = random_iso(rng)
            omega = mera.ir_state(iso)
            ts = mera.trial_state(gates.entangler_rotation(theta), iso)
            m_left, m_right = left_half_blocks(theta)
            expected = m_left @ omega[:8] + m_right @ omega[8:]
            assert np.max(np.abs(ts.state[:8] * ts.raw_norm - expected)) < 1e-13

    def test_left_half_reordered_form_for_symmetric_iso(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            theta = float(rng.uniform(-np.pi, np.pi))
            iso = flip_symmetric_iso(rng)
            omega = mera.ir_state(iso)
            ts = mera.trial_state(gates.entangler_rotation(theta), iso)
            expected = reordered_left_block(theta) @ omega[:8]
            assert np.max(np.abs(ts.state[:8] * ts.raw_norm - expected)) < 1e-13

    def test_trivial_iso_closed_form_amplitudes(self):
        theta = 0.29
        c, s = np.cos(theta), np.sin(theta)
        iso = flip_symmetric_iso(np.random.default_rng(36))
        u = iso.l01 * iso.r01
        q = iso.l01 * iso.r10
        ts = mera.trial_state(gates.entangler_rotation(theta), iso)
        expected = np.zeros(8, dtype=complex)
        expected[3] = 2 * c * s * u
        expected[5] = (c * c - s * s) * u
        expected[6] = q
        assert np.max(np.abs(ts.state[:8] * ts.raw_norm - expected)) < 1e-14

    def test_weight_entangler_left_half_proportionality(self):
        nu = 0.7 - 1.3j
        w = gates.bc(nu)
        iso = flip_symmetric_iso(np.random.default_rng(37))
        u = iso.l01 * iso.r01
        q = iso.l01 * iso.r10
        ts = mera.trial_state(gates.rmatrix(nu), iso)
        expected = np.zeros(8, dtype=complex)
        expected[3] = 2.0 * w.b * w.c * u
        expected[5] = (w.b ** 2 + w.c ** 2) * u
        expected[6] = q
        assert np.max(np.abs(ts.state[:8] * ts.raw_norm - expected)) < 1e-13

    def test_complex_weight_parameter_is_renormalized(self):
        nu = complex(0.0, 2.0 * np.sqrt(3.0) - 4.0)
        iso = mera.IsometryParams.trivial(1.0, 0.0, -0.6, 0.8)
        ts = mera.trial_state(gates.rmatrix(nu), iso)
        assert ts.norm_applied
        assert abs(ts.raw_norm - 1.0) > 1e-3
        assert abs(np.linalg.norm(ts.state) - 1.0) < 1e-13

    def test_trivial_iso_stays_in_zero_magnetization_sector(self):
        rng = np.random.default_rng(38)
        sector = set(sector_basis(4, 2).tolist())
        outside = [k for k in range(16) if k not in sector]
        for _ in range(20):
            raw = rng.normal(size=4)
            iso = mera.IsometryParams.trivial(
                *(raw[:2] / np.linalg.norm(raw[:2])), *(raw[2:] / np.linalg.norm(raw[2:]))
            )
            theta = float(rng.uniform(-np.pi, np.pi))
            ts = mera.trial_state(gates.entangler_rotation(theta), iso)
            assert np.max(np.abs(ts.state[outside])) < 1e-14


class TestCircuitMatrix:
    @settings(deadline=None)
    @given(theta=ANGLES, nu=SPECTRAL_PARAMETERS)
    def test_outer_product_equals_layered_circuit(self, theta, nu):
        for gate in (gates.entangler_rotation(theta), gates.rmatrix(nu)):
            assert np.array_equal(mera.circuit_matrix(gate), layered_circuit(gate))


class TestGateShape:
    # A gate that is not 4x4 is refused where it enters, naming the shape the caller passed.
    BAD = np.eye(3, dtype=complex)
    MESSAGE = "^" + re.escape("expected a 4x4 two-site gate, got shape (3, 3)") + "$"

    def test_circuit_matrix(self):
        with pytest.raises(ShapeError, match=self.MESSAGE):
            mera.circuit_matrix(self.BAD)

    def test_trial_state(self):
        with pytest.raises(ShapeError, match=self.MESSAGE):
            mera.trial_state(self.BAD, mera.IsometryParams.trivial(1.0, 0.0, 0.6, 0.8))

    def test_variational_state(self):
        with pytest.raises(ShapeError, match=self.MESSAGE):
            mera.variational_state(self.BAD, 2.0)

    @pytest.mark.parametrize("stack", [BAD[None], np.eye(4, dtype=complex), np.zeros((2, 4, 3), dtype=complex)])
    def test_optimal_ratios(self, h4, stack):
        with pytest.raises(ShapeError, match="4, 4"):
            mera.optimal_ratios(stack, h4)


class TestMirroredBasis:
    @settings(deadline=None)
    @given(
        thetas=st.lists(ANGLES, min_size=1, max_size=8),
        nus=st.lists(SPECTRAL_PARAMETERS, min_size=1, max_size=8),
        entries=st.lists(st.lists(GATE_ENTRIES, min_size=16, max_size=16), max_size=8),
    )
    def test_equals_the_circuit_columns_bit_for_bit(self, thetas, nus, entries):
        # Rotations and R-matrices, then arbitrary complex gates with zeros of both signs.
        named = [gates.entangler_rotation(t) for t in thetas] + [gates.rmatrix(nu) for nu in nus]
        stack = np.concatenate([named, np.array(entries, dtype=complex).reshape(-1, 4, 4)])
        for gate, pair in zip(stack, mera._mirrored_basis(stack)):
            reference = reference_basis(gate)
            assert bit_equal(pair[0], reference[0])
            assert bit_equal(pair[1], reference[1])


class TestOptimalRatio:
    def test_bit_identical_to_layered_reference(self, h4):
        rng = np.random.default_rng(40)
        for theta in rng.uniform(-np.pi, np.pi, size=50):
            gate = gates.entangler_rotation(theta)
            energies, ratios, states, _ = mera.optimal_ratios(gate[None], h4)
            ref_energy, ref_r, ref_state = reference_optimal_ratio(gate, h4)
            assert energies[0] == ref_energy
            assert ratios[0] == ref_r
            assert np.array_equal(states[0], ref_state)

    @settings(deadline=None, max_examples=60)
    @given(thetas=st.lists(ANGLES, min_size=1, max_size=12))
    def test_each_stacked_row_equals_the_single_gate_reference(self, h4, thetas):
        energies, ratios, states, gaps = mera.optimal_ratios(np.array([gates.entangler_rotation(t) for t in thetas]), h4)
        for theta, energy, r, state, gap in zip(thetas, energies, ratios, states, gaps):
            gate = gates.entangler_rotation(theta)
            ref_energy, ref_r, ref_state = reference_optimal_ratio(gate, h4)
            assert energy == ref_energy
            assert r == ref_r
            assert bit_equal(state, ref_state)
            levels = scipy.linalg.eigh(*reference_pencil(gate, h4)[1:], eigvals_only=True)
            assert gap == levels[1] - levels[0]

    def test_fit_roots_equal_the_single_gate_reference(self, h4):
        stack = np.array([gates.rmatrix(nu) for nu in mera.solve_nu_fit().roots])
        energies, ratios, states, _ = mera.optimal_ratios(stack, h4)
        for gate, energy, r, state in zip(stack, energies, ratios, states):
            assert (energy, r) == reference_optimal_ratio(gate, h4)[:2]
            assert bit_equal(state, reference_optimal_ratio(gate, h4)[2])

    def test_overflowing_gate_raises_without_a_warning(self, h4):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="the 2x2 pencil has non-finite entries"):
                mera.optimal_ratios(np.eye(4, dtype=complex)[None] * 1e200, h4)

    @pytest.mark.parametrize("gate", [np.diag(np.full(4, np.inf)), OVERFLOWING_GATES[1]], ids=["diagonal", "full"])
    def test_non_finite_gate_is_refused_before_the_family_is_formed(self, h4, monkeypatch, gate):
        def unreachable(stack):
            raise AssertionError("the family was formed")

        monkeypatch.setattr(mera, "_mirrored_basis", unreachable)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="the gate has non-finite entries"):
                mera.optimal_ratios(gate[None], h4)

    def test_empty_stack_gives_empty_arrays(self, h4):
        energies, ratios, states, gaps = mera.optimal_ratios(np.zeros((0, 4, 4), dtype=complex), h4)
        assert energies.shape == ratios.shape == gaps.shape == (0,)
        assert states.shape == (0, 16)

    def test_degenerate_gates_raise_numeric_error(self, h4):
        # A zero gate makes the overlap matrix vanish; a NaN gate makes the pencil non-finite.
        for gate in (np.zeros((4, 4), dtype=complex), np.full((4, 4), np.nan, dtype=complex)):
            with pytest.raises(NumericError):
                mera.optimal_ratios(gate[None], h4)

    def test_gate_that_changes_sz_raises_contract_error(self, h4):
        # Any nonzero entry between two-site states of different Sz would make
        # the family's overlap matrix non-diagonal, which the pencil solve assumes.
        for row, col in zip(*np.nonzero(mera._SZ_CHANGING)):
            gate = gates.entangler_rotation(0.3)
            gate[row, col] = 1e-300
            with pytest.raises(ContractError, match="conserves Sz"):
                mera.optimal_ratios(gate[None], h4)
            with pytest.raises(ContractError):
                mera.optimal_ratios(np.array([gates.entangler_rotation(0.1), gate]), h4)

    def test_gap_closes_at_the_quarter_turn_crossing(self, h4):
        # r jumps from about 0.414 to about -2.414 across theta = pi/4.
        thetas = np.linspace(0.785398163396, 0.785398163399, 7)
        _, ratios, _, gaps = mera.optimal_ratios(gates.entangler_rotations(thetas), h4)
        assert (gaps <= 1e-11).all()
        assert (ratios[:3] > 0.4).all() and (ratios[3:] < -2.4).all()
        _, _, _, gaps = mera.optimal_ratios(gates.entangler_rotations(np.array([0.1, np.pi / 4 - 1.8e-6])), h4)
        assert gaps[0] > 2.0 and gaps[1] > 1e-6

    def test_energy_has_period_half_pi(self, h4):
        grid = np.linspace(-np.pi / 2, np.pi / 2, 2001)
        energy = [mera.optimal_ratios(gates.entangler_rotation(t)[None], h4)[0][0] for t in grid]
        assert max(abs(energy[i] - energy[i + 1000]) for i in range(1001)) < 1e-14


def seeded_pencils() -> list[tuple[np.ndarray, np.ndarray]]:
    """Pencils (a, diagonal of the overlap) of the 2001-point search grid, the 5001-point
    sweep grid, seeded random angles, both fit roots and 200 seeded complex spectral parameters."""
    rng = np.random.default_rng(41)
    thetas = np.concatenate(
        [
            np.linspace(-np.pi / 2, np.pi / 2, 2001),
            np.linspace(-1.5707963, 1.5707963, 5001),
            rng.uniform(-4.0, 4.0, size=500),
        ]
    )
    nus = list(mera.solve_nu_fit().roots) + list(rng.normal(size=200) * 3.0 + 3.0j * rng.normal(size=200))
    gate_list = [gates.entangler_rotation(float(t)) for t in thetas] + [gates.rmatrix(nu) for nu in nus]
    h = hamiltonian(4, BoundaryCondition.PERIODIC)
    pencils = []
    for gate in gate_list:
        _, a, b = reference_pencil(gate, h)
        # The u and q states have disjoint support, which _pencil_eigh relies on.
        assert b[0, 1] == 0.0 and b[1, 0] == 0.0
        pencils.append((a, np.diagonal(b).real))
    return pencils


class TestPencilEigh:
    def test_equals_lapack_zhegvd_bit_for_bit(self):
        pencils = seeded_pencils()
        values, vectors = mera._pencil_eigh(np.array([a for a, _ in pencils]), np.array([d for _, d in pencils]))
        for (a, d), w, x in zip(pencils, values, vectors):
            ref_w, ref_x = scipy.linalg.eigh(a, np.diag(d))
            assert bit_equal(w, ref_w)
            assert bit_equal(x, ref_x)

    def test_random_pencils_with_diagonal_overlap_equal_lapack_zhegvd(self):
        rng = np.random.default_rng(45)
        m = rng.normal(size=(1000, 2, 2)) + 1j * rng.normal(size=(1000, 2, 2))
        a = m + m.conj().transpose(0, 2, 1)
        d = rng.uniform(0.1, 5.0, size=(1000, 2))
        values, vectors = mera._pencil_eigh(a, d)
        for ak, dk, w, x in zip(a, d, values, vectors):
            ref_w, ref_x = scipy.linalg.eigh(ak, np.diag(dk))
            assert bit_equal(w, ref_w)
            assert bit_equal(x, ref_x)

    @pytest.mark.parametrize("b", [[0.0, 1.0], [1.0, -1.0]])
    def test_not_positive_definite_raises(self, b):
        with pytest.raises(NumericError, match="not positive definite"):
            mera._pencil_eigh(np.eye(2, dtype=complex)[None], np.array(b)[None])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pencil_raises(self, bad):
        a = np.array([[[1.0, bad], [bad, 0.0]]], dtype=complex)
        with pytest.raises(NumericError, match="non-finite"):
            mera._pencil_eigh(a, np.ones((1, 2)))
        with pytest.raises(NumericError, match="non-finite"):
            mera._pencil_eigh(np.eye(2, dtype=complex)[None], np.array([[1.0, bad]]))


class TestVariationalState:
    def test_exact_ground_state_at_optimum(self, exact_ground):
        _, ground = exact_ground
        sol = mera.solve_theta_analytic()
        state = mera.variational_state(gates.entangler_rotation(sol.theta), sol.r)
        assert 1.0 - mera.fidelity(state, ground) < 1e-12

    def test_spin_flip_symmetric_by_construction(self):
        state = mera.variational_state(gates.entangler_rotation(0.7), 2.0)
        assert np.array_equal(state, state[::-1])

    def test_weight_entangler_reaches_ground_at_unit_ratio(self, exact_ground):
        _, ground = exact_ground
        fit = mera.solve_nu_fit()
        state = mera.variational_state(gates.rmatrix(fit.roots[0]), 1.0)
        assert 1.0 - mera.fidelity(state, ground) < 1e-12

    def test_normalized(self):
        state = mera.variational_state(gates.entangler_rotation(-0.3), 5.0)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-13

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_non_finite_ratio_raises(self, r):
        # The ratio is refused before any arithmetic, so no RuntimeWarning precedes the error.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="non-finite"):
                mera.variational_state(gates.entangler_rotation(0.3), r)

    @pytest.mark.parametrize("gate", OVERFLOWING_GATES, ids=["1e200", "inf"])
    def test_overflowing_gate_raises_without_a_warning(self, gate):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="variational state has norm nan"):
                mera.variational_state(gate, 1.0)

    def test_zero_gate_raises(self):
        with pytest.raises(DomainError, match="variational state has norm 0.0"):
            mera.variational_state(np.zeros((4, 4)), 1.0)


class TestThetaSolvers:
    def test_analytic_trig_values(self):
        sol = mera.solve_theta_analytic()
        root5 = np.sqrt(5.0)
        assert abs(np.sin(-2.0 * sol.theta) - 1.0 / root5) < 1e-15
        assert abs(np.cos(-2.0 * sol.theta) - 2.0 / root5) < 1e-15
        assert abs(np.tan(-2.0 * sol.theta) - 0.5) < 1e-14
        assert abs(sol.r - root5) < 1e-15
        assert -np.pi / 4 < sol.theta < 0.0

    def test_analytic_angle_value(self):
        sol = mera.solve_theta_analytic()
        assert abs(sol.theta / np.pi - (-0.0738)) < 5e-4

    def test_analytic_energy_and_fidelity(self):
        sol = mera.solve_theta_analytic()
        assert abs(sol.energy - (-2.0)) < 1e-10
        assert sol.fidelity >= 1.0 - 1e-10

    def test_numeric_agrees_with_analytic(self, h4, exact_ground):
        analytic = mera.solve_theta_analytic()
        theta = mera.solve_theta_numeric()
        energies, ratios, states, _ = mera.optimal_ratios(gates.entangler_rotation(theta)[None], h4)
        assert abs(theta - analytic.theta) < 1e-8
        assert abs(energies[0] - (-2.0)) < 1e-10
        assert mera.fidelity(states[0], exact_ground[1]) >= 1.0 - 1e-10
        assert abs(ratios[0] - np.sqrt(5.0)) < 1e-6

    def test_numeric_optimum_in_principal_period(self):
        assert -np.pi / 4 < mera.solve_theta_numeric() < np.pi / 4

    def test_numeric_search_call_budget(self, monkeypatch):
        # Every solve, single or stacked, goes through optimal_ratios: count its calls and gates.
        cached = mera.solve_theta_numeric()
        calls = 0
        solves = 0
        original = mera.optimal_ratios

        def counting(gate_stack, h):
            nonlocal calls, solves
            calls += 1
            solves += len(gate_stack)
            return original(gate_stack, h)

        monkeypatch.setattr(mera, "optimal_ratios", counting)
        assert mera.solve_theta_numeric() == cached
        assert solves <= 120
        assert calls <= 100

    def test_numeric_search_call_shapes(self, monkeypatch):
        # The coarse grid, the window around its minimum, Brent one angle at a time, the parabola's three
        # points, and no call after them.
        cached = mera.solve_theta_numeric()
        sizes = []
        original = mera.optimal_ratios

        def recording(gate_stack, h):
            sizes.append(len(gate_stack))
            return original(gate_stack, h)

        monkeypatch.setattr(mera, "optimal_ratios", recording)
        theta = mera.solve_theta_numeric()
        assert theta == cached
        assert type(theta) is float
        assert sizes[:2] == [32, 65]
        assert sizes[-1] == 3
        assert len(sizes) > 3 and set(sizes[2:-1]) == {1}

    def test_grid_energies_are_unimodal_and_bracketed_at_their_argmin(self, h4, monkeypatch):
        # The two-level bracket relies on the energy falling strictly, then rising strictly, on the grid
        # points with |theta| < pi/4; it must pick the argmin of all 999 energies.
        grid = np.linspace(-np.pi / 2, np.pi / 2, 2001)
        energies = mera.optimal_ratios(gates.entangler_rotations(grid[501:1500]), h4)[0]
        k = int(np.argmin(energies))
        steps = np.diff(energies)
        assert 0 < k < len(energies) - 1
        assert (steps[:k] < 0.0).all() and (steps[k:] > 0.0).all()
        brackets = []
        original = mera._minimize_bounded

        def recording(func, a, b, xatol):
            brackets.append((a, b))
            return original(func, a, b, xatol)

        monkeypatch.setattr(mera, "_minimize_bounded", recording)
        mera.solve_theta_numeric()
        assert brackets == [(grid[501 + k - 1], grid[501 + k + 1])]

    def test_energy_stationary_at_optimum(self, h4):
        sol = mera.solve_theta_analytic()
        step = 1e-4

        def energy(theta: float) -> float:
            psi = mera.variational_state(gates.entangler_rotation(theta), sol.r)
            return float(np.vdot(psi, h4 @ psi).real)

        slope = (energy(sol.theta + step) - energy(sol.theta - step)) / (2.0 * step)
        assert abs(slope) < 1e-6


def recorded(func):
    """``func`` plus the list of arguments it has been called with."""
    calls = []

    def wrapper(t):
        calls.append(t)
        return func(t)

    return wrapper, calls


def scipy_bounded_x(func, lo, hi, xatol):
    result = scipy.optimize.minimize_scalar(func, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    return float(result.x)


class TestMinimizeBounded:
    def test_matches_scipy_on_every_energy_bracket(self, h4):
        energies = {}

        def energy_at(theta):
            key = float(theta)
            if key not in energies:
                energies[key] = mera.optimal_ratios(gates.entangler_rotation(key)[None], h4)[0][0]
            return energies[key]

        grid = np.linspace(-np.pi / 2, np.pi / 2, 2001)
        for k in range(502, 1499):
            ours, ours_calls = recorded(energy_at)
            theirs, their_calls = recorded(energy_at)
            x = float(mera._minimize_bounded(ours, grid[k - 1], grid[k + 1], xatol=1e-12))
            assert x == scipy_bounded_x(theirs, grid[k - 1], grid[k + 1], 1e-12)
            assert ours_calls == their_calls

    @settings(deadline=None, max_examples=200)
    @given(
        lo=st.floats(-10.0, 10.0),
        width=st.floats(1e-6, 10.0),
        log_xatol=st.floats(-12.0, -3.0),
        k=st.floats(0.1, 10.0),
        c=st.floats(-2.0, 2.0),
        decimals=st.sampled_from([None, 2, 4]),
    )
    def test_matches_scipy_on_smooth_objectives(self, lo, width, log_xatol, k, c, decimals):
        # Rounding the objective to a few decimals makes plateaus, so ties
        # between function values exercise the non-strict comparisons.
        def objective(t):
            value = float(np.sin(k * t) + c * t * t)
            return value if decimals is None else round(value, decimals)

        hi = lo + width
        xatol = 10.0 ** log_xatol
        ours, ours_calls = recorded(objective)
        theirs, their_calls = recorded(objective)
        x = float(mera._minimize_bounded(ours, lo, hi, xatol=xatol))
        assert x == scipy_bounded_x(theirs, lo, hi, xatol)
        assert ours_calls == their_calls

    def test_nan_objective_raises(self):
        with pytest.raises(NumericError, match="NaN"):
            mera._minimize_bounded(lambda t: float("nan"), -1.0, 1.0, xatol=1e-12)

    def test_evaluation_budget_raises(self):
        with pytest.raises(NumericError, match="5 function evaluations"):
            mera._minimize_bounded(lambda t: (t - 0.3) ** 2, -1.0, 1.0, xatol=1e-12, maxfun=5)

    @pytest.mark.parametrize("bounds", [(1.0, -1.0), (-np.inf, 1.0), (0.0, np.nan)])
    def test_rejects_bounds_that_are_not_a_finite_interval(self, bounds):
        with pytest.raises(DomainError):
            mera._minimize_bounded(lambda t: t * t, *bounds, xatol=1e-12)

    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        # No scipy module at all: the pencil solve and the minimizer are both in-package.
        src = os.path.dirname(os.path.dirname(os.path.abspath(mera.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        probe = "import sys, mera_lab.cli; print(any(m.startswith('scipy') for m in sys.modules))"
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"


class TestFidelity:
    def test_self_overlap(self):
        v = np.array([1.0, 2.0j, -1.0])
        assert abs(mera.fidelity(v, v) - 1.0) < 1e-15

    def test_orthogonal_states(self):
        a = np.zeros(16)
        b = np.zeros(16)
        a[0] = 1.0
        b[15] = 1.0
        assert mera.fidelity(a, b) == 0.0

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            mera.fidelity(np.zeros(4), np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_entry_rejected(self, exact_ground, bad):
        _, ground = exact_ground
        spoiled = ground.copy()
        spoiled[3] = bad
        with pytest.raises(DomainError, match="finite"):
            mera.fidelity(spoiled, ground)
        with pytest.raises(DomainError, match="finite"):
            mera.fidelity(ground, spoiled)
        with pytest.raises(DomainError, match="finite"):
            mera.fidelities(np.array([ground, spoiled]), ground)
        with pytest.raises(DomainError, match="finite"):
            mera.fidelities(np.array([ground, ground]), spoiled)

    def test_overflowing_state_norm_rejected(self, exact_ground):
        _, ground = exact_ground
        with pytest.raises(DomainError, match="overflow"):
            mera.fidelity(1e200 * ground, ground)
        with pytest.raises(DomainError, match="overflow"):
            mera.fidelities(np.array([ground, 1e200 * ground]), ground)

    def test_overflowing_norm_product_rejected(self, exact_ground):
        # Each squared norm is 1e200, finite; their product is not.
        _, ground = exact_ground
        with pytest.raises(DomainError, match="overflow"):
            mera.fidelity(1e100 * ground, 1e100 * ground)

    @pytest.mark.parametrize("scale", [1e-160, 1e-155])
    def test_underflowing_state_norm_rejected(self, exact_ground, scale):
        # The squared norm is subnormal, so the quotient would have lost bits.
        _, ground = exact_ground
        with pytest.raises(DomainError, match="underflow"):
            mera.fidelity(scale * ground, ground)
        with pytest.raises(DomainError, match="underflow"):
            mera.fidelity(ground, scale * ground)
        with pytest.raises(DomainError, match="underflow"):
            mera.fidelities(np.array([ground, scale * ground]), ground)

    def test_underflowing_norm_product_rejected(self, exact_ground):
        # Each squared norm is 1e-300, normal; their product underflows to 0.
        _, ground = exact_ground
        assert mera.fidelity(1e-150 * ground, ground) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(DomainError, match="underflow"):
            mera.fidelity(1e-150 * ground, 1e-150 * ground)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mera.fidelity(np.ones(4), np.ones(8))
        with pytest.raises(ShapeError):
            mera.fidelities(np.ones((3, 4)), np.ones(8))

    def test_stacked_rows_equal_the_single_pair_reference(self, h4, exact_ground):
        # The sweep grid over [-3, 3] has rows where the array square x * x
        # differs from the scalar ** 2; random complex rows catch numpy's
        # array abs, which differs from the scalar abs.
        _, ground = exact_ground
        thetas = np.linspace(-3.0, 3.0, 20001)
        _, _, states, _ = mera.optimal_ratios(np.array([gates.entangler_rotation(float(t)) for t in thetas]), h4)
        rng = np.random.default_rng(44)
        rows = rng.normal(size=(2000, 16)) + 1j * rng.normal(size=(2000, 16))
        for stack, target in ((states, ground), (rows, rows[0] + 0.5j * rows[1])):
            values = mera.fidelities(stack, target)
            assert all(bit_equal(value, reference_fidelity(row, target)) for row, value in zip(stack, values))


def brute_force_entropy(psi: np.ndarray, cut: int, n: int) -> tuple[np.ndarray, float]:
    """Partial-trace oracle: explicit reduced density matrix, then eigenvalues."""
    rho = np.zeros((2 ** cut, 2 ** cut), dtype=complex)
    rest = n - cut
    for a in range(2 ** cut):
        for b in range(2 ** cut):
            for k in range(2 ** rest):
                rho[a, b] += psi[(a << rest) + k] * np.conj(psi[(b << rest) + k])
    spectrum = np.linalg.eigvalsh(rho)
    positive = spectrum[spectrum > 1e-15]
    return spectrum, float(-(positive * np.log(positive)).sum())


class TestEntanglementEntropy:
    def test_product_state_zero(self):
        psi = np.zeros(16)
        psi[0b0101] = 1.0
        assert mera.entanglement_entropy(psi, 2) == 0.0

    def test_cut_must_be_an_integer(self):
        states = np.eye(16)[:1]
        with pytest.raises(DomainError, match="cut must be an integer"):
            mera.entanglement_entropies(states, 1.5)
        assert mera.entanglement_entropies(states, np.int64(2)).tolist() == [0.0]

    def test_trivial_circuit_state_zero(self):
        iso = mera.IsometryParams.trivial(1.0, 0.0, 0.6, 0.8)
        ts = mera.trial_state(gates.entangler_rotation(0.0), iso)
        assert mera.entanglement_entropy(ts.state, 2) == 0.0

    def test_exact_ground_matches_partial_trace_oracle(self, exact_ground):
        _, ground = exact_ground
        spectrum, oracle_value = brute_force_entropy(ground, 2, 4)
        assert np.allclose(np.sort(spectrum)[::-1][:4], [0.75, 1 / 12, 1 / 12, 1 / 12], atol=1e-12)
        value = mera.entanglement_entropy(ground, 2)
        assert abs(value - oracle_value) < 1e-12
        expected = 0.25 * np.log(12.0) + 0.75 * np.log(4.0 / 3.0)
        assert abs(value - expected) < 1e-12

    def test_invariances(self, exact_ground):
        _, ground = exact_ground
        base = mera.entanglement_entropy(ground, 2)
        phased = np.exp(0.7j) * ground
        flipped = ground[::-1]
        assert abs(mera.entanglement_entropy(phased, 2) - base) < 1e-13
        assert abs(mera.entanglement_entropy(flipped, 2) - base) < 1e-13

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            mera.entanglement_entropy(np.ones(12), 2)
        with pytest.raises(ShapeError):
            mera.entanglement_entropy(np.ones(16), 4)
        with pytest.raises(ShapeError):
            mera.entanglement_entropy(np.ones((2, 16)), 2)

    def test_stack_that_is_not_2d_names_its_shape(self):
        for bad in (np.ones(16), np.ones((2, 2, 16))):
            with pytest.raises(ShapeError, match=r"stack \[z, 2\*\*n\].*shape"):
                mera.entanglement_entropies(bad, 2)

    def test_overflowing_squared_norm_rejected(self, exact_ground):
        _, ground = exact_ground
        assert mera.entanglement_entropy(1e150 * ground, 2) == pytest.approx(mera.entanglement_entropy(ground, 2))
        with pytest.raises(DomainError, match="overflow"):
            mera.entanglement_entropy(1e200 * ground, 2)
        with pytest.raises(DomainError, match="overflow"):
            mera.entanglement_entropies(np.array([ground, 1e200 * ground]), 2)

    def test_underflowing_squared_norm_rejected(self, exact_ground):
        # At 1e-150 the squared singular values are normal, at 1e-160 subnormal.
        _, ground = exact_ground
        assert mera.entanglement_entropy(1e-150 * ground, 2) == pytest.approx(0.83698821678583, rel=1e-13)
        with pytest.raises(DomainError, match="underflow"):
            mera.entanglement_entropy(1e-160 * ground, 2)
        with pytest.raises(DomainError, match="underflow"):
            mera.entanglement_entropies(np.array([ground, 1e-160 * ground]), 2)

    def test_underflowing_kept_weight_rejected(self):
        # Squared singular values 4e-308 (normal) and 1e-322 (subnormal, off by 1.2%);
        # the second's weight 2.5e-15 is kept.
        psi = np.zeros(16)
        psi[0b0000] = 2e-154
        psi[0b1111] = 1e-161
        with pytest.raises(DomainError, match="kept squared singular values underflow"):
            mera.entanglement_entropy(psi, 2)

    def test_empty_stack_gives_empty_array(self):
        entropies = mera.entanglement_entropies(np.zeros((0, 16)), 2)
        assert entropies.shape == (0,)
        assert entropies.dtype == np.float64

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.0)])
    def test_non_finite_state_rejected_before_the_svd(self, exact_ground, bad):
        _, ground = exact_ground
        spoiled = ground.copy()
        spoiled[5] = bad
        with pytest.raises(DomainError, match="non-finite"):
            mera.entanglement_entropy(spoiled, 2)
        with pytest.raises(DomainError, match="non-finite"):
            mera.entanglement_entropies(np.array([ground, spoiled]), 2)

    @pytest.mark.parametrize(("n", "cut"), [(4, 1), (4, 2), (6, 3), (8, 4), (8, 2)])
    def test_stacked_rows_equal_the_single_state_reference(self, n, cut):
        # Low-rank rows vary how many weights each row keeps, which sets the
        # length, and so the order, of the sum.
        rng = np.random.default_rng(43 + n + cut)
        rows = []
        for rank in range(1, 2 ** min(cut, n - cut) + 1):
            for _ in range(5):
                left = rng.normal(size=(2 ** cut, rank)) + 1j * rng.normal(size=(2 ** cut, rank))
                right = rng.normal(size=(rank, 2 ** (n - cut))) + 1j * rng.normal(size=(rank, 2 ** (n - cut)))
                psi = (left @ right).ravel()
                rows.append(psi / np.linalg.norm(psi))
        rng.shuffle(rows)
        values = mera.entanglement_entropies(np.array(rows), cut)
        for psi, value in zip(rows, values):
            assert bit_equal(value, reference_entropy(psi, cut))

    def test_sweep_states_equal_the_single_state_reference(self, h4):
        thetas = np.linspace(-1.5707963, 1.5707963, 5001)
        _, _, states, _ = mera.optimal_ratios(np.array([gates.entangler_rotation(float(t)) for t in thetas]), h4)
        values = mera.entanglement_entropies(states, 2)
        assert all(bit_equal(value, reference_entropy(psi, 2)) for psi, value in zip(states, values))


class TestNuFit:
    def test_roots_closed_form(self):
        fit = mera.solve_nu_fit()
        offset = 2.0 * np.sqrt(3.0)
        assert abs(fit.roots[0] - complex(0.0, offset - 4.0)) < 1e-12
        assert abs(fit.roots[1] - complex(0.0, -offset - 4.0)) < 1e-12

    def test_roots_satisfy_fit_condition(self):
        fit = mera.solve_nu_fit()
        for nu in fit.roots:
            w = gates.bc(nu)
            assert abs(w.b ** 2 + w.c ** 2 + 4.0 * w.b * w.c) < 1e-12

    def test_first_root_weights(self):
        fit = mera.solve_nu_fit()
        w = gates.bc(fit.roots[0])
        root3 = np.sqrt(3.0)
        assert abs(w.b - (root3 + 1.0) / 2.0) < 1e-14
        assert abs(w.c - (1.0 - root3) / 2.0) < 1e-14
        assert abs(2.0 * w.b * w.c - (-1.0)) < 1e-13
        assert abs(w.b ** 2 + w.c ** 2 - 2.0) < 1e-13

    def test_quoted_values_fail_fit_condition(self):
        fit = mera.solve_nu_fit()
        assert fit.residual_quoted > 1e-3
        assert abs(fit.residual_quoted - 1.5) < 1e-12
        assert abs(fit.b_at_nu_quoted - (-1.0 + np.sqrt(3.0) * 1j) / 4.0) < 1e-14
