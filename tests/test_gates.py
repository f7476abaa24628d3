import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mera_lab import gates, mera, report
from mera_lab.errors import DomainError, ResourceError, ShapeError

I4 = np.eye(4, dtype=complex)


def basis2(a: int, b: int) -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[2 * a + b] = 1.0
    return v


class TestRotation:
    def test_zero_angle_is_identity(self):
        assert np.array_equal(gates.entangler_rotation(0.0), I4)

    def test_quarter_turn_action(self):
        u = gates.entangler_rotation(np.pi / 2)
        assert np.allclose(u @ basis2(0, 1), -basis2(1, 0), atol=1e-15)
        assert np.allclose(u @ basis2(1, 0), basis2(0, 1), atol=1e-15)

    def test_entries_at_optimal_angle(self):
        theta = -0.5 * np.arcsin(1.0 / np.sqrt(5.0))
        u = gates.entangler_rotation(theta)
        assert u[1, 1] == u[2, 2] == np.cos(theta)
        assert u[1, 2] == np.sin(theta)
        assert abs(u[1, 1].real - 0.9734) < 5e-4
        assert abs(u[1, 2].real - (-0.2290)) < 1e-3

    def test_unitarity_random(self):
        rng = np.random.default_rng(21)
        for theta in rng.uniform(-np.pi, np.pi, size=100):
            u = gates.entangler_rotation(theta)
            assert np.max(np.abs(u @ u.conj().T - I4)) < 1e-14

    def test_mixes_only_middle_block(self):
        u = gates.entangler_rotation(1.234)
        mask = np.ones((4, 4), dtype=bool)
        mask[1:3, 1:3] = False
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = 1.0
        assert np.array_equal(u[mask], expected[mask])


class TestRotationStack:
    @pytest.mark.parametrize(
        "thetas",
        [
            np.linspace(-np.pi / 2, np.pi / 2, 2001),
            np.linspace(-3.0, 3.0, 20001),
            np.random.default_rng(5).uniform(-1e3, 1e3, size=100_000),
            np.array([0.0, -0.0, np.pi, -np.pi / 2, 1e-300, -1e-300]),
        ],
    )
    def test_equals_the_gates_of_each_angle_bit_for_bit(self, thetas):
        stack = gates.entangler_rotations(thetas)
        expected = np.zeros((len(thetas), 4, 4), dtype=complex)
        for k, theta in enumerate(thetas.tolist()):
            c, s = np.cos(theta), np.sin(theta)
            expected[k, 0, 0] = expected[k, 3, 3] = 1.0
            expected[k, 1, 1] = expected[k, 2, 2] = c
            expected[k, 1, 2] = s
            expected[k, 2, 1] = -s
        # Comparing the raw words also compares the signs of zero.
        assert np.array_equal(stack.view(np.uint64), expected.view(np.uint64))

    def test_single_gate_is_a_stack_of_one(self):
        for theta in (0.0, -0.0, 0.3, -2.5):
            one = gates.entangler_rotation(theta)
            assert one.shape == (4, 4)
            assert np.array_equal(one.view(np.uint64), gates.entangler_rotations([theta])[0].view(np.uint64))

    @settings(deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=16))
    def test_stacks_are_unitary(self, thetas):
        stack = gates.entangler_rotations(thetas)
        products = stack @ stack.conj().transpose(0, 2, 1)
        assert np.max(np.abs(products - I4), initial=0.0) < 1e-14

    def test_empty_and_bad_shapes(self):
        assert gates.entangler_rotations(np.array([])).shape == (0, 4, 4)
        with pytest.raises(ShapeError):
            gates.entangler_rotations(np.zeros((2, 2)))


class TestSwap:
    def test_exchanges_factors(self):
        s = gates.swap()
        assert np.array_equal(s @ basis2(0, 1), basis2(1, 0))
        assert np.array_equal(s @ basis2(0, 0), basis2(0, 0))

    def test_involution(self):
        s = gates.swap()
        assert np.array_equal(s @ s, I4)
        assert np.array_equal(s, s.conj().T)


class TestWeights:
    def test_zero_parameter(self):
        w = gates.bc(0.0)
        assert w.b == 1.0 and w.c == 0.0

    def test_real_parameter_power_identity(self):
        w = gates.bc(2.0)
        assert abs(abs(w.b) ** 2 + abs(w.c) ** 2 - 1.0) < 1e-15

    def test_quoted_complex_value(self):
        w = gates.bc(2.0 * np.sqrt(3.0) - 4j)
        assert abs(w.b - (-1.0 + np.sqrt(3.0) * 1j) / 4.0) < 1e-15
        assert abs(abs(w.b) - 0.5) < 1e-15
        assert abs(np.angle(w.b) - 2.0 * np.pi / 3.0) < 1e-14

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            gates.bc(-2j)

    def test_sum_identity_random(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            nu = complex(rng.normal(), rng.normal())
            w = gates.bc(nu)
            assert abs(w.b + w.c - 1.0) < 1e-14

    @pytest.mark.parametrize("nu", [8.98846567431158e307 + 8.98846567431158e307j, 1.7e308 + 1.7e308j])
    def test_overflowing_parameter_rejected(self, nu):
        # The first overflows in the division (c was nan), the second already
        # in |nu + 2i| (abs raised OverflowError).
        with pytest.raises(DomainError, match="not finite"):
            gates.bc(nu)
        with pytest.raises(DomainError, match="not finite"):
            gates.rmatrix(nu)

    @settings(deadline=None)
    @given(st.complex_numbers(allow_nan=False, allow_infinity=False))
    def test_sum_identity_outside_the_pole_guard(self, nu):
        # b and c are each of size (2 + |nu|) / |nu + 2i|, so rounding leaves
        # b + c - 1 of that size times the unit roundoff: 1e-14 away from the
        # pole, 3e-5 at |nu + 2i| = 1e-11. Past |nu| of 1e307 a division may
        # overflow, and bc refuses that nu rather than return a nan weight.
        try:
            w = gates.bc(nu)
        except DomainError:
            assert math.hypot(nu.real, nu.imag + 2.0) < gates._POLE_GUARD or math.hypot(nu.real, nu.imag) > 1e307
            return
        assert cmath.isfinite(w.b) and cmath.isfinite(w.c)
        assert abs(w.b + w.c - 1.0) < 1e-14 * (2.0 + abs(nu)) / abs(nu + 2j)


class TestRMatrix:
    def test_zero_parameter_identity(self):
        assert np.allclose(gates.rmatrix(0.0), I4, atol=0.0)

    def test_real_parameter_unitary(self):
        r = gates.rmatrix(1.0)
        assert np.max(np.abs(r @ r.conj().T - I4)) < 1e-13

    @settings(deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_unitary_at_every_real_parameter(self, nu):
        r = gates.rmatrix(nu)
        assert np.max(np.abs(r @ r.conj().T - I4)) < 1e-13

    def test_complex_parameter_not_unitary_but_returned(self):
        nu = complex(0.0, 2.0 * np.sqrt(3.0) - 4.0)
        r = gates.rmatrix(nu)
        assert np.max(np.abs(r @ r.conj().T - I4)) > 0.1

    def test_unitary_iff_real(self):
        rng = np.random.default_rng(23)
        for lam in rng.uniform(-10.0, 10.0, size=100):
            r = gates.rmatrix(float(lam))
            assert np.max(np.abs(r @ r.conj().T - I4)) < 1e-13
        for _ in range(100):
            nu = complex(rng.normal(), rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]))
            r = gates.rmatrix(nu)
            assert np.max(np.abs(r @ r.conj().T - I4)) > 1e-12

    def test_symmetric_block_pattern(self):
        r = gates.rmatrix(0.7)
        assert r[1, 2] == r[2, 1]
        assert r[0, 0] == r[3, 3] == 1.0
        assert np.array_equal(r[0, 1:], np.zeros(3))


class TestEmbed:
    def test_middle_of_four_matches_nested_kron(self):
        theta = 0.37
        gate = gates.entangler_rotation(theta)
        i2 = np.eye(2, dtype=complex)
        expected = np.kron(i2, np.kron(gate, i2))
        assert np.array_equal(gates.embed(gate, 2, 4), expected)

    def test_identity_embedding(self):
        assert np.array_equal(gates.embed(I4, 1, 2), I4)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_nested_kron_bit_for_bit(self, n):
        # The sign bits of zeros included: kron forms each entry as (left * gate) * right.
        rng = np.random.default_rng(n)
        signed = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        signed[0, 0] = complex(-0.0, -0.0)
        signed[1, 2] = complex(0.0, -0.0)
        for gate in (gates.entangler_rotation(float(rng.uniform(-np.pi, np.pi))), gates.rmatrix(1.0 - 2.0j), signed):
            for site in range(1, n):
                left = np.eye(2 ** (site - 1), dtype=complex)
                right = np.eye(2 ** (n - site - 1), dtype=complex)
                expected = np.kron(np.kron(left, gate), right)
                embedded = gates.embed(gate, site, n)
                assert embedded.dtype == expected.dtype
                assert np.array_equal(embedded.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_stack_slices_equal_single_embeddings_bit_for_bit(self, n):
        rng = np.random.default_rng(100 + n)
        signed = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        signed[0, 0, 0] = complex(-0.0, -0.0)
        signed[1, 1, 2] = complex(0.0, -0.0)
        signed[2, 3, 1] = complex(-0.0, 0.0)
        stack = np.concatenate([gates.entangler_rotations(rng.uniform(-np.pi, np.pi, 2)), signed])
        for site in range(1, n):
            embedded = gates.embed(stack, site, n)
            assert embedded.shape == (len(stack), 2**n, 2**n)
            for gate, plane in zip(stack, embedded):
                assert np.array_equal(plane.view(np.uint64), gates.embed(gate, site, n).view(np.uint64))
        # A stack of stacks keeps its leading axes.
        assert np.array_equal(gates.embed(stack.reshape(5, 1, 4, 4), 1, n)[:, 0], gates.embed(stack, 1, n))

    def test_position_out_of_range(self):
        with pytest.raises(ShapeError):
            gates.embed(I4, 4, 4)
        with pytest.raises(ShapeError):
            gates.embed(I4, 0, 4)

    def test_wrong_gate_shape(self):
        with pytest.raises(ShapeError):
            gates.embed(np.eye(8), 1, 4)
        with pytest.raises(ShapeError):
            gates.embed(np.zeros((3, 8, 8)), 1, 4)
        with pytest.raises(ShapeError):
            gates.embed(np.zeros(16), 1, 4)

    def test_oversize_register(self):
        with pytest.raises(ResourceError):
            gates.embed(I4, 1, 13)
        with pytest.raises(ResourceError):
            gates.embed(I4, 1, 1)
        with pytest.raises(ResourceError):
            gates.swap_layer(14)

    def test_disjoint_supports_commute(self):
        gate = gates.entangler_rotation(0.9)
        a = gates.embed(gate, 1, 4)
        b = gates.embed(gate, 3, 4)
        assert np.linalg.norm(a @ b - b @ a) < 1e-13

    def test_disjoint_supports_commute_up_to_eight_sites(self):
        rng = np.random.default_rng(24)
        for n in (4, 6, 8):
            gate = gates.entangler_rotation(float(rng.uniform(-np.pi, np.pi)))
            for i in range(1, n):
                for j in range(i + 2, n):
                    a = gates.embed(gate, i, n)
                    b = gates.embed(gate, j, n)
                    assert np.linalg.norm(a @ b - b @ a) < 1e-13

    def test_adjacent_supports_do_not_commute(self):
        gate = gates.entangler_rotation(0.4)
        a = gates.embed(gate, 1, 4)
        b = gates.embed(gate, 2, 4)
        assert np.linalg.norm(a @ b - b @ a) > 1e-3


class TestSwapLayer:
    def test_two_sites(self):
        assert np.array_equal(gates.swap_layer(2), gates.swap())

    def test_four_sites_block_form(self):
        s = gates.swap()
        expected = np.zeros((16, 16), dtype=complex)
        for row, col in ((0, 0), (1, 2), (2, 1), (3, 3)):
            expected[4 * row : 4 * row + 4, 4 * col : 4 * col + 4] = s
        assert np.array_equal(gates.swap_layer(4), expected)

    def test_involution(self):
        layer = gates.swap_layer(4)
        assert np.array_equal(layer @ layer, np.eye(16, dtype=complex))

    def test_odd_count_rejected(self):
        with pytest.raises(ShapeError):
            gates.swap_layer(3)


class TestSwapConjugation:
    def test_conjugated_entangler_commutes_with_original(self):
        rng = np.random.default_rng(25)
        swaps = gates.swap_layer(4)
        for theta in rng.uniform(-np.pi, np.pi, size=100):
            inner = gates.embed(gates.entangler_rotation(theta), 2, 4)
            outer = swaps @ inner @ swaps
            assert np.linalg.norm(inner @ outer - outer @ inner) < 1e-13


class TestBuilderInput:
    @pytest.mark.parametrize("theta", [1j, 0.1 + 0.5j, np.complex128(0.3)])
    def test_rotation_refuses_complex_angle(self, theta):
        with pytest.raises(DomainError, match="real"):
            gates.entangler_rotation(theta)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_rotation_refuses_non_finite_angle(self, theta):
        with pytest.raises(DomainError, match="finite"):
            gates.entangler_rotation(theta)

    @pytest.mark.parametrize(
        "thetas",
        [np.array([0.1 + 0.5j]), [0.2, 0.1j], [0.1, math.nan], np.array([math.inf, 0.2]), [0.0, -math.inf]],
    )
    def test_rotation_stack_refuses_a_bad_angle(self, thetas):
        # No ComplexWarning or "invalid value" RuntimeWarning fires first: the suite turns warnings into errors.
        with pytest.raises(DomainError, match="real|finite"):
            gates.entangler_rotations(thetas)

    def test_rmatrix_rejects_pole(self):
        with pytest.raises(DomainError):
            gates.rmatrix(-2j)

    @pytest.mark.parametrize("nus", [[-2j], [0.5, -2j, 1.0], [1.0, -2j + 1e-13], np.array([0.3, math.nan])])
    def test_rmatrix_stack_refuses_a_pole_or_non_finite_parameter(self, nus):
        with pytest.raises(DomainError):
            gates.rmatrices(nus)

    @pytest.mark.parametrize("nu", [math.nan, complex(math.inf, 0.0), complex(0.0, math.nan)])
    def test_rmatrix_refuses_non_finite_parameter(self, nu):
        with pytest.raises(DomainError, match="not finite"):
            gates.rmatrix(nu)


class TestEntanglerSpec:
    # An entangler is named by a family of ``gates.FAMILIES``; the pipeline refuses any other name.
    def test_unknown_family(self):
        assert "squeeze" not in gates.FAMILIES
        with pytest.raises(DomainError, match="unknown entangler family 'squeeze'"):
            report.build_report(entangler="squeeze")


def exchange_reference(diagonal: complex, upper: complex, lower: complex) -> np.ndarray:
    """A gate written out by hand: 1 on |00> and |11>, [[diagonal, upper], [lower, diagonal]] on (|01>, |10>)."""
    return np.array(
        [[1, 0, 0, 0], [0, diagonal, upper, 0], [0, lower, diagonal, 0], [0, 0, 0, 1]],
        dtype=complex,
    )


def assert_same_bytes(actual: np.ndarray, expected: np.ndarray) -> None:
    # The raw bytes also compare the signs of zeros.
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestGateBytes:
    ANGLES = [0.0, -0.0, np.pi / 4, -np.pi / 4, np.pi / 2, -np.pi / 2, np.pi, 1e-300]

    def test_swap(self):
        assert_same_bytes(gates.swap(), exchange_reference(0.0, 1.0, 1.0))

    @pytest.mark.parametrize("theta", ANGLES)
    def test_rotation(self, theta):
        c, s = np.cos(theta), np.sin(theta)
        assert_same_bytes(gates.entangler_rotation(theta), exchange_reference(c, s, -s))

    def test_rotation_stack(self):
        expected = np.stack([exchange_reference(np.cos(t), np.sin(t), -np.sin(t)) for t in self.ANGLES])
        assert_same_bytes(gates.entangler_rotations(self.ANGLES), expected)

    @pytest.mark.parametrize(
        "nu",
        [0.0, 1.5, *mera.solve_nu_fit().roots, 2.0 * np.sqrt(3.0) - 4j],
    )
    def test_rmatrix(self, nu):
        w = gates.bc(nu)
        assert_same_bytes(gates.rmatrix(nu), exchange_reference(w.b, w.c, w.c))

    def test_rmatrix_stack(self):
        nus = [0.0, -0.0, 1.5, *mera.solve_nu_fit().roots, 2.0 * np.sqrt(3.0) - 4j, 1e300, -7.25]
        expected = np.stack([exchange_reference(gates.bc(nu).b, gates.bc(nu).c, gates.bc(nu).c) for nu in nus])
        assert_same_bytes(gates.rmatrices(nus), expected)
        assert_same_bytes(gates.rmatrices(nus), np.stack([gates.rmatrix(nu) for nu in nus]))
        assert_same_bytes(gates.rmatrices(np.array(nus)), expected)
