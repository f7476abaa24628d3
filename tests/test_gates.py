import cmath
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mera_lab import gates, heisenberg, mera, report
from mera_lab.errors import ContractError, DomainError, ResourceError, ShapeError

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


class TestScalarParameters:
    # A single builder names the shape its caller passed, not that of the stack of one it builds.
    NON_SCALARS = [np.array([1.0, 2.0]), np.array([0.5]), np.zeros((2, 3)), [[0.1]]]

    @pytest.mark.parametrize("theta", NON_SCALARS)
    def test_rotation_of_a_non_scalar_angle(self, theta):
        with pytest.raises(ShapeError, match=f"^expected a scalar angle, got shape {re.escape(str(np.shape(theta)))}$"):
            gates.entangler_rotation(theta)

    @pytest.mark.parametrize("build", [gates.bc, gates.rmatrix])
    @pytest.mark.parametrize("nu", NON_SCALARS)
    def test_weights_of_a_non_scalar_parameter(self, build, nu):
        expected = f"^expected a scalar spectral parameter, got shape {re.escape(str(np.shape(nu)))}$"
        with pytest.raises(ShapeError, match=expected):
            build(nu)

    def test_zero_dimensional_arrays_are_scalars(self):
        assert np.array_equal(gates.entangler_rotation(np.array(0.3)), gates.entangler_rotation(0.3))
        assert gates.bc(np.array(2.0)) == gates.bc(2.0)
        assert np.array_equal(gates.rmatrix(np.float64(2.0)), gates.rmatrix(2.0))


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

    def test_sizes_must_be_integers(self):
        with pytest.raises(DomainError, match="site count must be an integer"):
            gates.embed(I4, 1, 4.0)
        with pytest.raises(DomainError, match="site must be an integer"):
            gates.embed(I4, 1.5, 4)
        assert np.array_equal(gates.embed(I4, np.int64(1), np.int64(3)), gates.embed(I4, 1, 3))

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


def random_complex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def slab_reference(gate: np.ndarray, site: int, block: np.ndarray) -> np.ndarray:
    """The gate contracted with the row bits of (site, site+1) of a block [2^n, k], with no BLAS slab loop."""
    rows, cols = block.shape
    slabs = block.reshape(2 ** (site - 1), 4, rows >> (site + 1), cols)
    return np.einsum("ab,xbyk->xayk", gate, slabs).reshape(rows, cols)


class TestApply:
    def test_acts_on_the_named_pair_only(self):
        rng = np.random.default_rng(3)
        gate = random_complex(rng, 4, 4)
        matrix = random_complex(rng, 64, 64)
        for site in range(1, 6):
            assert np.allclose(gates.apply(gate, site, matrix), gates.embed(gate, site, 6) @ matrix, atol=1e-12)

    @pytest.mark.parametrize("cols", [1, 3, 100])
    def test_block_of_columns(self, cols):
        rng = np.random.default_rng(cols)
        gate = random_complex(rng, 4, 4)
        for n in (2, 5, 7):
            block = random_complex(rng, 2**n, cols)
            for site in range(1, n):
                product = gates.apply(gate, site, block)
                assert product.shape == block.shape and product.dtype == block.dtype
                assert np.allclose(product, gates.embed(gate, site, n) @ block, atol=1e-12)

    def test_stacks_of_blocks(self):
        rng = np.random.default_rng(4)
        stack = random_complex(rng, 2, 3, 4, 4)
        blocks = random_complex(rng, 2, 3, 32, 5)
        for site in range(1, 5):
            product = gates.apply(stack, site, blocks)
            assert product.shape == blocks.shape
            embedded = gates.embed(stack, site, 5)
            assert np.allclose(product, embedded @ blocks, atol=1e-12)
            # One gate, or a stack with fewer axes, broadcasts over the stack of blocks.
            assert np.allclose(gates.apply(stack[0, 0], site, blocks), embedded[0, 0] @ blocks, atol=1e-12)
            assert np.allclose(gates.apply(stack[0], site, blocks), embedded[0] @ blocks, atol=1e-12)

    def test_register_above_the_dense_limit(self):
        # The register already exists, so apply has no site cap of its own.
        rng = np.random.default_rng(5)
        gate = random_complex(rng, 4, 4)
        block = random_complex(rng, 2**16, 3)
        for site in (1, 8, 15):
            assert np.allclose(gates.apply(gate, site, block), slab_reference(gate, site, block), atol=1e-12)

    @pytest.mark.parametrize("rows", [0, 1, 3, 12, 24])
    def test_row_count_not_a_power_of_two_or_too_small(self, rows):
        with pytest.raises(ShapeError):
            gates.apply(I4, 1, np.eye(rows, dtype=complex))

    def test_register_without_columns_axis(self):
        with pytest.raises(ShapeError):
            gates.apply(I4, 1, np.ones(16, dtype=complex))

    @pytest.mark.parametrize("site", [-1, 0, 4, 5])
    def test_site_out_of_range(self, site):
        with pytest.raises(ShapeError, match="out of range"):
            gates.apply(I4, site, np.eye(16, dtype=complex))

    def test_site_must_be_an_integer(self):
        with pytest.raises(DomainError, match="site must be an integer"):
            gates.apply(I4, 1.5, np.eye(16, dtype=complex))

    @pytest.mark.parametrize("shape", [(2, 2), (8, 8), (16,), (3, 4, 8)])
    def test_wrong_gate_shape(self, shape):
        with pytest.raises(ShapeError, match="two-site gate"):
            gates.apply(np.zeros(shape, dtype=complex), 1, np.eye(16, dtype=complex))

    def test_complex_gate_on_a_real_register(self):
        with pytest.raises(ContractError):
            gates.apply(gates.rmatrix(0.5), 1, np.eye(16))

    @pytest.mark.parametrize(
        "stack, register",
        [((3,), (16, 16)), ((2, 3), (3, 16, 2)), ((2,), (3, 16, 2)), ((3,), (1, 16, 2))],
        ids=["more-axes-than-a-plain-register", "more-axes-than-the-stack", "mismatched-axis", "axis-over-a-unit-axis"],
    )
    def test_gate_stack_that_does_not_broadcast_to_the_register(self, stack, register):
        with pytest.raises(ShapeError, match="broadcast"):
            gates.apply(np.zeros((*stack, 4, 4), dtype=complex), 1, np.zeros(register, dtype=complex))

    def test_every_parameter_is_required(self):
        parameters = inspect.signature(gates.apply).parameters.values()
        assert [p.name for p in parameters] == ["gate", "site", "matrix"]
        assert all(p.default is inspect.Parameter.empty for p in parameters)


#: u, v and u - v stay this far from the pole of the R-matrix at -2i.
POLE_DISTANCE = 1e-3


def braid_side(first: complex, middle: complex, last: complex, sites: tuple[int, int, int]) -> np.ndarray:
    """R(first) R(middle) R(last) on 3 sites, the k-th factor on the pair (sites[k], sites[k] + 1)."""
    register = np.eye(8, dtype=complex)
    for nu, site in reversed(list(zip((first, middle, last), sites))):
        register = gates.apply(gates.rmatrix(nu), site, register)
    return register


class TestNorms:
    @pytest.mark.parametrize(
        "shape",
        [(3, 16), (5, 4, 4), (2, 16, 16), (1, 64, 64), (4, 7, 9), (2, 128, 128), (1, 256, 256), (3, 5000), (2, 4097)],
    )
    def test_an_array_that_fits_one_dot_gets_the_bits_of_linalg_norm(self, shape):
        rng = np.random.default_rng(sum(shape))
        stack = random_complex(rng, *shape)
        assert gates.norms(stack).tolist() == [float(np.linalg.norm(array)) for array in stack]
        real = stack.real.copy()
        assert gates.norms(real).tolist() == [float(np.linalg.norm(array)) for array in real]

    def test_empty_stacks_and_empty_arrays(self):
        assert gates.norms(np.zeros((0, 16), dtype=complex)).shape == (0,)
        assert gates.norms(np.zeros((0, 256, 256), dtype=complex)).shape == (0,)
        assert gates.norms(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]


class TestBraidRelation:
    # The check form of the Yang-Baxter equation of gates.rmatrix (Faddeev, hep-th/9605187).
    part = st.floats(-10.0, 10.0)

    @settings(max_examples=200, deadline=None)
    @given(st.builds(complex, part, part), st.builds(complex, part, part))
    def test_holds_for_complex_parameters(self, u, v):
        for nu in (u, v, u - v):
            assume(abs(nu + 2j) > POLE_DISTANCE)
        left = braid_side(u - v, u, v, (1, 2, 1))
        right = braid_side(v, u, u - v, (2, 1, 2))
        scale = math.prod(np.linalg.norm(gates.rmatrix(nu), 2) for nu in (u, v, u - v))
        assert np.max(np.abs(left - right)) <= 1e-14 * scale

    def test_fails_for_unmatched_parameters(self):
        left = braid_side(0.7 - 0.2j, 1.1, 0.4, (1, 2, 1))
        right = braid_side(0.4, 1.1, 0.7, (2, 1, 2))
        assert np.max(np.abs(left - right)) > 1e-2


def transfer(lam: complex, n: int, bc: str, block: np.ndarray) -> np.ndarray:
    """t(lam) @ block for the transfer matrix of n sites, block [2^n, k], built from gates.rmatrix(lam - i).

    An auxiliary spin joins the register, the gate acts on a path of
    neighbouring pairs, and the trace over the auxiliary spin closes it.
    Ring (Faddeev): the auxiliary spin enters as site 1, the pairs run
    (1, 2), ..., (n, n+1), and it leaves as site n+1.  Open chain (Sklyanin):
    it enters and leaves as site n+1, and the pairs run (n, n+1), ..., (1, 2)
    and back (1, 2), ..., (n, n+1).
    """
    rows, cols = block.shape
    if bc == "periodic":
        inputs = np.zeros((2, 2, rows, cols), dtype=complex)
        inputs[0, 0] = inputs[1, 1] = block
        pairs = [*range(1, n + 1)]
    else:
        inputs = np.zeros((2, rows, 2, cols), dtype=complex)
        inputs[0, :, 0] = inputs[1, :, 1] = block
        pairs = [*range(n, 0, -1), *range(1, n + 1)]
    # One register per value of the auxiliary spin, both in one stack.
    register = inputs.reshape(2, 2 * rows, cols)
    gate = gates.rmatrix(lam - 1j)
    for site in pairs:
        register = gates.apply(gate, site, register)
    return np.trace(register.reshape(2, rows, 2, cols), axis1=0, axis2=2)


def relative(defect: np.ndarray, reference: np.ndarray) -> float:
    return float(np.linalg.norm(defect) / np.linalg.norm(reference))


BOUNDARIES = ["periodic", "open"]


class TestTransferMatrix:
    # Random complex spectral parameters, applied to a block of random columns instead of the identity.
    COLUMNS = 3

    def problem(self, n: int, bc: str, seed: int):
        rng = np.random.default_rng([n, BOUNDARIES.index(bc), seed])
        mu, nu = random_complex(rng, 2)
        return heisenberg.hamiltonian(n, bc), random_complex(rng, 2**n, self.COLUMNS), mu, nu

    @pytest.mark.parametrize("bc", BOUNDARIES)
    @pytest.mark.parametrize("n", range(2, 11))
    def test_commutes_with_the_hamiltonian(self, n, bc):
        h, block, mu, _ = self.problem(n, bc, 0)
        both = transfer(mu, n, bc, np.hstack([block, h @ block]))
        t_block, t_h_block = np.hsplit(both, 2)
        assert relative(t_h_block - h @ t_block, h @ t_block) < 1e-14

    @pytest.mark.parametrize("bc", BOUNDARIES)
    @pytest.mark.parametrize("n", range(2, 11))
    def test_commutes_at_two_parameters(self, n, bc):
        _, block, mu, nu = self.problem(n, bc, 1)
        nu_block, nu_mu_block = np.hsplit(transfer(nu, n, bc, np.hstack([block, transfer(mu, n, bc, block)])), 2)
        assert relative(transfer(mu, n, bc, nu_block) - nu_mu_block, nu_mu_block) < 1e-14

    @pytest.mark.parametrize("n", [4, 8])
    def test_each_boundary_fails_the_other_hamiltonian(self, n):
        for bc, other in zip(BOUNDARIES, reversed(BOUNDARIES)):
            h, block, mu, _ = self.problem(n, other, 2)
            t_block, t_h_block = np.hsplit(transfer(mu, n, bc, np.hstack([block, h @ block])), 2)
            assert relative(t_h_block - h @ t_block, h @ t_block) > 0.1

    @pytest.mark.parametrize("bc", BOUNDARIES)
    @pytest.mark.parametrize("n", [2, 3, 8, 10])
    def test_hamiltonian_is_the_logarithmic_derivative_at_i(self, n, bc):
        # t(i) is built from rmatrix(0) = I: the cyclic shift on the ring, 2 I on the open chain.
        # Ring: H t(i) = (n/4) t(i) + i t'(i); open chain: H = (n I + i t'(i)) / 4.
        h, block, _, _ = self.problem(n, bc, 3)
        step = 1e-6
        derivative = (transfer(1j + step, n, bc, block) - transfer(1j - step, n, bc, block)) / (2 * step)
        at_i = transfer(1j, n, bc, block)
        if bc == "periodic":
            shifted = block.reshape(2 ** (n - 1), 2, self.COLUMNS).swapaxes(0, 1).reshape(block.shape)
            assert np.array_equal(at_i, shifted)
            assert relative(h @ at_i - (n / 4) * at_i - 1j * derivative, h @ at_i) < 1e-8
        else:
            assert np.array_equal(at_i, 2 * block)
            assert relative(h @ block - (n * block + 1j * derivative) / 4, h @ block) < 1e-8


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
