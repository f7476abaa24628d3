import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mera_lab import checks, gates

#: Traced peak of one warm ``run_checks`` call when the disjoint commutators
#: were dense 2^n x 2^n products (numpy 2.4.6, 64-bit Linux).
DENSE_SUITE_PEAK_BYTES = 4_243_864


def site_pairs(n: int):
    """Every pair i < j of gate positions: the disjoint pairs and the adjacent ones, which share a site."""
    return [(i, j) for i in range(1, n) for j in range(i + 1, n)]


def assert_products_equal_dense(gate: np.ndarray, n: int) -> None:
    for i, j in site_pairs(n):
        a = gates.embed(gate, i, n)
        b = gates.embed(gate, j, n)
        assert np.array_equal(checks._gate_times(gate, i, b), a @ b)
        assert np.array_equal(checks._gate_times(gate, j, a), b @ a)
    # The swap-conjugated entangler: the swap layer moves the gate on (2, 3) onto (1, 4).
    swaps = gates.swap_layer(n)
    inner = gates.embed(gate, 2, n)
    outer = swaps @ inner @ swaps
    assert np.array_equal(checks._gate_times(gate, 2, outer), inner @ outer)


def per_gate_defect(gate: np.ndarray) -> float:
    return float(np.max(np.abs(gate @ gate.conj().T - np.eye(4))))


class TestDisjointCommutators:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_contracted_products_equal_dense_products(self, n):
        rng = np.random.default_rng(n)
        for theta in rng.uniform(-np.pi, np.pi, size=3):
            assert_products_equal_dense(gates.entangler_rotation(theta), n)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-np.pi, np.pi), st.sampled_from([4, 6, 8]))
    def test_contracted_products_equal_dense_products_for_any_angle(self, theta, n):
        assert_products_equal_dense(gates.entangler_rotation(theta), n)

    def test_gate_times_acts_on_the_named_pair_only(self):
        rng = np.random.default_rng(3)
        gate = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        matrix = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        for site in range(1, 6):
            assert np.allclose(checks._gate_times(gate, site, matrix), gates.embed(gate, site, 6) @ matrix, atol=1e-12)

    def test_suite_reports_exact_zero(self):
        suite = {c.name: c for c in checks.run_checks()}
        assert suite["disjoint_entangler_commutation"].measured == 0.0


class TestUnitarityDefects:
    def test_stack_equals_each_gate_bit_for_bit(self):
        rng = np.random.default_rng(11)
        rotations = gates.entangler_rotations(rng.uniform(-np.pi, np.pi, size=200))
        rmatrices = np.stack([gates.rmatrix(lam) for lam in rng.uniform(-20.0, 20.0, size=200)])
        for stack in (rotations, rmatrices):
            assert np.array_equal(checks._unitarity_defects(stack), [per_gate_defect(gate) for gate in stack])


class TestRunChecksMemory:
    def test_peak_stays_below_the_dense_suite(self):
        checks.run_checks()  # fill the process-wide caches first
        tracemalloc.start()
        try:
            checks.run_checks()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= DENSE_SUITE_PEAK_BYTES
