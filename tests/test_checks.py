import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mera_lab import checks, gates

#: Traced peak of one warm ``run_checks`` call when the disjoint commutators
#: were dense 2^n x 2^n products (numpy 2.4.6, 64-bit Linux).
DENSE_SUITE_PEAK_BYTES = 4_243_864


def disjoint_pairs(n: int):
    return [(i, j) for i in range(1, n) for j in range(i + 2, n)]


def assert_products_equal_dense(gate: np.ndarray, n: int) -> None:
    for i, j in disjoint_pairs(n):
        a = gates.embed(gate, i, n)
        b = gates.embed(gate, j, n)
        assert np.array_equal(checks._gate_times(gate, i, b), a @ b)
        assert np.array_equal(checks._gate_times(gate, j, a), b @ a)


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
