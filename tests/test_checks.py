import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mera_lab import checks, cli, gates
from mera_lab.errors import NumericError

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


#: ``gates.embed`` and three broken variants: the gate one site to the left, one to the right, transposed.
EMBEDDINGS = {
    "real": lambda embed: embed,
    "left": lambda embed: lambda gate, site, n: embed(gate, max(1, site - 1), n),
    "right": lambda embed: lambda gate, site, n: embed(gate, min(n - 1, site + 1), n),
    "transposed": lambda embed: lambda gate, site, n: embed(np.swapaxes(gate, -1, -2), site, n),
}


def all_disjoint_pairs_worst() -> float:
    """Max of ``_commutator_norm`` over all 22 disjoint pairs (i, j) on n = 4, 6, 8, at the angles ``run_checks`` reads."""
    angles = checks._load_draws()[100:103]  # after the 100 rotation-unitarity angles
    worst = 0.0
    for n, angle in zip((4, 6, 8), angles):
        gate = gates.entangler_rotation(float(angle))
        for i in range(1, n - 2):
            for j in range(i + 2, n):
                worst = max(worst, checks._commutator_norm(gate, i, j, n))
    return worst


def per_gate_swap_defects(rotations: np.ndarray) -> list[float]:
    """The swap-conjugation commutator norm of each gate, one gate at a time, through ``gates.embed``."""
    swaps = gates.swap_layer(4)
    defects = []
    for gate in rotations:
        inner = gates.embed(gate, 2, 4)
        outer = swaps @ inner @ swaps
        defects.append(float(np.linalg.norm(checks._gate_times(gate, 2, outer) - outer @ inner)))
    return defects


#: Seed of the generator that ``check_draws.txt`` was frozen from.
DRAWS_SEED = 1729


def seeded_draws() -> np.ndarray:
    """The suite's samples redrawn from ``DRAWS_SEED`` in the order ``run_checks`` takes them.

    ``check_draws.txt`` is ``table_text(map(repr, seeded_draws().tolist()))``.
    """
    rng = np.random.default_rng(DRAWS_SEED)
    return np.concatenate(
        [
            rng.uniform(-np.pi, np.pi, size=100),  # rotation unitarity and the swap-conjugated entangler
            [rng.uniform(-np.pi, np.pi) for _ in (4, 6, 8)],  # one disjoint-pair angle per n
            rng.normal(size=(50, 8)).ravel(),  # isometry rows
            rng.normal(size=100),  # real parts of nu
            rng.normal(size=100),  # imaginary parts of nu
            rng.uniform(-20.0, 20.0, size=100),  # R-matrix parameters
        ]
    )


def table_text(lines) -> str:
    return "".join(line + "\n" for line in lines)


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

    @pytest.mark.parametrize("n", range(4, 9))
    def test_spanned_sites_give_the_dense_norm(self, n):
        rng = np.random.default_rng(100 + n)
        gate = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for i, j in site_pairs(n):
            norm = checks._commutator_norm(gate, i, j, n)
            if j >= i + 2:
                assert norm == 0.0
            else:
                # Overlapping supports: a nonzero norm, which pins the 2^((n - m)/2) factor.
                a = gates.embed(gate, i, n)
                b = gates.embed(gate, j, n)
                assert norm == pytest.approx(np.linalg.norm(a @ b - b @ a), rel=1e-12, abs=0.0)

    def test_suite_catches_a_misplaced_embedding(self, monkeypatch):
        embed = gates.embed
        monkeypatch.setattr(gates, "embed", lambda gate, site, n: embed(gate, max(1, site - 1), n))
        suite = {c.name: c for c in checks.run_checks()}
        assert suite["disjoint_entangler_commutation"].passed is False

    @pytest.mark.parametrize("variant", sorted(EMBEDDINGS))
    def test_one_pair_per_span_equals_all_pairs(self, monkeypatch, variant):
        monkeypatch.setattr(gates, "embed", EMBEDDINGS[variant](gates.embed))
        expected = all_disjoint_pairs_worst()
        suite = {c.name: c for c in checks.run_checks()}
        assert suite["disjoint_entangler_commutation"].measured == expected
        assert (expected == 0.0) is (variant == "real")

    def test_suite_forms_one_commutator_per_span_and_one_adjacent(self, monkeypatch):
        calls = []
        helper = checks._commutator_norm

        def counted(gate, i, j, n):
            calls.append((i, j, n))
            return helper(gate, i, j, n)

        monkeypatch.setattr(checks, "_commutator_norm", counted)
        checks.run_checks()
        assert calls == [(1, j, n) for n in (4, 6, 8) for j in range(3, n)] + [(1, 2, 4)]


class TestSwapConjugation:
    @pytest.mark.parametrize("variant", sorted(EMBEDDINGS))
    def test_stack_equals_the_per_gate_loop_bit_for_bit(self, monkeypatch, variant):
        monkeypatch.setattr(gates, "embed", EMBEDDINGS[variant](gates.embed))
        rotations = gates.entangler_rotations(checks._load_draws()[:100])
        stacked = checks._swap_conjugation_defects(rotations)
        expected = per_gate_swap_defects(rotations)
        assert stacked.tolist() == expected
        # The suite fails for each broken embedding, and only for those.
        swap_check = {c.name: c for c in checks.run_checks()}["swap_conjugated_entangler_commutes"]
        assert swap_check.measured == max(expected)
        assert swap_check.passed is (variant == "real")
        assert (swap_check.measured == 0.0) is (variant == "real")

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=60))
    def test_any_angles_give_the_per_gate_values(self, thetas):
        rotations = gates.entangler_rotations(thetas)
        assert checks._swap_conjugation_defects(rotations).tolist() == per_gate_swap_defects(rotations)


class TestCommutatorNorm:
    @pytest.mark.parametrize("m", range(3, 9))
    def test_norm_sums_the_squares_of_every_entry(self, monkeypatch, m):
        # With the transposed embedding the commutator is nonzero on every span, disjoint ones included.
        monkeypatch.setattr(gates, "embed", EMBEDDINGS["transposed"](gates.embed))
        rng = np.random.default_rng(200 + m)
        gate = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        commutator = checks._gate_times(gate, 1, gates.embed(gate, m - 1, m))
        commutator -= checks._gate_times(gate, m - 1, gates.embed(gate, 1, m))
        norm = checks._commutator_norm(gate, 1, m - 1, m)
        assert norm > 0.0
        if commutator.size <= checks._DOT_LENGTH:
            # One pair of BLAS dots, the ones np.linalg.norm takes.
            assert norm == float(np.linalg.norm(commutator))
        else:
            assert norm == pytest.approx(math.sqrt(float(np.sum(np.abs(commutator) ** 2))), rel=1e-13)


class TestDrawTable:
    def test_table_is_the_seeded_draws_bit_for_bit(self):
        # A numpy release that moves the PCG64 bits fails here, not in a payload pin.
        draws = seeded_draws()
        assert checks._load_draws().tobytes() == draws.tobytes()
        with open(checks._DRAWS_PATH, encoding="ascii") as table:
            assert table.read() == table_text(map(repr, draws.tolist()))

    @pytest.mark.parametrize("edit", ["missing", "extra", "nan", "inf"])
    def test_a_damaged_table_raises(self, tmp_path, monkeypatch, edit):
        lines = [repr(v) for v in seeded_draws().tolist()]
        if edit == "missing":
            lines.pop()
        elif edit == "extra":
            lines.append("0.5")
        else:
            lines[400] = edit
        table = tmp_path / "check_draws.txt"
        table.write_text(table_text(lines))
        monkeypatch.setattr(checks, "_DRAWS_PATH", str(table))
        with pytest.raises(NumericError):
            checks.run_checks()

    def test_a_short_table_exits_one(self, tmp_path, monkeypatch, capsys):
        table = tmp_path / "check_draws.txt"
        table.write_text(table_text(map(repr, seeded_draws().tolist()[:700])))
        monkeypatch.setattr(checks, "_DRAWS_PATH", str(table))
        assert cli.main(["check"]) == 1
        assert "expected 803 sample values, read 700" in capsys.readouterr().err

    def test_a_missing_table_is_an_io_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(checks, "_DRAWS_PATH", str(tmp_path / "check_draws.txt"))
        with pytest.raises(OSError):
            checks.run_checks()
        assert cli.main(["check"]) == 1
        assert capsys.readouterr().err.startswith("i/o error: ")


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
