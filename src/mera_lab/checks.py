"""Randomized invariant suite shared by the CLI `check` command and reports.

Each check measures one deviation (a max over random samples where sampling
applies) and compares it against its own default tolerance, unless a global
override is given.  The samples are read, not drawn: ``check_draws.txt`` holds
the 803 values that ``np.random.default_rng(1729)`` yields in the order the
suite takes them, one ``repr(float)`` per line, so every run produces
identical measured values without importing ``numpy.random``.
``tests/test_checks.py`` redraws the table from that seed and compares it bit
for bit.

Entries with ``passed = None`` are informational: quantities that are
deliberately reported without being asserted, such as the commutator of
entanglers that share a site and the fidelity gap of the raw (unmirrored)
circuit at the optimal angle.

Every commutator is formed by contraction: a product A X with A = embed(gate,
i, n) on the left applies the 4x4 gate to the row bits of sites (i, i+1) of X
(``_gate_times``) and never multiplies by the dense A.  For entanglers on
disjoint pairs (sites i, i+1 and j, j+1 with j >= i + 2, on 4, 6 and 8
sites) A and B are both the identity outside the m = j - i + 2 sites i..j+1
that they span, so [A, B] = I (x) C (x) I with C the commutator of the same
two gates embedded at sites 1 and m - 1 of m, and ||[A, B]||_F equals
2^((n - m)/2) ||C||_F (``_commutator_norm``).  The norm depends on a pair only
through its span, so the check forms one commutator per span, m = 4..n, as
the pair (1, m - 1); the one 2^n x 2^n array is that of m = n = 8.  Because
the supports are disjoint, each entry of either product has exactly one
nonzero term, the same product of two gate entries in both orders.  The
contracted products therefore equal the dense ones exactly, and the
measured commutator norm is exactly 0.  The adjacent pair (1, 2) on 4 sites
(m = 3) goes through the same helper.

The per-sample checks are stacked: the rotations and the R-matrices are
each one [k, 4, 4] array (``gates.entangler_rotations``,
``gates.rmatrices``), the 50 isometry rows are normalized in one step, and
the 100 swap-conjugated commutators are stacked products
(``_swap_conjugation_defects``), 25 gates at a time, each stack of 25
embedded by one ``gates.embed`` call: one stack of 100 took 1.6 MB of
traced memory, four of 25 took 0.5 MB and less time, their 100 kB arrays
staying in cache.  Each stacked value equals, bit for bit, the value of
its sample alone.

No BLAS call of the suite is large enough for OpenBLAS to hand it to its
thread pool, which numpy's bundled OpenBLAS does for a zgemm from about
4 x 4 x 4096 multiply-adds and for a dot over 10 000 entries.  On a 2-core
machine such calls waited 6-15 ms each for a worker thread in many fresh
processes (3 of 16 in one batch, 4 of 8 in another), several times the
suite's own work.  ``_gate_times`` therefore applies the gate to one slab
of 4 rows at a time, and ``_commutator_norm`` sums the squares in dots of
at most ``_DOT_LENGTH`` entries.  Up to that length (the spans m <= 6 and
the adjacent pair) the sum is the one pair of dots that ``np.linalg.norm``
takes, with its bits; the 7- and 8-site spans, whose norm is exactly 0,
add partial sums.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import gates, mera
from .errors import NumericError
from .heisenberg import four_site_ring

#: The suite's samples; the report payload pins the values measured on them.
_DRAWS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "check_draws.txt")

#: Samples per use, in table order: rotation angles, one angle for each of n = 4, 6, 8,
#: 50 isometry rows of 8, real parts and imaginary parts of nu, R-matrix parameters.
_DRAW_SIZES = (100, 3, 400, 100, 100, 100)

#: Gates per stack of swap-conjugated commutators (see the module docstring).
_SWAP_STACK = 25

#: Entries per BLAS dot in a commutator's norm (see the module docstring).
_DOT_LENGTH = 4096


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool | None
    measured: float
    tolerance: float | None


def _gate_times(gate: np.ndarray, site: int, matrix: np.ndarray) -> np.ndarray:
    """``embed(gate, site, n) @ matrix``, formed by applying the 4x4 gate to the row bits of (site, site+1).

    ``matrix`` may be a stack [..., 2^n, 2^n] and ``gate`` a matching stack
    [..., 4, 4].  The gate multiplies one slab of 4 rows by 2^n columns at a
    time, one slab per value of the other row bits, so no BLAS call exceeds
    4 x 4 x 2^n multiply-adds (see the module docstring).
    """
    *stack, rows, cols = matrix.shape
    slabs = (*stack, 2 ** (site - 1), 4, rows >> (site + 1), cols)
    product = np.empty_like(matrix)
    out = product.reshape(slabs).swapaxes(-3, -2)
    np.matmul(gate[..., None, None, :, :], matrix.reshape(slabs).swapaxes(-3, -2), out=out)
    return product


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """Sum of |x|^2 over each row of ``rows`` [k, l], with the two BLAS dots per row that ``np.linalg.norm`` takes."""
    return np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag)


def _commutator_norm(gate: np.ndarray, i: int, j: int, n: int) -> float:
    """Norm of [embed(gate, i, n), embed(gate, j, n)], i < j, formed on the m = j - i + 2 sites i..j+1."""
    m = j - i + 2
    commutator = _gate_times(gate, 1, gates.embed(gate, m - 1, m))
    commutator -= _gate_times(gate, m - 1, gates.embed(gate, 1, m))
    squares = _squared_norms(commutator.reshape(-1, min(commutator.size, _DOT_LENGTH)))
    return math.sqrt(float(np.sum(squares))) * math.sqrt(2 ** (n - m))


def _unitarity_defects(stack: np.ndarray) -> np.ndarray:
    """max |U U^H - I| of each gate U of a stack [m, 4, 4]."""
    return np.max(np.abs(stack @ stack.conj().swapaxes(1, 2) - np.eye(4)), axis=(1, 2))


def _swap_conjugation_defects(stack: np.ndarray) -> np.ndarray:
    """||[U on (2, 3), S (U on (2, 3)) S]|| of each gate U of a stack [k, 4, 4], S the 4-site swap layer.

    The swap layer moves the gate on sites (2, 3) onto (1, 4), a disjoint
    pair, so each value is 0 for a correct embedding.  The gates are taken
    ``_SWAP_STACK`` at a time (see the module docstring).
    """
    swaps = gates.swap_layer(4)
    defects = []
    for start in range(0, len(stack), _SWAP_STACK):
        chunk = stack[start : start + _SWAP_STACK]
        inner = gates.embed(chunk, 2, 4)
        outer = swaps @ inner @ swaps
        commutators = _gate_times(chunk, 2, outer) - outer @ inner
        defects.append(np.sqrt(_squared_norms(commutators.reshape(len(chunk), -1))))
    return np.concatenate(defects)


def _load_draws() -> np.ndarray:
    """The table's values; a missing or extra value, or a non-finite one, raises NumericError."""
    with open(_DRAWS_PATH, encoding="ascii") as table:
        draws = np.array([float(value) for value in table.read().split()])
    if draws.size != sum(_DRAW_SIZES):
        raise NumericError(f"{_DRAWS_PATH}: expected {sum(_DRAW_SIZES)} sample values, read {draws.size}")
    if not np.all(np.isfinite(draws)):
        raise NumericError(f"{_DRAWS_PATH}: a sample value is not finite")
    return draws


def run_checks(tolerance: float | None = None) -> list[CheckResult]:
    thetas, angles, raw, real, imag, lams = np.split(_load_draws(), np.cumsum(_DRAW_SIZES)[:-1])
    results: list[CheckResult] = []

    def asserted(name: str, measured: float, default_tol: float) -> None:
        tol = default_tol if tolerance is None else tolerance
        results.append(CheckResult(name, bool(measured < tol), float(measured), tol))

    def detected(name: str, measured: float, default_floor: float) -> None:
        # Passes when the measured quantity is LARGE: a discrepancy that must show up.
        floor = default_floor if tolerance is None else tolerance
        results.append(CheckResult(name, bool(measured > floor), float(measured), floor))

    def info(name: str, measured: float) -> None:
        results.append(CheckResult(name, None, float(measured), None))

    rotations = gates.entangler_rotations(thetas)
    asserted("rotation_unitarity", float(np.max(_unitarity_defects(rotations))), 1e-14)

    asserted("swap_conjugated_entangler_commutes", float(np.max(_swap_conjugation_defects(rotations))), 1e-13)

    worst = 0.0
    for n, angle in zip((4, 6, 8), angles):
        gate = gates.entangler_rotation(float(angle))
        # The norm depends on the pair only through its span m = j - i + 2, so (1, j) covers m = 4..n.
        for j in range(3, n):
            worst = max(worst, _commutator_norm(gate, 1, j, n))
    asserted("disjoint_entangler_commutation", worst, 1e-13)

    info("adjacent_entangler_commutator_norm", _commutator_norm(gates.entangler_rotation(0.4), 1, 2, 4))

    quads = raw.reshape(100, 4)
    rows = (quads / np.sqrt(np.vecdot(quads, quads))[:, None]).reshape(50, 8).tolist()
    asserted("isometry_normalization", max(mera.IsometryParams(*row).validate() for row in rows), 1e-12)

    worst = max(abs(w.b + w.c - 1.0) for w in map(gates.bc, real + 1j * imag))
    asserted("weight_sum_identity", worst, 1e-14)

    defects = _unitarity_defects(gates.rmatrices(lams))
    asserted("rmatrix_unitary_real_parameter", float(np.max(defects)), 1e-13)

    fit = mera.solve_nu_fit()
    defects = _unitarity_defects(gates.rmatrices(fit.roots))
    detected("rmatrix_nonunitary_at_fit_roots", float(np.min(defects)), 1e-6)

    analytic = mera.solve_theta_analytic()
    numeric = mera.solve_theta_numeric()
    asserted("numeric_vs_analytic_theta", abs(numeric.theta - analytic.theta), 1e-8)

    h4, energy_exact, ground = four_site_ring()
    asserted("variational_energy_matches_exact", abs(analytic.energy - energy_exact), 1e-10)
    asserted("variational_fidelity", 1.0 - analytic.fidelity, 1e-10)

    scale = float(np.hypot(1.0, analytic.r))
    iso_star = mera.IsometryParams.trivial(1.0, 0.0, -analytic.r / scale, 1.0 / scale)
    raw_state = mera.trial_state(gates.entangler_rotation(analytic.theta), iso_star).state
    info("raw_circuit_fidelity_at_optimum", mera.fidelity(raw_state, ground))
    info("raw_circuit_spin_flip_asymmetry", float(np.linalg.norm(raw_state - raw_state[::-1])))

    def family_energy(theta: float) -> float:
        psi = mera.variational_state(gates.entangler_rotation(theta), analytic.r)
        return float(np.vdot(psi, h4 @ psi).real)

    step = 1e-4
    slope = abs(family_energy(analytic.theta + step) - family_energy(analytic.theta - step)) / (2.0 * step)
    asserted("energy_stationary_at_optimum", slope, 1e-6)

    return results


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results if r.passed is not None)
