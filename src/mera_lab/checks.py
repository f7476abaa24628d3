"""Randomized invariant suite shared by the CLI `check` command and reports.

Each check measures one deviation (a max over random samples where sampling
applies) and compares it against its own default tolerance, unless a global
override is given.  Sampling draws from one fixed seed, so every run
produces identical measured values.

Entries with ``passed = None`` are informational: quantities that are
deliberately reported without being asserted, such as the commutator of
entanglers that share a site and the fidelity gap of the raw (unmirrored)
circuit at the optimal angle.

Every commutator is formed by contraction: a product A X with A = embed(gate,
i, n) on the left applies the 4x4 gate to the row bits of sites (i, i+1) of X
(``_gate_times``) and never multiplies by the dense A.  For entanglers on
disjoint pairs (sites i, i+1 and j, j+1 with j >= i + 2, on 4, 6 and 8
sites) A B is formed from the dense B = embed(gate, j, n) and B A from the
dense A, so at most three 2^n x 2^n arrays are alive at once.  Because the
supports are disjoint, each entry of either product has exactly one nonzero
term, the same product of two gate entries in both orders.  The contracted
products therefore equal the dense ``a @ b`` and ``b @ a`` exactly, and the
measured commutator norm is exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gates, mera
from .heisenberg import four_site_ring

#: Seed of the sampling generator; the report payload pins the values it draws.
_SEED = 1729


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool | None
    measured: float
    tolerance: float | None


def _gate_times(gate: np.ndarray, site: int, matrix: np.ndarray) -> np.ndarray:
    """``embed(gate, site, n) @ matrix``, formed by applying the 4x4 gate to the row bits of (site, site+1)."""
    return (gate @ matrix.reshape(2 ** (site - 1), 4, -1)).reshape(matrix.shape)


def _disjoint_commutator_norm(gate: np.ndarray, a: np.ndarray, i: int, j: int, n: int) -> float:
    """Norm of [A, B] for A = ``a`` = embed(gate, i, n) and B = embed(gate, j, n), j >= i + 2."""
    commutator = _gate_times(gate, i, gates.embed(gate, j, n))
    commutator -= _gate_times(gate, j, a)
    return float(np.linalg.norm(commutator))


def _unitarity_defects(stack: np.ndarray) -> np.ndarray:
    """max |U U^H - I| of each gate U of a stack [m, 4, 4]."""
    return np.max(np.abs(stack @ stack.conj().swapaxes(1, 2) - np.eye(4)), axis=(1, 2))


def run_checks(tolerance: float | None = None) -> list[CheckResult]:
    rng = np.random.default_rng(_SEED)
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

    thetas = rng.uniform(-np.pi, np.pi, size=100)

    rotations = gates.entangler_rotations(thetas)
    asserted("rotation_unitarity", float(np.max(_unitarity_defects(rotations))), 1e-14)

    swaps = gates.swap_layer(4)
    worst = 0.0
    for gate in rotations:
        inner = gates.embed(gate, 2, 4)
        outer = swaps @ inner @ swaps
        worst = max(worst, float(np.linalg.norm(_gate_times(gate, 2, outer) - outer @ inner)))
    asserted("swap_conjugated_entangler_commutes", worst, 1e-13)

    worst = 0.0
    for n in (4, 6, 8):
        gate = gates.entangler_rotation(float(rng.uniform(-np.pi, np.pi)))
        for i in range(1, n - 2):
            a = gates.embed(gate, i, n)
            for j in range(i + 2, n):
                worst = max(worst, _disjoint_commutator_norm(gate, a, i, j, n))
    asserted("disjoint_entangler_commutation", worst, 1e-13)

    gate = gates.entangler_rotation(0.4)
    commutator = _gate_times(gate, 1, gates.embed(gate, 2, 4)) - _gate_times(gate, 2, gates.embed(gate, 1, 4))
    info("adjacent_entangler_commutator_norm", float(np.linalg.norm(commutator)))

    raw = rng.normal(size=(50, 8))
    worst = 0.0
    for row in raw:
        left = row[:4] / np.linalg.norm(row[:4])
        right = row[4:] / np.linalg.norm(row[4:])
        iso = mera.IsometryParams(*left, *right)
        iso.validate()
        worst = max(
            worst,
            abs(float(np.sum(np.abs(iso.left_vector()) ** 2)) - 1.0),
            abs(float(np.sum(np.abs(iso.right_vector()) ** 2)) - 1.0),
        )
    asserted("isometry_normalization", worst, 1e-12)

    nus = rng.normal(size=100) + 1j * rng.normal(size=100)
    worst = max(abs(w.b + w.c - 1.0) for w in map(gates.bc, nus))
    asserted("weight_sum_identity", worst, 1e-14)

    lams = rng.uniform(-20.0, 20.0, size=100)
    defects = _unitarity_defects(np.stack([gates.rmatrix(lam) for lam in lams]))
    asserted("rmatrix_unitary_real_parameter", float(np.max(defects)), 1e-13)

    fit = mera.solve_nu_fit()
    defects = _unitarity_defects(np.stack([gates.rmatrix(nu) for nu in fit.roots]))
    detected("rmatrix_nonunitary_at_fit_roots", float(np.min(defects)), 1e-6)

    analytic = mera.solve_theta_analytic()
    numeric = mera.solve_theta_numeric()
    asserted("numeric_vs_analytic_theta", abs(numeric.theta - analytic.theta), 1e-8)

    h4, energy_exact, ground = four_site_ring()
    asserted("variational_energy_matches_exact", abs(analytic.energy - energy_exact), 1e-10)
    asserted("variational_fidelity", 1.0 - analytic.fidelity, 1e-10)

    scale = float(np.hypot(1.0, analytic.r))
    iso_star = mera.IsometryParams.trivial(1.0, 0.0, -analytic.r / scale, 1.0 / scale)
    raw_state = mera.trial_state(gates.EntanglerSpec.rotation(analytic.theta), iso_star).state
    info("raw_circuit_fidelity_at_optimum", mera.fidelity(raw_state, ground))
    info("raw_circuit_spin_flip_asymmetry", float(np.linalg.norm(raw_state - raw_state[::-1])))

    def family_energy(theta: float) -> float:
        psi = mera.variational_state(gates.EntanglerSpec.rotation(theta), analytic.r)
        return float(np.vdot(psi, h4 @ psi).real)

    step = 1e-4
    slope = abs(family_energy(analytic.theta + step) - family_energy(analytic.theta - step)) / (2.0 * step)
    asserted("energy_stationary_at_optimum", slope, 1e-6)

    return results


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results if r.passed is not None)
