"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s -q` to see the per-criterion
lines; tolerances are stated inline next to each assertion.
"""

import json
import math

import numpy as np

from mera_lab import bethe, checks, gates, mera, report
from mera_lab.cli import main
from mera_lab.heisenberg import BoundaryCondition, ground_state, hamiltonian, sector_hamiltonian

from conftest import GROUND_PATTERN, SECTOR_INDICES, SZ0_BLOCK


def announce(number: int, label: str, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {label}: PASS ({detail})")


def test_criterion_01_closed_form_angle():
    sol = mera.solve_theta_analytic()
    root5 = math.sqrt(5.0)
    assert abs(math.sin(-2.0 * sol.theta) - 1.0 / root5) < 1e-14
    assert abs(math.cos(-2.0 * sol.theta) - 2.0 / root5) < 1e-14
    assert abs(sol.theta / math.pi - (-0.0738)) < 5e-4
    announce(1, "closed-form angle", f"theta/pi = {sol.theta / math.pi:.6f}")


def test_criterion_02_exact_ground_state_reached():
    # Exact energy verified independently: the stated pattern is an
    # eigenvector of the half-filling block at -2.
    assert np.max(np.abs(SZ0_BLOCK @ GROUND_PATTERN - (-2.0) * GROUND_PATTERN)) == 0.0
    energy_ed, ground = ground_state(4, BoundaryCondition.PERIODIC)
    assert abs(energy_ed - (-2.0)) < 1e-12

    sol = mera.solve_theta_analytic()
    state = mera.variational_state(gates.EntanglerSpec.rotation(sol.theta), sol.r)
    fid = mera.fidelity(state, ground)
    assert fid >= 1.0 - 1e-10
    h4 = hamiltonian(4, BoundaryCondition.PERIODIC)
    energy_mera = float(np.vdot(state, h4 @ state).real)
    assert abs(energy_mera - energy_ed) < 1e-10
    announce(2, "exact ground state", f"fidelity = {fid:.15f}, energy gap = {abs(energy_mera - energy_ed):.2e}")


def test_criterion_03_ground_coefficients():
    _, ground = ground_state(4, BoundaryCondition.PERIODIC)
    amps = ground[list(SECTOR_INDICES)]
    target = GROUND_PATTERN / np.linalg.norm(GROUND_PATTERN)
    overlap = np.vdot(target, amps)
    assert np.max(np.abs(amps - overlap * target)) < 1e-10
    assert abs(abs(overlap) - 1.0) < 1e-10
    announce(3, "ground coefficients", "amplitudes proportional to (1,-2,1,1,-2,1)")


def test_criterion_04_half_filling_block_exact(h4):
    idx = list(SECTOR_INDICES)
    assert np.array_equal(h4[np.ix_(idx, idx)], SZ0_BLOCK)
    assert np.array_equal(sector_hamiltonian(4, 2, BoundaryCondition.PERIODIC), SZ0_BLOCK)
    announce(4, "half-filling block", "entrywise exact")


def test_criterion_05_bethe_anchor():
    solution = bethe.solve_two_magnon(4)
    lam = solution.roots[0].real
    assert abs(lam - 1.0 / math.sqrt(3.0)) < 1e-12
    assert solution.residual_norm < 1e-12
    energy = bethe.energy_from_roots(solution.roots, 4)
    energy_ed, _ = ground_state(4, BoundaryCondition.PERIODIC)
    assert abs(energy - energy_ed) < 1e-10
    announce(5, "Bethe anchor", f"lambda = {lam:.15f}, residual = {solution.residual_norm:.2e}")


def test_criterion_06_commutator_suite():
    rng = np.random.default_rng(101)
    swaps = gates.swap_layer(4)
    worst_exchange = 0.0
    for theta in rng.uniform(-np.pi, np.pi, size=100):
        inner = gates.embed(gates.entangler_rotation(theta), 2, 4)
        outer = swaps @ inner @ swaps
        worst_exchange = max(worst_exchange, float(np.linalg.norm(inner @ outer - outer @ inner)))
    assert worst_exchange < 1e-13

    worst_disjoint = 0.0
    for n in (4, 6, 8):
        gate = gates.entangler_rotation(float(rng.uniform(-np.pi, np.pi)))
        for i in range(1, n):
            for j in range(i + 2, n):
                a = gates.embed(gate, i, n)
                b = gates.embed(gate, j, n)
                worst_disjoint = max(worst_disjoint, float(np.linalg.norm(a @ b - b @ a)))
    assert worst_disjoint < 1e-13
    announce(6, "commutator suite", f"exchange {worst_exchange:.2e}, disjoint {worst_disjoint:.2e}")


def test_criterion_07_weight_matrix_identities():
    rng = np.random.default_rng(102)
    worst_sum = max(
        abs(gates.bc(complex(re, im)).b + gates.bc(complex(re, im)).c - 1.0)
        for re, im in rng.normal(size=(100, 2))
    )
    assert worst_sum < 1e-14

    eye = np.eye(4)
    worst_unitary = max(
        float(np.max(np.abs(gates.rmatrix(float(lam)) @ gates.rmatrix(float(lam)).conj().T - eye)))
        for lam in rng.uniform(-20.0, 20.0, size=100)
    )
    assert worst_unitary < 1e-13

    fit = mera.solve_nu_fit()
    deviations = [
        float(np.max(np.abs(gates.rmatrix(nu) @ gates.rmatrix(nu).conj().T - eye))) for nu in fit.roots
    ]
    assert min(deviations) > 1e-6
    suite = {c.name: c for c in checks.run_checks()}
    assert suite["rmatrix_nonunitary_at_fit_roots"].passed is True
    announce(7, "weight-matrix identities", f"non-unitarity detected: {min(deviations):.3f}")


def test_criterion_08_spectral_parameter_fit():
    fit = mera.solve_nu_fit()
    for nu in fit.roots:
        w = gates.bc(nu)
        assert abs(w.b ** 2 + w.c ** 2 + 4.0 * w.b * w.c) < 1e-12
    assert fit.residual_quoted > 1e-3
    rep = report.build_report()
    assert rep.nu_paper_residual == fit.residual_quoted
    payload = json.loads(report.payload_json(rep))
    assert payload["nu_paper_residual"] > 0.0
    announce(8, "spectral-parameter fit", f"quoted-value residual = {fit.residual_quoted:.6f} (reported)")


def test_criterion_09_entanglement_entropy():
    _, ground = ground_state(4, BoundaryCondition.PERIODIC)
    # brute-force partial trace oracle
    rho = np.zeros((4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            for k in range(4):
                rho[a, b] += ground[4 * a + k] * np.conj(ground[4 * b + k])
    spectrum = np.linalg.eigvalsh(rho)
    positive = spectrum[spectrum > 1e-15]
    oracle = float(-(positive * np.log(positive)).sum())
    value = mera.entanglement_entropy(ground, 2)
    assert abs(value - oracle) < 1e-12
    assert np.allclose(np.sort(spectrum)[::-1], [0.75, 1 / 12, 1 / 12, 1 / 12], atol=1e-12)

    iso = mera.IsometryParams.trivial(1.0, 0.0, 0.6, 0.8)
    ts = mera.trial_state(gates.EntanglerSpec.rotation(0.0), iso)
    assert mera.entanglement_entropy(ts.state, 2) == 0.0
    announce(9, "entanglement entropy", f"middle-cut value = {value:.10f} nats")


def test_criterion_10_wavelet_identities():
    from mera_lab import wavelet

    taps = np.asarray(wavelet.d4_coefficients().taps)
    assert abs(taps.sum() - math.sqrt(2.0)) < 1e-12
    assert abs((taps ** 2).sum() - 1.0) < 1e-12
    assert abs(taps[0] * taps[2] + taps[1] * taps[3]) < 1e-12
    assert abs(sum((-1) ** k * t for k, t in enumerate(taps))) < 1e-12
    assert abs(sum((-1) ** k * k * t for k, t in enumerate(taps))) < 1e-12

    lo, hi = -math.pi / 4.0, 0.0
    moment = lambda t: sum((-1) ** k * k * h for k, h in enumerate(wavelet.lattice_filter(t).taps))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.copysign(1.0, moment(mid)) == math.copysign(1.0, moment(lo)):
            lo = mid
        else:
            hi = mid
    angle = 0.5 * (lo + hi)
    lattice_taps = np.asarray(wavelet.lattice_filter(angle).taps)
    assert np.max(np.abs(lattice_taps - taps)) < 1e-12

    sol = mera.solve_theta_analytic()
    rep = wavelet.angle_report(sol.theta, 1.0 / math.sqrt(3.0))
    assert "theta_star_vs_minus_pi_12" in rep.deviations
    assert "two_theta_vs_bethe_angle" in rep.deviations
    assert abs(rep.deviations["theta_star_vs_minus_pi_12"] - (sol.theta + math.pi / 12.0)) < 1e-15
    assert abs(rep.deviations["two_theta_vs_bethe_angle"] - (2.0 * abs(sol.theta) - math.pi / 6.0)) < 1e-15
    announce(10, "wavelet identities", f"moment-solving angle = {angle / math.pi:.6f} pi")


def test_criterion_11_deterministic_reports(tmp_path):
    out1 = tmp_path / "first.json"
    out2 = tmp_path / "second.json"
    assert main(["optimize", "--out", str(out1)]) == 0
    assert main(["optimize", "--out", str(out2)]) == 0
    marker = '"payload":'
    text1 = out1.read_text()
    text2 = out2.read_text()
    section1 = text1[text1.index(marker):]
    section2 = text2[text2.index(marker):]
    assert section1 == section2
    announce(11, "deterministic reports", f"payload bytes identical ({len(section1)} chars)")
