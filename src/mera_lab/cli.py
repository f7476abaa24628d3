"""Command-line interface.

Subcommands: optimize | ed | bethe | sweep | wavelet | check.
Exit codes: 0 on success, 1 on numeric or check failure (including I/O
problems writing outputs), 2 on usage errors.

Tolerance precedence for `check`: --tolerance flag, then the
MERA_LAB_TOLERANCE environment variable, then each check's built-in default.
A tolerance that is not a positive finite number and a non-finite sweep bound
are usage errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import bethe, checks, gates, mera, report, wavelet
from .errors import MeraLabError
from .heisenberg import MAX_SITES, BoundaryCondition, ground_state, hamiltonian, sector_hamiltonian

_ENV_TOLERANCE = "MERA_LAB_TOLERANCE"


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _resolve_tolerance(args: argparse.Namespace) -> float | None:
    if getattr(args, "tolerance", None) is not None:
        return float(args.tolerance)
    raw = os.environ.get(_ENV_TOLERANCE)
    if raw is None:
        return None
    return float(raw)


def _bad_tolerance(tolerance: float | None) -> bool:
    return tolerance is not None and not 0.0 < tolerance < math.inf


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def cmd_optimize(args: argparse.Namespace) -> int:
    if args.sites != 4 or BoundaryCondition(args.bc) is not BoundaryCondition.PERIODIC:
        return _usage_error("optimize supports --sites 4 --bc periodic only")
    tolerance = _resolve_tolerance(args)
    if _bad_tolerance(tolerance):
        return _usage_error("tolerance must be a positive finite number")
    rep = report.build_report(entangler=args.entangler, tolerance=tolerance)
    text = report.document_json(rep)
    if args.out:
        _write_text(args.out, text)
        print(f"report written to {args.out}")
        print(f"theta*/pi = {rep.theta_star_over_pi:.10f}  r = {rep.r:.10f}")
        print(f"energy: ansatz {rep.ground_energy_mera:.12f}  exact {rep.ground_energy_ed:.12f}")
        print(f"fidelity = {rep.fidelity:.15f}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_ed(args: argparse.Namespace) -> int:
    if not 2 <= args.sites <= MAX_SITES:
        return _usage_error(f"ed supports --sites in 2..{MAX_SITES}")
    n = args.sites
    bc = BoundaryCondition(args.bc)
    # One Sz block at a time; E0 is the lowest of the sector minima.
    energy = math.inf
    spectra = []
    half = None
    for n_down in range(n + 1):
        block = sector_hamiltonian(n, n_down, bc)
        values = np.linalg.eigvalsh(block)
        energy = min(energy, values[0])
        shown = ", ".join(f"{v:.6f}" for v in values[:8])
        suffix = ", ..." if len(values) > 8 else ""
        spectra.append(f"  n_down={n_down} dim={len(values)}: {shown}{suffix}")
        if n_down == n // 2 and len(values) <= 10:
            half = block
    print(f"sites={n} bc={bc.value}")
    print(f"E0 = {energy:.12f}")
    print("sector spectra (by down-spin count):")
    for line in spectra:
        print(line)
    if half is not None:
        print("half-filling block:")
        for row in half:
            print("  [" + "  ".join(f"{v:5.2f}" for v in row) + "]")
    return 0


def cmd_bethe(args: argparse.Namespace) -> int:
    if args.sites != 4:
        return _usage_error("bethe supports --sites 4 only")
    if args.magnons not in (1, 2):
        return _usage_error("bethe supports --magnons 1 or 2")
    if args.magnons == 2:
        solution = bethe.solve_two_magnon(args.sites)
        momenta = bethe.momenta_from_roots(solution.roots)
        energy = bethe.energy_from_roots(solution.roots, args.sites)
        energy_ed, _ = ground_state(args.sites, BoundaryCondition.PERIODIC)
        print(f"two-magnon roots: {solution.roots[0].real:.15f}, {solution.roots[1].real:.15f}")
        print(f"momenta: {momenta[0]:.15f}, {momenta[1]:.15f} (sum mod 2pi = 0)")
        print(f"residual norm: {solution.residual_norm:.3e}")
        print(f"energy from roots: {energy:.12f}   exact ground energy: {energy_ed:.12f}")
    else:
        values = np.linalg.eigvalsh(sector_hamiltonian(args.sites, 1, BoundaryCondition.PERIODIC))
        print("one-magnon states (finite rapidities):")
        print("  lambda        p            E")
        for lam in bethe.one_magnon_roots(args.sites):
            p = bethe.momenta_from_roots([lam])[0]
            energy = bethe.energy_from_roots([lam], args.sites)
            print(f"  {lam:+.6f}    {p:+.6f}    {energy:+.6f}")
        print("  (p = 0 corresponds to an infinite rapidity with E = L/4)")
        print("single down-spin sector spectrum: " + ", ".join(f"{v:+.6f}" for v in values))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.steps < 1:
        return _usage_error("sweep needs --steps >= 1")
    if not (math.isfinite(args.theta_min) and math.isfinite(args.theta_max)):
        return _usage_error("sweep needs finite --theta-min and --theta-max")
    if args.theta_min > args.theta_max:
        return _usage_error("sweep needs --theta-min <= --theta-max")
    h = hamiltonian(4, BoundaryCondition.PERIODIC)
    _, ground = ground_state(4, BoundaryCondition.PERIODIC)
    thetas = np.linspace(args.theta_min, args.theta_max, args.steps)
    lines = ["theta,optimal_r,energy,fidelity,entropy"]
    for theta in thetas:
        energy, ratio, state = mera.optimal_ratio(gates.entangler_rotation(float(theta)), h)
        row = (
            float(theta),
            ratio,
            energy,
            mera.fidelity(state, ground),
            mera.entanglement_entropy(state, 2),
        )
        lines.append(",".join(format(v, ".17g") for v in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(args.out, text)
        print(f"sweep written to {args.out} ({args.steps} rows)")
    else:
        sys.stdout.write(text)
    return 0


def cmd_wavelet(args: argparse.Namespace) -> int:
    taps = wavelet.d4_coefficients().taps
    solution = mera.solve_theta_analytic()
    roots = bethe.solve_two_magnon(4)
    angles = wavelet.angle_report(solution.theta, roots.roots[0].real)
    print("D4 scaling taps: " + ", ".join(format(t, ".17g") for t in taps))
    print(f"sum of taps = {sum(taps):.17g}")
    print("angle table (radians / in units of pi):")
    rows = [
        ("theta*", angles.theta_star),
        ("-pi/12", angles.minus_pi_12),
        ("bethe angle phi", angles.bethe_angle),
        ("2|theta*|", angles.two_theta),
        ("arg b at quoted nu", angles.arg_b_quoted),
    ]
    for label, value in rows:
        print(f"  {label:<20} {value:+.12f}  ({value / np.pi:+.6f} pi)")
    print("deviations:")
    for key, value in sorted(angles.deviations.items()):
        print(f"  {key:<42} {value:+.12f}  ({value / np.pi:+.6f} pi)")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    tolerance = _resolve_tolerance(args)
    if _bad_tolerance(tolerance):
        return _usage_error("tolerance must be a positive finite number")
    results = checks.run_checks(tolerance=tolerance)
    for item in results:
        if item.passed is None:
            print(f"INFO {item.name}: measured {item.measured:.6e} (reported, not asserted)")
        else:
            status = "PASS" if item.passed else "FAIL"
            print(f"{status} {item.name}: measured {item.measured:.6e} vs tolerance {item.tolerance:.6e}")
    if checks.all_passed(results):
        print("all checks passed")
        return 0
    print("some checks failed", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mera-lab",
        description="Entangler-circuit ansatz for the four-site Heisenberg ring",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="optimize the entangler and emit a JSON report")
    p_opt.add_argument("--sites", type=int, default=4)
    p_opt.add_argument("--bc", choices=[b.value for b in BoundaryCondition], default="periodic")
    p_opt.add_argument("--entangler", choices=[gates.ROTATION, gates.RMATRIX], default=gates.ROTATION)
    p_opt.add_argument("--out", type=str, default=None)
    p_opt.add_argument("--tolerance", type=float, default=None)
    p_opt.set_defaults(func=cmd_optimize)

    p_ed = sub.add_parser("ed", help="exact diagonalization summary")
    p_ed.add_argument("--sites", type=int, default=4)
    p_ed.add_argument("--bc", choices=[b.value for b in BoundaryCondition], default="periodic")
    p_ed.set_defaults(func=cmd_ed)

    p_bethe = sub.add_parser("bethe", help="Bethe roots, momenta, and energies")
    p_bethe.add_argument("--sites", type=int, default=4)
    p_bethe.add_argument("--magnons", type=int, default=2)
    p_bethe.set_defaults(func=cmd_bethe)

    p_sweep = sub.add_parser("sweep", help="energy landscape over the entangler angle (CSV)")
    p_sweep.add_argument("--theta-min", type=float, required=True)
    p_sweep.add_argument("--theta-max", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--out", type=str, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_wav = sub.add_parser("wavelet", help="D4 filter taps and the angle table")
    p_wav.set_defaults(func=cmd_wavelet)

    p_check = sub.add_parser("check", help="run the invariant suite")
    p_check.add_argument("--tolerance", type=float, default=None)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.func(args))
    except MeraLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
