"""Command-line interface.

Subcommands: optimize | ed | bethe | sweep | wavelet | check.
Exit codes: 0 on success, 1 on numeric or check failure (including I/O problems
writing outputs), 2 on usage errors.  ``optimize`` writes its report even when
a check of the suite fails, then exits 1.  It and ``sweep`` write to stdout, or
to the file --out names (an empty --out fails to open).  A sweep is written
block by block, so one that fails keeps the rows written so far.

Every output, except the report's ``generated_at`` stamp, depends on the
command line alone.  For ``check`` and ``optimize``, --tolerance replaces each
check's built-in tolerance.  A tolerance that is not a positive finite number,
a sweep range whose bounds or span are not finite and a sweep ``--steps``
outside 1..MAX_SWEEP_STEPS are usage errors, as is an unsupported size
(``ResourceError``, such as ``ed --sites`` outside heisenberg's
2..MAX_SITES).  Only these exit 2: any other error raised while solving, a
``ValueError`` included, exits 1, as does a non-finite number in a report.  A sweep whose rows reach a level crossing
(``CROSSING_GAP``) still exits 0; it names those rows in one warning line on
stderr.  Likewise ``ed`` exits 0 on a degenerate ground level and writes its
degeneracy, counted over all sectors, in one warning line on stderr.

Each command runs numpy's bundled OpenBLAS on one thread, then restores the
previous count: no BLAS call of a command, the largest a 472 x 472
``eigvalsh``, gains from a second thread, and a call handed to the thread
pool of a fresh process can wait milliseconds for a sleeping worker.  The
thread functions are found through numpy's LAPACK extension, which links it.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import math
import sys

import numpy as np

from . import bethe, checks, gates, mera, report, wavelet
from .errors import MeraLabError, ResourceError
from .heisenberg import BoundaryCondition, four_site_ring, ground_degeneracy, sector_hamiltonian, sector_spectra

#: Largest ``sweep --steps``; the CSV a sweep this long writes is about 100 MB.
MAX_SWEEP_STEPS = 1_000_000

#: Sweep rows solved, formatted and written per batched call; only the theta grid (8 B a row) grows with --steps.
#: A fresh 5001-row sweep peaks at 33.4 MB resident at 512 rows, 40.3 MB at 4096, since
#: each block's arrays must be paged in; 128-row blocks save 0.6 MB more but run slower.
SWEEP_BLOCK = 512

#: One sweep CSV row: theta, optimal_r, energy, fidelity, entropy, each as ``format(v, ".17g")``.
_CSV_ROW = ",".join(["%.17g"] * 5) + "\n"

#: A sweep row whose 2x2 gap is below this sits at a level crossing of the
#: projected problem, where r jumps between the two levels; such rows are flagged.
CROSSING_GAP = 1e-9

#: Float options whose negative values (``-1e-3``, ``-inf``) argparse reads as options.
_SIGNED_FLOAT_OPTIONS = ("--theta-min", "--theta-max", "--tolerance")


class UsageError(Exception):
    """A bad command-line argument; the CLI exits 2."""


def _resolve_tolerance(args: argparse.Namespace) -> float | None:
    tolerance = args.tolerance
    if tolerance is not None and not 0.0 < tolerance < math.inf:
        raise UsageError("tolerance must be a positive finite number")
    return tolerance


def _output(path: str | None) -> contextlib.AbstractContextManager:
    """The file ``--out`` names, opened for writing, or stdout when ``--out`` is not given."""
    return contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8")


def cmd_optimize(args: argparse.Namespace) -> int:
    if args.sites != 4 or BoundaryCondition(args.bc) is not BoundaryCondition.PERIODIC:
        raise UsageError("optimize supports --sites 4 --bc periodic only")
    rep = report.build_report(entangler=args.entangler, tolerance=_resolve_tolerance(args))
    text = report.document_json(rep)
    with _output(args.out) as out:
        out.write(text)
    if args.out is not None:
        print(f"report written to {args.out}")
        print(f"theta*/pi = {rep.theta_star_over_pi:.10f}  r = {rep.r:.10f}")
        print(f"energy: ansatz {rep.ground_energy_mera:.12f}  exact {rep.ground_energy_ed:.12f}")
        print(f"fidelity = {rep.fidelity:.15f}")
    if not checks.all_passed(rep.check_results):
        print("some checks failed", file=sys.stderr)
        return 1
    return 0


def _fixed6(value: float, sign: str = "") -> str:
    """``value`` to 6 decimals, as ``format(value, sign + ".6f")`` except that a zero has no minus sign."""
    return format(round(float(value), 6) + 0.0, sign + ".6f")


def cmd_ed(args: argparse.Namespace) -> int:
    n = args.sites
    bc = BoundaryCondition(args.bc)
    spectra = sector_spectra(n, bc)
    print(f"sites={n} bc={bc.value}")
    # E0 is the lowest of the sector minima.
    print(f"E0 = {min(values[0] for values in spectra):.12f}")
    print("sector spectra (by down-spin count):")
    for n_down, values in enumerate(spectra):
        shown = ", ".join(_fixed6(v) for v in values[:8])
        suffix = ", ..." if len(values) > 8 else ""
        print(f"  n_down={n_down} dim={len(values)}: {shown}{suffix}")
    if len(spectra[n // 2]) <= 10:
        print("half-filling block:")
        for row in sector_hamiltonian(n, n // 2, bc):
            print("  [" + "  ".join(f"{v:5.2f}" for v in row) + "]")
    count = ground_degeneracy(np.concatenate(spectra))
    if count > 1:
        print(f"warning: E0 is {count}-fold degenerate over all sectors", file=sys.stderr)
    return 0


def cmd_bethe(args: argparse.Namespace) -> int:
    if args.sites != 4:
        raise UsageError("bethe supports --sites 4 only")
    if args.magnons not in (1, 2):
        raise UsageError("bethe supports --magnons 1 or 2")
    if args.magnons == 2:
        solution = bethe.solve_two_magnon()
        momenta = bethe.momenta_from_roots(solution.roots)
        energy = bethe.energy_from_roots(solution.roots, args.sites)
        _, energy_ed, _ = four_site_ring()
        print(f"two-magnon roots: {solution.roots[0].real:.15f}, {solution.roots[1].real:.15f}")
        print(f"momenta: {momenta[0]:.15f}, {momenta[1]:.15f} (sum mod 2pi = 0)")
        print(f"residual norm: {solution.residual_norm:.3e}")
        print(f"energy from roots: {energy:.12f}   exact ground energy: {energy_ed:.12f}")
    else:
        values = sector_spectra(args.sites, BoundaryCondition.PERIODIC)[1]
        print("one-magnon states (finite rapidities):")
        print("  lambda        p            E")
        for lam in bethe.one_magnon_roots(args.sites):
            p = bethe.momenta_from_roots([lam])[0]
            energy = bethe.energy_from_roots([lam], args.sites)
            print(f"  {_fixed6(lam, '+')}    {_fixed6(p, '+')}    {_fixed6(energy, '+')}")
        print("  (p = 0 corresponds to an infinite rapidity with E = L/4)")
        print("single down-spin sector spectrum: " + ", ".join(_fixed6(v, "+") for v in values))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if not 1 <= args.steps <= MAX_SWEEP_STEPS:
        raise UsageError(f"sweep needs --steps in 1..{MAX_SWEEP_STEPS}")
    # The span is finite only if both bounds are; linspace needs it finite.
    if not math.isfinite(args.theta_max - args.theta_min):
        raise UsageError("sweep needs finite --theta-min and --theta-max with a finite span")
    if args.theta_min > args.theta_max:
        raise UsageError("sweep needs --theta-min <= --theta-max")
    h, _, ground = four_site_ring()
    thetas = np.linspace(args.theta_min, args.theta_max, args.steps)
    flagged_by_block = []
    with _output(args.out) as out:
        out.write("theta,optimal_r,energy,fidelity,entropy\n")
        for start in range(0, args.steps, SWEEP_BLOCK):
            block = thetas[start : start + SWEEP_BLOCK]
            energies, ratios, states, gaps = mera.optimal_ratios(gates.entangler_rotations(block), h)
            flagged_by_block.append(block[gaps < CROSSING_GAP])
            columns = (block, ratios, energies, mera.fidelities(states, ground), mera.entanglement_entropies(states, 2))
            out.write(_CSV_ROW * len(block) % tuple(np.column_stack(columns).ravel().tolist()))
    if args.out is not None:
        print(f"sweep written to {args.out} ({args.steps} rows)")
    flagged = np.concatenate(flagged_by_block)
    if flagged.size:
        first, last = (format(theta, ".17g") for theta in flagged[[0, -1]])
        print(
            f"warning: {flagged.size} rows have a 2x2 gap below {CROSSING_GAP:g} (level crossing, r is ill-posed), "
            f"theta from {first} to {last}",
            file=sys.stderr,
        )
    return 0


def cmd_wavelet(args: argparse.Namespace) -> int:
    taps = wavelet.d4_coefficients().taps
    solution = mera.solve_theta_analytic()
    roots = bethe.solve_two_magnon()
    angles = wavelet.angle_report(solution.theta, roots.roots[0].real)
    print("D4 scaling taps: " + ", ".join(format(t, ".17g") for t in taps))
    print(f"sum of taps = {sum(taps):.17g}")
    print("angle table (radians / in units of pi):")
    # One label per angle field of the record, in field order; the deviations follow.
    labels = ("theta*", "-pi/12", "bethe angle phi", "2|theta*|", "arg b at quoted nu")
    for label, value in zip(labels, angles[: len(labels)]):
        print(f"  {label:<20} {value:+.12f}  ({value / np.pi:+.6f} pi)")
    print("deviations:")
    for key, value in sorted(angles.deviations.items()):
        print(f"  {key:<42} {value:+.12f}  ({value / np.pi:+.6f} pi)")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    results = checks.run_checks(tolerance=_resolve_tolerance(args))
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
    p_opt.add_argument("--entangler", choices=gates.FAMILIES, default=gates.ROTATION)
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


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _attach_signed_floats(argv: list[str]) -> list[str]:
    """Join ``--theta-min -1e-3`` into ``--theta-min=-1e-3`` (likewise the other signed floats).

    argparse reads a token such as ``-1e-3`` or ``-inf`` as an option of its
    own, so the option before it would report a missing value.
    """
    joined = list(argv)
    for i in range(len(joined) - 2, -1, -1):
        if joined[i] in _SIGNED_FLOAT_OPTIONS and _is_float(joined[i + 1]):
            joined[i : i + 2] = [f"{joined[i]}={joined[i + 1]}"]
    return joined


def _one_blas_thread() -> contextlib.AbstractContextManager:
    """Set numpy's bundled OpenBLAS to one thread; the context returned restores its thread count on exit.

    The thread functions are looked up through numpy's LAPACK extension, which links that OpenBLAS;
    a numpy without the extension or the functions keeps OpenBLAS's own count.
    """
    try:
        library = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get, set_ = library.scipy_openblas_get_num_threads64_, library.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return contextlib.nullcontext()
    get.argtypes, get.restype = (), ctypes.c_int
    set_.argtypes, set_.restype = (ctypes.c_int,), None
    restore = contextlib.ExitStack()
    restore.callback(set_, get())
    set_(1)
    return restore


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_attach_signed_floats(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    with _one_blas_thread():
        try:
            return int(args.func(args))
        except (UsageError, ResourceError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (MeraLabError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    raise SystemExit(main())
