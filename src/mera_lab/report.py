"""Machine-readable result record and its canonical JSON serialization.

The payload serializes deterministically: keys sorted, floats rendered with
17 significant digits (lossless for binary64), complex numbers as two-element
[re, im] arrays.  Identical runs therefore produce byte-identical payloads.
A wall-clock timestamp lives only in a sidecar field next to the payload, so
golden comparisons can ignore it.
"""

from __future__ import annotations

import math
from datetime import datetime, timezone
from typing import Any, NamedTuple

from . import bethe, checks, gates, mera, wavelet
from .errors import DomainError, NumericError
from .heisenberg import four_site_ring, sector_basis

SCHEMA_VERSION = "1"


class Report(NamedTuple):
    schema_version: str
    entangler: str
    theta_star: float
    theta_star_over_pi: float
    r: float
    ground_energy_ed: float
    ground_energy_mera: float
    fidelity: float
    ed_coefficients: list[float]
    entropy_cut2: float
    bethe_roots: list[complex]
    bethe_energy: float
    nu_roots_derived: list[complex]
    nu_paper_values: list[complex]
    nu_paper_residual: float
    b_at_nu_paper: complex
    d4_taps: list[float]
    angle_table: wavelet.AngleReport
    check_results: list[checks.CheckResult]


def build_report(entangler: str = gates.ROTATION, tolerance: float | None = None) -> Report:
    """Run the full optimization and diagnostics pipeline for one entangler family of ``gates.FAMILIES``."""
    if entangler not in gates.FAMILIES:
        raise DomainError(f"unknown entangler family {entangler!r}")
    analytic = mera.solve_theta_analytic()
    h4, energy_ed, ground = four_site_ring()

    amps = ground[sector_basis(4, 2)].real
    coefficients = [float(a / amps[0]) for a in amps]

    roots = bethe.solve_two_magnon()
    fit = mera.solve_nu_fit()

    gate = gates.entangler_rotation(analytic.theta) if entangler == gates.ROTATION else gates.rmatrix(fit.roots[0])
    energies, ratios, states, _ = mera.optimal_ratios(gate[None], h4)

    taps = wavelet.d4_coefficients().taps
    angles = wavelet.angle_report(analytic.theta, roots.roots[0].real)
    # The suite runs before the fields below are formed: run after them, it raised a fresh
    # ``optimize``'s peak RSS by 0.35 MB (numpy 2.4.6, 64-bit Linux).
    suite = checks.run_checks(tolerance=tolerance)

    return Report(
        schema_version=SCHEMA_VERSION,
        entangler=entangler,
        theta_star=analytic.theta,
        theta_star_over_pi=analytic.theta / math.pi,
        r=float(ratios[0]),
        ground_energy_ed=energy_ed,
        ground_energy_mera=float(energies[0]),
        fidelity=mera.fidelity(states[0], ground),
        ed_coefficients=coefficients,
        entropy_cut2=mera.entanglement_entropy(ground, 2),
        bethe_roots=list(roots.roots),
        bethe_energy=bethe.energy_from_roots(roots.roots, 4),
        nu_roots_derived=list(fit.roots),
        nu_paper_values=list(fit.nu_quoted),
        nu_paper_residual=fit.residual_quoted,
        b_at_nu_paper=fit.b_at_nu_quoted,
        d4_taps=list(taps),
        angle_table=angles,
        check_results=suite,
    )


def _render(value: Any) -> str:
    """Canonical JSON text of a report value; complex numbers render as [re, im], records as objects."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NumericError(f"cannot serialize non-finite float {value!r}")
        return format(value, ".17g")
    if isinstance(value, complex):
        return _render([value.real, value.imag])
    if isinstance(value, str):
        out = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda item: str(item[0]))
        body = ",".join(f"{_render(str(k))}:{_render(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return _render(value._asdict())
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_render(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def payload_json(report: Report) -> str:
    """Canonical JSON text of the report payload (deterministic bytes)."""
    return _render(report)


def document_json(report: Report) -> str:
    """Full report document: deterministic payload plus a timestamp sidecar."""
    stamp = datetime.now(timezone.utc).isoformat()
    return '{"generated_at":' + _render(stamp) + ',"payload":' + payload_json(report) + "}\n"
