"""Output checks for the benchmarked CLI commands.

Every reference value is computed here, apart from the program: closed forms
for ``optimize``, the benchmark's own sparse diagonalization of the lowest-|Sz|
blocks for ``ed``, and properties the method must have for ``sweep``.  No check
compares against a stored copy of the program's output.  Each checker returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)
#: Optimal entangler angle: sin(-2 theta) = 1/sqrt 5, cos(-2 theta) = 2/sqrt 5.
THETA_STAR = -0.5 * math.atan(0.5)
#: Middle-cut entropy of the four-site ground state, spectrum {3/4, 1/12, 1/12, 1/12}.
ENTROPY_CUT2 = -0.75 * math.log(0.75) - 0.25 * math.log(1.0 / 12.0)
D4_TAPS = tuple(x / (4.0 * math.sqrt(2.0)) for x in (1 + SQRT3, 3 + SQRT3, 3 - SQRT3, 1 - SQRT3))
SWEEP_HEADER = "theta,optimal_r,energy,fidelity,entropy"


def split_document(text: str) -> tuple[str, str]:
    """Split an ``optimize`` document into (generated_at value, payload bytes)."""
    prefix = '{"generated_at":'
    marker = ',"payload":'
    if not text.startswith(prefix) or not text.endswith("}\n") or marker not in text:
        raise ValueError("not an optimize document")
    stamp, _, rest = text[len(prefix):].partition(marker)
    return stamp, rest[:-2]


def check_optimize(text: str, entangler: str) -> list[str]:
    try:
        _, payload_text = split_document(text)
        json.loads(text)
        p = json.loads(payload_text)
    except ValueError as exc:
        return [f"unparseable document: {exc}"]
    problems: list[str] = []

    def near(label: str, value, expected: float, tol: float) -> None:
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not abs(value - expected) <= tol:
            problems.append(f"{label} = {value!r}, expected {expected!r} within {tol:g}")

    def pairs(label: str, value, expected: list[complex], tol: float) -> None:
        try:
            got = sorted((complex(re, im) for re, im in value), key=lambda z: (z.real, z.imag))
        except (TypeError, ValueError):
            problems.append(f"{label} is not a list of [re, im] pairs: {value!r}")
            return
        want = sorted(expected, key=lambda z: (z.real, z.imag))
        if len(got) != len(want) or any(abs(a - b) > tol for a, b in zip(got, want)):
            problems.append(f"{label} = {value!r}, expected {want!r}")

    try:
        if p.get("schema_version") != "1":
            problems.append(f"schema_version = {p.get('schema_version')!r}")
        if p.get("entangler") != entangler:
            problems.append(f"entangler = {p.get('entangler')!r}, expected {entangler!r}")
        theta = p["theta_star"]
        near("sin(-2 theta*)", math.sin(-2.0 * theta), 1.0 / SQRT5, 1e-12)
        near("cos(-2 theta*)", math.cos(-2.0 * theta), 2.0 / SQRT5, 1e-12)
        near("theta_star_over_pi", p["theta_star_over_pi"], theta / math.pi, 1e-15)
        near("r", p["r"], SQRT5 if entangler == "rotation" else 1.0, 1e-9)
        near("ground_energy_ed", p["ground_energy_ed"], -2.0, 1e-10)
        near("ground_energy_mera", p["ground_energy_mera"], -2.0, 1e-10)
        if not p["fidelity"] >= 1.0 - 1e-10:
            problems.append(f"fidelity = {p['fidelity']!r} < 1 - 1e-10")
        coefficients = p["ed_coefficients"]
        expected = (1.0, -2.0, 1.0, 1.0, -2.0, 1.0)
        if len(coefficients) != 6:
            problems.append(f"ed_coefficients has {len(coefficients)} entries, expected 6")
        else:
            scale = coefficients[0]
            for k, (got, want) in enumerate(zip(coefficients, expected)):
                near(f"ed_coefficients[{k}]/ed_coefficients[0]", got / scale, want, 1e-10)
        near("entropy_cut2", p["entropy_cut2"], ENTROPY_CUT2, 1e-12)
        pairs("bethe_roots", p["bethe_roots"], [complex(1 / SQRT3), complex(-1 / SQRT3)], 1e-12)
        near("bethe_energy", p["bethe_energy"], -2.0, 1e-12)
        pairs("nu_roots_derived", p["nu_roots_derived"], [(-4 + 2 * SQRT3) * 1j, (-4 - 2 * SQRT3) * 1j], 1e-12)
        taps = p["d4_taps"]
        if len(taps) != 4:
            problems.append(f"d4_taps has {len(taps)} entries, expected 4")
        else:
            for k, (got, want) in enumerate(zip(taps, D4_TAPS)):
                near(f"d4_taps[{k}]", got, want, 1e-12)
        results = p["check_results"]
        if not results:
            problems.append("check_results is empty")
        for item in results:
            if item["passed"] is not None and item["passed"] is not True:
                problems.append(f"check {item['name']!r} did not pass: {item!r}")
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        problems.append(f"malformed payload: {exc!r}")
    return problems


def check_sweep(text: str, theta_min: float, theta_max: float, steps: int) -> list[str]:
    """Header, grid, energy bound, fidelity/entropy ranges and where the minima lie.

    Nothing is asserted about ``optimal_r`` on rows near theta = +/-pi/4, where
    the projected 2x2 problem vanishes and the ratio is undetermined.
    """
    lines = text.split("\n")
    if lines[-1] != "":
        return ["output does not end with a newline"]
    lines = lines[:-1]
    if not lines or lines[0] != SWEEP_HEADER:
        return [f"header is {lines[0] if lines else None!r}"]
    if len(lines) - 1 != steps:
        return [f"{len(lines) - 1} rows, expected {steps}"]
    try:
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        return [f"unparseable row: {exc}"]
    if table.shape != (steps, 5):
        return [f"table shape {table.shape}, expected ({steps}, 5)"]
    theta, ratio, energy, fid, entropy = table.T
    problems: list[str] = []
    grid = np.linspace(theta_min, theta_max, steps)
    bad = np.flatnonzero(~(np.abs(theta - grid) <= 1e-12))
    if bad.size:
        problems.append(f"theta column departs from the grid at row {bad[0]}: {theta[bad[0]]!r} vs {grid[bad[0]]!r}")
    bad = np.flatnonzero(~(energy >= -2.0 - 1e-12))
    if bad.size:
        problems.append(f"energy below the ground energy -2 at row {bad[0]}: {energy[bad[0]]!r}")
    bad = np.flatnonzero(~((fid >= -1e-12) & (fid <= 1.0 + 1e-12)))
    if bad.size:
        problems.append(f"fidelity outside [0, 1] at row {bad[0]}: {fid[bad[0]]!r}")
    bad = np.flatnonzero(~((entropy >= -1e-12) & (entropy <= math.log(4.0) + 1e-12)))
    if bad.size:
        problems.append(f"entropy outside [0, ln 4] at row {bad[0]}: {entropy[bad[0]]!r}")
    # E(theta) has period pi/2 (r changes sign), so every image theta* + k pi/2
    # on the grid is a global minimum with E = -2 and |r| = sqrt 5.  Near one,
    # E + 2 = (25/3) d^2 and |r| - sqrt 5 = -sqrt 5 d to leading order in the
    # distance d; the bounds below leave a margin over both coefficients.
    images = [THETA_STAR + k * math.pi / 2 for k in range(-4, 5)]
    nearest = {int(np.argmin(np.abs(grid - t))): t for t in images if theta_min <= t <= theta_max}
    if nearest and not problems:
        lowest = int(np.argmin(energy))
        # Images tie to rounding, and so may two neighbours equidistant from one.
        if not any(abs(lowest - k) <= 1 and abs(energy[lowest] - energy[k]) <= 1e-12 for k in nearest):
            problems.append(f"lowest energy at theta = {theta[lowest]!r}, not at a grid point nearest theta* + k pi/2")
        for k, image in nearest.items():
            d = abs(grid[k] - image)
            if not energy[k] <= -2.0 + 9.0 * d**2 + 1e-12:
                problems.append(f"energy {energy[k]!r} at theta = {grid[k]!r} is too far above -2")
            if not abs(abs(ratio[k]) - SQRT5) <= 2.5 * d + 1e-9:
                problems.append(f"optimal_r {ratio[k]!r} at theta = {grid[k]!r} is too far from +/-sqrt 5")
    return problems


@lru_cache(maxsize=None)
def sector_ground_energy(n: int, periodic: bool, n_down: int) -> float:
    """Lowest eigenvalue of one fixed-magnetization block, built from bit operations."""
    import scipy.sparse
    import scipy.sparse.linalg

    states = np.array([s for s in range(1 << n) if bin(s).count("1") == n_down], dtype=np.int64)
    dim = len(states)
    bonds = [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if periodic and n > 2 else [])
    diagonal = np.zeros(dim)
    rows, cols = [], []
    for i, j in bonds:
        mask = (1 << i) | (1 << j)
        bits = states & mask
        aligned = (bits == 0) | (bits == mask)
        diagonal += np.where(aligned, 0.25, -0.25)
        anti = np.flatnonzero(~aligned)
        rows.append(np.searchsorted(states, states[anti] ^ mask))
        cols.append(anti)
    rows_all = np.concatenate(rows)
    cols_all = np.concatenate(cols)
    h = scipy.sparse.coo_matrix((np.full(rows_all.size, 0.5), (rows_all, cols_all)), shape=(dim, dim))
    h = (h + scipy.sparse.diags(diagonal)).tocsr()
    if dim <= 16:
        return float(np.linalg.eigvalsh(h.toarray())[0])
    values = scipy.sparse.linalg.eigsh(h, k=1, which="SA", v0=np.linspace(1.0, 2.0, dim))[0]
    return float(values[0])


def check_ed(text: str, n: int, bc: str) -> list[str]:
    """E0 against the lowest-|Sz| blocks; sector dimensions C(n, n_down); E0 = min of spectra."""
    lines = text.rstrip("\n").split("\n")
    if len(lines) < n + 4:
        return [f"{len(lines)} lines, expected at least {n + 4}"]
    problems: list[str] = []
    if lines[0] != f"sites={n} bc={bc}":
        problems.append(f"first line is {lines[0]!r}")
    try:
        if not lines[1].startswith("E0 = "):
            raise ValueError(lines[1])
        e0 = float(lines[1][5:])
    except ValueError as exc:
        return problems + [f"no E0 line: {exc}"]
    if lines[2] != "sector spectra (by down-spin count):":
        problems.append(f"third line is {lines[2]!r}")
    minima = []
    for n_down in range(n + 1):
        line = lines[3 + n_down]
        head = f"  n_down={n_down} dim="
        if not line.startswith(head) or ": " not in line:
            problems.append(f"sector line {n_down} is {line!r}")
            continue
        dim_text, _, values_text = line[len(head):].partition(": ")
        dim = int(dim_text)
        if dim != math.comb(n, n_down):
            problems.append(f"sector n_down={n_down} has dim {dim}, expected C({n},{n_down}) = {math.comb(n, n_down)}")
        shown = values_text.split(", ")
        truncated = shown[-1] == "..."
        if truncated:
            shown = shown[:-1]
        values = [float(v) for v in shown]
        if len(values) != min(dim, 8) or truncated != (dim > 8):
            problems.append(f"sector n_down={n_down} shows {len(values)} values for dim {dim}")
        if any(b < a for a, b in zip(values, values[1:])):
            problems.append(f"sector n_down={n_down} spectrum is not ascending")
        if values:
            minima.append(values[0])
    if minima and not abs(e0 - min(minima)) <= 1e-6:
        problems.append(f"E0 = {e0!r} is not the minimum {min(minima)!r} of the sector spectra")
    lowest = [n // 2] if n % 2 == 0 else [n // 2, n // 2 + 1]
    reference = min(sector_ground_energy(n, bc == "periodic", k) for k in lowest)
    if not abs(e0 - reference) <= 1e-9:
        problems.append(f"E0 = {e0!r}, lowest-|Sz| block reference {reference!r}")
    return problems
