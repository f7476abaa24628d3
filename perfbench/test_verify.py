"""Self-tests of the benchmark's own checks.

Run with ``python3 -m pytest perfbench``.  Each checker must accept the
program's real output and reject a deliberately corrupted copy of it.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
from mera_lab import cli  # noqa: E402

SWEEP = (-1.6, 1.55, 401)


def program_output(*argv: str) -> str:
    captured = io.StringIO()
    with redirect_stdout(captured):
        assert cli.main(list(argv)) == 0
    return captured.getvalue()


@pytest.fixture(scope="module")
def documents() -> dict[str, str]:
    return {e: program_output("optimize", "--entangler", e) for e in ("rotation", "rmatrix")}


@pytest.fixture(scope="module")
def sweep_csv() -> str:
    lo, hi, steps = SWEEP
    return program_output("sweep", "--theta-min", repr(lo), "--theta-max", repr(hi), "--steps", str(steps))


@pytest.fixture(scope="module")
def ed_outputs() -> dict[tuple[int, str], str]:
    cases = ((6, "periodic"), (7, "open"), (9, "open"))
    return {(n, bc): program_output("ed", "--sites", str(n), "--bc", bc) for n, bc in cases}


def edit_payload(document: str, change) -> str:
    stamp, payload = verify.split_document(document)
    data = json.loads(payload)
    change(data)
    return '{"generated_at":' + stamp + ',"payload":' + json.dumps(data, sort_keys=True) + "}\n"


def test_optimize_accepts_program_output(documents):
    for entangler, text in documents.items():
        assert verify.check_optimize(text, entangler) == []


def _fail_first_check(p):
    next(c for c in p["check_results"] if c["passed"] is not None)["passed"] = False


PAYLOAD_CORRUPTIONS = {
    "theta": lambda p: p.update(theta_star=p["theta_star"] + 1e-9),
    "r": lambda p: p.update(r=p["r"] * (1 + 1e-8)),
    "energy_ed": lambda p: p.update(ground_energy_ed=-1.9999),
    "energy_mera": lambda p: p.update(ground_energy_mera=-2.001),
    "fidelity": lambda p: p.update(fidelity=1 - 1e-9),
    "coefficients": lambda p: p["ed_coefficients"].__setitem__(2, 1.001),
    "entropy": lambda p: p.update(entropy_cut2=math.log(2.0)),
    "bethe_root": lambda p: p["bethe_roots"].__setitem__(0, [0.5, 0.0]),
    "bethe_energy": lambda p: p.update(bethe_energy=-1.5),
    "nu_root": lambda p: p["nu_roots_derived"].__setitem__(0, [2 * math.sqrt(3), -4.0]),
    "d4_tap": lambda p: p["d4_taps"].__setitem__(3, 0.12940952255126034),
    "failed_check": _fail_first_check,
    "missing_key": lambda p: p.pop("bethe_roots"),
    "entangler": lambda p: p.update(entangler="other"),
}


@pytest.mark.parametrize("name", sorted(PAYLOAD_CORRUPTIONS))
def test_optimize_rejects_corrupted_payload(documents, name):
    for entangler, text in documents.items():
        assert verify.check_optimize(edit_payload(text, PAYLOAD_CORRUPTIONS[name]), entangler)


def test_optimize_rejects_truncated_document(documents):
    text = documents["rotation"]
    assert verify.check_optimize(text[: len(text) // 2], "rotation")


def test_optimize_rejects_changed_payload_bytes_between_passes(documents):
    make = run.optimize_commands(random.Random(0))
    check = {c.argv[-1]: c.check for c in make()}["rotation"]
    assert check(documents["rotation"]) == []
    assert check(documents["rotation"]) == []
    reordered = edit_payload(documents["rotation"], lambda p: None)
    assert verify.check_optimize(reordered, "rotation") == []
    assert check(reordered)


def test_sweep_accepts_program_output(sweep_csv):
    assert verify.check_sweep(sweep_csv, *SWEEP) == []


def _edit_rows(text: str, change) -> str:
    lines = text.rstrip("\n").split("\n")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    change(rows)
    return "\n".join([lines[0]] + [",".join(format(v, ".17g") for v in r) for r in rows]) + "\n"


SWEEP_CORRUPTIONS = {
    "header": lambda t: t.replace("optimal_r", "ratio", 1),
    "dropped_row": lambda t: t[: t.rstrip("\n").rfind("\n") + 1],
    "no_newline": lambda t: t.rstrip("\n"),
    "theta": lambda t: _edit_rows(t, lambda rows: rows[7].__setitem__(0, rows[7][0] + 1e-6)),
    "energy": lambda t: _edit_rows(t, lambda rows: rows[3].__setitem__(2, -2.0 - 1e-9)),
    "fidelity": lambda t: _edit_rows(t, lambda rows: rows[5].__setitem__(3, 1.0 + 1e-9)),
    "entropy": lambda t: _edit_rows(t, lambda rows: rows[9].__setitem__(4, math.log(4.0) + 1e-9)),
    "minimum": lambda t: _edit_rows(t, lambda rows: rows[0].__setitem__(2, -2.0)),
    "text": lambda t: t.replace("\n-1.", "\nx1.", 1),
}


@pytest.mark.parametrize("name", sorted(SWEEP_CORRUPTIONS))
def test_sweep_rejects_corrupted_csv(sweep_csv, name):
    corrupted = SWEEP_CORRUPTIONS[name](sweep_csv)
    assert corrupted != sweep_csv
    assert verify.check_sweep(corrupted, *SWEEP)


def test_sweep_asserts_nothing_about_ratio_at_quarter_pi():
    lo, hi, steps = -math.pi / 2, math.pi / 2, 201
    text = program_output("sweep", "--theta-min", repr(lo), "--theta-max", repr(hi), "--steps", str(steps))
    grid = np.linspace(lo, hi, steps)
    quarter = [int(i) for i in (abs(abs(grid) - math.pi / 4) < 1e-9).nonzero()[0]]
    assert quarter

    def scramble(rows):
        for i in quarter:
            rows[i][1] = float("nan")

    assert verify.check_sweep(_edit_rows(text, scramble), lo, hi, steps) == []


def test_ed_accepts_program_output(ed_outputs):
    for (n, bc), text in ed_outputs.items():
        assert verify.check_ed(text, n, bc) == []


def _swap_first_two_values(text: str) -> str:
    lines = text.split("\n")
    for k, line in enumerate(lines):
        if "n_down=2 " in line:
            head, _, values = line.partition(": ")
            parts = values.split(", ")
            parts[0], parts[1] = parts[1], parts[0]
            lines[k] = head + ": " + ", ".join(parts)
    return "\n".join(lines)


def _shift_e0(text: str) -> str:
    lines = text.split("\n")
    lines[1] = f"E0 = {float(lines[1][5:]) + 1e-7:.12f}"
    return "\n".join(lines)


ED_CORRUPTIONS = {
    "header": lambda t: t.replace("bc=", "bc=x", 1),
    "e0": _shift_e0,
    "dimension": lambda t: t.replace("n_down=1 dim=", "n_down=1 dim=1", 1),
    "order": _swap_first_two_values,
    "lower_sector_value": lambda t: t.replace("n_down=0 dim=1: ", "n_down=0 dim=1: -9.000000, ", 1),
    "missing_sector": lambda t: "\n".join(line for line in t.split("\n") if "n_down=2 " not in line),
}


@pytest.mark.parametrize("name", sorted(ED_CORRUPTIONS))
def test_ed_rejects_corrupted_printout(ed_outputs, name):
    for (n, bc), text in ed_outputs.items():
        corrupted = ED_CORRUPTIONS[name](text)
        assert corrupted != text
        assert verify.check_ed(corrupted, n, bc), (n, bc, name)


def test_sector_reference_matches_known_energies():
    # Four-site ring: -2; two sites: singlet -3/4; open three sites: -1.
    assert verify.sector_ground_energy(4, True, 2) == pytest.approx(-2.0, abs=1e-12)
    assert verify.sector_ground_energy(2, False, 1) == pytest.approx(-0.75, abs=1e-12)
    assert verify.sector_ground_energy(3, False, 1) == pytest.approx(-1.0, abs=1e-12)


def test_reduce_spans_self_time_and_redundancy():
    spans = [
        ["cli.cmd_ed", 0.0, 10.0, -1, None],
        ["heisenberg.hamiltonian", 1.0, 2.0, 0, "4,periodic"],
        ["heisenberg.ground_state", 3.0, 9.0, 0, None],
        ["heisenberg.hamiltonian", 3.5, 4.5, 2, "4,periodic"],
    ]
    reduced = tracer.reduce_spans(spans)
    functions = reduced["functions"]
    assert functions["cli.cmd_ed"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert functions["heisenberg.ground_state"] == {"calls": 1, "total_s": 6.0, "self_s": 5.0}
    assert functions["heisenberg.hamiltonian"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    assert functions["mera.optimal_ratio"]["calls"] == 0
    assert reduced["redundant"]["heisenberg.hamiltonian"] == 1
    assert reduced["closure_error_s"] == 0.0
    assert reduced["min_self_s"] == 1.0


def test_parse_importtime():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:      1000 |     150000 |       numpy",
            "import time:       500 |       2000 |       mera_lab.gates",
            "import time:      1000 |     300000 |         scipy.linalg",
            "import time:       700 |     900000 |   mera_lab",
            "error: something else",
        ]
    )
    found = run.parse_importtime(stderr)
    assert found["import.numpy_s"] == pytest.approx(0.15)
    assert found["import.scipy.linalg_s"] == pytest.approx(0.3)
    assert found["import.scipy.optimize_s"] == 0.0
    assert found["import.mera_lab_s"] == pytest.approx(0.0012)
