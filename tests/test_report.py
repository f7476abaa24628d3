import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mera_lab import gates, report
from mera_lab.errors import DomainError, NumericError


def test_payload_is_deterministic():
    rep1 = report.build_report()
    rep2 = report.build_report()
    assert report.payload_json(rep1) == report.payload_json(rep2)


def test_payload_round_trips_losslessly():
    rep = report.build_report()
    payload = report.payload_json(rep)
    parsed = json.loads(payload)
    assert parsed["schema_version"] == "1"
    assert parsed["theta_star"] == rep.theta_star
    assert parsed["fidelity"] == rep.fidelity
    assert parsed["ed_coefficients"] == rep.ed_coefficients
    assert parsed["bethe_roots"][0] == [rep.bethe_roots[0].real, rep.bethe_roots[0].imag]
    # keys are sorted at every level
    assert list(parsed.keys()) == sorted(parsed.keys())


def test_payload_has_no_timestamp():
    rep = report.build_report()
    parsed = json.loads(report.payload_json(rep))
    assert "generated_at" not in parsed


def test_document_carries_timestamp_sidecar():
    rep = report.build_report()
    doc = json.loads(report.document_json(rep))
    assert set(doc.keys()) == {"generated_at", "payload"}
    assert doc["payload"]["schema_version"] == "1"


def test_rotation_report_values():
    rep = report.build_report()
    assert abs(rep.theta_star_over_pi - (-0.0738)) < 5e-4
    assert rep.fidelity >= 1.0 - 1e-10
    assert abs(rep.ground_energy_mera - rep.ground_energy_ed) < 1e-10
    assert abs(rep.r - np.sqrt(5.0)) < 1e-6
    assert np.allclose(rep.ed_coefficients, [1.0, -2.0, 1.0, 1.0, -2.0, 1.0], atol=1e-10)
    assert rep.nu_paper_residual > 1e-3
    assert abs(rep.entropy_cut2 - 0.8369882167858358) < 1e-12
    names = {c["name"] for c in rep.check_results}
    assert "adjacent_entangler_commutator_norm" in names


def test_rmatrix_report_values():
    rep = report.build_report(entangler="rmatrix")
    assert rep.entangler == "rmatrix"
    assert rep.fidelity >= 1.0 - 1e-10
    assert abs(rep.r - 1.0) < 1e-6
    assert abs(rep.ground_energy_mera - rep.ground_energy_ed) < 1e-10


def test_unknown_entangler_rejected():
    with pytest.raises(DomainError, match="unknown entangler family 'squeeze'"):
        report.build_report(entangler="squeeze")
    assert gates.FAMILIES == ("rotation", "rmatrix")
    for family in gates.FAMILIES:
        gates.EntanglerSpec(family, 0.5)
    for family in ("squeeze", "Rotation", "", "rmatrix "):
        with pytest.raises(DomainError, match=f"unknown entangler family {family!r}"):
            gates.EntanglerSpec(family, 0.5)


def test_float_rendering_17_significant_digits():
    value = 1.0 / 3.0
    rendered = report._render(value)
    assert rendered == format(value, ".17g")
    assert float(rendered) == value


def test_non_finite_floats_rejected():
    with pytest.raises(NumericError):
        report._render(math.nan)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_every_finite_float_round_trips(value):
    # -0.0 renders as "-0", which json.loads reads as the int 0: the value is
    # recovered, the sign of a zero is not.
    assert json.loads(report._render(value)) == value


@given(st.complex_numbers(allow_nan=False, allow_infinity=False))
def test_complex_renders_as_re_im_pair(value):
    assert json.loads(report._render(value)) == [value.real, value.imag]
