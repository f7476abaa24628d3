import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mera_lab import bethe, checks, gates, mera, report, wavelet
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
    names = {c.name for c in rep.check_results}
    assert "adjacent_entangler_commutator_norm" in names


def test_rmatrix_report_values():
    rep = report.build_report(entangler="rmatrix")
    assert rep.entangler == "rmatrix"
    assert rep.fidelity >= 1.0 - 1e-10
    assert abs(rep.r - 1.0) < 1e-6
    assert abs(rep.ground_energy_mera - rep.ground_energy_ed) < 1e-10


def test_unknown_entangler_rejected(monkeypatch):
    assert gates.FAMILIES == ("rotation", "rmatrix")

    def solved(*args, **kwargs):
        raise AssertionError("an unknown family reached a solver")

    # The family is checked before any solve.
    monkeypatch.setattr(mera, "solve_theta_analytic", solved)
    for family in ("squeeze", "Rotation", "", "rmatrix "):
        with pytest.raises(DomainError, match=f"unknown entangler family {family!r}"):
            report.build_report(entangler=family)


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


def test_record_in_a_list_renders_as_an_object_with_sorted_keys():
    result = checks.CheckResult(name="x", passed=True, measured=0.5, tolerance=None)
    assert report._render([result]) == '[{"measured":0.5,"name":"x","passed":true,"tolerance":null}]'


def test_plain_tuple_renders_as_an_array():
    assert report._render((0.5, "a", None)) == '[0.5,"a",null]'


@pytest.mark.parametrize("value", [{0.5}, np.array([0.5])], ids=["set", "ndarray"])
def test_unsupported_value_rejected(value):
    with pytest.raises(TypeError, match="cannot serialize"):
        report._render(value)


@pytest.fixture(scope="module")
def records() -> dict[str, object]:
    """One instance of each record type, keyed by class name."""
    rep = report.build_report()
    iso = mera.IsometryParams.trivial(1.0, 0.0, 0.6, 0.8)
    return {
        "BetheRoots": bethe.solve_two_magnon(),
        "CheckResult": rep.check_results[0],
        "BCFunctions": gates.bc(1.0),
        "IsometryParams": iso,
        "TrialState": mera.trial_state(gates.entangler_rotation(0.0), iso),
        "ThetaSolution": mera.solve_theta_analytic(),
        "NuFitResult": mera.solve_nu_fit(),
        "Report": rep,
        "ScalingFilter": wavelet.d4_coefficients(),
        "AngleReport": rep.angle_table,
    }


@pytest.mark.parametrize(
    "name, field",
    [
        ("BetheRoots", "roots"),
        ("CheckResult", "passed"),
        ("BCFunctions", "b"),
        ("IsometryParams", "l01"),
        ("TrialState", "state"),
        ("ThetaSolution", "theta"),
        ("NuFitResult", "roots"),
        ("Report", "fidelity"),
        ("ScalingFilter", "taps"),
        ("AngleReport", "deviations"),
    ],
)
def test_records_refuse_assignment(records, name, field):
    record = records[name]
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 0.0
