import json
import math
import tracemalloc

import numpy as np
import pytest

from mera_lab.cli import main
from mera_lab.heisenberg import hamiltonian


def payload_section(path) -> str:
    text = path.read_text()
    marker = '"payload":'
    return text[text.index(marker):]


class TestOptimize:
    def test_writes_report_and_is_deterministic(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["optimize", "--out", str(out1)]) == 0
        assert main(["optimize", "--out", str(out2)]) == 0
        assert payload_section(out1) == payload_section(out2)
        payload = json.loads(out1.read_text())["payload"]
        assert abs(payload["theta_star_over_pi"] - (-0.0738)) < 5e-4
        assert payload["fidelity"] >= 1.0 - 1e-10

    def test_stdout_mode(self, capsys):
        assert main(["optimize"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["payload"]["schema_version"] == "1"

    def test_rmatrix_report_fields(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["optimize", "--entangler", "rmatrix", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["nu_roots_derived"][0][1] == pytest.approx(2.0 * math.sqrt(3.0) - 4.0)
        assert payload["nu_paper_residual"] > 0.0

    def test_unsupported_sites(self):
        assert main(["optimize", "--sites", "6"]) == 2

    def test_unsupported_boundary(self):
        assert main(["optimize", "--bc", "open"]) == 2

    def test_unwritable_output(self):
        assert main(["optimize", "--out", "/nonexistent_dir_zz/report.json"]) == 1


class TestEd:
    def test_four_site_periodic(self, capsys):
        assert main(["ed", "--sites", "4", "--bc", "periodic"]) == 0
        out = capsys.readouterr().out
        assert "E0 = -2.000000000000" in out
        assert "half-filling block:" in out
        assert "[ 0.50  -1.00   0.50   0.50   0.00   0.50]" in out

    def test_two_site_open(self, capsys):
        assert main(["ed", "--sites", "2", "--bc", "open"]) == 0
        assert "E0 = -0.750000000000" in capsys.readouterr().out

    def test_out_of_range(self):
        assert main(["ed", "--sites", "13"]) == 2
        assert main(["ed", "--sites", "1"]) == 2

    @pytest.mark.parametrize("bc", ["open", "periodic"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_ground_energy_matches_dense_spectrum(self, capsys, n, bc):
        assert main(["ed", "--sites", str(n), "--bc", bc]) == 0
        line = next(s for s in capsys.readouterr().out.splitlines() if s.startswith("E0 = "))
        dense = np.linalg.eigvalsh(hamiltonian(n, bc))[0]
        assert abs(float(line[len("E0 = "):]) - dense) < 1e-12

    def test_twelve_sites_never_forms_the_full_matrix(self, capsys):
        # The dense 4096 x 4096 H alone is 134 MB; numpy reports its buffers to tracemalloc.
        tracemalloc.start()
        try:
            assert main(["ed", "--sites", "12"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "dim=924" in capsys.readouterr().out
        assert peak < 64 * 2**20


class TestBethe:
    def test_default_two_magnons(self, capsys):
        assert main(["bethe"]) == 0
        out = capsys.readouterr().out
        assert "0.577350269189626" in out
        assert "energy from roots: -2.000000000000" in out

    def test_one_magnon_table(self, capsys):
        assert main(["bethe", "--magnons", "1"]) == 0
        out = capsys.readouterr().out
        assert "one-magnon states" in out
        assert "+1.570796" in out

    def test_unsupported_magnons(self):
        assert main(["bethe", "--magnons", "3"]) == 2


class TestSweep:
    def test_csv_format(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--theta-min", "-0.4", "--theta-max", "-0.1", "--steps", "5", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == "theta,optimal_r,energy,fidelity,entropy"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == -0.4

    def test_minimum_near_optimal_angle(self, tmp_path):
        out = tmp_path / "sweep.csv"
        tmin = -0.2 * math.pi
        assert main(["sweep", "--theta-min", str(tmin), "--theta-max", "0", "--steps", "401", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        best = min(rows, key=lambda row: float(row[2]))
        assert abs(float(best[0]) / math.pi - (-0.0738)) < 6e-4
        assert abs(float(best[2]) - (-2.0)) < 5e-6

    def test_single_step(self, capsys):
        assert main(["sweep", "--theta-min", "-0.2", "--theta-max", "0.3", "--steps", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[0]) == -0.2

    def test_inverted_range(self):
        assert main(["sweep", "--theta-min", "0.1", "--theta-max", "-0.1", "--steps", "3"]) == 2

    def test_zero_steps(self):
        assert main(["sweep", "--theta-min", "-0.1", "--theta-max", "0.1", "--steps", "0"]) == 2

    @pytest.mark.parametrize("bounds", [("nan", "0.1"), ("-0.1", "nan"), ("-inf", "0.1"), ("-0.1", "inf")])
    def test_non_finite_range(self, capsys, bounds):
        assert main(["sweep", f"--theta-min={bounds[0]}", f"--theta-max={bounds[1]}", "--steps", "3"]) == 2
        assert "finite" in capsys.readouterr().err


class TestWavelet:
    def test_taps_and_angle_table(self, capsys):
        assert main(["wavelet"]) == 0
        out = capsys.readouterr().out
        assert "1.414213562373" in out
        assert "theta_star_vs_minus_pi_12" in out
        assert "+0.009542 pi" in out
        assert "-0.019083 pi" in out


class TestCheck:
    def test_default_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "reported, not asserted" in out

    def test_absurd_tolerance_fails(self, capsys):
        assert main(["check", "--tolerance", "1e-300"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_env_tolerance(self, monkeypatch):
        monkeypatch.setenv("MERA_LAB_TOLERANCE", "1e-300")
        assert main(["check"]) == 1

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("MERA_LAB_TOLERANCE", "1e-300")
        assert main(["check", "--tolerance", "0.5"]) == 0

    def test_invalid_env_value(self, monkeypatch):
        monkeypatch.setenv("MERA_LAB_TOLERANCE", "not-a-float")
        assert main(["check"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_rejects_bad_tolerance_flag(self, capsys, value):
        assert main(["check", "--tolerance", value]) == 2
        assert "positive finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_rejects_bad_env_tolerance(self, capsys, monkeypatch, value):
        monkeypatch.setenv("MERA_LAB_TOLERANCE", value)
        assert main(["check"]) == 2
        assert "positive finite" in capsys.readouterr().err

    def test_optimize_rejects_bad_tolerance(self):
        assert main(["optimize", "--tolerance", "nan"]) == 2


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_no_command(self):
        assert main([]) == 2
