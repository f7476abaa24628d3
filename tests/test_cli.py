import ast
import contextlib
import ctypes
import hashlib
import inspect
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mera_lab import cli, gates, heisenberg, mera, report
from mera_lab.errors import NumericError
from mera_lab.cli import main
from mera_lab.heisenberg import hamiltonian


def blas_threads() -> int:
    """The thread count of numpy's bundled OpenBLAS, read through ctypes as threadpoolctl reads it."""
    with open("/proc/self/maps", "rb") as maps:
        path = next(line.split(maxsplit=5)[5].rstrip() for line in maps if b"libscipy_openblas64_" in line)
    return ctypes.CDLL(path).scipy_openblas_get_num_threads64_()


def payload_section(path) -> str:
    text = path.read_text()
    marker = '"payload":'
    return text[text.index(marker):]


SIX_SITE_PERIODIC = """\
sites=6 bc=periodic
E0 = -2.802775637732
sector spectra (by down-spin count):
  n_down=0 dim=1: 1.500000
  n_down=1 dim=6: -0.500000, 0.000000, 0.000000, 1.000000, 1.000000, 1.500000
  n_down=2 dim=15: -2.118034, -1.280776, -1.280776, -1.000000, -1.000000, -0.500000, 0.000000, 0.000000, ...
  n_down=3 dim=20: -2.802776, -2.118034, -1.500000, -1.280776, -1.280776, -1.000000, -1.000000, -0.500000, ...
  n_down=4 dim=15: -2.118034, -1.280776, -1.280776, -1.000000, -1.000000, -0.500000, 0.000000, 0.000000, ...
  n_down=5 dim=6: -0.500000, 0.000000, 0.000000, 1.000000, 1.000000, 1.500000
  n_down=6 dim=1: 1.500000
"""


TWELVE_SITE_PERIODIC = """\
sites=12 bc=periodic
E0 = -5.387390917445
sector spectra (by down-spin count):
  n_down=0 dim=1: 3.000000
  n_down=1 dim=12: 1.000000, 1.133975, 1.133975, 1.500000, 1.500000, 2.000000, 2.000000, 2.500000, ...
  n_down=2 dim=66: -0.918986, -0.660966, -0.660966, -0.624208, -0.624208, -0.309721, -0.182543, -0.182543, ...
  n_down=3 dim=220: -2.651740, -2.290394, -2.290394, -2.192010, -2.192010, -2.057051, -2.057051, -1.720108, ...
  n_down=4 dim=495: -4.070529, -3.637406, -3.637406, -3.457727, -3.457727, -3.198915, -3.198915, -3.134872, ...
  n_down=5 dim=792: -5.031543, -4.569374, -4.569374, -4.297689, -4.297689, -4.070529, -3.944334, -3.944334, ...
  n_down=6 dim=924: -5.387391, -5.031543, -4.777389, -4.569374, -4.569374, -4.297689, -4.297689, -4.070529, ...
  n_down=7 dim=792: -5.031543, -4.569374, -4.569374, -4.297689, -4.297689, -4.070529, -3.944334, -3.944334, ...
  n_down=8 dim=495: -4.070529, -3.637406, -3.637406, -3.457727, -3.457727, -3.198915, -3.198915, -3.134872, ...
  n_down=9 dim=220: -2.651740, -2.290394, -2.290394, -2.192010, -2.192010, -2.057051, -2.057051, -1.720108, ...
  n_down=10 dim=66: -0.918986, -0.660966, -0.660966, -0.624208, -0.624208, -0.309721, -0.182543, -0.182543, ...
  n_down=11 dim=12: 1.000000, 1.133975, 1.133975, 1.500000, 1.500000, 2.000000, 2.000000, 2.500000, ...
  n_down=12 dim=1: 3.000000
"""


ELEVEN_SITE_OPEN = """\
sites=11 bc=open
E0 = -4.632093302360
sector spectra (by down-spin count):
  n_down=0 dim=1: 2.500000
  n_down=1 dim=11: 0.540507, 0.658746, 0.845139, 1.084585, 1.357685, 1.642315, 1.915415, 2.154861, ...
  n_down=2 dim=55: -1.281606, -1.077665, -0.949199, -0.816319, -0.688739, -0.519596, -0.487921, -0.393105, ...
  n_down=3 dim=165: -2.845141, -2.559334, -2.339114, -2.236082, -2.200394, -2.018121, -1.905269, -1.880805, ...
  n_down=4 dim=330: -4.010198, -3.658206, -3.353351, -3.301575, -3.118583, -3.001581, -2.991938, -2.970752, ...
  n_down=5 dim=462: -4.632093, -4.250809, -4.010198, -3.884533, -3.658206, -3.568144, -3.446539, -3.353351, ...
  n_down=6 dim=462: -4.632093, -4.250809, -4.010198, -3.884533, -3.658206, -3.568144, -3.446539, -3.353351, ...
  n_down=7 dim=330: -4.010198, -3.658206, -3.353351, -3.301575, -3.118583, -3.001581, -2.991938, -2.970752, ...
  n_down=8 dim=165: -2.845141, -2.559334, -2.339114, -2.236082, -2.200394, -2.018121, -1.905269, -1.880805, ...
  n_down=9 dim=55: -1.281606, -1.077665, -0.949199, -0.816319, -0.688739, -0.519596, -0.487921, -0.393105, ...
  n_down=10 dim=11: 0.540507, 0.658746, 0.845139, 1.084585, 1.357685, 1.642315, 1.915415, 2.154861, ...
  n_down=11 dim=1: 2.500000
"""


# sha256 of the `ed` stdout for every supported size and boundary: a change to
# how the sector or momentum blocks are built must not move a printed byte.
ED_STDOUT_SHA256 = {
    (2, "open"): "aa05a166a5cf6d8dd1d2f8c5bc6e800dbdb3d634269836129c1698966a054df9",
    (3, "open"): "b26e1abf7d2cf331d8be6f70c9700dccf44f917d52fd98c05cc4d5ffa7d2e80e",
    (4, "open"): "43b92bf2731a80a4cc13769ae62755fc791113f48d0ac35d390ab96735f04e98",
    (5, "open"): "c67f1bbe2b577525f7c803ab3d44f54bb31a68632e63e323aab7d18d398550e0",
    (6, "open"): "17c13051f2689f5f1da116d1c7b3a004d455d464bf98251af966dab6599b38eb",
    (7, "open"): "d7f53c6a06a921032e6c55a4467001c4c59e114e5df44286d8d0ba8a73da2a4a",
    (8, "open"): "1f7307b3d86ff0a6e5327633bcb9c05850ae748f5e16f92367dadcdfbe6eb222",
    (9, "open"): "6b3c996ab1fd3a8ab5c0fbe28adf2adbf651a80c1418bc107655dd5562825ec8",
    (10, "open"): "d3d7a9866653f5436f6c97704a11f83cd48961304ea59e5f59ee234e20e3c954",
    (11, "open"): "445ab7a96767fc279d6211b22a445c5a4964264a535d6a9b1e592e4434238c73",
    (12, "open"): "9fde8240ad68f29acdce410ef80385d4031b1ed0309655961b07bff7fc4e5ec1",
    (2, "periodic"): "16a0fa25a4a76045df299a8add59316b12cbe9fb6b365f64fedd2c2fd94c547a",
    (3, "periodic"): "6ae6bd61823bb399d7e5eeb809d25b5894b13cdb0ea0ab1f11d6ce67a2c6d18f",
    (4, "periodic"): "9b916f388ee37c2ead255c7d176b2628ff400b1e12ed6dccdc5be9ae15d707fe",
    (5, "periodic"): "6209e60dc1104804f0140b58987d55c979a7214299754b479139f7a1a4425ffe",
    (6, "periodic"): "5232446d35fcc11f0e15aa0a994cd3758d361e872a312a7e451297afa3a83bc2",
    (7, "periodic"): "1596d5bfd17242edc69280bb93679f27e7e20b100e219025ec2341e824f8a46a",
    (8, "periodic"): "c3f2ef12505b34cc4b27688ef66020287552c89138cf9fd56cd3f3ab3fe5f986",
    (9, "periodic"): "1a0681218bb4373d58043322613f08ad04a8fbe7dfe004e1e8e4a67023d9b666",
    (10, "periodic"): "83a96af5b079a4a2c5d79adec8cc45e12d6c749f2c347cc6568f939d3a927305",
    (11, "periodic"): "9dc844d8f02c1d9982ae4d95441be29b25dfc423ecd943169f94dcbbe17a759f",
    (12, "periodic"): "acd856d9274b65c9988c012c1a54ea3c3cf251744423c569befdc0ecd0283f1f",
}

# sha256 of the payload section of each `optimize` report and of the stdout of
# the other commands whose output is fixed: a change to how the family, the
# pencil or the circuit is built must not move a written byte.
PAYLOAD_SHA256 = {
    "rotation": "e65cbd804098a81dd2840050426d8f7619462d41595d3d2c65f62bf5d3011bb9",
    "rmatrix": "e4587f5114850ef4414415bdd5137c82d1ed4dd9631cf543d1bbc94101566394",
}

STDOUT_SHA256 = {
    ("check",): "1701c8e4f93a2aa742c2fc2d05d53ba9100663d4f508856ea66738ca0a06104e",
    ("check", "--tolerance", "1e-3"): "e0239b94ed1943ebf18b271ef24ed2296d2cc40a732e852e149450903dc0fb7d",
    ("wavelet",): "35fbd3898eef817dec4b70b795c19a1809fd8a428d7a7630be534e5ed3339eb9",
    ("bethe",): "766b9b523fd4c75a0b14c60a980421d1d9b3610d397fd12f6f26d5b6105e2758",
    ("bethe", "--magnons", "1"): "29ee1780c6335874a57719d592152908283ec70fa49dc697245c9b1817a6e16a",
    ("sweep", "--theta-min", "-3", "--theta-max", "3", "--steps", "20001"): (
        "d3bc4ec1a00168d4ee614acaddba15d14d13f427ac16fec79f355df953c2a482"
    ),
}


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

    @pytest.mark.parametrize("entangler", sorted(PAYLOAD_SHA256))
    def test_payload_bytes_are_pinned(self, tmp_path, entangler):
        out = tmp_path / "report.json"
        assert main(["optimize", "--entangler", entangler, "--out", str(out)]) == 0
        assert hashlib.sha256(payload_section(out).encode()).hexdigest() == PAYLOAD_SHA256[entangler]

    def test_failed_check_writes_the_report_and_exits_one(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["optimize", "--tolerance", "1e-300", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith(f"report written to {out}\n")
        assert captured.err == "some checks failed\n"
        assert main(["optimize", "--tolerance", "1e-300"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "some checks failed\n"
        # stdout carries the same document that --out writes.
        assert captured.out[captured.out.index('"payload":') :] == payload_section(out)
        results = json.loads(captured.out)["payload"]["check_results"]
        assert sum(result["passed"] is False for result in results) == 7

    def test_unsupported_sites(self):
        assert main(["optimize", "--sites", "6"]) == 2

    def test_unsupported_boundary(self):
        assert main(["optimize", "--bc", "open"]) == 2

    def test_unwritable_output(self):
        assert main(["optimize", "--out", "/nonexistent_dir_zz/report.json"]) == 1

    def test_empty_out_is_a_path_that_fails_to_open(self, capsys):
        assert main(["optimize", "--out", ""]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("i/o error: [Errno 2] ")

    def test_usage_error_creates_no_file(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["optimize", "--sites", "6", "--out", str(out)]) == 2
        assert not out.exists()

    def test_non_finite_report_value_is_a_numeric_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(report, "build_report", lambda **kwargs: None)
        monkeypatch.setattr(report, "document_json", lambda rep: report._render(math.nan))
        assert main(["optimize"]) == 1
        assert "non-finite" in capsys.readouterr().err


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

    def test_out_of_range(self, capsys):
        # heisenberg's ResourceError is the one site-limit check; the CLI maps it to exit 2.
        for sites in ("13", "1", "0", "-3"):
            assert main(["ed", "--sites", sites]) == 2
            assert "supported range 2..12" in capsys.readouterr().err

    @pytest.mark.parametrize("bc", ["open", "periodic"])
    @pytest.mark.parametrize("n", range(2, 11))
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

    def test_six_site_periodic_stdout(self, capsys):
        assert main(["ed", "--sites", "6", "--bc", "periodic"]) == 0
        assert capsys.readouterr().out == SIX_SITE_PERIODIC

    @pytest.mark.parametrize("n, bc, expected", [(12, "periodic", TWELVE_SITE_PERIODIC), (11, "open", ELEVEN_SITE_OPEN)])
    def test_largest_ring_and_odd_chain_stdout(self, capsys, n, bc, expected):
        assert main(["ed", "--sites", str(n), "--bc", bc]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("bc", ["open", "periodic"])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_stdout_bytes_are_pinned(self, capsys, n, bc):
        assert main(["ed", "--sites", str(n), "--bc", bc]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == ED_STDOUT_SHA256[n, bc]

    @pytest.mark.parametrize("bc", ["open", "periodic"])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_degenerate_ground_level_is_named_on_stderr(self, capsys, n, bc):
        # Even chains have a unique singlet ground state; an odd ring has two
        # doublets (momenta +k, -k), an odd open chain one doublet.
        count = 1 if n % 2 == 0 else 4 if bc == "periodic" else 2
        assert main(["ed", "--sites", str(n), "--bc", bc]) == 0
        err = capsys.readouterr().err
        assert err == ("" if count == 1 else f"warning: E0 is {count}-fold degenerate over all sectors\n")
        if n <= 8:
            if count == 1:
                heisenberg.ground_state(n, bc)
            else:
                with pytest.raises(NumericError, match=f"ground state is {count}-fold degenerate"):
                    heisenberg.ground_state(n, bc)

    @pytest.mark.parametrize("bc", ["open", "periodic"])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_mirror_sectors_print_the_same_values(self, capsys, n, bc):
        assert main(["ed", "--sites", str(n), "--bc", bc]) == 0
        out = capsys.readouterr().out
        assert "-0.000000" not in out
        lines = out.splitlines()[3 : 3 + n + 1]
        values = [line.split(": ", 1)[1] for line in lines]
        assert values == values[::-1]

    @pytest.mark.parametrize(
        "bc, expected",
        [
            # One block per crystal momentum m = 0..6 of each sector n_down = 0..6; the
            # all-up sector has only m = 0.
            (
                "periodic",
                [
                    [1],
                    [1, 1, 1, 1, 1, 1, 1],
                    [6, 5, 6, 5, 6, 5, 6],
                    [19, 18, 18, 19, 18, 18, 19],
                    [43, 40, 42, 40, 43, 40, 42],
                    [66, 66, 66, 66, 66, 66, 66],
                    [80, 75, 78, 76, 78, 75, 80],
                ],
            ),
            # The reflection-even and reflection-odd blocks; the all-up sector has no odd state.
            ("open", [[1], [6, 6], [36, 30], [110, 110], [255, 240], [396, 396], [472, 452]]),
        ],
        ids=["periodic", "open"],
    )
    def test_twelve_sites_solves_only_the_lower_sectors(self, capsys, monkeypatch, bc, expected):
        solved, sectors, built = [], [], []
        eigvalsh = np.linalg.eigvalsh
        symmetry_blocks = heisenberg.symmetry_blocks
        sector_hamiltonian = heisenberg.sector_hamiltonian

        def counting_eigvalsh(block):
            solved[-1].append(len(block))
            return eigvalsh(block)

        def recording_symmetry_blocks(n, n_down, bc):
            sectors.append(n_down)
            solved.append([])
            return symmetry_blocks(n, n_down, bc)

        def recording_sector_hamiltonian(*args):
            built.append(args)
            return sector_hamiltonian(*args)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(heisenberg, "symmetry_blocks", recording_symmetry_blocks)
        monkeypatch.setattr(heisenberg, "sector_hamiltonian", recording_sector_hamiltonian)
        assert main(["ed", "--sites", "12", "--bc", bc]) == 0
        assert "n_down=12 dim=1" in capsys.readouterr().out
        assert solved == expected
        assert sectors == [0, 1, 2, 3, 4, 5, 6]
        # Both boundaries build their blocks from orbit representatives, never a dense sector block.
        assert built == []

    @settings(max_examples=500, deadline=None)
    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_fixed6_differs_from_plain_format_only_in_the_sign_of_zero(self, value):
        for sign in ("", "+"):
            plain = format(value, sign + ".6f")
            expected = plain.replace("-0.000000", "+0.000000" if sign else "0.000000")
            assert cli._fixed6(value, sign) == expected

    @pytest.mark.parametrize("value", [-0.0, -1e-17, -4.9999e-7, 5e-7, -5e-7, 0.0078125, -0.0078125, 2.5e-6])
    def test_fixed6_near_zero_and_ties(self, value):
        expected = format(value, ".6f").replace("-0.000000", "0.000000")
        assert cli._fixed6(value) == expected
        assert cli._fixed6(np.float64(value)) == expected


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
        assert "-0.000000" not in out
        assert "single down-spin sector spectrum: -1.000000, +0.000000, +0.000000, +1.000000\n" in out

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

    def test_steps_above_the_limit_rejected_before_allocating(self, capsys):
        steps = str(cli.MAX_SWEEP_STEPS + 1)
        tracemalloc.start()
        try:
            assert main(["sweep", "--theta-min", "-0.1", "--theta-max", "0.1", "--steps", steps]) == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f"--steps in 1..{cli.MAX_SWEEP_STEPS}" in capsys.readouterr().err
        # np.linspace alone would take 8 MB for this many angles.
        assert peak < 2**20

    def test_blocked_rows_equal_one_block(self, capsys, monkeypatch):
        argv = ["sweep", "--theta-min", "-1.5", "--theta-max", "1.5", "--steps", "30"]
        assert main(argv) == 0
        whole = capsys.readouterr().out
        monkeypatch.setattr(cli, "SWEEP_BLOCK", 7)
        assert main(argv) == 0
        assert capsys.readouterr().out == whole

    def test_level_crossing_rows_are_flagged_on_stderr(self, capsys, monkeypatch):
        # Every row is within 2e-12 of theta = pi/4, where the two levels of the
        # 2x2 problem cross and r jumps from 0.414 to -2.414 between rows 3 and 4.
        argv = ["sweep", "--theta-min", "0.785398163396", "--theta-max", "0.785398163399", "--steps", "7"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            f"warning: 7 rows have a 2x2 gap below {cli.CROSSING_GAP:g} (level crossing, r is ill-posed), "
            "theta from 0.78539816339599999 to 0.78539816339900004\n"
        )
        ratios = [float(line.split(",")[1]) for line in captured.out.splitlines()[1:]]
        assert ratios[2] > 0.4 and ratios[3] < -2.4
        monkeypatch.setattr(cli, "SWEEP_BLOCK", 3)
        assert main(argv) == 0
        assert capsys.readouterr() == captured

    def test_sweep_without_crossing_writes_nothing_to_stderr(self, capsys):
        # The row nearest pi/4 is 1.8e-6 away, where the gap is about 1e-5.
        assert main(["sweep", "--theta-min", "-3", "--theta-max", "3", "--steps", "20001"]) == 0
        assert capsys.readouterr().err == ""

    @example((-0.0, math.inf, -math.inf, math.nan, 5e-324))
    @example((1.7976931348623157e308, 0.1, 1e16, -1e16, -5e-324))
    @given(st.tuples(*[st.floats()] * 5))
    def test_row_template_formats_like_format_17g(self, row):
        assert cli._CSV_ROW % row == ",".join(format(v, ".17g") for v in row) + "\n"

    def test_warm_sweep_traced_peak(self, capsys):
        # Each block's arrays and CSV text are freed before the next block is
        # solved, so the peak is one SWEEP_BLOCK of them plus the theta grid.
        argv = ["sweep", "--theta-min", "-1.5", "--theta-max", "1.5", "--steps", "5001"]
        assert main(argv) == 0
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(capsys.readouterr().out.splitlines()) == 5002
        assert peak < 3 * 2**20

    def test_long_sweep_memory_stays_bounded(self, tmp_path):
        # Rows are solved and written SWEEP_BLOCK at a time; one batch of all
        # 100 001 rows would hold over 150 MB of basis, product and state
        # arrays, and their joined CSV text alone is 10 MB. The theta grid is 0.8 MB.
        out = tmp_path / "sweep.csv"
        tracemalloc.start()
        try:
            argv = ["sweep", "--theta-min", "-1.5", "--theta-max", "1.5", "--steps", "100001", "--out", str(out)]
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out.read_text().splitlines()) == 100002
        assert peak < 4 * 2**20

    def test_empty_out_is_a_path_that_fails_to_open(self, capsys):
        assert main(["sweep", "--theta-min", "-0.1", "--theta-max", "0.1", "--steps", "3", "--out", ""]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("i/o error: [Errno 2] ")

    @staticmethod
    def count_ratio_calls(monkeypatch, fail_on=None):
        """Count ``mera.optimal_ratios`` calls; raise ``NumericError`` on call ``fail_on``."""
        calls = []
        solve = mera.optimal_ratios

        def counted(*args):
            calls.append(args)
            if len(calls) == fail_on:
                raise NumericError("solver failed")
            return solve(*args)

        monkeypatch.setattr(mera, "optimal_ratios", counted)
        return calls

    def test_failing_sweep_keeps_the_blocks_written_before_it(self, tmp_path, capsys, monkeypatch):
        argv = ["sweep", "--theta-min", "-0.7", "--theta-max", "0.7", "--steps", "1000", "--out"]
        whole = tmp_path / "whole.csv"
        assert main([*argv, str(whole)]) == 0
        capsys.readouterr()
        self.count_ratio_calls(monkeypatch, fail_on=2)
        broken = tmp_path / "broken.csv"
        assert main([*argv, str(broken)]) == 1
        assert capsys.readouterr() == ("", "error: solver failed\n")
        expected = whole.read_bytes().splitlines(keepends=True)[: 1 + cli.SWEEP_BLOCK]
        assert broken.read_bytes() == b"".join(expected)

    def test_broken_pipe_while_writing_rows_exits_1(self, capsys, monkeypatch):
        class ClosedAfterOneWrite:
            writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes > 1:
                    raise BrokenPipeError(32, "Broken pipe")
                return len(text)

        monkeypatch.setattr(sys, "stdout", ClosedAfterOneWrite())
        assert main(["sweep", "--theta-min", "-0.1", "--theta-max", "0.1", "--steps", "3"]) == 1
        assert capsys.readouterr().err == "i/o error: [Errno 32] Broken pipe\n"

    def test_usage_error_creates_no_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--theta-min", "-0.1", "--theta-max", "0.1", "--steps", "0", "--out", str(out)]) == 2
        assert not out.exists()

    def test_unopenable_out_fails_before_any_block_is_solved(self, capsys, monkeypatch):
        calls = self.count_ratio_calls(monkeypatch)
        argv = ["sweep", "--theta-min", "-0.1", "--theta-max", "0.1", "--steps", "3"]
        assert main([*argv, "--out", "/nonexistent_dir_zz/sweep.csv"]) == 1
        assert capsys.readouterr().err.startswith("i/o error: [Errno 2] ")
        assert calls == []
        assert main(argv) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("bounds", [("-1e-3", "0.1"), ("-0.2", "-1e-1")])
    def test_negative_scientific_bound_as_separate_token(self, capsys, bounds):
        assert main(["sweep", f"--theta-min={bounds[0]}", f"--theta-max={bounds[1]}", "--steps", "3"]) == 0
        joined = capsys.readouterr().out
        assert main(["sweep", "--theta-min", bounds[0], "--theta-max", bounds[1], "--steps", "3"]) == 0
        assert capsys.readouterr().out == joined

    def test_negative_infinity_as_separate_token(self, capsys):
        assert main(["sweep", "--theta-min", "-inf", "--theta-max", "0.1", "--steps", "3"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", [("nan", "0.1"), ("-0.1", "nan"), ("-inf", "0.1"), ("-0.1", "inf"), ("-1.7e308", "1.7e308")])
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

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_rejects_bad_tolerance_flag(self, capsys, value):
        assert main(["check", "--tolerance", value]) == 2
        assert "positive finite" in capsys.readouterr().err

    def test_optimize_rejects_bad_tolerance(self):
        assert main(["optimize", "--tolerance", "nan"]) == 2

    @pytest.mark.parametrize("value", ["-1e-3", "-inf"])
    @pytest.mark.parametrize("command", ["check", "optimize"])
    def test_rejects_signed_tolerance_as_separate_token(self, capsys, command, value):
        assert main([command, "--tolerance", value]) == 2
        err = capsys.readouterr().err
        assert "tolerance must be a positive finite number" in err
        assert "expected one argument" not in err


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_no_command(self):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "solver, command",
        [
            ("solve_theta_analytic", ["optimize"]),
            ("solve_theta_analytic", ["wavelet"]),
            ("solve_theta_analytic", ["check"]),
            ("optimal_ratios", ["sweep", "--theta-min", "0", "--theta-max", "1", "--steps", "3"]),
        ],
    )
    def test_value_error_inside_a_solver_exits_1(self, capsys, monkeypatch, solver, command):
        def broken(*args, **kwargs):
            raise ValueError("solver broke")

        monkeypatch.setattr(mera, solver, broken)
        assert main(command) == 1
        assert "error: solver broke" in capsys.readouterr().err

    def test_degenerate_ground_state_exits_1_with_message(self, capsys, monkeypatch):
        monkeypatch.setattr(report, "build_report", lambda **kwargs: heisenberg.ground_state(3, "periodic"))
        assert main(["optimize"]) == 1
        assert "error: ground state is 4-fold degenerate at E0 = -0.750000000000" in capsys.readouterr().err


class TestPinnedStdout:
    @pytest.mark.parametrize("argv", sorted(STDOUT_SHA256), ids=" ".join)
    def test_stdout_bytes_are_pinned(self, capsys, argv):
        assert main(list(argv)) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == STDOUT_SHA256[argv]


class TestImports:
    @staticmethod
    def loaded_after(runs: list[list[str]], modules: tuple[str, ...]) -> str:
        """The names of ``modules`` in ``sys.modules`` after a fresh process imports ``mera_lab.cli`` and runs ``runs``."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        probe = (
            "import contextlib, io, sys\n"
            "from mera_lab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            + "".join(f"    assert cli.main({argv!r}) == 0\n" for argv in runs)
            + f"print([name for name in {modules!r} if name in sys.modules])\n"
        )
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        return done.stdout.strip()

    def test_optimize_and_sweep_leave_numpy_ma_unloaded(self):
        runs = [["optimize"], ["sweep", "--theta-min", "-3", "--theta-max", "3", "--steps", "501"]]
        assert self.loaded_after(runs, ("numpy.ma",)) == "[]"

    def test_optimize_and_check_leave_numpy_random_unloaded(self):
        # The check suite reads its samples from a table; no generator is imported.
        runs = [["optimize", "--entangler", "rotation"], ["optimize", "--entangler", "rmatrix"], ["check"]]
        assert self.loaded_after(runs, ("numpy.random",)) == "[]"

    def test_optimize_sweep_and_ed_leave_dataclasses_and_scipy_unloaded(self):
        # The records are NamedTuples, and no solver uses scipy.
        runs = [["optimize"], ["sweep", "--theta-min", "-3", "--theta-max", "3", "--steps", "501"], ["ed", "--sites", "12"]]
        assert self.loaded_after(runs, ("dataclasses", "scipy")) == "[]"

    @staticmethod
    def imported_by_main(runs: list[list[str]]) -> list[str]:
        """The modules a fresh process imports while ``cli.main`` runs ``runs``, after ``import mera_lab.cli``."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        probe = (
            "import contextlib, io, sys\n"
            "from mera_lab import cli\n"
            "before = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            + "".join(f"    assert cli.main({argv!r}) == 0\n" for argv in runs)
            + "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        return done.stdout.split()

    @pytest.mark.parametrize(
        "argv", [["optimize"], ["sweep", "--theta-min", "-3", "--theta-max", "3", "--steps", "5001"], ["ed", "--sites", "12"]]
    )
    def test_main_imports_no_package_or_numpy_module(self, argv):
        # Every module a command needs is loaded by `import mera_lab.cli`, so the import's cost is not
        # moved into the command's run time.
        imported = self.imported_by_main([argv])
        assert [name for name in imported if name.partition(".")[0] in ("mera_lab", "numpy")] == []

    def test_optimize_and_check_import_no_codec(self):
        # The check suite's sample table is read as bytes.
        imported = self.imported_by_main([["optimize"], ["check"]])
        assert [name for name in imported if name.partition(".")[0] == "encodings"] == []


class TestThreadCount:
    """``cli.main`` runs OpenBLAS on one thread, and the pinned bytes do not depend on how many it runs."""

    @staticmethod
    def run_single_threaded(*argv: str) -> subprocess.CompletedProcess:
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        return subprocess.run([sys.executable, "-m", "mera_lab.cli", *argv], env=env, capture_output=True, text=True)

    def test_optimize_payload_with_one_blas_thread(self, tmp_path):
        out = tmp_path / "report.json"
        done = self.run_single_threaded("optimize", "--entangler", "rotation", "--out", str(out))
        assert done.returncode == 0, done.stderr
        assert hashlib.sha256(payload_section(out).encode()).hexdigest() == PAYLOAD_SHA256["rotation"]

    def test_ed_stdout_with_one_blas_thread(self):
        done = self.run_single_threaded("ed", "--sites", "12")
        assert done.returncode == 0, done.stderr
        assert hashlib.sha256(done.stdout.encode()).hexdigest() == ED_STDOUT_SHA256[12, "periodic"]

    #: Probe lines after which every module but the probe's own ``blas_threads`` fails to open ``/proc/self/maps``.
    MAPS_UNREADABLE = (
        "import builtins\n"
        "open = builtins.open\n"
        "def refuse(file, *args, **kwargs):\n"
        "    if file == '/proc/self/maps':\n"
        "        raise OSError('/proc/self/maps cannot be opened')\n"
        "    return open(file, *args, **kwargs)\n"
        "builtins.open = refuse\n"
    )

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS runs at most one thread per usable core")
    @pytest.mark.parametrize("maps", ["readable", "unreadable"])
    def test_main_runs_each_command_on_one_blas_thread_and_restores_the_count(self, maps):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="2")
        probe = (
            "import contextlib, ctypes, io\n"
            + inspect.getsource(blas_threads)
            + "from mera_lab import cli\n"
            "counts = [blas_threads()]\n"
            + (self.MAPS_UNREADABLE if maps == "unreadable" else "")
            + "def cmd_ed(args):\n"
            "    counts.append(blas_threads())\n"
            "    return 0\n"
            "cli.cmd_ed = cmd_ed\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "    for argv in (['ed'], ['check', '--tolerance', '1e-300'], ['bethe', '--sites', '5'], ['frobnicate']):\n"
            "        counts += [cli.main(argv), blas_threads()]\n"
            "print(counts)\n"
        )
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        # After the import, inside `ed`, then (exit code, count after main) for `ed`, a failed check suite,
        # an unsupported size and an unknown command.
        assert done.stdout.strip() == "[2, 1, 0, 2, 1, 2, 2, 2, 2, 2]"

    @pytest.mark.parametrize("found", ["no library", "a library without the thread functions"])
    def test_main_runs_where_the_thread_functions_cannot_be_found(self, monkeypatch, capsys, found):
        def cdll(path):
            if found == "no library":
                raise OSError(f"{path!r}: cannot open shared object file")
            return object()

        before = blas_threads()
        monkeypatch.setattr(cli, "ctypes", types.SimpleNamespace(CDLL=cdll, c_int=ctypes.c_int))
        assert main(["wavelet"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == STDOUT_SHA256[("wavelet",)]
        assert blas_threads() == before


#: Float arguments at and beyond the edges of the double range.
EDGE_FLOATS = ("nan", "inf", "-inf", "5e-324", "-5e-324", "1e308", "-1e308", "-0", "0", "1e-3", "-1e-3", "3")


@st.composite
def cli_argv(draw) -> list[str]:
    """An argv for one of the six subcommands, each of its options given or left out, with edge values and no --out."""
    floats = st.sampled_from(EDGE_FLOATS)
    sizes = st.sampled_from([str(n) for n in range(14)])
    bcs = st.sampled_from([bc.value for bc in heisenberg.BoundaryCondition])
    options = {
        "optimize": {"--sites": sizes, "--bc": bcs, "--entangler": st.sampled_from(gates.FAMILIES), "--tolerance": floats},
        "ed": {"--sites": sizes, "--bc": bcs},
        "bethe": {"--sites": sizes, "--magnons": sizes},
        "sweep": {"--theta-min": floats, "--theta-max": floats, "--steps": st.sampled_from([str(k) for k in range(-1, 6)])},
        "wavelet": {},
        "check": {"--tolerance": floats},
    }
    command = draw(st.sampled_from(sorted(options)))
    argv = [command]
    for flag, values in options[command].items():
        # sweep's three options are required, so they are always given and a sweep can run.
        if command == "sweep" or draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(cli_argv())
    def test_main_exits_0_1_or_2_with_a_reason_and_keeps_the_blas_thread_count(self, argv):
        before = blas_threads()
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if code == 1:
            lines = err.getvalue().splitlines()
            assert any(line.startswith(("error: ", "i/o error: ")) or line == "some checks failed" for line in lines)
        assert blas_threads() == before


class TestMainModule:
    """``python -m mera_lab.cli``: the ``__main__`` guard passes ``main``'s return value on as the exit code."""

    @staticmethod
    def run_module(*argv: str) -> subprocess.CompletedProcess:
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-m", "mera_lab.cli", *argv], env=env, capture_output=True, text=True)

    def test_success_exits_zero(self):
        done = self.run_module("wavelet")
        assert done.returncode == 0
        assert done.stdout.startswith("D4 scaling taps: ")

    def test_failed_check_exits_one(self):
        done = self.run_module("check", "--tolerance", "1e-300")
        assert done.returncode == 1
        assert "some checks failed" in done.stderr

    def test_usage_error_exits_two(self):
        done = self.run_module("ed", "--sites", "13")
        assert done.returncode == 2
        assert "supported range 2..12" in done.stderr


class TestArgvOnly:
    """Every output depends on argv alone: the package reads no environment variable."""

    @pytest.mark.parametrize("value", ["1e-300", ""])
    def test_tolerance_variable_in_the_environment_is_ignored(self, tmp_path, value):
        # 1e-300 fails every asserted check and an empty value is no number, so a CLI
        # that read the variable would change its exit code or its bytes.
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src, MERA_LAB_TOLERANCE=value)

        def run(*argv: str) -> subprocess.CompletedProcess:
            return subprocess.run([sys.executable, "-m", "mera_lab.cli", *argv], env=env, capture_output=True, text=True)

        done = run("check")
        assert done.returncode == 0, done.stderr
        assert hashlib.sha256(done.stdout.encode()).hexdigest() == STDOUT_SHA256[("check",)]
        out = tmp_path / "report.json"
        done = run("optimize", "--out", str(out))
        assert done.returncode == 0, done.stderr
        assert hashlib.sha256(payload_section(out).encode()).hexdigest() == PAYLOAD_SHA256["rotation"]

    def test_no_module_reads_the_environment(self):
        # A new hidden input needs a deliberate edit here.
        package = pathlib.Path(cli.__file__).parent
        paths = sorted(package.glob("*.py"))
        assert package / "cli.py" in paths
        uses = []
        for path in paths:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    name = f"{node.value.id}.{node.attr}"
                elif isinstance(node, ast.ImportFrom) and node.module == "os":
                    name = ", ".join(f"os.{alias.name}" for alias in node.names)
                else:
                    continue
                if "os.environ" in name or "os.getenv" in name:
                    uses.append(f"{path.name}:{node.lineno}: {name}")
        assert uses == []

    def test_only_cli_imports_ctypes(self):
        # The BLAS thread count is process state, set in one place: cli.main.
        package = pathlib.Path(cli.__file__).parent
        importers = set()
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                if any(name.partition(".")[0] == "ctypes" for name in names):
                    importers.add(path.name)
        assert importers == {"cli.py"}

    def test_no_module_reads_another_modules_private_names(self):
        # A rule another module needs belongs in a public function of the module that owns it.
        package = pathlib.Path(cli.__file__).parent
        imported, reads = set(), []
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            modules = {
                alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
                for alias in node.names
            }
            imported.update((path.stem, module) for module in modules)
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                    if node.attr.startswith("_"):
                        reads.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
                elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is not None:
                    names = [alias.name for alias in node.names if alias.name.startswith("_")]
                    reads.extend(f"{path.name}:{node.lineno}: from .{node.module} import {name}" for name in names)
        assert ("checks", "mera") in imported
        assert reads == []

    def test_four_site_ring_is_the_one_cached_function(self):
        # The package's one per-process cache holds the read-only H(4) and ground state its callers
        # share; every other function computes its result on each call.
        package = pathlib.Path(cli.__file__).parent
        names = ("cache", "lru_cache")
        cached = set()
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            decorators = set()  # how this module spells the two decorators
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    module = [alias.asname or alias.name for alias in node.names if alias.name == "functools"]
                    decorators.update(f"{spelling}.{name}" for spelling in module for name in names)
                elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                    decorators.update(alias.asname or alias.name for alias in node.names if alias.name in names)
            cached.update(
                (path.stem, node.name)
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                for decorator in node.decorator_list
                if ast.unparse(decorator.func if isinstance(decorator, ast.Call) else decorator) in decorators
            )
        assert cached == {("heisenberg", "four_site_ring")}

    def test_every_public_function_and_class_has_a_reader_in_the_package(self):
        # A public function or class that nothing in the package uses is deleted. The one exception
        # is kept for tests/test_acceptance.py, which checks the package against it.
        package = pathlib.Path(cli.__file__).parent
        defined, used = set(), set()
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            modules = {
                alias.asname or alias.name: alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
                for alias in node.names
            }
            for statement in tree.body:
                own = None
                if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                    own = (path.stem, statement.name)
                    if not statement.name.startswith("_"):
                        defined.add(own)
                for node in ast.walk(statement):
                    if isinstance(node, ast.Name):
                        reference = (path.stem, node.id)
                    elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                        reference = (modules[node.value.id], node.attr)
                    elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is not None:
                        used.update((node.module, alias.name) for alias in node.names)
                        continue
                    else:
                        continue
                    if reference != own:
                        used.add(reference)
        assert ("mera", "optimal_ratios") in defined & used
        assert defined - used == {("wavelet", "lattice_filter")}
