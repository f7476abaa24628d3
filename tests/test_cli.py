import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mera_lab import cli, heisenberg, mera, report
from mera_lab.errors import NumericError
from mera_lab.cli import main
from mera_lab.heisenberg import hamiltonian


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
    def test_payload_bytes_are_pinned(self, tmp_path, monkeypatch, entangler):
        monkeypatch.delenv("MERA_LAB_TOLERANCE", raising=False)
        out = tmp_path / "report.json"
        assert main(["optimize", "--entangler", entangler, "--out", str(out)]) == 0
        assert hashlib.sha256(payload_section(out).encode()).hexdigest() == PAYLOAD_SHA256[entangler]

    def test_unsupported_sites(self):
        assert main(["optimize", "--sites", "6"]) == 2

    def test_unsupported_boundary(self):
        assert main(["optimize", "--bc", "open"]) == 2

    def test_unwritable_output(self):
        assert main(["optimize", "--out", "/nonexistent_dir_zz/report.json"]) == 1

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
        # Each block's arrays are freed before the next block is solved, so the
        # peak is one SWEEP_BLOCK of arrays plus the CSV text (0.5 MB here).
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
        # Rows are solved SWEEP_BLOCK at a time; one batch of all 100 001 rows
        # would hold over 150 MB of basis, product and state arrays.
        out = tmp_path / "sweep.csv"
        tracemalloc.start()
        try:
            argv = ["sweep", "--theta-min", "-1.5", "--theta-max", "1.5", "--steps", "100001", "--out", str(out)]
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out.read_text().splitlines()) == 100002
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("bounds", [("-1e-3", "0.1"), ("-0.2", "-1e-1")])
    def test_negative_scientific_bound_as_separate_token(self, capsys, bounds):
        assert main(["sweep", f"--theta-min={bounds[0]}", f"--theta-max={bounds[1]}", "--steps", "3"]) == 0
        joined = capsys.readouterr().out
        assert main(["sweep", "--theta-min", bounds[0], "--theta-max", bounds[1], "--steps", "3"]) == 0
        assert capsys.readouterr().out == joined

    def test_negative_infinity_as_separate_token(self, capsys):
        assert main(["sweep", "--theta-min", "-inf", "--theta-max", "0.1", "--steps", "3"]) == 2
        assert "finite" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["check", "optimize"])
    def test_malformed_env_value_is_a_usage_error_with_message(self, capsys, monkeypatch, command):
        monkeypatch.setenv("MERA_LAB_TOLERANCE", "1e-3x")
        assert main([command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: MERA_LAB_TOLERANCE='1e-3x'")
        assert "tolerance must be a positive finite number" in err

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
    def test_stdout_bytes_are_pinned(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("MERA_LAB_TOLERANCE", raising=False)
        assert main(list(argv)) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == STDOUT_SHA256[argv]


class TestImports:
    def test_optimize_and_sweep_leave_numpy_ma_unloaded(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        probe = (
            "import contextlib, io, sys\n"
            "from mera_lab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['optimize']) == 0\n"
            "    assert cli.main(['sweep', '--theta-min', '-3', '--theta-max', '3', '--steps', '501']) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"
