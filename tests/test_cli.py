import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from speccert.cli import main
from conftest import SIGMA_X, SIGMA_Z, make_family


@pytest.fixture
def cone_file(tmp_path):
    H = make_family(np.zeros((2, 2)), [SIGMA_X, SIGMA_Z], [[-1, 1], [-1, 1]])
    path = tmp_path / "cone.json"
    H.save(path)
    return path


@pytest.fixture
def diag_file(tmp_path):
    H = make_family(
        np.diag([0.0, 1.0, 2.0]),
        [np.diag([1.0, 1.0, 0.0]), np.zeros((3, 3))],
        [[-0.5, 0.5], [-0.5, 0.5]],
    )
    path = tmp_path / "diag.json"
    H.save(path)
    return path


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSpectrumCommand:
    def test_grid_sweep(self, cone_file, tmp_path):
        out = tmp_path / "out"
        code = main(["spectrum", "--input", str(cone_file), "--out", str(out), "--grid", "51"])
        assert code == 0
        rows = read_csv(out / "spectrum.csv")
        assert len(rows) == 2601
        gaps = [float(r["lambda_2"]) - float(r["lambda_1"]) for r in rows]
        center = min(range(len(rows)), key=lambda i: gaps[i])
        assert gaps[center] < 1e-12
        assert float(rows[center]["u_1"]) == pytest.approx(0.0)
        assert float(rows[center]["u_2"]) == pytest.approx(0.0)

    def test_degenerate_grid_single_corner_row(self, cone_file, tmp_path):
        out = tmp_path / "out"
        code = main(["spectrum", "--input", str(cone_file), "--out", str(out), "--grid", "1"])
        assert code == 0
        rows = read_csv(out / "spectrum.csv")
        assert len(rows) == 1
        assert float(rows[0]["u_1"]) == -1.0
        assert float(rows[0]["u_2"]) == -1.0

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = main(["spectrum", "--input", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2,\n  "drift": [broken')
        code = main(["spectrum", "--input", str(bad), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_non_utf8_input_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"dim": 2, "drift": "\xff"}')
        code = main(["spectrum", "--input", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_dimension_mismatch_exit_2(self, tmp_path, capsys):
        doc = {
            "dim": 3,
            "drift": {"re": [[0, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
            "controlled": [
                {"re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]},
                {"re": [[1, 0], [0, -1]], "im": [[0, 0], [0, 0]]},
            ],
            "box": [[-1, 1], [-1, 1]],
        }
        bad = tmp_path / "mismatch.json"
        bad.write_text(json.dumps(doc))
        code = main(["spectrum", "--input", str(bad), "--out", str(tmp_path)])
        assert code == 2


class TestCertifyCommand:
    def test_cone_certified_exit_0(self, cone_file, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["certify", "--input", str(cone_file), "--out", str(out), "--seed", "1"]
        )
        assert code == 0
        doc = json.loads((out / "certificate.json").read_text())
        assert doc["verdict"] == "exactly-controllable-SU(2)"

    def test_diag_counterexample_exit_1(self, diag_file, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["certify", "--input", str(diag_file), "--out", str(out), "--seed", "1",
             "--budget", "4", "--resonance-budget", "40"]
        )
        assert code == 1
        doc = json.loads((out / "certificate.json").read_text())
        assert doc["verdict"] == "not-certified"
        assert doc["closure"]["dimension"] == 2

    def test_seed_required(self, cone_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["certify", "--input", str(cone_file), "--out", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_ragged_matrix_row_exit_2(self, cone_file, tmp_path, capsys):
        doc = json.loads(cone_file.read_text())
        doc["drift"]["re"][1] = [0.0]
        bad = tmp_path / "ragged.json"
        bad.write_text(json.dumps(doc))
        code = main(["certify", "--input", str(bad), "--out", str(tmp_path), "--seed", "1"])
        assert code == 2
        assert "rectangular" in capsys.readouterr().err

    def test_infinite_box_bound_exit_2(self, cone_file, tmp_path, capsys):
        doc = json.loads(cone_file.read_text())
        doc["box"][0][1] = float("inf")
        bad = tmp_path / "infinite.json"
        bad.write_text(json.dumps(doc))
        assert "Infinity" in bad.read_text()
        code = main(["certify", "--input", str(bad), "--out", str(tmp_path), "--seed", "1"])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "certificate.json").exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("certify", "--tol-deg", "nan"),
            ("certify", "--tol-deg", "inf"),
            ("certify", "--tol-deg", "-1"),
            ("certify", "--tol-deg", "0"),
            ("certify", "--tol-res", "nan"),
            ("certify", "--tol-res", "abc"),
            ("find-intersections", "--tol-deg", "nan"),
        ],
    )
    def test_non_finite_or_non_positive_tolerance_exit_2(
        self, cone_file, tmp_path, capsys, command, flag, value
    ):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--input", str(cone_file), "--out", str(out), "--seed", "1",
                  flag, value])
        assert excinfo.value.code == 2
        assert "finite number > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("certify", "--budget", "0"),
            ("certify", "--budget", "-3"),
            ("certify", "--budget", "2.5"),
            ("certify", "--resonance-budget", "0"),
            ("certify", "--resonance-budget", "-1"),
            ("find-intersections", "--budget", "0"),
            ("synthesize", "--budget", "0"),
            ("synthesize", "--budget", "-1"),
            ("spectrum", "--grid", "0"),
        ],
    )
    def test_integer_flag_below_one_exit_2(
        self, cone_file, tmp_path, capsys, command, flag, value
    ):
        out = tmp_path / "out"
        argv = [command, "--input", str(cone_file), "--out", str(out), flag, value]
        if command != "spectrum":
            argv += ["--seed", "1"]
        if command == "synthesize":
            argv += ["--level", "1", "--rho", "0.1", "--epsilon", "0.01"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "integer >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_output(self, cone_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["certify", "--input", str(cone_file), "--out", str(out), "--seed", "3"])
            outs.append((out / "certificate.json").read_bytes())
        assert outs[0] == outs[1]


class TestFindIntersectionsCommand:
    def test_cone_found(self, cone_file, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["find-intersections", "--input", str(cone_file), "--out", str(out), "--seed", "2"]
        )
        assert code == 0
        doc = json.loads((out / "connectedness.json").read_text())
        assert doc["status"] == "certified"
        assert np.linalg.norm(doc["certificates"]["1"]["u_star"]) < 1e-6

    def test_diag_incomplete_exit_1(self, diag_file, tmp_path):
        code = main(
            ["find-intersections", "--input", str(diag_file), "--out", str(tmp_path),
             "--seed", "2", "--budget", "4"]
        )
        assert code == 1


class TestSynthesizeSimulate:
    def test_synthesize_then_simulate(self, cone_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["synthesize", "--input", str(cone_file), "--out", str(out), "--seed", "2",
             "--level", "1", "--rho", "0.5", "--epsilon", "0.01"]
        )
        assert code == 0
        path_doc = json.loads((out / "path.json").read_text())
        assert len(path_doc["waypoints"]) == 3
        code = main(
            ["simulate", "--input", str(cone_file), "--path", str(out / "path.json"),
             "--out", str(out), "--init-level", "1"]
        )
        assert code == 0
        rows = read_csv(out / "trajectory.csv")
        # the state follows its analytic branch through the cone ...
        assert float(rows[-1]["pop_1"]) >= 0.9
        # ... and that branch ends at sorted level 2: the passage transferred
        sorted_pops = capsys.readouterr().out.splitlines()[-1].split(":")[1].split()
        assert float(sorted_pops[1]) >= 0.9

    def test_synthesize_not_found_exit_1(self, diag_file, tmp_path):
        code = main(
            ["synthesize", "--input", str(diag_file), "--out", str(tmp_path), "--seed", "2",
             "--level", "1", "--rho", "0.1", "--epsilon", "0.01", "--budget", "4"]
        )
        assert code == 1

    def test_simulate_constant_control_norm_defect(self, cone_file, tmp_path):
        path_doc = {"waypoints": [[0.3, 0.4]], "durations": [5.0], "epsilon": 1.0}
        path_file = tmp_path / "hold.json"
        path_file.write_text(json.dumps(path_doc))
        out = tmp_path / "out"
        code = main(
            ["simulate", "--input", str(cone_file), "--path", str(path_file), "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out / "trajectory.csv")
        assert all(float(r["norm_defect"]) <= 1e-9 for r in rows)


    @pytest.mark.parametrize(
        "document",
        [
            '{"waypoints": [[0.1, 0.2]], "durations": [Infinity], "epsilon": 1.0}',
            '{"waypoints": [[0.1, 0.2]], "durations": "abc", "epsilon": 1.0}',
            '{"waypoints": [[0.1, 0.2], [0.3]], "durations": [1.0], "epsilon": 1.0}',
            '{"waypoints": [[0.1, 0.2]], "durations": [1.0], "epsilon": "x"}',
            "[1, 2]",
            '{"waypoints": [[0.1, 0.2]], "durations": [1.0], "epsilon": NaN}',
            '{"waypoints": [[0.1, 0.2]],\n "durations": [1.0',
        ],
        ids=["infinite-duration", "string-durations", "ragged-waypoints", "string-epsilon",
             "top-level-list", "nan-epsilon", "broken-json"],
    )
    def test_simulate_malformed_path_exit_2(self, cone_file, tmp_path, capsys, document):
        path_file = tmp_path / "path.json"
        path_file.write_text(document)
        out = tmp_path / "out"
        code = main(
            ["simulate", "--input", str(cone_file), "--path", str(path_file), "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (out / "trajectory.csv").exists()


class TestEnsembleCommand:
    def test_small_run(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["ensemble", "--out", str(out), "--seed", "7", "--n", "3", "--m", "2",
             "--trials", "2"]
        )
        assert code == 0
        doc = json.loads((out / "ensemble_summary.json").read_text())
        assert "conical_fraction" in doc
        assert (out / "ensemble_trials.csv").exists()

    @pytest.mark.parametrize("n", ["0", "-2", "1"])
    def test_dimension_below_two_exit_2(self, tmp_path, capsys, n):
        # a usage error raised by ensemble_genericity, returned by main, not by argparse
        out = tmp_path / "out"
        code = main(
            ["ensemble", "--out", str(out), "--seed", "7", "--n", n, "--m", "2", "--trials", "2"]
        )
        assert code == 2
        assert f"n must be at least 2, got {n}" in capsys.readouterr().err
        assert not (out / "ensemble_summary.json").exists()


class TestConsoleEntry:
    def test_module_invocation(self, cone_file, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "speccert.cli", "spectrum", "--input", str(cone_file),
             "--out", str(tmp_path), "--grid", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "9 rows" in proc.stdout
