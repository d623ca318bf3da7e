import argparse
import csv
import inspect
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from speccert import (
    ConnectednessReport,
    StateTrajectory,
    decompose,
    decompose_many,
    load_hamiltonian,
    load_path,
    propagate,
)
from speccert import cli
from speccert.cli import build_parser, main
from branch_reference import reference_records
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


class TestParser:
    def test_every_declared_option_is_read(self):
        # read as args.<dest> by the subcommand's handler or by a helper it passes args to,
        # so no flag is accepted and then ignored
        (commands,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        for name, sub in commands.choices.items():
            source = inspect.getsource(sub.get_default("func"))
            helpers = re.findall(r"(\w+)\(args\)", source)
            source += "".join(inspect.getsource(getattr(cli, h)) for h in helpers)
            read = set(re.findall(r"\bargs\.(\w+)", source))
            declared = {a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)}
            assert declared <= read, f"{name} ignores {sorted(declared - read)}"


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

    def test_csv_floats_read_back_bitwise(self, tmp_path):
        H = make_family(
            np.diag([0.0, 0.3, 1.1]), [np.diag([1.0, -0.2, 0.0]), np.ones((3, 3))], [[-1, 1], [-2, 1]]
        )
        source = tmp_path / "family.json"
        H.save(source)
        out = tmp_path / "out"
        assert main(["spectrum", "--input", str(source), "--out", str(out), "--grid", "7"]) == 0
        with open(out / "spectrum.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        grid = np.array([[float(cell) for cell in row[1:3]] for row in rows])
        assert [int(row[0]) for row in rows] == list(range(49))
        assert sorted(set(grid[:, 0])) == np.linspace(-1, 1, 7).tolist()
        assert sorted(set(grid[:, 1])) == np.linspace(-2, 1, 7).tolist()
        lam = [[float(cell) for cell in row[3:]] for row in rows]
        assert lam == [sp.eigenvalues.tolist() for sp in decompose_many(H, grid)]

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


class TestFileErrors:
    """A file the command cannot read or write is an input error: exit 2, the file named."""

    def _assert_input_error(self, argv, name, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        assert "Traceback" not in err

    def test_input_directory(self, tmp_path, capsys):
        folder = tmp_path / "family_dir"
        folder.mkdir()
        argv = ["certify", "--input", str(folder), "--seed", "0", "--out", str(tmp_path / "out")]
        self._assert_input_error(argv, "family_dir", capsys)

    def test_path_directory(self, cone_file, tmp_path, capsys):
        folder = tmp_path / "path_dir"
        folder.mkdir()
        argv = ["simulate", "--input", str(cone_file), "--path", str(folder),
                "--out", str(tmp_path / "out")]
        self._assert_input_error(argv, "path_dir", capsys)

    def test_out_is_a_file(self, cone_file, tmp_path, capsys):
        taken = tmp_path / "taken.txt"
        taken.write_text("")
        argv = ["spectrum", "--input", str(cone_file), "--out", str(taken), "--grid", "2"]
        self._assert_input_error(argv, "taken.txt", capsys)


class TestCertifyCommand:
    def test_cone_certified_exit_0(self, cone_file, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["certify", "--input", str(cone_file), "--out", str(out), "--seed", "1"]
        )
        assert code == 0
        doc = json.loads((out / "certificate.json").read_text())
        assert doc["verdict"] == "exactly-controllable-SU(2)"

    def test_certificate_file_is_strict_json(self, cone_file, tmp_path):
        # at n = 2 the gap separation is inf; the file carries null, not Infinity
        out = tmp_path / "out"
        assert main(["certify", "--input", str(cone_file), "--out", str(out), "--seed", "1"]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        doc = json.loads((out / "certificate.json").read_text(), parse_constant=reject)
        assert doc["resonance"]["report"]["min_gap_separation"] is None

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

    def test_bool_matrix_entry_exit_2(self, cone_file, tmp_path, capsys):
        # a true among the numbers was read as 1.0 and certified with exit 0
        doc = json.loads(cone_file.read_text())
        doc["drift"]["re"][0][0] = True
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps(doc))
        assert "[true, " in bad.read_text()
        code = main(["certify", "--input", str(bad), "--out", str(tmp_path), "--seed", "1"])
        assert code == 2
        assert "got a bool" in capsys.readouterr().err
        assert not (tmp_path / "certificate.json").exists()

    def test_non_integer_dim_exit_2(self, cone_file, tmp_path, capsys):
        doc = json.loads(cone_file.read_text())
        doc["dim"] = 2.9
        bad = tmp_path / "fractional_dim.json"
        bad.write_text(json.dumps(doc))
        code = main(["certify", "--input", str(bad), "--out", str(tmp_path), "--seed", "1"])
        assert code == 2
        assert "malformed Hamiltonian document" in capsys.readouterr().err
        assert not (tmp_path / "certificate.json").exists()

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
        assert "must be finite and positive" in capsys.readouterr().err
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

    def test_non_finite_report_exit_2_without_a_file(
        self, cone_file, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(ConnectednessReport, "to_json_dict", lambda self: {"c_hat": np.nan})
        out = tmp_path / "out"
        code = main(
            ["find-intersections", "--input", str(cone_file), "--out", str(out), "--seed", "2"]
        )
        assert code == 2
        assert "not strict JSON" in capsys.readouterr().err
        assert not (out / "connectedness.json").exists()

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

    def test_synthesize_quadratic_contact_exit_1(self, quadratic_contact_family, tmp_path, capsys):
        source = tmp_path / "quadratic.json"
        quadratic_contact_family.save(source)
        code = main(
            ["synthesize", "--input", str(source), "--out", str(tmp_path), "--seed", "2",
             "--level", "1", "--rho", "0.5", "--epsilon", "0.01"]
        )
        assert code == 1
        assert "is not conical" in capsys.readouterr().out
        assert not (tmp_path / "path.json").exists()

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

    def test_simulate_output_is_that_of_the_eager_records(self, cone_file, tmp_path, capsys):
        # the trajectory decomposes its records on first read; what simulate
        # writes is what it wrote when propagate decomposed them eagerly
        path_doc = {
            "waypoints": [[0.4, 0.3], [0.0, 0.05], [-0.4, -0.3]],
            "durations": [50.0, 50.0],
            "epsilon": 0.01,
        }
        path_file = tmp_path / "passage.json"
        path_file.write_text(json.dumps(path_doc))
        out = tmp_path / "out"
        code = main(
            ["simulate", "--input", str(cone_file), "--path", str(path_file), "--out", str(out)]
        )
        assert code == 0
        H, path = load_hamiltonian(cone_file), load_path(path_file)
        traj = propagate(H, path, decompose(H, path.waypoints[0]).frame[:, 0])
        populations, labels = reference_records(H, traj)
        eager = StateTrajectory(
            times=traj.times,
            controls=traj.controls,
            states=traj.states,
            populations=populations,
            labels=labels,
            norm_defect=traj.norm_defect,
        )
        eager.save_csv(tmp_path / "eager.csv")
        assert (out / "trajectory.csv").read_bytes() == (tmp_path / "eager.csv").read_bytes()
        final = " ".join(f"{eager.final_population_sorted(j):.6f}" for j in (1, 2))
        assert capsys.readouterr().out.splitlines()[-1] == f"final populations by sorted level: {final}"

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
            '{"waypoints": [[0.1, 0.2]], "durations": [1.0], "epsilon": -1}',
        ],
        ids=["infinite-duration", "string-durations", "ragged-waypoints", "string-epsilon",
             "top-level-list", "nan-epsilon", "broken-json", "negative-epsilon"],
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
        # refused while parsing, by the check ensemble_genericity applies to n
        out = tmp_path / "out"
        argv = ["ensemble", "--out", str(out), "--seed", "7", "--n", n, "--m", "2", "--trials", "2"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"argument --n: value must be an integer >= 2, got {n}" in capsys.readouterr().err
        assert not (out / "ensemble_summary.json").exists()


class TestNumericFlags:
    PASSAGE = ["--level", "1", "--rho", "0.1", "--epsilon", "0.01"]
    ENSEMBLE = ["--n", "3", "--m", "2", "--trials", "2"]

    @pytest.mark.parametrize(
        "command, flags, refusal",
        [
            ("certify", ["--seed", "-1"], "an integer >= 0, got -1"),
            ("find-intersections", ["--seed", "-1"], "an integer >= 0, got -1"),
            ("synthesize", [*PASSAGE, "--seed", "-1"], "an integer >= 0, got -1"),
            ("ensemble", [*ENSEMBLE, "--seed", "-1"], "an integer >= 0, got -1"),
            ("certify", ["--seed", "1.5"], "an integer >= 0, got 1.5"),
            ("certify", ["--seed", "1", "--budget", "2.5"], "an integer >= 1, got 2.5"),
            ("certify", ["--seed", "1", "--tol-deg", "abc"], "finite and positive, got abc"),
            ("synthesize", ["--seed", "1", *PASSAGE, "--level", "0"], "an integer >= 1, got 0"),
            ("ensemble", ["--seed", "1", *ENSEMBLE, "--m", "4"], "an integer in 2..3, got 4"),
            ("ensemble", ["--seed", "1", *ENSEMBLE, "--trials", "2.5"], "an integer >= 1, got 2.5"),
            ("ensemble", ["--seed", "1", *ENSEMBLE, "--n", "x"], "an integer >= 2, got x"),
        ],
    )
    def test_malformed_number_exit_2(self, cone_file, tmp_path, capsys, command, flags, refusal):
        # the last flag is refused; a seed of -1 escaped certify, synthesize and
        # ensemble as numpy's ValueError
        out = tmp_path / "out"
        inputs = [] if command == "ensemble" else ["--input", str(cone_file)]
        with pytest.raises(SystemExit) as excinfo:
            main([command, *inputs, "--out", str(out), *flags])
        assert excinfo.value.code == 2
        assert f"argument {flags[-2]}: value must be {refusal}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("level, code", [("2", 0), ("3", 2)])
    def test_init_level_is_checked_against_the_family(
        self, cone_file, tmp_path, capsys, level, code
    ):
        path_file = tmp_path / "hold.json"
        path_file.write_text('{"waypoints": [[0.3, 0.4]], "durations": [1.0], "epsilon": 1.0}')
        out = tmp_path / "out"
        argv = ["simulate", "--input", str(cone_file), "--path", str(path_file), "--out", str(out)]
        assert main([*argv, "--init-level", level]) == code
        if code:
            assert "--init-level must be an integer in 1..2, got 3" in capsys.readouterr().err
            assert not (out / "trajectory.csv").exists()


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
