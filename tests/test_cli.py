import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

from nevpick.cli import main
from nevpick.problem import problem_from_json_dict, problem_to_json_dict


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def reference_problem_file(tmp_path, reference_problem):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem_to_json_dict(reference_problem)))
    return path


def degree2_config(order=2, **extra):
    cfg = {
        "sigma_roots": [
            {"re": 0.31 * np.cos(0.98), "im": 0.31 * np.sin(0.98)},
            {"re": 0.31 * np.cos(0.98), "im": -0.31 * np.sin(0.98)},
        ],
        "a_roots": [
            {"re": 0.76 * np.cos(1.45), "im": 0.76 * np.sin(1.45)},
            {"re": 0.76 * np.cos(1.45), "im": -0.76 * np.sin(1.45)},
        ],
        "order": order,
    }
    cfg.update(extra)
    return cfg


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config:")
    rows = list(csv.reader(lines[1:]))
    return json.loads(lines[0][len("# config:"):]), rows[0], rows[1:]


class TestSolveCommand:
    def test_reference_instance(self, runner, tmp_path, reference_problem_file):
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["solve", "--input", str(reference_problem_file), "--output", str(out)]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "solution.json").read_text())
        assert payload["residuals"]["max_interpolation"] < 1e-10
        assert payload["config"]["command"] == "solve"
        assert len(payload["a_coeffs"]) == 8

        _, header, rows = read_csv(out / "trajectory.csv")
        assert header[0] == "nu" and header[-1] == "corrector_iters"
        assert len(rows) == payload["trajectory_states"]
        # every cell parses as a plain number
        for row in rows:
            assert len(row) == len(header)
            [float(x) for x in row]
        first = rows[0]
        assert float(first[0]) == 0.0
        assert all(float(x) == 0.0 for x in first[1:8])
        assert float(rows[-1][0]) == 1.0
        # pole columns stay strictly inside the unit disk along the path
        for row in rows:
            for i in range(7):
                re, im = float(row[8 + 2 * i]), float(row[9 + 2 * i])
                assert re * re + im * im < 1.0

    def test_invalid_node_exits_2(self, runner, tmp_path):
        bad = {
            "nodes": ["inf", {"re": 0.5, "im": 0.0}],
            "values": [{"re": 0.5, "im": 0.0}, {"re": 0.7, "im": 0.0}],
            "sigma_coeffs": [1.0, 0.0],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        result = runner.invoke(
            main, ["solve", "--input", str(path), "--output", str(tmp_path / "o")]
        )
        assert result.exit_code == 2
        assert "node-domain" in result.output

    def test_unparseable_input_exits_2(self, runner, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        result = runner.invoke(
            main, ["solve", "--input", str(path), "--output", str(tmp_path / "o")]
        )
        assert result.exit_code == 2

    def test_path_failure_exits_3(self, runner, tmp_path, reference_problem_file):
        result = runner.invoke(
            main,
            ["solve", "--input", str(reference_problem_file),
             "--output", str(tmp_path / "o"), "--step-init", "1e-9"],
        )
        assert result.exit_code == 3


class TestSimulateCommand:
    def test_emitted_problem_validates(self, runner, tmp_path):
        cfg_path = tmp_path / "system.json"
        cfg_path.write_text(json.dumps(degree2_config()))
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["simulate", "--input", str(cfg_path), "--output", str(out),
             "--samples", "20000", "--seed", "11"],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "problem.json").read_text())
        assert payload["violations"] == []
        problem = problem_from_json_dict(payload)
        from nevpick.problem import validate

        assert validate(problem) == []
        _, header, rows = read_csv(out / "series.csv")
        assert header == ["t", "y"]
        assert len(rows) == 20000

    def test_byte_identical_reruns(self, runner, tmp_path):
        cfg_path = tmp_path / "system.json"
        cfg_path.write_text(json.dumps(degree2_config()))
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = runner.invoke(
                main,
                ["simulate", "--input", str(cfg_path), "--output", str(out),
                 "--samples", "3000", "--seed", "7"],
            )
            assert result.exit_code == 0
            outputs.append(
                ((out / "problem.json").read_bytes(), (out / "series.csv").read_bytes())
            )
        # config embeds the output path, which differs; compare series bytes
        # and the problem payload minus config
        p0 = json.loads(outputs[0][0])
        p1 = json.loads(outputs[1][0])
        p0.pop("config"), p1.pop("config")
        assert p0 == p1
        s0 = outputs[0][1].decode().splitlines()[1:]
        s1 = outputs[1][1].decode().splitlines()[1:]
        assert s0 == s1

    def test_allpass_values_near_half(self, runner, tmp_path):
        cfg = degree2_config()
        cfg["a_roots"] = cfg["sigma_roots"]
        cfg_path = tmp_path / "system.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["simulate", "--input", str(cfg_path), "--output", str(out),
             "--samples", "100000", "--seed", "3"],
        )
        assert result.exit_code == 0
        payload = json.loads((out / "problem.json").read_text())
        for w in payload["values"]:
            assert abs(complex(w["re"], w["im"]) - 0.5) < 0.02

    def test_non_schur_filter_exits_2(self, runner, tmp_path):
        cfg = degree2_config()
        cfg["a_coeffs"] = [1.0, -1.5, 0.0]
        del cfg["a_roots"]
        cfg_path = tmp_path / "system.json"
        cfg_path.write_text(json.dumps(cfg))
        result = runner.invoke(
            main, ["simulate", "--input", str(cfg_path), "--output", str(tmp_path / "o")]
        )
        assert result.exit_code == 2


class TestDetectDegreeCommand:
    def test_exact_variant_degree2(self, runner, tmp_path):
        cfg_path = tmp_path / "system.json"
        cfg_path.write_text(json.dumps(degree2_config(order=3)))
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["detect-degree", "--input", str(cfg_path), "--output", str(out),
             "--variant", "exact"],
        )
        assert result.exit_code == 0, result.output
        assert "estimated positive degree: 2" in result.output
        payload = json.loads((out / "degree_report.json").read_text())
        assert payload["estimated_degree"] == 2
        s = payload["singular_values"]
        assert s[2] < 1e-6 * s[0]

    def test_exact_variant_order2_no_tail(self, runner, tmp_path):
        cfg_path = tmp_path / "system.json"
        cfg_path.write_text(json.dumps(degree2_config(order=2)))
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["detect-degree", "--input", str(cfg_path), "--output", str(out),
             "--variant", "exact"],
        )
        assert result.exit_code == 0
        payload = json.loads((out / "degree_report.json").read_text())
        assert payload["estimated_degree"] == 2
        assert len(payload["singular_values"]) == 2

    def test_modified_zeros_near_cancellation(self, runner, tmp_path):
        extra = [
            {"re": 0.6 * np.cos(1.5), "im": 0.6 * np.sin(1.5)},
            {"re": 0.6 * np.cos(1.5), "im": -0.6 * np.sin(1.5)},
        ]
        cfg = degree2_config(order=4)
        cfg["sigma_hat_roots"] = extra + cfg["sigma_roots"]
        cfg_path = tmp_path / "system.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["detect-degree", "--input", str(cfg_path), "--output", str(out),
             "--variant", "exact"],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "degree_report.json").read_text())
        assert payload["estimated_degree"] == 2

    def test_monte_carlo_runs_csv(self, runner, tmp_path):
        cfg_path = tmp_path / "system.json"
        cfg_path.write_text(json.dumps(degree2_config(order=3)))
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["detect-degree", "--input", str(cfg_path), "--output", str(out),
             "--runs", "3", "--samples", "2000", "--seed", "5"],
        )
        assert result.exit_code == 0, result.output
        _, header, rows = read_csv(out / "runs.csv")
        assert header[:4] == ["run", "seed", "status", "error"]
        assert len(rows) == 3
        assert [int(r[1]) for r in rows] == [5 ^ 0, 5 ^ 1, 5 ^ 2]
        assert all(r[2] == "ok" for r in rows)

    def test_sigma_hat_of_wrong_degree_exits_2(self, runner, tmp_path):
        cfg = degree2_config(order=3)
        cfg["sigma_hat_roots"] = cfg["sigma_roots"]
        cfg_path = tmp_path / "system.json"
        cfg_path.write_text(json.dumps(cfg))
        for command in ("detect-degree", "simulate"):
            result = runner.invoke(
                main, [command, "--input", str(cfg_path), "--output", str(tmp_path / "o")]
            )
            assert result.exit_code == 2, (command, result.output)

    def test_missing_order_exits_2(self, runner, tmp_path):
        cfg = degree2_config()
        del cfg["order"]
        cfg_path = tmp_path / "system.json"
        cfg_path.write_text(json.dumps(cfg))
        result = runner.invoke(
            main, ["detect-degree", "--input", str(cfg_path),
                   "--output", str(tmp_path / "o")]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("failed,expected", [(0, 0), (2, 4), (4, 3)])
    def test_partial_failure_exit_codes(self, runner, tmp_path, monkeypatch,
                                        failed, expected):
        # the estimation pipeline essentially never fails on valid configs, so
        # the partial-failure contract is checked against a synthetic report
        from nevpick.analysis import DegreeReport, RunRecord

        runs = 6
        records = tuple(
            RunRecord(run=r, seed=r, singular_values=None, error="PathError: x")
            if r < failed
            else RunRecord(run=r, seed=r, singular_values=np.array([0.3, 0.2, 1e-7]))
            for r in range(runs)
        )
        report = DegreeReport(
            singular_values=np.array([0.3, 0.2, 1e-7]),
            estimated_degree=2,
            threshold=1e-2,
            per_run=records,
            runs_failed=failed,
        )
        monkeypatch.setattr("nevpick.cli.monte_carlo", lambda cfg: report)
        cfg_path = tmp_path / "system.json"
        cfg_path.write_text(json.dumps(degree2_config(order=3)))
        result = runner.invoke(
            main, ["detect-degree", "--input", str(cfg_path),
                   "--output", str(tmp_path / "o"), "--runs", str(runs)],
        )
        assert result.exit_code == expected, result.output
        _, _, rows = read_csv(tmp_path / "o" / "runs.csv")
        assert sum(1 for r in rows if r[2] == "failed") == failed


class TestReduceCommand:
    @pytest.fixture
    def degree6_file(self, tmp_path):
        zeros = [0.92 * np.exp(1.5j), 0.92 * np.exp(-1.5j),
                 0.49 * np.exp(1.4j), 0.49 * np.exp(-1.4j),
                 0.95 * np.exp(2.5j), 0.95 * np.exp(-2.5j)]
        poles = [0.8 * np.exp(2.1j), 0.8 * np.exp(-2.1j),
                 0.83 * np.exp(1.34j), 0.83 * np.exp(-1.34j),
                 0.76 * np.exp(0.8j), 0.76 * np.exp(-0.8j)]
        from nevpick.ingestion import default_bank_poles, exact_values, nodes_from_poles
        from nevpick.polyalg import MonicPolynomial
        from nevpick.problem import InterpolationProblem

        sigma = MonicPolynomial.from_roots(zeros)
        a = MonicPolynomial.from_roots(poles)
        bank = default_bank_poles(6)
        values = exact_values(sigma, a, bank)
        problem = InterpolationProblem(nodes_from_poles(bank), tuple(values), sigma)
        path = tmp_path / "p6.json"
        path.write_text(json.dumps(problem_to_json_dict(problem)))
        return path

    def test_reduce_6_to_4(self, runner, tmp_path, degree6_file):
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["reduce", "--input", str(degree6_file), "--output", str(out),
                   "--target-degree", "4"],
        )
        assert result.exit_code == 0, result.output
        reduced = json.loads((out / "reduced_problem.json").read_text())
        assert len(reduced["nodes"]) == 5
        _, header, rows = read_csv(out / "spectra.csv")
        assert header == ["theta", "phi_full", "phi_reduced"]
        assert len(rows) == 256
        phi_f = np.array([float(r[1]) for r in rows])
        phi_r = np.array([float(r[2]) for r in rows])
        assert np.all(phi_f > 0) and np.all(phi_r > 0)

    def test_reduce_same_degree_identical_spectra(self, runner, tmp_path, degree6_file):
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["reduce", "--input", str(degree6_file), "--output", str(out),
                   "--target-degree", "6"],
        )
        assert result.exit_code == 0, result.output
        _, _, rows = read_csv(out / "spectra.csv")
        for row in rows:
            assert abs(float(row[1]) - float(row[2])) < 1e-12

    def test_split_pair_exits_2(self, runner, tmp_path, degree6_file):
        result = runner.invoke(
            main, ["reduce", "--input", str(degree6_file),
                   "--output", str(tmp_path / "o"), "--target-degree", "3"],
        )
        assert result.exit_code == 2
        assert "conjugate pair" in result.output
