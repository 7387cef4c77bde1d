import ast
import csv
import dataclasses
import inspect
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import nevpick
from conftest import near_circle_problem
from nevpick.cli import main
from nevpick.ingestion import VARIANTS, FilterBankSpec, MonteCarloConfig, simulate_arma
from nevpick.polyalg import BURN_IN, DEFAULT_TAU_RANK, SAMPLES
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


# a sigma_hat with a root at 1.5, given or padded from sigma; the degree-2
# system of ``degree2_config`` is otherwise valid
NON_SCHUR_SIGMA_HAT = {
    "sigma-hat-not-schur": ({"sigma_hat_roots": [1.5, 0.31]}, []),
    "sigma-not-schur": ({"sigma_roots": [1.5, 0.31]}, []),
}


def forbid_runs(monkeypatch):
    """Make simulating a series or taking the true values fail the test."""
    def run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr("nevpick.ingestion.simulate_arma", run)
    monkeypatch.setattr("nevpick.ingestion.exact_values", run)


# roots of a degree-1 system, on which order 1 (what ``int(True)`` gives) is valid
DEGREE1_ROOTS = {"sigma_roots": [{"re": 0.31, "im": 0.0}], "a_roots": [{"re": 0.76, "im": 0.0}]}


# valid JSON of the wrong shape, on a degree-1 problem; the boolean and string
# cases are valid problems if a boolean is read as 0 or 1 and a string as a number
DEGREE1_PROBLEM = {"nodes": ["inf", {"re": 2.0, "im": 0.0}], "values": [0.5, 1.0],
                   "sigma_coeffs": [1.0, 0.0]}
MALFORMED_PROBLEMS = {
    "node-re-null": {**DEGREE1_PROBLEM, "nodes": ["inf", {"re": None}]},
    "root-im-null": {"nodes": DEGREE1_PROBLEM["nodes"], "values": DEGREE1_PROBLEM["values"],
                     "sigma_roots": [{"re": 0.3, "im": None}]},
    "top-level-array": [1, 2, 3],
    "nodes-number": {**DEGREE1_PROBLEM, "nodes": 5},
    "value-bool": {**DEGREE1_PROBLEM, "values": [0.5, True]},
    "coeff-bool": {**DEGREE1_PROBLEM, "sigma_coeffs": [True, 0.3]},
    "string-number": {**DEGREE1_PROBLEM, "nodes": ["inf", {"re": "2.0", "im": 0.0}]},
    "integer-beyond-float": {**DEGREE1_PROBLEM, "nodes": ["inf", {"re": 10**400, "im": 0.0}]},
}

# system keys of the wrong shape (merged into a degree-2 system of order 2)
MALFORMED_SYSTEMS = {
    "bank-poles-number": {"bank_poles": 3},
    "bank-pole-re-null": {"bank_poles": [0.0, {"re": None}, 0.5]},
    "sigma-roots-number": {"sigma_roots": 5},
    "sigma-coeff-bool": {"sigma_coeffs": [True, -0.3, 0.1]},
}


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

    @pytest.mark.parametrize("r, code", [(1 + 1e-8, 0), (1 + 1e-10, 0), (1 + 1e-12, 0),
                                         (1 + 1e-14, 2)])
    def test_nodes_next_to_the_circle(self, runner, tmp_path, r, code):
        # the Pick test judges the Hermitian part of pick_matrix's rounding;
        # at 1 + 1e-14 that matrix is not positive definite in floats
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem_to_json_dict(near_circle_problem(r))))
        result = runner.invoke(main, ["solve", "--input", str(path), "--output", str(tmp_path / "o")])
        assert result.exit_code == code, result.output
        assert ("pick-not-pd" in result.stderr) == (code == 2)

    @pytest.mark.parametrize("imag, code", [(1e-8, 2), (1e-10, 0)])
    def test_value_at_infinity_is_judged_once(self, runner, tmp_path, reference_problem,
                                              imag, code):
        data = problem_to_json_dict(reference_problem)
        data["values"][0] = {"re": 0.5, "im": imag}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(data))
        result = runner.invoke(main, ["solve", "--input", str(path), "--output", str(tmp_path / "o")])
        assert result.exit_code == code, result.output
        if code == 2:
            violations = [line for line in result.stderr.splitlines() if line.startswith("  ")]
            assert violations == [
                "  [conjugate-closure] (index 0) value 0 must be real: node 0 is its own conjugate"]

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

    def test_zero_node_exits_2(self, runner, tmp_path):
        bad = {
            "nodes": ["inf", {"re": 0, "im": 0}],
            "values": [{"re": 0.5, "im": 0.0}, {"re": 0.7, "im": 0.0}],
            "sigma_coeffs": [1.0, 0.0],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        result = runner.invoke(
            main, ["solve", "--input", str(path), "--output", str(tmp_path / "o")]
        )
        assert result.exit_code == 2, result.output
        assert "[node-domain] (index 1)" in result.output
        assert "Traceback" not in result.output and "Warning" not in result.output

    @pytest.mark.parametrize("nodes, values, code", [
        # a value, and a node pair, whose modulus lies beyond the float range
        ([{"re": 2.0, "im": 1.0}, {"re": 2.0, "im": -1.0}],
         [{"re": 1.5e308, "im": 1.5e308}, {"re": 0.6, "im": 0.1}], "[conjugate-closure] (index 2)"),
        ([{"re": 1.5e308, "im": 1.5e308}, {"re": 1.5e308, "im": -1.5e308}],
         [{"re": 0.6, "im": 0.1}, {"re": 0.6, "im": -0.1}], "[node-distinct] (index 1)"),
    ])
    def test_overflowing_modulus_exits_2(self, runner, tmp_path, nodes, values, code):
        bad = {
            "nodes": ["inf", *nodes],
            "values": [{"re": 0.5, "im": 0.0}, *values],
            "sigma_coeffs": [1.0, 0.0, 0.0],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        result = runner.invoke(
            main, ["solve", "--input", str(path), "--output", str(tmp_path / "o")]
        )
        assert result.exit_code == 2, result.output
        assert code in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("where, literal, message", [
        (("sigma_coeffs", 2), "nan", "coefficients must be finite"),
        (("values", 5, "re"), "inf", "[not-finite] (index 5)"),
        (("nodes", 3, "re"), "nan", "[not-finite] (index 3)"),
    ], ids=["nan-sigma", "inf-value", "nan-node"])
    def test_non_finite_input_exits_2(self, runner, tmp_path, reference_problem,
                                      where, literal, message):
        # json reads the NaN and Infinity literals that json.dumps writes
        data = problem_to_json_dict(reference_problem)
        *path, last = where
        target = data
        for key in path:
            target = target[key]
        target[last] = float(literal)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        result = runner.invoke(
            main, ["solve", "--input", str(bad), "--output", str(tmp_path / "o")]
        )
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert "conjugate" not in result.output

    @pytest.mark.parametrize("command", ["solve", "reduce"])
    @pytest.mark.parametrize("case", list(MALFORMED_PROBLEMS))
    def test_malformed_problem_exits_2(self, runner, tmp_path, command, case):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(MALFORMED_PROBLEMS[case]))
        flags = ["--target-degree", "1"] if command == "reduce" else []
        result = runner.invoke(
            main, [command, "--input", str(path), "--output", str(tmp_path / "o"), *flags]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
        assert "Traceback" not in result.output

    def test_unparseable_input_exits_2(self, runner, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        result = runner.invoke(
            main, ["solve", "--input", str(path), "--output", str(tmp_path / "o")]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"1" * 5000],
                             ids=["not-utf8", "5000-digits"])
    def test_undecodable_input_exits_2(self, runner, tmp_path, content):
        # errors json raises as ValueError, not JSONDecodeError
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        result = runner.invoke(
            main, ["solve", "--input", str(path), "--output", str(tmp_path / "o")]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: cannot read")

    def test_path_failure_exits_3(self, runner, tmp_path, reference_problem_file, monkeypatch):
        from nevpick import continuation

        # a first step below STEP_MIN = 1e-8 underflows at once, in every attempt
        monkeypatch.setattr(continuation, "ATTEMPTS",
                            tuple(a._replace(first_step=1e-9) for a in continuation.ATTEMPTS))
        result = runner.invoke(
            main, ["solve", "--input", str(reference_problem_file), "--output", str(tmp_path / "o")]
        )
        assert result.exit_code == 3

    def test_cee_certificate_failure_exits_3(self, runner, tmp_path, reference_problem_file,
                                             monkeypatch):
        from nevpick import cee_core

        # the CEE residual read at P + 1e-6 I exceeds TOL_CEE = 1e-8
        residual = cee_core.cee_residual
        monkeypatch.setattr(cee_core, "cee_residual",
                            lambda P, Gamma, g: residual(P + 1e-6 * np.eye(P.shape[0]), Gamma, g))
        result = runner.invoke(
            main, ["solve", "--input", str(reference_problem_file), "--output", str(tmp_path / "o")]
        )
        assert result.exit_code == 3
        assert "CEE residual" in result.output


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

    @pytest.mark.parametrize("order", [4.7, "4", True])
    def test_non_integer_order_exits_2(self, runner, tmp_path, order):
        cfg_path = tmp_path / "system.json"
        cfg_path.write_text(json.dumps(degree2_config(order=order, **DEGREE1_ROOTS)))
        result = runner.invoke(
            main, ["simulate", "--input", str(cfg_path), "--output", str(tmp_path / "o")]
        )
        assert result.exit_code == 2, result.output
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("case", list(NON_SCHUR_SIGMA_HAT))
    def test_non_schur_sigma_hat_exits_2_before_any_run(self, runner, tmp_path, monkeypatch,
                                                        case):
        # it exited 0 and wrote a problem.json that no solve accepts
        forbid_runs(monkeypatch)
        extra, _ = NON_SCHUR_SIGMA_HAT[case]
        cfg_path = tmp_path / "system.json"
        cfg_path.write_text(json.dumps(degree2_config(**extra)))
        result = runner.invoke(
            main, ["simulate", "--input", str(cfg_path), "--output", str(tmp_path / "o")]
        )
        assert result.exit_code == 2, result.output
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
        assert "sigma_hat" in lines[0]
        assert not (tmp_path / "o").exists()

    def test_negative_seed_exits_2(self, runner, tmp_path):
        # it used to exit 1 with numpy's traceback
        cfg_path = tmp_path / "system.json"
        cfg_path.write_text(json.dumps(degree2_config()))
        result = runner.invoke(
            main, ["simulate", "--input", str(cfg_path), "--output", str(tmp_path / "o"),
                   "--seed", "-1"]
        )
        assert result.exit_code == 2, result.output
        lines = result.stderr.splitlines()
        assert lines == [f"error: {cfg_path}: seed must be a nonnegative integer, got -1"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("case", list(MALFORMED_SYSTEMS))
    def test_malformed_system_exits_2(self, runner, tmp_path, case):
        cfg_path = tmp_path / "system.json"
        cfg_path.write_text(json.dumps(degree2_config(**MALFORMED_SYSTEMS[case])))
        result = runner.invoke(
            main, ["simulate", "--input", str(cfg_path), "--output", str(tmp_path / "o")]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
        assert not (tmp_path / "o").exists()

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

    def test_nan_bank_pole_exits_2(self, runner, tmp_path):
        # a NaN pole is not inside the unit disk, so no problem is written
        cfg = degree2_config(bank_poles=[0.0, {"re": float("nan"), "im": 0.0}, 0.5])
        cfg_path = tmp_path / "system.json"
        cfg_path.write_text(json.dumps(cfg))
        result = runner.invoke(
            main, ["simulate", "--input", str(cfg_path), "--output", str(tmp_path / "o")]
        )
        assert result.exit_code == 2, result.output
        assert "|p| < 1" in result.stderr
        assert not (tmp_path / "o").exists()


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
        children = np.random.SeedSequence(5).spawn(3)
        assert [int(r[1]) for r in rows] == [int(c.generate_state(1)[0]) for c in children]
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

    INVALID_SYSTEMS = {
        "pole-outside-disk": ({"bank_poles": [0.0, 1.5, 0.5]}, []),
        "nan-pole": ({"bank_poles": [0.0, {"re": float("nan"), "im": 0.0}, 0.5]}, []),
        "a-of-other-degree": ({"a_coeffs": [1.0, 0.0, 0.0, 0.0]}, []),
        "a-not-schur": ({"a_coeffs": [1.0, -1.5, 0.0]}, []),
        **NON_SCHUR_SIGMA_HAT,
        "samples-0": ({}, ["--samples", "0"]),
        "burn-in-negative": ({}, ["--burn-in", "-1"]),
        "seed-negative": ({}, ["--seed", "-1"]),
        "tau-rank-negative": ({}, ["--tau-rank", "-1"]),
        "tau-rank-0": ({}, ["--tau-rank", "0"]),
        "tau-rank-above-1": ({}, ["--tau-rank", "1.5"]),
        "tau-rank-inf": ({}, ["--tau-rank", "inf"]),
        "tau-rank-nan": ({}, ["--tau-rank", "nan"]),
        "order-fractional": ({"order": 4.7}, []),
        "order-string": ({"order": "4"}, []),
        "order-bool": ({"order": True, **DEGREE1_ROOTS}, []),
        **{case: (extra, []) for case, extra in MALFORMED_SYSTEMS.items()},
    }

    @pytest.mark.parametrize("variant", ["monte-carlo", "exact"])
    @pytest.mark.parametrize("case", list(INVALID_SYSTEMS))
    def test_invalid_system_exits_2(self, runner, tmp_path, monkeypatch, case, variant):
        # the whole system is checked before the first run: one error line, no
        # traceback, and no run's data is made
        forbid_runs(monkeypatch)
        extra, flags = self.INVALID_SYSTEMS[case]
        cfg = degree2_config(**extra)
        if "a_coeffs" in extra:
            del cfg["a_roots"]
        cfg_path = tmp_path / "system.json"
        cfg_path.write_text(json.dumps(cfg))
        result = runner.invoke(
            main, ["detect-degree", "--input", str(cfg_path), "--output", str(tmp_path / "o"),
                   "--variant", variant, *flags]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
        if case in NON_SCHUR_SIGMA_HAT:     # these exited 3 after every run had failed
            assert "sigma_hat" in lines[0]
        assert not (tmp_path / "o").exists()

    def test_tau_rank_one_counts_the_top_singular_value(self, runner, tmp_path):
        # the closed end of (0, 1]: only values equal to the largest count
        cfg_path = tmp_path / "system.json"
        cfg_path.write_text(json.dumps(degree2_config(order=3)))
        result = runner.invoke(
            main, ["detect-degree", "--input", str(cfg_path), "--output", str(tmp_path / "o"),
                   "--variant", "exact", "--tau-rank", "1"]
        )
        assert result.exit_code == 0, result.output
        assert "estimated positive degree: 1" in result.output

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

    def test_reference_to_two(self, runner, tmp_path, reference_problem_file):
        # the spectral zeros -0.99 and +-0.99j tie in modulus; the pair is kept
        result = runner.invoke(
            main, ["reduce", "--input", str(reference_problem_file),
                   "--output", str(tmp_path / "o"), "--target-degree", "2"],
        )
        assert result.exit_code == 0, result.output
        reduced = json.loads((tmp_path / "o" / "reduced_problem.json").read_text())
        assert len(reduced["nodes"]) == 3

    def test_typed_solve_error_exits_3(self, runner, tmp_path, reference_problem_file,
                                       monkeypatch):
        # a LinAlgError is also a ValueError; from the reduced solve it still exits 3
        def failing(problem):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr("nevpick.analysis.solve", failing)
        result = runner.invoke(
            main, ["reduce", "--input", str(reference_problem_file),
                   "--output", str(tmp_path / "o"), "--target-degree", "2"],
        )
        assert result.exit_code == 3, result.output
        assert result.stderr == "error: injected\n"

    def test_split_pair_exits_2(self, runner, tmp_path, degree6_file):
        result = runner.invoke(
            main, ["reduce", "--input", str(degree6_file),
                   "--output", str(tmp_path / "o"), "--target-degree", "3"],
        )
        assert result.exit_code == 2
        assert "conjugate pair" in result.output


class TestDefaults:
    """Each CLI default is the library default it feeds, written in one place."""

    @staticmethod
    def options(command):
        return {param.name: param for param in main.commands[command].params}

    def test_monte_carlo_options_equal_the_config_defaults(self):
        config = {f.name: f.default for f in dataclasses.fields(MonteCarloConfig) if f.init}
        assert (config["samples"], config["burn_in"]) == (SAMPLES, BURN_IN)
        for command in ("simulate", "detect-degree"):
            opts = self.options(command)
            for name in ("samples", "burn_in", "seed"):
                assert opts[name].default == config[name], (command, name)
        opts = self.options("detect-degree")
        assert opts["runs"].default == config["runs"]
        assert opts["tau_rank"].default == config["tau_rank"] == DEFAULT_TAU_RANK
        assert opts["variant"].default == config["variant"] == VARIANTS[0]
        assert tuple(opts["variant"].type.choices) == VARIANTS

    def test_burn_in_of_the_bank_and_the_simulation(self):
        spec = {f.name: f.default for f in dataclasses.fields(FilterBankSpec)}
        assert spec["burn_in"] == BURN_IN
        assert inspect.signature(simulate_arma).parameters["burn_in"].default == BURN_IN


# each command with some options set: its input ("problem" or "system"),
# its flags, and the files it writes
COMMAND_RUNS = {
    "solve": ("problem", [], ["solution.json", "trajectory.csv"]),
    "simulate": ("system", ["--samples", "2000", "--seed", "4"], ["problem.json", "series.csv"]),
    "detect-degree": ("system", ["--variant", "exact", "--tau-rank", "0.01"],
                      ["degree_report.json", "runs.csv"]),
    "reduce": ("problem", ["--target-degree", "2"],
               ["reduced_problem.json", "reduced_solution.json", "spectra.csv"]),
}


class TestOutputFiles:
    """Every output file of every command goes through one writer."""

    @pytest.fixture
    def inputs(self, tmp_path, reference_problem_file):
        system = tmp_path / "system.json"
        system.write_text(json.dumps(degree2_config(order=3)))
        return {"problem": str(reference_problem_file), "system": str(system)}

    @staticmethod
    def args(command, inputs, out):
        kind, flags, _ = COMMAND_RUNS[command]
        return [command, "--input", inputs[kind], "--output", str(out), *flags]

    @pytest.mark.parametrize("command", list(COMMAND_RUNS))
    def test_unwritable_output_exits_2(self, runner, tmp_path, inputs, command):
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory")
        result = runner.invoke(main, self.args(command, inputs, taken))
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith(f"error: cannot write {taken}: "), result.stderr
        assert "Traceback" not in result.output
        assert taken.read_text() == "a file, not a directory"

    def test_every_file_carries_the_resolved_config(self, runner, tmp_path, inputs):
        options = {
            "solve": {},
            "simulate": {"samples": 2000, "burn_in": BURN_IN, "seed": 4},
            "detect-degree": {"runs": 1, "variant": "exact", "samples": SAMPLES,
                              "burn_in": BURN_IN, "seed": 0, "tau_rank": 0.01},
            "reduce": {"target_degree": 2},
        }
        checked = 0
        for command, (kind, _, names) in COMMAND_RUNS.items():
            out = tmp_path / command
            result = runner.invoke(main, self.args(command, inputs, out))
            assert result.exit_code == 0, result.output
            expected = {"command": command, "input": inputs[kind], "output": str(out),
                        **options[command]}
            assert sorted(path.name for path in out.iterdir()) == names
            for name in names:
                if name.endswith(".json"):
                    config = json.loads((out / name).read_text())["config"]
                else:
                    config, _, _ = read_csv(out / name)
                assert config == expected, (command, name)
                checked += 1
        assert checked == 9


FILE_CALLS = {"open", "mkdir", "write_text"}
FILE_WRITERS = {"cli._load_json", "cli._write"}


def file_calls(module, source):
    """``module.function`` of each call of a name in ``FILE_CALLS`` (as a
    function or a method) in ``source``, in source order; ``module`` alone
    for a call outside every function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{module}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in FILE_CALLS:
                    found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), module)
    return found


def test_file_call_scan_finds_each_call():
    source = ("import pathlib\n"
              "def _write(p):\n    open(p, 'w')\n"
              "def helper(p):\n    pathlib.Path(p).mkdir()\n    p.write_text('x')\n"
              "class Store:\n    def save(self, p):\n        with p.open('w'):\n            pass\n"
              "def reader(p):\n    return p.read_text() + str(p.exists())\n"
              "open('log', 'w')\n")
    assert file_calls("cli", source) == ["cli._write", "cli.helper", "cli.helper", "cli.save",
                                         "cli"]


def test_file_io_lives_in_the_cli_reader_and_writer():
    package = Path(nevpick.__file__).parent
    found = {name for path in sorted(package.glob("*.py"))
             for name in file_calls(path.stem, path.read_text())}
    assert found == FILE_WRITERS
