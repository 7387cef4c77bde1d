"""Checks of the benchmark itself.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest bench/check_bench.py

The file name keeps these checks out of the repository's default test run:
they solve items of every workload under the tracer and run the benchmark
command, which takes about a minute.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SEED = 11

# a few items per workload keep the traced runs short
SUBSET = {"near_circle": slice(1, 4), "detect_mc": slice(0, 5), "bank_large": slice(0, 2)}

SOLVE_PATH = [
    "polyalg.build_S",
    "continuation.eval_G",
    "continuation.jac_G",
    "continuation.dG_dnu",
    "continuation.corrector",
    "continuation.solve",
    "cee_core.operator_pair",
    "cee_core.recover_P",
    "cee_core.build_cee_matrices",
    "problem.validate",
    "problem.normalize",
]
# functions each workload must reach, beyond the solve path every one takes
MARKED = {
    "near_circle": [],
    "detect_mc": [
        "ingestion.simulate_arma",
        "ingestion.filter_bank",
        "ingestion.estimate_values",
        "analysis.singular_values",
    ],
    "bank_large": [
        "ingestion.exact_values",
        "analysis.reduce_model",
        "analysis.log_spectral_deviation",
    ],
}
NONZERO_COUNTERS = [
    "continuation.states_accepted",
    "continuation.steps_attempted",
    "continuation.step_accept_ratio",
    "continuation.newton_steps",
]


def traced_run(items):
    with tracer.Tracer() as tr:
        states = sum(item.run() for item in items)
    return tr, states


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def two_traced_runs(request):
    """Two traced runs, each on items built afresh from the same seed."""
    name = request.param
    first, second = (traced_run(workloads.build(name, SEED)[SUBSET[name]]) for _ in range(2))
    return name, first, second


def exact_counts(tr):
    """Every call count and counter: the values that must repeat bit for bit."""
    counts = {f"{key}.calls": st.calls for key, st in tr.stats.items()}
    counts.update(tr.counters())
    return counts


def test_exact_counts_repeat(two_traced_runs):
    _, (first, _), (second, _) = two_traced_runs
    assert exact_counts(first) == exact_counts(second)


def test_marked_layers_nonzero(two_traced_runs):
    name, (tr, states), _ = two_traced_runs
    for key in SOLVE_PATH + MARKED[name]:
        assert tr.stats[key].calls > 0, key
        assert tr.stats[key].self_s > 0, key
    counters = tr.counters()
    for key in NONZERO_COUNTERS:
        assert counters[key] > 0, key
    assert counters["continuation.states_accepted"] == states


def test_tracer_patches_every_alias_and_restores_it():
    import nevpick
    from nevpick import analysis, continuation, ingestion, polyalg

    aliases = [(nevpick, "solve"), (continuation, "solve"), (analysis, "solve"),
               (ingestion, "solve"), (polyalg, "build_S"), (continuation, "build_S"),
               (ingestion, "build_S")]
    originals = [getattr(module, name) for module, name in aliases]
    with tracer.Tracer():
        for (module, name), fn in zip(aliases, originals):
            assert getattr(module, name).__wrapped__ is fn, (module.__name__, name)
    assert [getattr(module, name) for module, name in aliases] == originals


def run_command(*args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_declared_metrics(trace, section):
    proc = run_command("--workload", "bank_large", "--seed", str(SEED),
                       "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in declared()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] >= 0, name
        if metric["unit"] in ("s", "ms", "1/s", "MB"):
            assert metric["value"] > 0, name


def test_fails_without_program(tmp_path):
    for path in declared()["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_command("--workload", "near_circle", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
