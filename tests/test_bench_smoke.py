"""Smoke test of the benchmark in ``bench/``, run from its unedited files.

The benchmark calls the package through its public names.  Running one item
of each workload here makes a renamed or deleted name fail the test suite,
instead of the benchmark run.
"""

import ast
import importlib.util
import inspect
import json
import sys
import types
from pathlib import Path

import pytest

import nevpick

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["near_circle", "detect_mc", "bank_large"])
def test_first_item_runs(workloads, name):
    # item 0 of a workload does not depend on the item count: near_circle's
    # is the reference instance, and the others come from the first spawned seed
    items = workloads.WORKLOADS[name].build(3, 1)
    assert len(items) == 1
    assert items[0].run() > 0


def test_traced_functions_exist():
    # the tracer times the public functions of each layer; a per-layer metric
    # of a function is named "<layer>.<function>.<calls|self_s>"
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    for metric in declared:
        layer, *rest = metric["name"].split(".")
        if len(rest) == 2:
            module = getattr(nevpick, layer)
            fn = getattr(module, rest[0], None)
            assert rest[0] in module.__all__ and inspect.isfunction(fn), metric["name"]
            assert fn.__module__ == module.__name__, metric["name"]


#: The user API: what ``from nevpick import *`` gives.  Solver internals are
#: imported from their modules, so a name added here is a deliberate choice.
USER_API = {
    "ContinuationState", "CorrectorError", "DegreeReport", "Diagnostics", "FilterBankSpec",
    "INF", "InterpolationProblem", "MonicPolynomial", "MonteCarloConfig", "PathError",
    "ProblemValidationError", "RealnessError", "RunRecord", "Solution",
    "SteinConsistencyError", "Violation", "default_bank_poles", "dominant_zeros",
    "estimate_positive_degree", "estimate_values", "exact_values", "filter_bank",
    "log_spectral_deviation", "monte_carlo", "nodes_from_poles", "reduce_model",
    "simulate_arma", "singular_values", "solve", "spectral_density", "validate",
}


def test_user_api_is_pinned():
    assert len(nevpick.__all__) == len(USER_API) == 31
    assert set(nevpick.__all__) == USER_API


def test_benchmark_uses_only_the_user_api():
    # every nv.<name> of the benchmark's workloads is a user-API name or a submodule
    tree = ast.parse((BENCH / "workloads.py").read_text())
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "nv"}
    assert used
    for name in sorted(used):
        assert name in nevpick.__all__ or isinstance(getattr(nevpick, name, None),
                                                     types.ModuleType), name
