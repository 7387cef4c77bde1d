"""nevpick benchmark: one seeded workload per run, checked item by item.

Usage, from the root of a checkout::

    python3 bench/run.py --workload near_circle --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout (it need not be
installed).  ``--trace 0`` prints the end-to-end metrics: it makes passes
over the workload's items until ``--seconds`` have gone (at least
``MIN_PASSES``) and times every item run against the host-speed probe
described in ``hostprobe.py``.  ``--trace 1`` runs the items once
untraced and once under :class:`tracer.Tracer` (each run after a probe, so
the tracing overhead is probe-scaled too) and prints the per-layer metrics:
exact call counts and counters, and raw self times.  Human-readable lines
come first; the last line of standard output is the JSON result.  A
failed correctness check exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostprobe import PROBE_REF_S, HostProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# fresh-interpreter imports per run; the first one (which writes bytecode
# caches) is not timed
SETUP_REPEATS = 3
MIN_PASSES = 3
# no pass starts after this many times --seconds, even below MIN_PASSES
MAX_RUN_FACTOR = 2

clock = time.perf_counter


def _import_program():
    """Put ``src/`` first on the import path and check nevpick comes from it."""
    package = SRC / "nevpick"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: {package} is missing; run from the root of a nevpick checkout")
    sys.path.insert(0, str(SRC))
    import nevpick

    if Path(nevpick.__file__).resolve().parent != package:
        sys.exit(f"bench: imported nevpick from {nevpick.__file__}, not {package}")


def _program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# Runs in a fresh interpreter: times ``import nevpick``, then probes the
# host from the same process (the probe imports numpy, so it cannot go first).
_SETUP_SCRIPT = """
import time
start = time.perf_counter()
import nevpick
elapsed = time.perf_counter() - start
from hostprobe import HostProbe
print(elapsed, HostProbe()(9))
"""


def measure_setup_s() -> tuple:
    """Time for a fresh interpreter to ``import nevpick``: the median over
    ``SETUP_REPEATS`` interpreters, probe-scaled and raw."""
    env = _program_env()
    env["PYTHONPATH"] += os.pathsep + str(Path(__file__).resolve().parent)
    scaled, raw = [], []
    for k in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", _SETUP_SCRIPT], env=env, cwd=ROOT,
                              check=True, capture_output=True, text=True, timeout=60)
        elapsed, host = map(float, proc.stdout.split())
        if k:
            raw.append(elapsed)
            scaled.append(PROBE_REF_S * elapsed / host)
    return statistics.median(scaled), statistics.median(raw)


def measure_cli_solve_s(workloads) -> float:
    """Wall time of ``python -m nevpick.cli solve`` on the reference instance."""
    from nevpick.problem import problem_to_json_dict

    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        problem_path = Path(tmp) / "reference.json"
        problem_path.write_text(json.dumps(problem_to_json_dict(workloads.reference_problem())))
        out = Path(tmp) / "out"
        cmd = [sys.executable, "-m", "nevpick.cli", "solve",
               "--input", str(problem_path), "--output", str(out)]
        start = clock()
        proc = subprocess.run(cmd, env=_program_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        elapsed = clock() - start
        if proc.returncode != 0:
            raise workloads.CheckFailed(f"cli solve exited {proc.returncode}: {proc.stderr}")
        solution = json.loads((out / "solution.json").read_text())
    residual = solution["residuals"]["max_interpolation"]
    if not residual <= workloads.TOL_INTERP:
        raise workloads.CheckFailed(f"cli solve: interpolation residual {residual:.3e}")
    workloads.check_published(solution["a_coeffs"], solution["b_coeffs"], "cli solve")
    return elapsed


class Tally:
    """Outcomes of the items run so far."""

    def __init__(self):
        self.attempted = 0
        self.latencies: list[float] = []
        self.failed = 0
        self.states = 0
        self.errors: list[str] = []

    def run(self, item, typed_errors) -> float:
        """Run one item; return its latency, or infinity when it failed."""
        self.attempted += 1
        start = clock()
        try:
            states = item.run()
        except typed_errors as exc:
            self.failed += 1
            self.errors.append(f"{item.label}: {type(exc).__name__}: {exc}")
            return math.inf
        latency = clock() - start
        self.latencies.append(latency)
        self.states += states
        return latency


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def run_record(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
    }


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def end_to_end(args, workloads, items, tally, record) -> tuple:
    spec = workloads.WORKLOADS[args.workload]
    setup_s, setup_raw_s = measure_setup_s()
    probe = HostProbe()
    items[0].run()  # warm-up: lazy imports and first-call costs
    ratios = [[] for _ in items]
    passes = 0
    start = clock()
    elapsed = 0.0
    # after MIN_PASSES, start a pass only if it should end within --seconds
    while passes < MIN_PASSES or elapsed * (passes + 1) / passes <= args.seconds:
        if passes and elapsed >= MAX_RUN_FACTOR * args.seconds:
            break
        for i, item in enumerate(items):
            host = probe()
            ratios[i].append(tally.run(item, workloads.TYPED_ERRORS) / host)
        passes += 1
        elapsed = clock() - start
    # an item's latency: the median of its probe-scaled runs
    lat = [PROBE_REF_S * statistics.median(r) for r in ratios if math.inf not in r]
    if not lat:
        raise RuntimeError("no item completed: " + "; ".join(tally.errors[:3]))
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(lat) / math.fsum(lat), "1/s"),
        "item_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "item_tail_ms": (1e3 * percentile(lat, spec.tail_pct), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    record.update(
        items=len(items),
        passes=passes,
        tail_percentile=spec.tail_pct,
        items_beyond_tail=sum(1 for x in lat if x > percentile(lat, spec.tail_pct)),
        states_accepted_per_pass=tally.states // passes,
        fail_ratio=tally.failed / tally.attempted,
        errors=tally.errors[: len(items)],
        wall_s=elapsed,
        probe_median_s=statistics.median(probe.samples),
        raw_setup_s=setup_raw_s,
        raw_items_per_s=len(tally.latencies) / math.fsum(tally.latencies),
        raw_item_p50_ms=1e3 * statistics.median(tally.latencies),
        raw_item_tail_ms=1e3 * percentile(tally.latencies, spec.tail_pct),
    )
    lines = [f"{name:<14}{value:>14.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.insert(4, f"{'fail_ratio':<14}{record['fail_ratio']:>14.6g} "
                    f"({tally.failed} of {tally.attempted} item runs)")
    lines[3] += f"  (p{spec.tail_pct} of {len(lat)} items)"
    lines.append(f"{passes} passes over {len(items)} items; times scaled to a "
                 f"{1e3 * PROBE_REF_S:g} ms probe (median probe here "
                 f"{1e3 * record['probe_median_s']:.3f} ms)")
    return metrics, lines


def _scaled_pass(items, tally, probe, typed_errors) -> float:
    """Run every item once after a probe; return the pass's probe-scaled seconds."""
    total = 0.0
    for item in items:
        host = probe()
        latency = tally.run(item, typed_errors)
        if latency < math.inf:
            total += latency / host
    return PROBE_REF_S * total


def per_layer(args, workloads, items, traced, record) -> tuple:
    import tracer

    probe = HostProbe()
    items[0].run()  # warm-up: lazy imports and first-call costs
    plain = Tally()
    untraced_s = _scaled_pass(items, plain, probe, workloads.TYPED_ERRORS)
    with tracer.Tracer() as tr:
        traced_s = _scaled_pass(items, traced, probe, workloads.TYPED_ERRORS)
    counters = tr.counters()
    if counters["continuation.states_accepted"] != traced.states:
        raise RuntimeError(
            f"tracer counted {counters['continuation.states_accepted']} accepted states, "
            f"the solutions hold {traced.states}: a traced name was not patched"
        )
    cli_solve_s = measure_cli_solve_s(workloads)

    st = tr.stats
    metrics = {}
    for key in ("polyalg.build_S", "continuation.eval_G", "continuation.jac_G",
                "continuation.dG_dnu", "continuation.corrector", "cee_core.operator_pair"):
        metrics[f"{key}.calls"] = (st[key].calls, "count")
        metrics[f"{key}.self_s"] = (st[key].self_s, "s")
    for key in ("continuation.solve", "cee_core.recover_P", "cee_core.build_cee_matrices",
                "problem.validate", "problem.normalize"):
        metrics[f"{key}.self_s"] = (st[key].self_s, "s")
    for name, value in counters.items():
        metrics[name] = (value, "ratio" if name.endswith("ratio") else "count")
    metrics["cli.solve_s"] = (cli_solve_s, "s")
    metrics["trace.items_per_s_untraced"] = (len(plain.latencies) / untraced_s, "1/s")
    metrics["trace.items_per_s_traced"] = (len(traced.latencies) / traced_s, "1/s")

    record.update(
        items=len(items),
        trace_overhead=traced_s / untraced_s - 1.0,
        errors=traced.errors,
        layers={key: {"calls": s.calls, "self_s": s.self_s}
                for key, s in sorted(st.items()) if s.calls},
    )
    lines = [f"{'function':<38}{'calls':>10}{'self_s':>12}"]
    lines += [f"{key:<38}{s.calls:>10}{s.self_s:>12.4f}"
              for key, s in sorted(st.items(), key=lambda kv: -kv[1].self_s) if s.calls]
    lines += [f"{name:<38}{value:>10.6g} {unit}" for name, (value, unit) in metrics.items()
              if not name.endswith((".calls", ".self_s"))]
    lines.append(f"tracing overhead: {100 * record['trace_overhead']:.1f}% "
                 f"over {len(items)} items")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    record = run_record(args)
    items = workloads.build(args.workload, args.seed)
    measure = per_layer if args.trace else end_to_end
    tally = Tally()
    try:
        metrics, lines = measure(args, workloads, items, tally, record)
    except workloads.CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(tally.attempted, 1),
                          "failed": tally.failed, "metrics": {}}))
        return 1

    print(f"workload {args.workload}  seed {args.seed}")
    for line in lines:
        print("  " + line)
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
