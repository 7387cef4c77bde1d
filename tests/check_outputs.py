"""One SHA-256 digest per solve of a benchmark workload and per CLI output
file, and the exact work of each workload, to compare two checkouts.

Run from the root of a checkout::

    PYTHONPATH=src python tests/check_outputs.py --seed 3 > outputs.txt

``--workload NAME`` (repeatable) limits the run to some of the workloads of
``bench/workloads.py`` and ``cli``; the default is all of them.  The items
are built by the unedited ``bench/workloads.py`` and each is run once.  Every call of
``nevpick.solve``, and of the ``solve`` inside ``reduce_model``, is
recorded, and the script prints two lines per solve, its digest and its
endpoint::

    <workload> <seed> <item label> <solve index in the item> <sha256>
    endpoint <workload> <seed> <item label> <solve index> <JSON [p, P, a, b, r]>

where ``r`` is the solve's interpolation residuals, one per node.

Every call of ``nevpick.filter_bank``, and of the ``filter_bank`` inside
``run_problem``, is recorded too, and an item prints one line per bank it
forms, ahead of its solves' lines::

    <workload> <seed> <item label> bank <bank index in the item> <sha256>

The bank digest covers the bank's bytes, dtype and shape, the conjugate
rows included, so a change to the filter shows in the bank itself and not
only in the solves built on it.  Only ``detect_mc`` forms banks.

An item that fails prints ``FAILED <error type>`` in place of its solves'
digests, after the digests of the banks it formed.
The digest covers ``p``, ``P``, the coefficients of ``a`` and ``b``,
``rho``, ``scale``, every field of the diagnostics (the ones computed on
first read included) and, for each accepted state, ``nu``, ``p``,
``a_roots``, ``step``, ``corrector_iters`` and ``residual``, each with
its dtype and shape.  The endpoint line writes each float of ``p``,
``P``, the coefficients of ``a`` and ``b`` and the interpolation
residuals so that it reads back exactly.

After its items, each workload prints the exact work of the path follower
in its run, with counting wrappers on the names that
``nevpick.continuation`` calls through its own globals (failed items
included), one line per column::

    <workload> <seed> work <column> <count>

* ``solves``: first paths of a solve, one per solve;
* ``fallbacks``: paths followed again on the same context after a failure,
  one per rung of the attempts after the first that a solve tries, so a
  solve records up to two;
* ``predictions``: RK4 predictions made (a singular stage makes none);
* ``band_rejects``: predictions outside the band;
* ``accepted``: corrections that converged, the accepted states after
  ``nu = 0`` (a discarded attempt's count too);
* ``tangents``: tangents solved, three per prediction and one at each
  accepted state that predictions start from; none at the start of a
  path, where the tangent is 0 in closed form;
* ``newton``: Newton steps, the end step of each path included;
* ``pairs``: operator pairs formed, one per new ``nu`` evaluated; none at
  the start of a path, which is known in closed form, so a path's first
  pair is its first RK4 stage's.

The counts do not depend on the host.  ``bench/tracer.py`` counts steps by
``dG_dnu`` calls instead, which are the tangents here.

The ``cli`` workload runs the commands in-process with click's
``CliRunner``: ``solve`` and ``reduce --target-degree 5`` on the reference
instance, and ``simulate --seed <seed>`` and ``detect-degree`` (``exact``,
and ``monte-carlo`` with ``--runs 3 --samples 5000 --seed <seed>``) on
the system JSON of the README.  It prints one line per output file::

    cli <seed> <command>/<file> <sha256>

The digest leaves out the ``config`` block (the JSON key, or the CSV's
first line), which names the output directory and the command's options.
A command that exits with a nonzero status prints
``cli <seed> <command> FAILED exit-<status>`` in place of its digests.
The ``cli`` workload prints no work lines.

The first line records the thread count of numpy's bundled OpenBLAS,
asked as ``bench/run.py`` asks it (``None`` when it cannot be asked)::

    blas_threads <count>

The ``detect_mc`` digests depend on it.  Running the script in two
checkouts and diffing the outputs shows whether a change left every solve
and every CLI output bit-identical.

``--compare PATH`` checks the run against another one instead of printing
it.  ``PATH`` is a saved output file, or the root of another checkout: the
script then runs itself in a subprocess with ``PYTHONPATH=PATH/src`` for
the same seed and workloads, and takes that run's lines.  When the other
run recorded a different thread count, it says so and exits with status 1
without comparing digests.  Otherwise it reads the lines for the workloads
and seed of this run, digests and work counts alike, prints the number of
lines whose last field differs (a line missing on either side counts) and
the first of them, and exits with status 1 on any difference.  It then
prints, per workload, the largest absolute difference of ``p``, ``P``,
``a`` and ``b`` over the solves whose digests differ, and beside it that
of the interpolation residuals, so a change that moves endpoints by
rounding, or only a certificate, shows by how much.  The values come from
the endpoint lines of both runs; endpoint lines take no part in the
digest comparison.  A file saved before the endpoint lines were added
has none, so its values are not compared, and one saved before the
residuals were added to them has no residual figure; compare against a
checkout directory instead::

    PYTHONPATH=src python tests/check_outputs.py --seed 3 --compare outputs.txt
    PYTHONPATH=src python tests/check_outputs.py --seed 3 --compare ../parent

The file name keeps the script out of the default test run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np
from click.testing import CliRunner

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import nevpick  # noqa: E402
import nevpick.analysis  # noqa: E402
import nevpick.ingestion  # noqa: E402
import workloads  # noqa: E402
from run import _blas_threads  # noqa: E402
from nevpick import continuation  # noqa: E402
from nevpick.cli import main as cli_main  # noqa: E402
from nevpick.problem import problem_to_json_dict  # noqa: E402

DIAGNOSTIC_FIELDS = ("interp_residuals", "max_interp_residual", "cee_residual", "poles",
                     "zeros", "spectral_zeros", "singular_values", "cond_V")
STATE_FIELDS = ("nu", "p", "a_roots", "step", "corrector_iters", "residual")
ENDPOINT_FIELDS = ("p", "P", "a", "b", "interp_residuals")
WORK_COLUMNS = ("solves", "fallbacks", "predictions", "band_rejects", "accepted", "tangents",
                "newton", "pairs")

#: The system JSON of the README, input to ``simulate`` and ``detect-degree``.
README_SYSTEM = {
    "sigma_roots": [{"re": 0.17, "im": 0.26}, {"re": 0.17, "im": -0.26}],
    "a_roots": [{"re": 0.09, "im": 0.75}, {"re": 0.09, "im": -0.75}],
    "order": 4,
}


def _feed(digest, value) -> None:
    arr = np.ascontiguousarray(value)
    digest.update(f"{arr.dtype.str}{arr.shape}".encode())
    digest.update(arr.tobytes())


def solution_digest(sol) -> str:
    """SHA-256 of every output of one solve, in a fixed order."""
    digest = hashlib.sha256()
    for value in (sol.p, sol.P, sol.a.coeffs, sol.b.coeffs, sol.rho, sol.scale):
        _feed(digest, value)
    for name in DIAGNOSTIC_FIELDS:
        _feed(digest, getattr(sol.diagnostics, name))
    for state in sol.trajectory:
        for name in STATE_FIELDS:
            _feed(digest, getattr(state, name))
    return digest.hexdigest()


@contextmanager
def counting():
    """Count the path follower's work inside the block.

    Yields a dict that holds the counts of :data:`WORK_COLUMNS` once the block exits.
    """
    calls, returns, paths = Counter(), Counter(), Counter()
    names = ("_follow_path", "predictor", "corrector", "_tangent", "jac_G", "operator_pair")
    originals = {name: getattr(continuation, name) for name in names}
    last_context = None

    def wrap(name, fn):
        def counted(*args, **kwargs):
            nonlocal last_context
            calls[name] += 1
            if name == "_follow_path":
                # a solve follows its paths on one context, so a path on
                # the context of the path before it is a fallback
                paths["fallbacks" if args[0] is last_context else "solves"] += 1
                last_context = args[0]
            result = fn(*args, **kwargs)
            returns[name] += 1
            return result
        return counted

    work = {}
    for name, fn in originals.items():
        setattr(continuation, name, wrap(name, fn))
    try:
        yield work
    finally:
        for name, fn in originals.items():
            setattr(continuation, name, fn)
        work.update(
            solves=paths["solves"],
            fallbacks=paths["fallbacks"],
            predictions=returns["predictor"],
            band_rejects=returns["predictor"] - calls["corrector"],
            accepted=returns["corrector"],
            tangents=calls["_tangent"],
            newton=calls["jac_G"] - calls["_tangent"],
            pairs=calls["operator_pair"],
        )


def _recording(solve, solutions: list):
    def wrapper(*args, **kwargs):
        sol = solve(*args, **kwargs)
        solutions.append(sol)
        return sol
    return wrapper


def bank_digest(bank) -> str:
    """SHA-256 of a filter bank's bytes, dtype and shape."""
    digest = hashlib.sha256()
    _feed(digest, bank)
    return digest.hexdigest()


def _digesting(filter_bank, digests: list):
    def wrapper(*args, **kwargs):
        bank = filter_bank(*args, **kwargs)
        digests.append(bank_digest(bank))
        return bank
    return wrapper


def endpoint_line(key: str, sol) -> str:
    """``endpoint <key> <json>``: the solve's ``p``, ``P``, ``a``, ``b`` and
    interpolation residuals, each float written so that it reads back exactly."""
    values = [np.asarray(value).tolist() for value in (sol.p, sol.P, sol.a.coeffs, sol.b.coeffs,
                                                       sol.diagnostics.interp_residuals)]
    return f"endpoint {key} {json.dumps(values, separators=(',', ':'))}"


def workload_lines(name: str, seed: int) -> list:
    """The output lines of one workload at one seed: per item, its bank
    digests, then its solve digests, each followed by its
    :func:`endpoint_line`; then the workload's work."""
    solutions, banks = [], []
    patched = {(nevpick, "solve"): partial(_recording, solutions=solutions),
               (nevpick.analysis, "solve"): partial(_recording, solutions=solutions),
               (nevpick, "filter_bank"): partial(_digesting, digests=banks),
               (nevpick.ingestion, "filter_bank"): partial(_digesting, digests=banks)}
    originals = {target: getattr(*target) for target in patched}
    for (module, attr), wrap in patched.items():
        setattr(module, attr, wrap(getattr(module, attr)))
    lines = []
    try:
        with counting() as work:
            for item in workloads.build(name, seed):
                solutions.clear()
                banks.clear()
                failed = None
                try:
                    item.run()
                except (*workloads.TYPED_ERRORS, workloads.CheckFailed) as exc:
                    failed = type(exc).__name__
                item_key = f"{name} {seed} {item.label}"
                lines += [f"{item_key} bank {k} {digest}" for k, digest in enumerate(banks)]
                if failed:
                    lines.append(f"{item_key} FAILED {failed}")
                    continue
                for k, sol in enumerate(solutions):
                    key = f"{item_key} {k}"
                    lines += [f"{key} {solution_digest(sol)}", endpoint_line(key, sol)]
    finally:
        for (module, attr), original in originals.items():
            setattr(module, attr, original)
    return lines + [f"{name} {seed} work {column} {work[column]}" for column in WORK_COLUMNS]


def file_digest(path: Path) -> str:
    """SHA-256 of a CLI output file without its ``config`` block."""
    text = path.read_text()
    if path.suffix == ".json":
        payload = json.loads(text)
        del payload["config"]
        text = json.dumps(payload, sort_keys=True)
    else:
        text = text.split("\n", 1)[1]
    return hashlib.sha256(text.encode()).hexdigest()


def cli_lines(seed: int) -> list:
    """The output lines of the CLI commands at one seed."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        problem, system = tmp / "problem.json", tmp / "system.json"
        problem.write_text(json.dumps(problem_to_json_dict(workloads.reference_problem())))
        system.write_text(json.dumps(README_SYSTEM))
        commands = {
            "solve": ["solve", "--input", problem],
            "reduce": ["reduce", "--input", problem, "--target-degree", 5],
            "simulate": ["simulate", "--input", system, "--seed", seed],
            "detect-degree-exact": ["detect-degree", "--input", system, "--variant", "exact"],
            "detect-degree-monte-carlo": ["detect-degree", "--input", system, "--runs", 3,
                                          "--samples", 5000, "--seed", seed],
        }
        for name, args in commands.items():
            out = tmp / name
            result = CliRunner().invoke(cli_main, [str(a) for a in args + ["--output", out]])
            if result.exit_code != 0:
                lines.append(f"cli {seed} {name} FAILED exit-{result.exit_code}")
                continue
            lines += [f"cli {seed} {name}/{path.name} {file_digest(path)}"
                      for path in sorted(out.iterdir())]
    return lines


def _by_solve(lines) -> dict:
    """Each line's last field (a digest, a work count, or the error of a
    failed item or command), keyed by the rest of the line: workload, seed,
    item and solve index, workload, seed, ``work`` and column, or ``cli``,
    seed, command and file."""
    return dict(line.rsplit(" ", 1) for line in lines)


def differences(now: dict, saved: dict) -> list:
    """Keys of the outputs whose digests differ, an output on one side only included.

    In the order of ``now``, then of the outputs only ``saved`` has.
    """
    keys = list(now) + [key for key in saved if key not in now]
    return [key for key in keys if now.get(key) != saved.get(key)]


def checkout_lines(root: Path, seed: int, names: list) -> str:
    """The output of this script run on the package in the checkout ``root``."""
    command = [sys.executable, str(Path(__file__).resolve()), "--seed", str(seed)]
    for name in names:
        command += ["--workload", name]
    env = {**os.environ, "PYTHONPATH": str(root.resolve() / "src")}
    return subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                           check=True).stdout


def endpoint_values(lines) -> dict:
    """The arrays ``(p, P, a, b, residuals)`` of each endpoint line (the
    residuals only where the line has them), keyed as :func:`_by_solve` keys."""
    found = {}
    for line in lines:
        if line.startswith("endpoint "):
            key, values = line[len("endpoint "):].rsplit(" ", 1)
            found[key] = tuple(np.array(value, dtype=float) for value in json.loads(values))
    return found


def endpoint_differences(keys, now: dict, saved: dict) -> list:
    """One line per workload among ``keys``: the largest absolute difference
    of ``p``, ``P``, ``a``, ``b`` and the interpolation residuals over its
    solves with endpoints on both sides (a shape that differs counts as inf)."""
    largest, counted = {}, Counter()
    for key in keys:
        if key in now and key in saved:
            workload = key.split(" ")[0]
            counted[workload] += 1
            diffs = [float(np.max(np.abs(x - y), initial=0.0)) if x.shape == y.shape else np.inf
                     for x, y in zip(now[key], saved[key])]
            largest[workload] = np.maximum(largest.get(workload, 0.0), diffs)
    return [f"{workload}: {counted[workload]} solves differ; largest difference "
            + ", ".join(f"{name} {value:.2e}" for name, value in zip(ENDPOINT_FIELDS, diffs))
            for workload, diffs in largest.items()]


def thread_line() -> str:
    """The first output line: the OpenBLAS thread count of this process."""
    return f"blas_threads {_blas_threads()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS) + ["cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--compare", type=Path, metavar="PATH",
                        help="compare with the saved output file PATH, or with a run on "
                             "the checkout directory PATH, instead of printing")
    args = parser.parse_args(argv)
    names = args.workload or list(workloads.WORKLOADS) + ["cli"]
    threads = thread_line()
    if args.compare is not None:
        text = (checkout_lines(args.compare, args.seed, names) if args.compare.is_dir()
                else args.compare.read_text())
        recorded = next((line for line in text.splitlines()
                         if line.startswith("blas_threads ")), None)
        if recorded is None:
            print(f"{args.compare} does not record its BLAS thread count", file=sys.stderr)
        elif recorded != threads:
            print(f"OpenBLAS thread counts differ ({args.compare}: {recorded.split()[1]}, "
                  f"this run: {threads.split()[1]}); digests not compared")
            return 1
    lines = [line for name in names
             for line in (cli_lines(args.seed) if name == "cli"
                          else workload_lines(name, args.seed))]
    if args.compare is None:
        print(threads)
        for line in lines:
            print(line)
        return 0
    prefixes = tuple(f"{name} {args.seed} " for name in names)
    now = _by_solve(line for line in lines if not line.startswith("endpoint "))
    saved = _by_solve(line for line in text.splitlines() if line.startswith(prefixes))
    diff = differences(now, saved)
    if not diff:
        counts = sum(key.split(" ")[2] == "work" for key in now)
        print(f"all {len(now) - counts} outputs and {counts} work counts match {args.compare}")
        return 0
    first = diff[0]
    print(f"{len(diff)} of {len(set(now) | set(saved))} lines differ from {args.compare}; "
          f"first: {first} (saved {saved.get(first)}, now {now.get(first)})")
    solves = [key for key in diff if key.split(" ")[0] != "cli" and key.split(" ")[2] != "work"
              and key.split(" ")[-2] != "bank"]
    saved_endpoints = endpoint_values(text.splitlines())
    if solves and not saved_endpoints:
        print(f"{args.compare} records no endpoints; values not compared")
    for line in endpoint_differences(solves, endpoint_values(lines), saved_endpoints):
        print(line)
    return 1


if __name__ == "__main__":
    sys.exit(main())
