"""One SHA-256 digest per solve of a benchmark workload and per CLI output
file, to compare two checkouts.

Run from the root of a checkout::

    PYTHONPATH=src python tests/check_outputs.py --seed 3 > outputs.txt

``--workload NAME`` (repeatable) limits the run to some of the workloads of
``bench/workloads.py`` and ``cli``; the default is all of them.  The items
are built by the unedited ``bench/workloads.py`` and each is run once.  Every call of
``nevpick.solve``, and of the ``solve`` inside ``reduce_model``, is
recorded, and the script prints one line per solve::

    <workload> <seed> <item label> <solve index in the item> <sha256>

An item that fails prints ``FAILED <error type>`` in place of its digests.
The digest covers ``p``, ``P``, the coefficients of ``a`` and ``b``,
``rho``, ``scale``, every field of the diagnostics (the ones computed on
first read included) and, for each accepted state, ``nu``, ``p``,
``a_roots``, ``step``, ``corrector_iters`` and ``residual``, each with
its dtype and shape.

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
and seed of this run, prints the number of outputs whose line differs (an
output missing on either side counts) and the first of them, and exits
with status 1 on any difference::

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
from pathlib import Path

import numpy as np
from click.testing import CliRunner

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import nevpick  # noqa: E402
import nevpick.analysis  # noqa: E402
import workloads  # noqa: E402
from run import _blas_threads  # noqa: E402
from nevpick.cli import main as cli_main  # noqa: E402
from nevpick.problem import problem_to_json_dict  # noqa: E402

DIAGNOSTIC_FIELDS = ("interp_residuals", "max_interp_residual", "cee_residual", "poles",
                     "zeros", "spectral_zeros", "singular_values", "cond_V")
STATE_FIELDS = ("nu", "p", "a_roots", "step", "corrector_iters", "residual")

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


def _recording(solve, solutions: list):
    def wrapper(*args, **kwargs):
        sol = solve(*args, **kwargs)
        solutions.append(sol)
        return sol
    return wrapper


def workload_lines(name: str, seed: int) -> list:
    """The output lines of one workload at one seed."""
    solutions = []
    patched = [(nevpick, "solve"), (nevpick.analysis, "solve")]
    originals = [getattr(module, attr) for module, attr in patched]
    for module, attr in patched:
        setattr(module, attr, _recording(getattr(module, attr), solutions))
    lines = []
    try:
        for item in workloads.build(name, seed):
            solutions.clear()
            try:
                item.run()
            except (*workloads.TYPED_ERRORS, workloads.CheckFailed) as exc:
                lines.append(f"{name} {seed} {item.label} FAILED {type(exc).__name__}")
                continue
            lines += [f"{name} {seed} {item.label} {k} {solution_digest(sol)}"
                      for k, sol in enumerate(solutions)]
    finally:
        for (module, attr), original in zip(patched, originals):
            setattr(module, attr, original)
    return lines


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
    """Each line's last field (a digest, or the error of a failed item or
    command), keyed by the rest of the line: workload, seed, item and solve
    index, or ``cli``, seed, command and file."""
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
    now = _by_solve(lines)
    saved = _by_solve(line for line in text.splitlines() if line.startswith(prefixes))
    diff = differences(now, saved)
    if not diff:
        print(f"all {len(now)} outputs match {args.compare}")
        return 0
    first = diff[0]
    print(f"{len(diff)} of {len(set(now) | set(saved))} outputs differ from {args.compare}; "
          f"first: {first} (saved {saved.get(first)}, now {now.get(first)})")
    return 1


if __name__ == "__main__":
    sys.exit(main())
