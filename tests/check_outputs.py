"""One SHA-256 digest per solve of a benchmark workload, to compare two checkouts.

Run from the root of a checkout::

    PYTHONPATH=src python tests/check_outputs.py --seed 3 > outputs.txt

``--workload NAME`` (repeatable) limits the run to some of the workloads of
``bench/workloads.py``; the default is all of them.  The items are built
by the unedited ``bench/workloads.py`` and each is run once.  Every call of
``nevpick.solve``, and of the ``solve`` inside ``reduce_model``, is
recorded, and the script prints one line per solve::

    <workload> <seed> <item label> <solve index in the item> <sha256>

An item that fails prints ``FAILED <error type>`` in place of its digests.
The digest covers ``p``, ``P``, the coefficients of ``a`` and ``b``,
``rho``, ``scale``, every field of the diagnostics (the ones computed on
first read included) and, for each accepted state, ``nu``, ``p``,
``a_roots``, ``step``, ``corrector_iters`` and ``residual``, each with
its dtype and shape.  Running the script in two checkouts and diffing the
outputs shows whether a change left every solve bit-identical.  The file
name keeps it out of the default test run.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import nevpick  # noqa: E402
import nevpick.analysis  # noqa: E402
import workloads  # noqa: E402

DIAGNOSTIC_FIELDS = ("interp_residuals", "max_interp_residual", "cee_residual", "poles",
                     "zeros", "spectral_zeros", "singular_values", "cond_V")
STATE_FIELDS = ("nu", "p", "a_roots", "step", "corrector_iters", "residual")


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


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    for name in args.workload or list(workloads.WORKLOADS):
        for line in workload_lines(name, args.seed):
            print(line)


if __name__ == "__main__":
    main()
