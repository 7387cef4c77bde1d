"""Exact work counts of the path follower per benchmark workload.

Run from the root of the repository::

    PYTHONPATH=src python tests/check_work.py --seed 3 [--workload NAME ...]

The items are built by the unedited ``bench/workloads.py`` and each is run
once, with counting wrappers on the names that ``nevpick.continuation``
calls through its own globals.  The script prints one row per workload:

* ``solves``: paths followed with ``MU_BAND_FAST``, one per solve;
* ``fallbacks``: paths followed again with ``MU_BAND`` after a failure;
* ``predictions``: RK4 predictions made (a singular stage makes none);
* ``band_rejects``: predictions outside the band;
* ``accepted``: corrections that converged, the accepted states after
  ``nu = 0`` (a discarded attempt's count too);
* ``tangents``: tangents solved, three per prediction and one at each point
  predictions start from;
* ``newton``: Newton steps, the end step of each path included;
* ``pairs``: operator pairs formed.

The counts do not depend on the host, so two checkouts compare exactly.
``bench/tracer.py`` counts steps by ``dG_dnu`` calls instead, which are
the tangents here.  The file name keeps the script out of the default
test run.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402
from nevpick import continuation  # noqa: E402
from nevpick.polyalg import MU_BAND, MU_BAND_FAST  # noqa: E402

COLUMNS = ("solves", "fallbacks", "predictions", "band_rejects", "accepted", "tangents",
           "newton", "pairs")


@contextmanager
def counting():
    """Count the path follower's work inside the block.

    Yields a dict that holds the counts of :data:`COLUMNS` once the block exits.
    """
    calls, returns, bands = Counter(), Counter(), Counter()
    names = ("_follow_path", "predictor", "corrector", "_tangent", "jac_G", "operator_pair")
    originals = {name: getattr(continuation, name) for name in names}

    def wrap(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            if name == "_follow_path":
                bands[args[1]] += 1
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
            solves=bands[MU_BAND_FAST],
            fallbacks=bands[MU_BAND],
            predictions=returns["predictor"],
            band_rejects=returns["predictor"] - calls["corrector"],
            accepted=returns["corrector"],
            tangents=calls["_tangent"],
            newton=calls["jac_G"] - calls["_tangent"],
            pairs=calls["operator_pair"],
        )


def workload_work(name: str, seed: int) -> dict:
    """The work of one run of every item of a workload; failed items are counted too."""
    with counting() as work:
        for item in workloads.build(name, seed):
            try:
                item.run()
            except (*workloads.TYPED_ERRORS, workloads.CheckFailed):
                pass
    return work


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    print(f"{'workload':<12}" + "".join(f"{column:>13}" for column in COLUMNS))
    for name in args.workload or list(workloads.WORKLOADS):
        work = workload_work(name, args.seed)
        print(f"{name:<12}" + "".join(f"{work[column]:>13}" for column in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
