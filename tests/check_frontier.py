"""Failure counts of the solver on clustered near-circle draws, per degree.

Run from the root of the repository::

    PYTHONPATH=src python tests/check_frontier.py

For each degree n in ``DEGREES`` the script seeds
``np.random.default_rng(100 + n)``, draws ``DRAWS`` problems with
``conftest.clustered_draw(rng, n)`` (degree-2 data at n + 1 bank nodes,
spectral zeros of modulus 0.93 to 0.99) and judges each with
``conftest.certificate_failure``.  It prints one line per degree: the
draws, how many pass ``validate``, how many valid draws fail a
certificate, and those failures by error type.  The draws do not depend
on the solver, so two checkouts see the same problems and the lines are a
before-and-after measurement of the frontier.  The file name keeps it out
of the default test run (about 5 s).
"""

from collections import Counter

import numpy as np

from conftest import certificate_failure, clustered_draw
from nevpick.problem import validate

DEGREES = (6, 8, 10, 12, 16, 20)
DRAWS = 40


def frontier(n: int):
    """``(valid, failures)`` of the draws at degree ``n``; ``failures`` counts
    the failed certificates by error type (the text before the first colon)."""
    rng = np.random.default_rng(100 + n)
    valid, failures = 0, Counter()
    for _ in range(DRAWS):
        problem = clustered_draw(rng, n)
        if validate(problem):
            continue
        valid += 1
        why = certificate_failure(problem)
        if why is not None:
            failures[why.split(":")[0]] += 1
    return valid, failures


def main():
    print(f"{'n':>3} {'draws':>5} {'valid':>5} {'failed':>6}  by type")
    for n in DEGREES:
        valid, failures = frontier(n)
        kinds = ", ".join(f"{kind} {count}" for kind, count in sorted(failures.items()))
        print(f"{n:>3} {DRAWS:>5} {valid:>5} {sum(failures.values()):>6}  {kinds or '-'}")


if __name__ == "__main__":
    main()
