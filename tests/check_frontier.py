"""Failure counts of the solver on clustered near-circle draws, per degree,
and a gate on which draws fail.

Run from the root of the repository::

    PYTHONPATH=src python tests/check_frontier.py
    PYTHONPATH=src python -m pytest tests/check_frontier.py

For each degree n in ``DEGREES`` the script seeds
``np.random.default_rng(100 + n)``, draws ``DRAWS`` problems with
``conftest.clustered_draw(rng, n)`` (degree-2 data at n + 1 bank nodes,
spectral zeros of modulus 0.93 to 0.99) and judges each with
``conftest.certificate_failure``.  It prints one line per degree: the
draws, how many pass ``validate``, how many valid draws fail a
certificate, and those failures by error type.  The draws do not depend
on the solver, so two checkouts see the same problems and the lines are a
before-and-after measurement of the frontier.  Under pytest, the gate
fails when a draw outside ``KNOWN_FAILURES`` fails a certificate, so a
change cannot lose a draw unseen; a known draw that certifies passes.
The file name keeps it out of the default test run (about 2 s).
"""

from collections import Counter
from functools import cache

import numpy as np

from conftest import certificate_failure, clustered_draw
from nevpick.problem import validate

DEGREES = (6, 8, 10, 12, 16, 20)
DRAWS = 40
#: (n, draw) of the draws that may fail, each with a PathError; the draw is
#: the index among all ``DRAWS`` draws at degree n, valid or not
KNOWN_FAILURES = {
    (8, 14),
    (12, 1), (12, 4), (12, 6), (12, 12), (12, 18), (12, 28),
    (16, 2), (16, 6), (16, 8), (16, 11), (16, 12), (16, 19), (16, 27), (16, 28), (16, 39),
    (20, 1), (20, 2), (20, 4), (20, 6), (20, 8), (20, 9), (20, 10), (20, 11), (20, 13),
    (20, 14), (20, 16), (20, 18), (20, 19), (20, 20), (20, 22), (20, 23), (20, 24), (20, 26),
    (20, 27), (20, 29), (20, 32), (20, 38),
}


@cache
def frontier(n: int):
    """``(valid, failures)`` of the draws at degree ``n``; ``failures`` maps
    each valid draw that fails a certificate to why it fails."""
    rng = np.random.default_rng(100 + n)
    valid, failures = 0, {}
    for t in range(DRAWS):
        problem = clustered_draw(rng, n)
        if validate(problem):
            continue
        valid += 1
        why = certificate_failure(problem)
        if why is not None:
            failures[t] = why
    return valid, failures


def test_failures_are_known():
    failures = {(n, t): why for n in DEGREES for t, why in frontier(n)[1].items()}
    unknown = {key: why for key, why in failures.items() if key not in KNOWN_FAILURES}
    assert not unknown, unknown


def main():
    print(f"{'n':>3} {'draws':>5} {'valid':>5} {'failed':>6}  by type")
    for n in DEGREES:
        valid, failures = frontier(n)
        # the error type is the text before the first colon
        kinds = Counter(why.split(":")[0] for why in failures.values())
        kinds = ", ".join(f"{kind} {count}" for kind, count in sorted(kinds.items()))
        print(f"{n:>3} {DRAWS:>5} {valid:>5} {len(failures):>6}  {kinds or '-'}")


if __name__ == "__main__":
    main()
