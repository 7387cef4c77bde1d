"""The full clustered near-circle corpus: 240 draws at each of seeds 1 to 20.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest -s tests/check_clustered.py

The file name keeps it out of the default test run (about 10 s); a few of
its draws run there from ``tests/test_clustered.py``.  The gates: at least
239 of the 240 draws of each of seeds 1 and 2 certify, and every draw of
seeds 1 to 20 that fails a certificate is one of ``KNOWN_FAILURES``.  The
failure at seed 2, draw 35 is pinned as a ``PathError`` in
``tests/test_clustered.py``.  With ``-s`` the run prints how many draws
failed, and how many certified on the second rung of the attempts and on
the paper's fallback, from each draw's count of fallbacks.
"""

from collections import Counter
from functools import cache

import pytest

from check_outputs import counting
from conftest import certificate_failure, clustered_corpus

DRAWS = 240
MIN_CERTIFIED = 239
SEEDS = range(1, 21)
#: (seed, draw) of the draws that may fail, each with a PathError at the start
#: of its path; the last two rungs alone fail these and (18, 59), which the
#: first rung certifies
KNOWN_FAILURES = {(2, 35), (3, 135), (5, 103), (8, 71), (8, 151), (12, 239), (15, 71)}
#: the rung a draw certifies on, by its count of fallbacks
RUNGS = {1: "the second rung", 2: "the paper's fallback"}


@cache
def corpus_failures(seed) -> tuple:
    """``(failures, fallbacks)`` of one seed's draws: why each failing draw
    fails, and how many times each draw that certifies after the first rung
    fell back, both by draw."""
    failures, fallbacks = {}, {}
    for t, problem in clustered_corpus(seed, DRAWS):
        with counting() as work:
            why = certificate_failure(problem)
        if why is not None:
            failures[t] = why
        elif work["fallbacks"]:
            fallbacks[t] = work["fallbacks"]
    return failures, fallbacks


@pytest.mark.parametrize("seed", [1, 2])
def test_clustered_corpus_certifies(seed):
    failures, _ = corpus_failures(seed)
    assert DRAWS - len(failures) >= MIN_CERTIFIED, failures


def test_failures_are_known():
    failures = {(seed, t): why for seed in SEEDS for t, why in corpus_failures(seed)[0].items()}
    rungs = Counter(count for seed in SEEDS for count in corpus_failures(seed)[1].values())
    print(f"\nseeds {SEEDS.start}-{SEEDS.stop - 1}: {len(failures)} draws fail, "
          + ", ".join(f"{rungs[count]} certify on {rung}" for count, rung in RUNGS.items()))
    unknown = {key: why for key, why in failures.items() if key not in KNOWN_FAILURES}
    assert not unknown, unknown
