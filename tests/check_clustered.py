"""The full clustered near-circle corpus: 240 draws at each of two seeds.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest tests/check_clustered.py

The file name keeps it out of the default test run (about 8 s); a few of
its draws run there from ``tests/test_clustered.py``.  The gate: at least
239 of the 240 draws of each seed certify.  The one known failure is seed
2, draw 35, pinned as a ``PathError`` in ``tests/test_clustered.py``.
"""

import pytest

from conftest import certificate_failure, clustered_corpus

DRAWS = 240
MIN_CERTIFIED = 239


@pytest.mark.parametrize("seed", [1, 2])
def test_clustered_corpus_certifies(seed):
    failures = {}
    for t, problem in clustered_corpus(seed, DRAWS):
        why = certificate_failure(problem)
        if why is not None:
            failures[t] = why
    assert DRAWS - len(failures) >= MIN_CERTIFIED, failures
