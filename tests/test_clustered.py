"""Clustered near-circle draws: spectral zeros bunched close to the unit circle.

A general Stein solve for ``P`` is ill-conditioned on these draws
(``cond(I - Gamma x Gamma)`` of 7e8 to 8e12).  The draws below failed a
certificate that way before ``recover_P`` used the shift recursion.  The
full corpus, 240 draws at each of two seeds, runs from
``tests/check_clustered.py``.
"""

import numpy as np
import pytest

from conftest import certificate_failure, clustered_corpus
from nevpick.continuation import PathError, solve

# (seed, draw): P asymmetric under a general Stein solve at 1/11, 1/82, 2/6
# and 2/145; a CEE residual from 1.2e-8 to 2.7e-6 at the others
DRAWS = [(1, 7), (1, 11), (1, 31), (1, 82), (2, 6), (2, 31), (2, 59), (2, 145)]


def corpus_draw(seed, draw):
    for t, problem in clustered_corpus(seed, draw + 1):
        if t == draw:
            return problem
    raise LookupError(f"draw {draw} of seed {seed} fails validate")


@pytest.mark.parametrize("seed,draw", DRAWS)
def test_clustered_draw_certifies(seed, draw):
    assert certificate_failure(corpus_draw(seed, draw)) is None


def test_known_hard_instance_raises_path_error():
    # seed 2, draw 35 (n = 8): four pairs of zeros with radii 0.948 to 0.982 at
    # angles 2.45 to 2.61; cond(dG/dp) is about 1e13 at p = 0, so Newton
    # stalls above the absolute corrector tolerance and the step underflows
    problem = corpus_draw(2, 35)
    assert problem.n == 8
    zeros = np.roots(problem.sigma.coeffs)
    assert np.all((np.abs(zeros) > 0.93) & (np.abs(zeros) < 0.99))
    with pytest.raises(PathError, match="step size underflowed"):
        solve(problem)
