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
from nevpick.cee_core import SteinConsistencyError
from nevpick.continuation import HomotopyContext, PathError, _certified_path, _follow_path, solve
from nevpick.polyalg import MU_BAND, MU_BAND_FAST

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


def test_wrong_branch_of_the_fast_band_falls_back():
    # seed 1, draw 236 (n = 5): the path with MU_BAND_FAST ends on a root of
    # G(., 1) whose P has the eigenvalue -1.8e-2; the path with the paper's
    # MU_BAND ends on the certified one, which solve returns
    problem = corpus_draw(1, 236)
    assert problem.n == 5
    with pytest.raises(SteinConsistencyError, match="eigenvalue"):
        _certified_path(HomotopyContext(problem), MU_BAND_FAST)
    assert certificate_failure(problem) is None
    sol = solve(problem)
    states = _follow_path(HomotopyContext(problem), MU_BAND)
    assert len(sol.trajectory) == len(states)
    assert np.array_equal(sol.p, states[-1].p)
