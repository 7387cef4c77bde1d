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
from nevpick.polyalg import FALLBACK_ATTEMPT, FAST_ATTEMPT, LOOSE_ATTEMPT

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


# the endpoint p of seed 1, draw 236, on the paper's band with steps from
# 0.1 growing by up to 2 (FALLBACK_ATTEMPT)
DRAW_236_P = tuple(map(float.fromhex, (
    "0x1.78ed2ff0b2136p-1", "-0x1.43e58073c7803p+0", "0x1.0d636d2630666p-2",
    "0x1.59d4e72b29e56p-1", "-0x1.7fe989761b1adp-2")))


def test_wrong_branch_of_the_fast_band_falls_back():
    # seed 1, draw 236 (n = 5): the paths of LOOSE_ATTEMPT and FAST_ATTEMPT
    # end on a root of G(., 1) whose P has the eigenvalue -1.8e-2; the path
    # of FALLBACK_ATTEMPT ends on the certified one, which solve returns
    problem = corpus_draw(1, 236)
    assert problem.n == 5
    for attempt in (LOOSE_ATTEMPT, FAST_ATTEMPT):
        with pytest.raises(SteinConsistencyError, match="eigenvalue"):
            _certified_path(HomotopyContext(problem), attempt)
    assert certificate_failure(problem) is None
    sol = solve(problem)
    states = _follow_path(HomotopyContext(problem), FALLBACK_ATTEMPT)
    assert len(sol.trajectory) == len(states)
    assert np.array_equal(sol.p, states[-1].p)


def test_fallback_endpoint_is_pinned_bit_for_bit():
    # a solve whose first two rungs fail returns the fallback's endpoint:
    # the paper schedule's, bit for bit, after its 20 accepted steps
    sol = solve(corpus_draw(1, 236))
    assert len(sol.trajectory) - 1 == 20
    assert sol.p.tolist() == list(DRAW_236_P)
