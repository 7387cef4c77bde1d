"""The work-count script: its counts on the reference instance."""

import check_work
from nevpick.continuation import solve


def test_counts_of_the_reference_solve(reference_problem):
    with check_work.counting() as work:
        sol = solve(reference_problem)
    assert work["solves"] == 1 and work["fallbacks"] == 0
    assert work["accepted"] == len(sol.trajectory) - 1 == 16
    assert work["predictions"] == work["accepted"] + work["band_rejects"]
    # three tangents per prediction, and one at each point predictions start from
    assert work["tangents"] == 3 * work["predictions"] + work["accepted"]
    # the corrections' Newton steps and the end step
    assert work["newton"] == sum(s.corrector_iters for s in sol.trajectory) + 1
