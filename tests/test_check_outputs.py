"""The digest script's record of the OpenBLAS thread count, its work
counts on the reference instance and the benchmark workloads, its bank
digests, and its endpoint comparison."""

import numpy as np
import pytest

import check_outputs
import nevpick
from nevpick.continuation import solve
from nevpick.ingestion import FilterBankSpec, MonteCarloConfig, filter_bank, run_problem
from nevpick.polyalg import MonicPolynomial


def test_first_line_is_thread_count():
    key, count = check_outputs.thread_line().split()
    assert key == "blas_threads"
    assert count == "None" or int(count) >= 1


def test_compare_stops_on_thread_mismatch(tmp_path, capsys):
    # detect_mc digests depend on the thread count, so a saved run of
    # another count is reported, not compared digest by digest
    key, count = check_outputs.thread_line().split()
    other = "None" if count != "None" else "1"
    saved = tmp_path / "outputs.txt"
    saved.write_text(f"{key} {other}\ncli 3 solve/solution.json 0\n")
    assert check_outputs.main(["--seed", "3", "--workload", "cli", "--compare", str(saved)]) == 1
    out = capsys.readouterr().out
    assert "thread counts differ" in out and "not compared" in out


def test_counts_of_the_reference_solve(reference_problem):
    with check_outputs.counting() as work:
        sol = solve(reference_problem)
    assert work["solves"] == 1 and work["fallbacks"] == 0
    assert work["accepted"] == len(sol.trajectory) - 1 == 11
    assert work["predictions"] == work["accepted"] + work["band_rejects"]
    # three tangents per prediction, and one at each point predictions start
    # from but the start, where the tangent is 0 and not solved
    assert work["tangents"] == 3 * work["predictions"] + work["accepted"] - 1 == 70
    # the corrections' Newton steps and the end step
    assert work["newton"] == sum(s.corrector_iters for s in sol.trajectory) + 1


@pytest.mark.parametrize("name", ["near_circle", "bank_large"])
def test_workload_solves_do_not_fall_back(name):
    # bench/tracer.py counts one path per solve; a fallback in a traced run breaks it
    with check_outputs.counting() as work:
        for item in check_outputs.workloads.build(name, 3):
            item.run()
    assert work["solves"] > 0 and work["fallbacks"] == 0


def test_endpoint_line_reads_back_exactly(reference_solution):
    key = "near_circle 3 reference 0"
    line = check_outputs.endpoint_line(key, reference_solution)
    assert line.startswith(f"endpoint {key} ")
    values = check_outputs.endpoint_values([line])[key]
    sol = reference_solution
    wanted = (sol.p, sol.P, sol.a.coeffs, sol.b.coeffs, sol.diagnostics.interp_residuals)
    assert len(values) == len(wanted)
    for got, want in zip(values, wanted):
        assert got.shape == want.shape and np.array_equal(got, want)


def test_endpoint_differences_per_workload(reference_solution):
    keys = ["near_circle 3 reference 0", "near_circle 3 reference 1", "bank_large 3 x 0"]
    now = check_outputs.endpoint_values(
        [check_outputs.endpoint_line(key, reference_solution) for key in keys])
    saved = {key: tuple(value.copy() for value in values) for key, values in now.items()}
    saved[keys[0]][1][0, 0] += 0.5
    saved[keys[1]][0][0] -= 0.25
    saved[keys[1]][4][-1] += 1e-15
    # a key on one side only has no values to compare
    del saved[keys[2]]
    assert check_outputs.endpoint_differences(keys, now, saved) == [
        "near_circle: 2 solves differ; largest difference p 2.50e-01, P 5.00e-01, "
        "a 0.00e+00, b 0.00e+00, interp_residuals 1.00e-15"]


def test_workload_lines_digest_every_bank(monkeypatch):
    # a small item that forms one bank through nevpick.filter_bank and one
    # through run_problem, then solves nothing
    config = MonteCarloConfig(sigma=MonicPolynomial([1.0, 0.2]), a=MonicPolynomial([1.0, -0.5]),
                              order=3, samples=8, burn_in=2)
    y = np.random.default_rng(0).standard_normal(8)

    def run():
        nevpick.filter_bank(y, config.spec)
        nevpick.ingestion.run_problem(config, 5)
        return 0

    item = check_outputs.workloads.Item("small n=3", run)
    monkeypatch.setattr(check_outputs.workloads, "build", lambda name, seed: [item])
    lines = check_outputs.workload_lines("detect_mc", 3)
    banks = (filter_bank(y, config.spec), filter_bank(run_problem(config, 5)[1], config.spec))
    assert lines[:2] == [f"detect_mc 3 small n=3 bank {k} {check_outputs.bank_digest(bank)}"
                         for k, bank in enumerate(banks)]
    assert lines[2] == "detect_mc 3 work solves 0"
    # the wrappers are gone once the workload has run
    assert nevpick.filter_bank is filter_bank and nevpick.ingestion.filter_bank is filter_bank


def test_bank_digest_covers_every_row_dtype_and_shape():
    spec = FilterBankSpec(poles=(0.0, 0.3 + 0.4j, 0.3 - 0.4j, 0.5), samples=8)
    bank = filter_bank(np.random.default_rng(0).standard_normal(8), spec)
    digest = check_outputs.bank_digest(bank)
    # one ulp in the conjugate row, the same bytes in another shape, or
    # another dtype gives another digest
    changed = bank.copy()
    changed[2, -1] = complex(changed[2, -1].real, np.nextafter(changed[2, -1].imag, np.inf))
    others = {check_outputs.bank_digest(other)
              for other in (changed, bank.reshape(2, -1), bank.view(float))}
    assert len(others) == 3 and digest not in others
