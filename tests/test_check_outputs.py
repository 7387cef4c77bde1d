"""The digest script's record of the OpenBLAS thread count."""

import check_outputs


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
