import importlib.util
import math
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_quartiles_are_inclusive_and_interpolated():
    # ranks 1 + (n - 1) k / 4 over the sorted runs: 3.25, 5.5 and 7.75 of 10
    runs = [10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]
    assert bench_pairs.quartiles(runs) == {"median": 5.5, "q1": 3.25, "q3": 7.75}
    assert bench_pairs.quartiles([1.0, 2.0, 4.0]) == {"median": 2.0, "q1": 1.5, "q3": 3.0}
    assert bench_pairs.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_wins_ties_and_the_claim_rule():
    parent = [1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.1]  # median 1.1, IQR 0.15
    change = [0.8, 0.9, 1.0, 0.8, 0.9, 1.0, 0.8, 0.9, 1.0, 1.1]  # better in 9, one tie
    row = bench_pairs.compare(parent, change, "lower", 0.25)
    assert (row["change_wins"], row["ties"]) == (9, 1)
    assert row["change"]["median"] == pytest.approx(0.9)
    assert row["change_over_parent"] == pytest.approx(0.9 / 1.1)
    assert row["claim_rule_met"]
    # eight wins are too few; so is a median gain within the parent's IQR
    assert not bench_pairs.compare(parent, change[:8] + [1.2, 1.2], "lower", 0.25)["claim_rule_met"]
    assert not bench_pairs.compare(parent, [p - 0.05 for p in parent], "lower", 0.25)["claim_rule_met"]
    # for a higher-is-better metric the same runs lose every pair but the tie
    higher = bench_pairs.compare(parent, change, "higher", 0.25)
    assert (higher["change_wins"], higher["ties"], higher["claim_rule_met"]) == (0, 1, False)


def test_worse_share_against_the_bound():
    row = bench_pairs.compare([2.0] * 4, [2.6] * 4, "lower", 0.25)
    assert row["worse_than_parent_share"] == pytest.approx(0.3) and not row["within_bound"]
    row = bench_pairs.compare([2.0] * 4, [2.4] * 4, "lower", 0.25)
    assert row["worse_than_parent_share"] == pytest.approx(0.2) and row["within_bound"]
    row = bench_pairs.compare([100.0] * 4, [90.0] * 4, "higher", 0.05)
    assert row["worse_than_parent_share"] == pytest.approx(0.1) and not row["within_bound"]
    assert bench_pairs.compare([2.0] * 4, [1.0] * 4, "lower", 0.25)["worse_than_parent_share"] == 0.0
    assert bench_pairs.compare([0.0] * 4, [0.0] * 4, "lower", 0.2)["within_bound"]
    assert math.isinf(bench_pairs.compare([0.0] * 4, [1.0] * 4, "lower", 0.2)["worse_than_parent_share"])


def test_workload_rows_flag_counts_that_move():
    spec = {"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ticks", "unit": "count", "better": "lower", "bound": 0.2},
        {"name": "nodes", "unit": "count", "better": "lower", "bound": 0.25},
    ]}

    def result(wall, ticks, nodes, correct=True):
        values = {"wall_s": wall, "ticks": ticks, "nodes": nodes}
        return {"correct": correct, "metrics": {k: {"value": v} for k, v in values.items()}}

    parent = [result(1.0, 10, 5), result(1.1, 12, 6)]
    change = [result(0.9, 10, 5), result(1.0, 12, 7, correct=False)]
    rows = bench_pairs.workload_rows(parent, change, [11, 12], spec)
    assert rows["pairs"] == 2 and rows["seeds"] == [11, 12] and not rows["every_run_correct"]
    assert rows["identical_counts_every_pair"] == {"ticks": True, "nodes": False}
    assert rows["metrics"]["wall_s"]["unit"] == "s" and rows["metrics"]["wall_s"]["change_wins"] == 2
