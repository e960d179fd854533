import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_inprocess", Path(__file__).resolve().parent.parent / "tools" / "bench_inprocess.py"
)
bench_inprocess = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_inprocess)


def test_interleaved_alternates_which_side_goes_first():
    order = []
    runs = bench_inprocess.interleaved(
        [{"parent": "a", "change": "A"}, {"parent": "b", "change": "B"}],
        lambda side, job: order.append(job) or len(order),
    )
    assert bench_inprocess.REPS == 3
    assert order[:8] == ["a", "A", "A", "a", "a", "A", "B", "b"]
    assert [len(r[s]) for r in runs for s in bench_inprocess.SIDES] == [3] * 4
    assert runs[0]["parent"][0] == 1 and runs[0]["change"][0] == 2


def test_family_rows_sum_by_family_and_seed():
    seed_jobs = {
        11: [("knap000", {"parent": 1.0, "change": 0.8}), ("knap001", {"parent": 1.0, "change": 0.9}),
             ("chain0", {"parent": 2.0, "change": 2.2})],
        12: [("knap000", {"parent": 2.0, "change": 1.0}), ("knap001", {"parent": 2.0, "change": 1.0}),
             ("chain0", {"parent": 1.0, "change": 0.5})],
    }
    rows = bench_inprocess.family_rows(seed_jobs)
    knap, chain = rows["families"]["knap"], rows["families"]["chain"]
    assert knap["models_per_seed"] == 2 and chain["models_per_seed"] == 1
    assert (knap["parent_s"], knap["change_s"]) == pytest.approx((6.0, 3.7))
    assert knap["seed_ratios"] == pytest.approx([0.85, 0.5])
    assert knap["median_seed_ratio"] == pytest.approx(0.675) and knap["change_faster_seeds"] == 2
    assert chain["seed_ratios"] == pytest.approx([1.1, 0.5]) and chain["change_faster_seeds"] == 1
    everything = rows["all_jobs"]
    assert (everything["parent_s"], everything["change_s"]) == pytest.approx((9.0, 6.4))
    assert (everything["change_faster_jobs"], everything["jobs"]) == (5, 6)


def test_outcome_rows_group_by_status_and_pivots():
    calls = {
        "parent": [("optimal", 1, 3e-6), ("optimal", 4, 9e-6), ("optimal", 2, 7e-6), ("infeasible", 0, 1e-6)],
        "change": [("optimal", 1, 2e-6), ("optimal", 4, 5e-6), ("optimal", 2, 6e-6), ("infeasible", 0, 1e-6)],
    }
    rows = bench_inprocess.outcome_rows(calls)
    assert rows["solves"] == 4
    assert rows["total_s"] == pytest.approx({"parent": 20e-6, "change": 14e-6})
    assert [(r["status"], r["pivots"], r["solves"]) for r in rows["by_outcome"]] == [
        ("infeasible", 0, 1), ("optimal", 1, 1), ("optimal", "2+", 2)]
    assert rows["by_outcome"][2]["parent_us"] == pytest.approx(8.0)
    assert rows["by_outcome"][2]["change_us"] == pytest.approx(5.5)
