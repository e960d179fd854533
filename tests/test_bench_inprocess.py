import importlib.util
import math
from pathlib import Path

import pytest

from milpbench.instance import Instance, Relation, Sense, Variable, VarKind, make_row
from milpbench.runner import RunRecord, RunStatus
from milpbench.solver import ReferenceSolverOptions, presolve
from milpbench.solver.standard_form import to_standard_form

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
    def sides(parent, change):
        return {"parent": parent, "change": change}

    seed_jobs = {
        11: [("knap000", {"parent": 1.0, "change": 0.8}, sides(10, 4), sides(7, 3)),
             ("knap001", {"parent": 1.0, "change": 0.9}, sides(10, 6), sides(5, 5)),
             ("chain0", {"parent": 2.0, "change": 2.2}, sides(3, 3), sides(2, 2))],
        12: [("knap000", {"parent": 2.0, "change": 1.0}, sides(20, 5), sides(9, 1)),
             ("knap001", {"parent": 2.0, "change": 1.0}, sides(10, 5), sides(6, 6)),
             ("chain0", {"parent": 1.0, "change": 0.5}, sides(0, 0), sides(1, 1))],
    }
    rows = bench_inprocess.family_rows(seed_jobs)
    knap, chain = rows["families"]["knap"], rows["families"]["chain"]
    assert knap["models_per_seed"] == 2 and chain["models_per_seed"] == 1
    assert (knap["parent_s"], knap["change_s"]) == pytest.approx((6.0, 3.7))
    assert knap["seed_ratios"] == pytest.approx([0.85, 0.5])
    assert knap["median_seed_ratio"] == pytest.approx(0.675) and knap["change_faster_seeds"] == 2
    assert chain["seed_ratios"] == pytest.approx([1.1, 0.5]) and chain["change_faster_seeds"] == 1
    assert (knap["parent_ticks"], knap["change_ticks"], knap["ticks_change_over_parent"]) == (50, 20, 0.4)
    assert (chain["parent_ticks"], chain["change_ticks"], chain["ticks_change_over_parent"]) == (3, 3, 1.0)
    assert (knap["parent_nodes"], knap["change_nodes"]) == (27, 15)
    assert (chain["parent_nodes"], chain["change_nodes"]) == (3, 3)
    everything = rows["all_jobs"]
    assert (everything["parent_s"], everything["change_s"]) == pytest.approx((9.0, 6.4))
    assert (everything["change_faster_jobs"], everything["jobs"]) == (5, 6)
    assert (everything["parent_ticks"], everything["change_ticks"]) == (53, 23)
    assert (everything["parent_nodes"], everything["change_nodes"]) == (30, 18)


def test_outcome_rows_group_by_status_and_pivots():
    # each side's own solves: the change's long step took a pivot out of one
    calls = {
        "parent": [("optimal", 1, 0, 3e-6), ("optimal", 4, 0, 9e-6), ("optimal", 2, 0, 7e-6),
                   ("infeasible", 0, 0, 1e-6)],
        "change": [("optimal", 1, 0, 2e-6), ("optimal", 3, 2, 5e-6), ("optimal", 1, 1, 6e-6),
                   ("infeasible", 0, 0, 1e-6)],
    }
    rows = bench_inprocess.outcome_rows(calls)
    assert rows["solves"] == {"parent": 4, "change": 4}
    assert rows["pivots"] == {"parent": 7, "change": 5} and rows["flips"] == {"parent": 0, "change": 3}
    assert rows["total_s"] == pytest.approx({"parent": 20e-6, "change": 14e-6})
    assert [(r["status"], r["pivots"], r["parent_solves"], r["change_solves"]) for r in rows["by_outcome"]] == [
        ("infeasible", 0, 1, 1), ("optimal", 1, 1, 2), ("optimal", "2+", 2, 1)]
    assert rows["by_outcome"][1]["change_us"] == pytest.approx(4.0)
    assert rows["by_outcome"][2]["parent_us"] == pytest.approx(8.0)
    assert rows["by_outcome"][2]["change_us"] == pytest.approx(5.0)


def test_agree_takes_equal_statuses_and_objectives_within_the_tolerance():
    def sig(status, objective, nodes=3, ticks=9):
        return ["baseline", "knap0", "default", *bench_inprocess.signature(status, objective, nodes, ticks)]

    agree = bench_inprocess.agree
    assert agree(sig("optimal", -1e6), sig("optimal", -1e6 * (1 + 5e-10), nodes=4, ticks=5))
    assert agree(sig("optimal", 0.1), sig("optimal", 0.1 + 5e-10))
    assert not agree(sig("optimal", 0.1), sig("optimal", 0.1 + 2e-9))
    assert not agree(sig("optimal", 1.0), sig("time_limit", 1.0))
    assert agree(sig("infeasible", None), sig("infeasible", None))
    assert not agree(sig("time_limit", None), sig("time_limit", 2.0))


def test_signatures_carry_the_bound_and_count_the_jobs_that_keep_it_to_the_bit():
    def row(name, status=RunStatus.OPTIMAL, objective=-3.0, bound=-3.0, nodes=4):
        record = RunRecord(name, "builtin", "default", status, 0.1, objective=objective, best_bound=bound,
                           nodes=nodes, ticks=9)
        return bench_inprocess.record_signature("baseline", record)

    assert row("a") == ["baseline", "a", "default", "optimal", (-3.0).hex(), 4, 9, (-3.0).hex()]
    assert row("b", RunStatus.INFEASIBLE, None, None)[-1] is None
    parent = [row("a"), row("b"), row("c"), row("d"), row("e", RunStatus.INFEASIBLE, None, None)]
    change = [row("a"), row("b", bound=math.nextafter(-3.0, 0.0)), row("c", nodes=5),
              row("d", objective=-3.0 * (1 + 5e-10), bound=-3.1), row("e", RunStatus.INFEASIBLE, None, None)]
    assert bench_inprocess.compare_signatures(parent, change) == {
        "jobs_compared": 5, "identical": 3, "same_bound": 3, "same_status_and_objective": 5}


def test_outcome_rows_split_each_bucket_by_long_step_flips():
    calls = {
        "parent": [("infeasible", 1, 0, 4e-6), ("infeasible", 1, 0, 6e-6)],
        "change": [("infeasible", 1, 2, 9e-6), ("infeasible", 1, 0, 5e-6), ("infeasible", 1, 1, 7e-6)],
    }
    (row,) = bench_inprocess.outcome_rows(calls)["by_outcome"]
    assert (row["parent_solves"], row["parent_flipped_solves"]) == (2, 0)
    assert row["parent_flipped_us"] is None and row["parent_unflipped_us"] == pytest.approx(5.0)
    assert (row["change_solves"], row["change_flipped_solves"]) == (3, 2)
    assert row["change_flipped_us"] == pytest.approx(8.0) and row["change_unflipped_us"] == pytest.approx(5.0)
    assert row["change_us"] == pytest.approx(7.0)


def test_traced_sides_alternate_and_keep_each_run_beside_the_medians(monkeypatch):
    monkeypatch.setattr(bench_inprocess, "TRACED", ("bnb.s", "simplex.iters"))
    order = []

    def run(side):
        order.append(side)
        return {"correct": side == "parent" or len(order) < 6, "bnb.s": float(len(order)), "simplex.iters": 7}

    sides = bench_inprocess.traced_sides(run)
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    assert [r["bnb.s"] for r in sides["parent"]["runs"]] == [1.0, 4.0, 5.0]
    assert [r["bnb.s"] for r in sides["change"]["runs"]] == [2.0, 3.0, 6.0]
    assert (sides["parent"]["bnb.s"], sides["change"]["bnb.s"]) == (4.0, 3.0)
    assert sides["parent"]["simplex.iters"] == sides["change"]["simplex.iters"] == 7
    assert sides["parent"]["correct"] and not sides["change"]["correct"]


def test_presolve_digests_agree_on_equal_results_and_tell_one_ulp_apart():
    def presolved(x_upper):
        inst = Instance(
            "tiny",
            Sense.MINIMIZE,
            (Variable("x", 0.0, x_upper, VarKind.CONTINUOUS), Variable("y", 0.0, 4.0, VarKind.INTEGER)),
            (make_row("r", [(0, 1.0), (1, 2.0)], Relation.LE, 20.0),),  # redundant: dropped, no bound moves
        )
        res = presolve(to_standard_form(inst), ReferenceSolverOptions(presolve_bound_tighten=True,
                                                                       presolve_coeff_reduce=True))
        return res.form, res.back_map.dropped_rows, res.proven_infeasible, res.passes

    same, again, apart = presolved(5.0), presolved(5.0), presolved(math.nextafter(5.0, 0.0))
    assert same[0] is not again[0] and bench_inprocess.digest(*same) == bench_inprocess.digest(*again)
    assert same[1] == (0,) and apart[0].ub[0] == math.nextafter(5.0, 0.0)
    assert bench_inprocess.digest(*apart) != bench_inprocess.digest(*same)
    assert list(bench_inprocess.PRESOLVE_SETS) == ["job", "tighten", "reduce", "both"]


def test_presolve_digests_read_every_entry_of_a_large_form():
    # 40 rows over 30 columns: numpy's repr elides an array of more than 1,000 entries
    def form(middle):
        variables = tuple(Variable(f"x{j}", 0.0, 4.0, VarKind.INTEGER) for j in range(30))
        rows = tuple(make_row(f"r{i}", [(j, middle if (i, j) == (20, 15) else 1.0 + j) for j in range(30)],
                              Relation.LE, 50.0) for i in range(40))
        return to_standard_form(Instance("wide", Sense.MINIMIZE, variables, rows))

    one, other = form(2.0), form(math.nextafter(2.0, 3.0))
    assert repr(one.A) == repr(other.A)
    assert bench_inprocess.digest(one, (), False, 0) != bench_inprocess.digest(other, (), False, 0)
