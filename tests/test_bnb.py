import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from milpbench.instance import Instance, Relation, Sense, Variable, VarKind, make_row
from milpbench.solver import (
    BranchRule,
    NodeStrategy,
    ReferenceSolverOptions,
    SolveStatus,
    branch_and_bound,
    compute_gap,
)
from milpbench.solver import bnb
from milpbench.solver.presolve import presolve
from milpbench.solver.simplex import BoundedSimplex, LpStatus, SimplexBreakdown, solve_lp
from milpbench.solver.standard_form import to_standard_form
from milpbench.validate import check_feasibility

from _helpers import (
    binary_instance,
    chain_instance,
    contradictory_bounds_instance,
    counting_clock,
    empty_cover_instance,
    enumerate_binary_optimum,
    enumerate_box_integer_optimum,
    knapsack_2var,
    market_split_instance,
    parity_infeasible_instance,
    random_binary_instance,
    random_mixed_instance,
    two_row_knapsack,
    var,
)

ALL_STRATEGIES = [
    ReferenceSolverOptions(node_strategy=ns, branch_rule=br)
    for ns in (NodeStrategy.BEST_BOUND, NodeStrategy.DEPTH_FIRST)
    for br in (BranchRule.MOST_FRACTIONAL, BranchRule.PSEUDOCOST)
]


def test_knapsack_matches_enumeration():
    inst = knapsack_2var()
    want_status, want_obj = enumerate_binary_optimum(inst)
    assert (want_status, want_obj) == ("optimal", -2.0)
    out = branch_and_bound(inst, ReferenceSolverOptions())
    assert out.status is SolveStatus.OPTIMAL
    assert out.incumbent.objective == pytest.approx(want_obj, abs=1e-9)
    assert out.incumbent.values == {"x0": 0.0, "x1": 1.0}


def test_unbounded_integer_variable_with_row_bound():
    # min -y, 2y <= 3, y integer >= 0: optimum -1 (oracle: enumerate y in 0..1)
    inst = Instance(
        "gm",
        Sense.MINIMIZE,
        (Variable("y", 0.0, 10.0, VarKind.INTEGER),),
        (make_row("r", [(0, 2.0)], Relation.LE, 3.0),),
        objective=((0, -1.0),),
    )
    want = enumerate_box_integer_optimum(inst)
    assert want == ("optimal", -1.0)
    for rounds in (0, 1, 2):
        out = branch_and_bound(inst, ReferenceSolverOptions(gomory_rounds=rounds))
        assert out.status is SolveStatus.OPTIMAL
        assert out.incumbent.objective == pytest.approx(-1.0, abs=1e-9)


def test_contradictory_bounds_infeasible_fast():
    out = branch_and_bound(contradictory_bounds_instance(), ReferenceSolverOptions())
    assert out.status is SolveStatus.INFEASIBLE
    assert out.nodes in (0, 1)
    assert out.incumbent is None
    assert out.gap == math.inf


def test_time_limit_contract_on_hard_instance():
    inst = market_split_instance(seed=7, n=25, m=4)
    opts = ReferenceSolverOptions(time_limit_s=1.0)
    t0 = time.monotonic()
    out = branch_and_bound(inst, opts)
    elapsed = time.monotonic() - t0
    assert out.status is SolveStatus.TIME_LIMIT
    assert out.wall_time_s <= 1.0 + 1.0  # one node of slack past the deadline
    assert elapsed < 5.0


def test_injected_clock_budget_ends_at_time_limit():
    inst = market_split_instance(seed=3, n=20, m=3)
    out = branch_and_bound(inst, ReferenceSolverOptions(time_limit_s=5), clock=counting_clock())
    assert out.status is SolveStatus.TIME_LIMIT
    assert out.nodes <= 5


def test_oracle_equivalence_random_instances():
    rng = np.random.default_rng(90125)
    n_infeasible = 0
    for _ in range(60):
        inst = random_binary_instance(rng, max_vars=8, max_rows=5)
        want_status, want_obj = enumerate_binary_optimum(inst)
        for base in ALL_STRATEGIES:
            for rounds in (0, 1, 2):
                opts = ReferenceSolverOptions(
                    node_strategy=base.node_strategy,
                    branch_rule=base.branch_rule,
                    gomory_rounds=rounds,
                )
                out = branch_and_bound(inst, opts)
                assert out.status.value == want_status, (inst.name, opts)
                if want_status == "optimal":
                    assert out.incumbent.objective == pytest.approx(want_obj, abs=1e-6)
        if want_status == "infeasible":
            n_infeasible += 1
    assert 0 < n_infeasible < 60  # the generator exercised both outcomes


def test_presolve_and_heuristics_preserve_optimum():
    rng = np.random.default_rng(777)
    heavy = ReferenceSolverOptions(
        gomory_rounds=2,
        cover_cuts=True,
        presolve_bound_tighten=True,
        presolve_coeff_reduce=True,
        diving=True,
        branch_rule=BranchRule.PSEUDOCOST,
    )
    for _ in range(40):
        inst = random_binary_instance(rng, max_vars=8, max_rows=5)
        want_status, want_obj = enumerate_binary_optimum(inst)
        out = branch_and_bound(inst, heavy)
        assert out.status.value == want_status
        if want_status == "optimal":
            assert out.incumbent.objective == pytest.approx(want_obj, abs=1e-6)


def test_presolve_reads_the_rows_as_the_lp_does():
    # a repeated column: max x over integer x in [1, 5] with x, x <= 3; with
    # presolve off, with bound tightening and with both passes the row reads
    # as it is written, 2x <= 3, so x is 1
    inst = Instance(
        "repeat",
        Sense.MAXIMIZE,
        (Variable("x", 1.0, 5.0, VarKind.INTEGER),),
        (make_row("r", [(0, 1.0), (0, 1.0)], Relation.LE, 3.0),),
        objective=((0, 1.0),),
    )
    outs = [branch_and_bound(inst, ReferenceSolverOptions(presolve_bound_tighten=tighten, presolve_coeff_reduce=reduce))
            for tighten, reduce in ((False, False), (True, False), (True, True))]
    assert [(out.status, out.incumbent.objective) for out in outs] == [(SolveStatus.OPTIMAL, 1.0)] * 3


def test_a_repeated_objective_column_counts_each_entry():
    # max x + x over integer x in [0, 3] reads 2x, as Instance.objective_value does
    inst = Instance("repeat-cost", Sense.MAXIMIZE, (Variable("x", 0.0, 3.0, VarKind.INTEGER),), (),
                    objective=((0, 1.0), (0, 1.0)))
    out = branch_and_bound(inst, ReferenceSolverOptions())
    assert out.status is SolveStatus.OPTIMAL
    assert out.incumbent.objective == inst.objective_value([3.0]) == 6.0


def test_determinism_nodes_incumbent_ticks():
    rng = np.random.default_rng(5150)
    for _ in range(10):
        inst = random_binary_instance(rng, max_vars=9, max_rows=5)
        for opts in ALL_STRATEGIES:
            a = branch_and_bound(inst, opts)
            b = branch_and_bound(inst, opts)
            assert a.status == b.status
            assert a.nodes == b.nodes
            assert a.deterministic_ticks == b.deterministic_ticks
            if a.incumbent is not None:
                assert a.incumbent.values == b.incumbent.values
                assert a.incumbent.objective == b.incumbent.objective


def test_bound_monotone_in_node_budget():
    inst = market_split_instance(seed=11, n=18, m=3)
    prev = -math.inf
    stopped = 0
    for limit in (1, 2, 4, 8, 16, 32, 64):
        out = branch_and_bound(inst, ReferenceSolverOptions(time_limit_s=limit), clock=counting_clock())
        if out.status is not SolveStatus.TIME_LIMIT:
            break  # solved within the budget; bound settles at the optimum
        assert out.best_bound >= prev - 1e-9
        prev = out.best_bound
        stopped += 1
    assert stopped >= 3  # the budgets did cut the search short


def test_incumbents_pass_independent_feasibility_check():
    rng = np.random.default_rng(2310)
    checked = 0
    for _ in range(30):
        inst = random_binary_instance(rng, max_vars=8, max_rows=5)
        out = branch_and_bound(inst, ReferenceSolverOptions(gomory_rounds=1, diving=True))
        if out.incumbent is None:
            continue
        report = check_feasibility(inst, out.incumbent, 1e-6, 1e-6, 1e-6)
        assert report.feasible
        assert report.objective_recomputed == pytest.approx(out.incumbent.objective, rel=1e-9, abs=1e-9)
        checked += 1
    assert checked > 10


def test_incumbent_meets_each_row_side_at_its_own_scale():
    # 0 <= 1000x - 1000y <= 1000: with both sides scaled by 1000, the point
    # (1, 1.0000005) passed the solver's row check at -0.9990005, though its
    # lower side is broken by 5e-4 and the audit rejects it
    inst = Instance(
        "scaled_sides",
        Sense.MINIMIZE,
        (Variable("x", 0.0, 10.0, VarKind.INTEGER), Variable("y", 0.0, 1.0000005, VarKind.CONTINUOUS)),
        (make_row("r", [(0, 1000.0), (1, -1000.0)], Relation.RANGE, 1000.0, range_width=1000.0),),
        objective=((0, 0.001), (1, -1.0)),
    )
    out = branch_and_bound(inst, ReferenceSolverOptions())
    assert out.status is SolveStatus.OPTIMAL
    assert check_feasibility(inst, out.incumbent).feasible
    assert out.incumbent.objective == pytest.approx(-0.999, abs=1e-9)


def test_gap_formula():
    assert compute_gap(10.0, 10.0) == 0.0
    assert compute_gap(10.0, 9.0) == pytest.approx(0.1, abs=1e-15)
    assert compute_gap(None, 5.0) == math.inf


def test_rel_gap_early_stop():
    inst = chain_instance(12, off_lattice=True)
    exact = branch_and_bound(inst, ReferenceSolverOptions())
    loose = branch_and_bound(inst, ReferenceSolverOptions(rel_gap=0.10))
    assert exact.status is loose.status is SolveStatus.OPTIMAL
    assert loose.gap <= 0.10 + 1e-12
    assert loose.nodes <= exact.nodes
    # the true optimum is -1.5 - (n-2) = -11.5; the loose run may stop with the weaker bound
    assert exact.incumbent.objective == pytest.approx(-11.5, abs=1e-9)


def test_gap_zero_goes_on_one_step_from_a_large_incumbent():
    # min -1e7 x0 - v @ x over binaries under one packing row: best-bound
    # search holds the incumbent -10000081 while a node whose bound rounds to
    # the optimum -10000082 is open.  Their gap, 1 / 10000081 < 1e-7, is not
    # 0, so at gap 0 the search goes on and proves the optimum; at a gap of
    # 1e-7 it stops a whole step short
    w, v = [19, 18, 8, 4, 19, 3], [6, 18, 15, 24, 17, 25]
    inst = binary_instance("big", 7, [make_row("c", [(j + 1, float(a)) for j, a in enumerate(w)], Relation.LE, 35.0)],
                           [(0, -1e7)] + [(j + 1, -float(a)) for j, a in enumerate(v)])
    assert enumerate_binary_optimum(inst) == ("optimal", -10000082.0)
    out = branch_and_bound(inst, ReferenceSolverOptions())
    assert out.status is SolveStatus.OPTIMAL and out.incumbent.objective == out.best_bound == -10000082.0
    loose = branch_and_bound(inst, ReferenceSolverOptions(rel_gap=1e-7))
    assert loose.status is SolveStatus.OPTIMAL and loose.incumbent.objective == -10000081.0


def test_chain_instance_gomory_collapses_tree():
    inst = chain_instance(30, off_lattice=True)
    plain = branch_and_bound(inst, ReferenceSolverOptions())
    cut = branch_and_bound(inst, ReferenceSolverOptions(gomory_rounds=1))
    assert plain.incumbent.objective == pytest.approx(-29.5, abs=1e-6)
    assert cut.incumbent.objective == pytest.approx(-29.5, abs=1e-6)
    assert cut.nodes < plain.nodes / 5


def test_mixed_integer_continuous():
    # min x + 2.5c with x + c >= 2.7: best of x in 0..3 with c = max(0, 2.7-x)
    # by hand is x=3, c=0, objective 3
    inst = Instance(
        "mixed",
        Sense.MINIMIZE,
        (Variable("x", 0, 3, VarKind.INTEGER), Variable("c", 0.0, 10.0)),
        (make_row("cover", [(0, 1.0), (1, 1.0)], Relation.GE, 2.7),),
        objective=((0, 1.0), (1, 2.5)),
    )
    for opts in ALL_STRATEGIES:
        out = branch_and_bound(inst, opts)
        assert out.status is SolveStatus.OPTIMAL
        assert out.incumbent.objective == pytest.approx(3.0, abs=1e-9)
        assert out.incumbent.values["x"] == pytest.approx(3.0, abs=1e-9)
        assert out.incumbent.values["c"] == pytest.approx(0.0, abs=1e-9)


def test_continuous_part_solved_exactly_at_incumbent():
    # max c with c <= x/2, x binary: x=1 and c=0.5 exactly
    inst = Instance(
        "half",
        Sense.MAXIMIZE,
        (Variable("x", 0, 1, VarKind.BINARY), Variable("c", 0.0, 1.0)),
        (make_row("link", [(0, -0.5), (1, 1.0)], Relation.LE, 0.0),),
        objective=((1, 1.0),),
    )
    out = branch_and_bound(inst, ReferenceSolverOptions())
    assert out.status is SolveStatus.OPTIMAL
    assert out.incumbent.objective == pytest.approx(0.5, abs=1e-9)
    assert out.incumbent.values == {"x": 1.0, "c": 0.5}


def test_maximization_sense_restored():
    inst = Instance(
        "mx",
        Sense.MAXIMIZE,
        (Variable("x", 0, 4, VarKind.INTEGER), Variable("y", 0, 4, VarKind.INTEGER)),
        (make_row("r", [(0, 2.0), (1, 3.0)], Relation.LE, 11.0),),
        objective=((0, 3.0), (1, 4.0)),
        objective_constant=1.0,
    )
    want = enumerate_box_integer_optimum(inst)
    out = branch_and_bound(inst, ReferenceSolverOptions())
    assert out.status is SolveStatus.OPTIMAL
    assert out.incumbent.objective == pytest.approx(want[1], abs=1e-9)
    assert out.best_bound >= out.incumbent.objective - 1e-9  # bound on the max side


def test_node_lps_start_from_the_parent_basis():
    # a cold node LP repeats phase 1 from the bound box, about 30 pivots a node here
    out = branch_and_bound(chain_instance(60, off_lattice=True), ReferenceSolverOptions())
    assert out.status is SolveStatus.OPTIMAL
    assert out.deterministic_ticks / out.nodes <= 3


def _flaky_attempts(monkeypatch, solve_call, fail_attempts):
    """Make the given (1-based) attempts of the ``solve_call``-th
    BoundedSimplex.solve raise a breakdown; returns the Bland flag of every
    attempt of that call."""
    solve, start = BoundedSimplex.solve, BoundedSimplex._solve_from
    calls, flags = [], []

    def counted(self, *args):
        calls.append(1)
        return solve(self, *args)

    def attempt(self, basis, status):
        if len(calls) != solve_call:
            return start(self, basis, status)
        flags.append(self._bland)
        if len(flags) in fail_attempts:
            raise SimplexBreakdown("injected")
        return start(self, basis, status)

    monkeypatch.setattr(BoundedSimplex, "solve", counted)
    monkeypatch.setattr(BoundedSimplex, "_solve_from", attempt)
    return flags


def test_node_breakdown_is_retried_under_blands_rule(monkeypatch):
    inst = chain_instance(10, off_lattice=True)
    want = branch_and_bound(inst, ReferenceSolverOptions())
    assert want.status is SolveStatus.OPTIMAL and want.nodes > 5
    # the third node LP: its warm and slack attempts break down
    flags = _flaky_attempts(monkeypatch, 4, {1, 2})
    out = branch_and_bound(inst, ReferenceSolverOptions())
    assert flags == [False, False, True]
    assert out.status is SolveStatus.OPTIMAL
    assert out.incumbent.objective == want.incumbent.objective


def test_node_breakdown_after_the_retry_is_an_error(monkeypatch):
    inst = chain_instance(10, off_lattice=True)
    flags = _flaky_attempts(monkeypatch, 4, {1, 2, 3})
    out = branch_and_bound(inst, ReferenceSolverOptions())
    assert flags == [False, False, True]
    assert out.status is SolveStatus.ERROR


def test_an_error_exit_keeps_the_unsolved_nodes_bound(monkeypatch):
    # the second node LP breaks down on every attempt after the first node
    # found the incumbent -9.5; that node was popped but never solved, so its
    # bound, the root's -10, still counts
    flags = _flaky_attempts(monkeypatch, 3, {1, 2, 3})
    out = branch_and_bound(chain_instance(10, off_lattice=True), ReferenceSolverOptions())
    assert flags == [False, False, True]
    assert out.status is SolveStatus.ERROR and out.incumbent.objective == -9.5
    assert out.best_bound <= -10.0 and out.gap > 0


def _ray() -> Instance:
    """min -x  s.t.  x - y <= 1 over integers x, y >= 0: the LP is unbounded."""
    variables = tuple(Variable(name, 0.0, math.inf, VarKind.INTEGER) for name in ("x", "y"))
    return Instance("ray", Sense.MINIMIZE, variables, (make_row("r", [(0, 1.0), (1, -1.0)], Relation.LE, 1.0),),
                    ((0, -1.0),))


# the root, decided by visit as every node is: (model, options, the solve call
# and its attempts that break down, status, best_bound, nodes).  When the first
# cut LP breaks down, the root LP's -124.19..., rounded up to the objective's
# step of 1, is still the bound; when the second does, the first cut LP's
# -122.19... is
_ROOT_FATES = {
    "infeasible": (contradictory_bounds_instance, ReferenceSolverOptions(), None,
                   SolveStatus.INFEASIBLE, math.inf, 1),
    "root_lp_breaks_down": (knapsack_2var, ReferenceSolverOptions(), (1, {1, 2}),
                            SolveStatus.ERROR, -math.inf, 0),
    "cut_lp_breaks_down": (two_row_knapsack, ReferenceSolverOptions(gomory_rounds=3), (2, {1, 2, 3}),
                           SolveStatus.ERROR, -124.0, 1),
    "second_cut_lp_breaks_down": (two_row_knapsack, ReferenceSolverOptions(gomory_rounds=3), (3, {1, 2, 3}),
                                  SolveStatus.ERROR, -122.0, 1),
    "unbounded": (_ray, ReferenceSolverOptions(), None, SolveStatus.ERROR, -math.inf, 1),
    "integral": (knapsack_2var, ReferenceSolverOptions(), None, SolveStatus.OPTIMAL, -2.0, 1),
}


@pytest.mark.parametrize("fate", sorted(_ROOT_FATES))
def test_the_roots_fates(monkeypatch, fate):
    model, opts, flaky, status, bound, nodes = _ROOT_FATES[fate]
    flags = _flaky_attempts(monkeypatch, *flaky) if flaky else []
    out = branch_and_bound(model(), opts)
    assert (out.status, out.best_bound, out.nodes) == (status, bound, nodes)
    assert len(flags) == (len(flaky[1]) if flaky else 0)  # every attempt of that solve broke down
    if status is SolveStatus.OPTIMAL:
        assert out.incumbent.objective == out.best_bound


def _near_integral(with_z: bool) -> Instance:
    """max x (+ z) over integers x in [-1, 1] (and z in [0, 1]) under 1000x <=
    -0.0005 (and 2z <= 1).  The LP gives x = -5e-7, which counts as integral;
    snapped to 0 it breaks the row by 5e-4.  With z the root is fractional,
    and its child at z = 0 has that point."""
    variables = [Variable("x", -1.0, 1.0, VarKind.INTEGER)]
    rows = [make_row("r", [(0, 1000.0)], Relation.LE, -0.0005)]
    if with_z:
        variables.append(Variable("z", 0.0, 1.0, VarKind.INTEGER))
        rows.append(make_row("s", [(1, 2.0)], Relation.LE, 1.0))
    return Instance("near", Sense.MAXIMIZE, tuple(variables), tuple(rows),
                    tuple((j, 1.0) for j in range(len(variables))))


def test_a_rejected_integral_point_is_an_error_at_every_node():
    # x = -1, z = 0 is feasible, so dropping the node that holds the rejected
    # point and reporting INFEASIBLE would be wrong
    inst = _near_integral(True)
    assert enumerate_box_integer_optimum(inst) == ("optimal", -1.0)
    out = branch_and_bound(inst, ReferenceSolverOptions())
    assert out.status is SolveStatus.ERROR and out.incumbent is None and out.nodes == 2
    assert out.best_bound >= -1.0  # a bound on the max side
    # the root alone: its bound is its LP's, which rounding to the step leaves as it is
    root = _near_integral(False)
    out = branch_and_bound(root, ReferenceSolverOptions())
    assert out.status is SolveStatus.ERROR and out.incumbent is None and out.nodes == 1
    assert out.best_bound == solve_lp(root).objective


_CUTS_AND_DIVE =ReferenceSolverOptions(gomory_rounds=3, cover_cuts=True, diving=True)


def test_one_lp_object_per_row_set(monkeypatch):
    # the search builds its LP once, and once more after each cut round that
    # added rows, however many root, cut, dive and node LPs it solves
    built, solves, pending, rounds = [], [], [], []
    init, solve = BoundedSimplex.__init__, BoundedSimplex.solve
    gomory, cover = bnb.gomory_cuts, bnb.cover_cuts

    def gomory_spy(*args):
        cuts = gomory(*args)
        pending.append(len(cuts))
        return cuts

    def cover_spy(*args):  # with covers on, every round ends with one cover call
        cuts = cover(*args)
        rounds.append(sum(pending) + len(cuts))
        pending.clear()
        return cuts

    monkeypatch.setattr(BoundedSimplex, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    monkeypatch.setattr(BoundedSimplex, "solve", lambda self, *a, **k: solves.append(1) or solve(self, *a, **k))
    monkeypatch.setattr(bnb, "gomory_cuts", gomory_spy)
    monkeypatch.setattr(bnb, "cover_cuts", cover_spy)
    out = branch_and_bound(two_row_knapsack(seed=2), _CUTS_AND_DIVE)
    assert out.status is SolveStatus.OPTIMAL and out.nodes > 5
    added = sum(1 for rows in rounds if rows)
    assert added >= 2 and len(solves) > 10
    assert len(built) == 1 + added


def test_first_tree_node_starts_from_the_root_basis_not_the_dive(monkeypatch):
    # the LP after the last cut round ends the root, the next solve is the
    # dive's first LP, and the first tree-node LP is the first solve after a
    # node below the root is made
    calls, cut_rounds, first_node = [], [], []
    solve, add_cut_rows, node = BoundedSimplex.solve, bnb._Search.add_cut_rows, bnb._Node

    def spy(self, lb=None, ub=None, warm=None):
        res = solve(self, lb, ub, warm)
        calls.append((warm, res))
        return res

    def node_spy(*args):
        if args[1]:  # the depth: the root, made first, is no tree node
            first_node.append(len(calls))
        return node(*args)

    monkeypatch.setattr(BoundedSimplex, "solve", spy)
    monkeypatch.setattr(bnb._Search, "add_cut_rows", lambda *a: cut_rounds.append(len(calls)) or add_cut_rows(*a))
    monkeypatch.setattr(bnb, "_Node", node_spy)
    # seed 1's dive finds an incumbent that its rounded root bound proves
    # optimal, so no tree node solves an LP there
    out = branch_and_bound(two_row_knapsack(seed=2), _CUTS_AND_DIVE)
    assert out.status is SolveStatus.OPTIMAL and cut_rounds
    dive = cut_rounds[-1] + 1
    tree = first_node[0]
    root_warm, dive_warm = calls[dive - 1][1].warm, calls[tree - 1][1].warm
    assert calls[dive][0] is root_warm
    assert tree - dive >= 2 and not np.array_equal(root_warm[1], dive_warm[1])  # the dive moved the basis
    assert calls[tree][0] is root_warm


def test_cut_rounds_stop_at_the_deadline(monkeypatch):
    # the clock reads 0 at the start and 1 before the first cut round, when a
    # limit of 1 has run out: no round is separated, and the root LP's bound,
    # rounded up to the objective's step of 1, stands
    separated = []
    gomory, cover = bnb.gomory_cuts, bnb.cover_cuts
    monkeypatch.setattr(bnb, "gomory_cuts", lambda *a: separated.append("gomory") or gomory(*a))
    monkeypatch.setattr(bnb, "cover_cuts", lambda *a: separated.append("cover") or cover(*a))
    inst = two_row_knapsack()
    out = branch_and_bound(inst, replace(_CUTS_AND_DIVE, time_limit_s=1), clock=counting_clock())
    assert separated == []
    assert out.status is SolveStatus.TIME_LIMIT and out.incumbent is None
    assert out.best_bound == math.ceil(solve_lp(inst).objective)


def _mixed_model(seed: int = 7):
    """Four general integers, three binaries and three continuous columns under four packing rows."""
    rng = np.random.default_rng(seed)
    kinds = [VarKind.INTEGER] * 4 + [VarKind.BINARY] * 3 + [VarKind.CONTINUOUS] * 3
    upper = {VarKind.INTEGER: 6.0, VarKind.BINARY: 1.0, VarKind.CONTINUOUS: 10.0}
    variables = tuple(Variable(f"x{j}", 0.0, upper[k], k) for j, k in enumerate(kinds))
    rows = tuple(
        make_row(f"r{i}", [(j, float(rng.integers(1, 9))) for j in range(10) if rng.random() < 0.7],
                 Relation.LE, float(rng.integers(15, 30)))
        for i in range(4)
    )
    return Instance("mixed", Sense.MINIMIZE, variables, rows, tuple((j, -float(rng.integers(1, 12))) for j in range(10)))


_PIN_OPTIONS = {
    "best_bound": ReferenceSolverOptions(),
    "depth_first_pseudocost": ReferenceSolverOptions(
        node_strategy=NodeStrategy.DEPTH_FIRST, branch_rule=BranchRule.PSEUDOCOST
    ),
    "diving": ReferenceSolverOptions(diving=True),
}

# (nodes, deterministic_ticks) per option set; a change that alters pivots or
# the node order on purpose updates these and says so
_TREE_PINS = {
    "chain": {"best_bound": (2, 2), "depth_first_pseudocost": (2, 2), "diving": (1, 2)},
    "chain_off_lattice": {"best_bound": (27, 27), "depth_first_pseudocost": (27, 27), "diving": (27, 28)},
    "knapsack": {"best_bound": (17, 25), "depth_first_pseudocost": (17, 26), "diving": (17, 32)},
    "market_split": {"best_bound": (18, 25), "depth_first_pseudocost": (12, 18), "diving": (18, 34)},
    "mixed": {"best_bound": (5, 5), "depth_first_pseudocost": (5, 5), "diving": (4, 5)},
}


_PIN_MODELS = {
    "chain": lambda: chain_instance(14),
    "chain_off_lattice": lambda: chain_instance(14, off_lattice=True),
    "knapsack": two_row_knapsack,
    "market_split": lambda: market_split_instance(seed=5, n=12, m=2),
    "mixed": _mixed_model,
}


@pytest.mark.parametrize("model", sorted(_TREE_PINS))
def test_tree_size_and_ticks_are_pinned(model):
    inst = _PIN_MODELS[model]()
    got = {}
    for name, opts in _PIN_OPTIONS.items():
        out = branch_and_bound(inst, opts)
        assert out.status is (SolveStatus.INFEASIBLE if model == "market_split" else SolveStatus.OPTIMAL)
        got[name] = (out.nodes, out.deterministic_ticks)
    assert got == _TREE_PINS[model]


def test_boxed_models_never_enter_phase_one(monkeypatch):
    # every column of these models has two finite bounds, as in the
    # benchmark, so every LP starts dual feasible: dual phase 1 is for
    # columns with an infinite bound alone
    entered = []
    monkeypatch.setattr(BoundedSimplex, "_phase_one", lambda self, *a: entered.append(self.form.name))
    rng = np.random.default_rng(3)
    models = [make() for make in _PIN_MODELS.values()] + [
        knapsack_2var(), chain_instance(9), market_split_instance(seed=2, n=10, m=2), parity_infeasible_instance(),
        empty_cover_instance(), contradictory_bounds_instance(),
    ] + [random_binary_instance(rng) for _ in range(30)]
    for inst in models:
        for opts in [*_PIN_OPTIONS.values(), _CUTS_AND_DIVE]:
            branch_and_bound(inst, opts)
    assert entered == []


def test_pseudocosts_average_each_directions_degradation_per_unit():
    # a child that moved its column down by the fraction f, or up by 1 - f,
    # adds (its objective - the parent's bound) / that distance to the mean
    # of its direction; the root and a better child add nothing and 0
    search = bnb._Search(to_standard_form(knapsack_2var()), ReferenceSolverOptions())
    lb, ub = search.form.lb, search.form.ub
    search.observe_pseudocost(bnb._Node(-math.inf, 0, 0, lb, ub), 5.0)
    for up, frac, obj in [(True, 0.25, 2.0), (True, 0.5, 1.5), (False, 0.25, 2.0), (False, 0.5, 0.5)]:
        search.observe_pseudocost(bnb._Node(1.0, 1, 1, lb, ub, 0, up, frac), obj)
    assert search.pc_up[0] == pytest.approx((1 / 0.75 + 0.5 / 0.5) / 2) and search.pc_up_count[0] == 2
    assert search.pc_dn[0] == pytest.approx((1 / 0.25 + 0.0) / 2) and search.pc_dn_count[0] == 2
    assert search.pc_up[1] == search.pc_dn[1] == 2.0 and search.pc_up_count[1] == 0  # the cold start |c|


@pytest.mark.parametrize("rule", list(BranchRule))
def test_branching_tie_goes_to_the_lower_index(rule):
    # x2 = 0.25 and x3 = 0.75 score bitwise alike under both rules (0.25,
    # and 0.1875 with unit pseudocosts), above x0 and x4
    search = bnb._Search(to_standard_form(chain_instance(6)), ReferenceSolverOptions(branch_rule=rule))
    search.pc_dn[:] = search.pc_up[:] = 1.0
    x = np.array([0.2, 0.0, 0.25, 0.75, 0.1, 0.0])
    assert search.pick_branch_var(x, np.array([0, 2, 3, 4])) == 2
    assert search.pick_branch_var(x, np.array([3, 4])) == 3


_INT, _CONT = VarKind.INTEGER, VarKind.CONTINUOUS


def _costed(costs, kinds, sense=Sense.MINIMIZE, rows=()):
    """Columns in [0, 5] of the given kinds and costs; a kind of None is a
    continuous column in [0, inf)."""
    variables = tuple(Variable(f"x{j}", 0.0, math.inf, _CONT) if kind is None else Variable(f"x{j}", 0.0, 5.0, kind)
                      for j, kind in enumerate(kinds))
    return Instance("costed", sense, variables, tuple(rows), tuple(enumerate(costs)))


@pytest.mark.parametrize("costs, kinds, sense, step", [
    ([4.0, 6.0], [_INT, _INT], Sense.MINIMIZE, 2.0),
    ([-4.0, 6.0, 0.0], [_INT, _INT, _CONT], Sense.MINIMIZE, 2.0),  # a continuous column at cost 0
    ([4.0, 6.0, 1.0], [_INT, _INT, _CONT], Sense.MINIMIZE, None),  # a costed continuous column
    ([4.0, 0.5], [_INT, _INT], Sense.MINIMIZE, None),
    ([0.0, 0.0], [_INT, _CONT], Sense.MINIMIZE, None),  # an all-zero objective
    ([3.0, 6.0], [_INT, _INT], Sense.MAXIMIZE, 3.0),
    ([2.0 ** 53, 2.0], [_INT, _INT], Sense.MINIMIZE, None),
    ([4.0, 6.0, 0.0], [_INT, _INT, None], Sense.MINIMIZE, None),  # an unbounded continuous column
])
def test_objective_step_is_the_gcd_of_the_integer_costs(costs, kinds, sense, step):
    assert bnb.objective_step(to_standard_form(_costed(costs, kinds, sense))) == step


def test_a_column_that_presolve_fixes_keeps_its_cost_in_the_step():
    # x1 >= 5 fixes x1 at its upper bound 5; presolve keeps every column, so
    # its cost 6 still counts, and the optimum 4*0 + 6*5 is found and proven
    inst = _costed([4.0, 6.0], [_INT, _INT], rows=[make_row("fix", [(1, 1.0)], Relation.GE, 5.0)])
    opts = ReferenceSolverOptions(presolve_bound_tighten=True)
    reduced = presolve(to_standard_form(inst), opts).form
    assert reduced.lb[1] == reduced.ub[1] == 5.0
    assert bnb.objective_step(reduced) == 2.0
    out = branch_and_bound(inst, opts)
    assert out.status is SolveStatus.OPTIMAL and out.incumbent.objective == out.best_bound == 30.0


def test_rounded_bounds_stay_on_their_integral_value():
    # a bound read a little above k·step stays as it was read, never lifted to
    # the next multiple; a bound between two multiples goes up to the next one;
    # no step leaves a bound as it is
    search = bnb._Search(to_standard_form(_costed([2.0, 4.0], [_INT, _INT])), ReferenceSolverOptions())
    assert search.step == 2.0
    bounds = (6.0, 6.0 + 1e-9, 6.0 * (1 + 1e-12), 6.0 + 1e-6, 5.0, 6.0 + 0.01,
              -9.0, -10.0 + 1e-7, 2e6 - 1e-3, 2e6 + 1e-3, math.inf, -math.inf)
    got = [search.rounded(b) for b in bounds]
    assert got == [6.0, 6.0 + 1e-9, 6.0 * (1 + 1e-12), 6.0 + 1e-6, 6.0, 8.0,
                   -8.0, -10.0 + 1e-7, 2e6, 2e6 + 2.0, math.inf, -math.inf]
    search.incumbent_obj = 8.0
    assert not search.prunes(6.0 + 1e-9) and search.prunes(6.5)
    no_step = bnb._Search(to_standard_form(_costed([2.0, 0.5], [_INT, _INT])), ReferenceSolverOptions())
    assert no_step.step is None and no_step.rounded(5.25) == 5.25


@pytest.mark.parametrize("inc", [3e6, -3e6, 3e7, -3e7])
def test_large_bounds_round_up_and_prune_at_the_incumbent(inc):
    # far from 0, rounding takes off only the float noise of the bound: a
    # bound at or above the incumbent, or a fraction of a step under it,
    # prunes; one a whole step under it does not
    search = bnb._Search(to_standard_form(_costed([1.0, 1.0], [_INT, _INT])), ReferenceSolverOptions())
    search.incumbent_obj = inc
    for b in (inc - 1.5, inc - 1.0, inc - 0.5, inc - 1e-3, inc, inc + 0.5, inc + 1.0):
        assert search.rounded(b) >= b
        assert search.prunes(b) is (b > inc - 1.0), b
    assert search.rounded(inc - 0.5) == inc


def test_the_step_tolerance_grows_with_how_far_the_columns_can_move():
    # _OPT_TOL of every column's range, and of each row column's reach over
    # the box, per step: ranges 5 + 5 and a row reaching 2*5 + 3*5, at step 2
    inst = _costed([2.0, 4.0], [_INT, _INT], rows=[make_row("r", [(0, 2.0), (1, -3.0)], Relation.LE, 4.0)])
    search = bnb._Search(to_standard_form(inst), ReferenceSolverOptions())
    assert search.step_tol == pytest.approx(bnb._STEP_TOL + bnb._OPT_TOL * (10.0 + 25.0) / 2.0)
    # integer columns in [0, 1e7] reach 2e7 over their ranges alone, so the
    # tolerance spans 0.01 of a step: a bound 0.005 above a multiple is left
    # as read, one 0.5 above it is raised to the next multiple
    wide = Instance("wide", Sense.MINIMIZE, (Variable("x", 0.0, 1e7, _INT), Variable("y", 0.0, 1e7, _INT)), (),
                    ((0, 1.0), (1, 1.0)))
    search = bnb._Search(to_standard_form(wide), ReferenceSolverOptions())
    assert search.step_tol == pytest.approx(bnb._STEP_TOL + 0.02)
    assert search.rounded(7.005) == 7.005 and search.rounded(7.5) == 8.0


def test_an_lp_bound_on_an_integer_up_to_float_noise_is_not_rounded_past_it():
    # x = y and 0.7x + 0.7y >= 2.1: the root LP reads 3.0000000000000004 at
    # x = y = 1.5, and the integer optimum is 4.  Stopped before any node, the
    # search reports the root's bound as 3, not 4; run to the end, it proves 4
    inst = _costed([1.0, 1.0], [_INT, _INT], rows=[
        make_row("r", [(0, 0.7), (1, 0.7)], Relation.GE, 2.1),
        make_row("d", [(0, 1.0), (1, -1.0)], Relation.EQ, 0.0),
    ])
    assert solve_lp(inst).objective > 3.0
    stopped = branch_and_bound(inst, ReferenceSolverOptions(time_limit_s=1), clock=counting_clock())
    assert stopped.status is SolveStatus.TIME_LIMIT and stopped.best_bound == pytest.approx(3.0, abs=1e-12)
    out = branch_and_bound(inst, ReferenceSolverOptions())
    assert out.status is SolveStatus.OPTIMAL and out.incumbent.objective == out.best_bound == 4.0


def test_chains_settle_at_the_root_on_the_objectives_step():
    for n in range(1, 121):
        out = branch_and_bound(chain_instance(n), ReferenceSolverOptions())
        assert out.status is SolveStatus.OPTIMAL and out.incumbent.objective == -(n - 1) == out.best_bound
        assert out.nodes <= 3, n


def _enumerable(inst: Instance) -> bool:
    """Every column integral, over at most 4,096 points."""
    return all(v.is_integral for v in inst.variables) and math.prod(
        v.upper - v.lower + 1 for v in inst.variables) <= 4096


def test_rounded_search_matches_enumeration_and_proves_its_bound():
    # every OPTIMAL outcome at gap 0 reports its objective as its bound, with
    # or without a step; models with continuous columns check that alone
    rng = np.random.default_rng(2507)
    heavy = ReferenceSolverOptions(gomory_rounds=2, cover_cuts=True, presolve_bound_tighten=True, diving=True,
                                   node_strategy=NodeStrategy.DEPTH_FIRST, branch_rule=BranchRule.PSEUDOCOST)
    stepped = enumerated = 0
    for k in range(400):
        inst = random_binary_instance(rng, max_vars=8, max_rows=5) if k % 2 else random_mixed_instance(rng)
        stepped += bnb.objective_step(to_standard_form(inst)) is not None
        want = None
        if all(v.kind is VarKind.BINARY for v in inst.variables):
            want = enumerate_binary_optimum(inst)
        elif _enumerable(inst):
            want = enumerate_box_integer_optimum(inst)
        enumerated += want is not None
        out = branch_and_bound(inst, heavy if k % 4 < 2 else ReferenceSolverOptions())
        if want is not None:
            assert out.status.value == want[0], inst.name
            if want[0] == "optimal":
                assert out.incumbent.objective == pytest.approx(want[1], abs=1e-9), inst.name
        if out.status is SolveStatus.OPTIMAL:
            assert out.best_bound == out.incumbent.objective and out.gap == 0.0, inst.name
    assert stepped > 200 and enumerated > 250


def _enumerated(form, lb, ub):
    """The least ``c @ x`` over the points of the box ``lb``/``ub`` that meet
    every row of ``form``: the integer columns are enumerated, the continuous
    ones solved by an LP at each integer point that the continuous columns'
    activity range and cost bound leave open.  None when no point meets the
    rows, -inf when an LP is unbounded."""
    ii, cc = np.flatnonzero(form.is_int), np.flatnonzero(~form.is_int)
    points = list(itertools.product(*(np.arange(lb[j], ub[j] + 1) for j in ii)))
    points = np.array(points, dtype=float).reshape(len(points), ii.size)
    A_c, c_c = form.A[:, cc], form.c[cc]
    with np.errstate(invalid="ignore"):  # 0 * inf: a zero entry adds nothing
        at = [np.where(A_c == 0, 0.0, A_c * side[cc]) for side in (lb, ub)]
        cost = [np.where(c_c == 0, 0.0, c_c * side[cc]) for side in (lb, ub)]
    act = points @ form.A[:, ii].T
    ok = np.all((act + np.minimum(*at).sum(1) <= form.rup + 1e-9)
                & (act + np.maximum(*at).sum(1) >= form.rlo - 1e-9), axis=1)
    points = points[ok]
    bound = points @ form.c[ii] + np.minimum(*cost).sum()
    if not cc.size:
        return float(bound.min()) if bound.size else None
    splx, best, warm = BoundedSimplex(form), None, None
    for k in np.argsort(bound, kind="stable"):
        if best is not None and bound[k] >= best:
            break
        lo, hi = lb.copy(), ub.copy()
        lo[ii] = hi[ii] = points[k]
        res = splx.solve(lo, hi, warm)
        warm = res.warm or warm
        if res.status is LpStatus.UNBOUNDED:
            return -math.inf
        if res.status is LpStatus.OPTIMAL and (best is None or res.objective < best):
            best = res.objective
    return best


def test_children_settled_by_propagation_hold_no_point(monkeypatch):
    # a child whose propagated bounds cross is settled without an LP; over
    # its unpropagated bounds a full LP solve finds it INFEASIBLE, or, where
    # propagation's integer rounding proves more than the LP, no integer
    # point meets its rows; every solve matches enumeration
    settled = []
    propagated = bnb._Search.propagated

    def spy(self, node):
        bounds = propagated(self, node)
        if bounds is None:
            settled.append((self.form, node.lb.copy(), node.ub.copy()))
        return bounds

    monkeypatch.setattr(bnb._Search, "propagated", spy)
    models = [(_PIN_MODELS[name](), opts) for name in sorted(_PIN_MODELS) for opts in _PIN_OPTIONS.values()]
    rng = np.random.default_rng(4111)
    heavy = ReferenceSolverOptions(gomory_rounds=2, cover_cuts=True, presolve_bound_tighten=True,
                                   presolve_coeff_reduce=True, diving=True,
                                   node_strategy=NodeStrategy.DEPTH_FIRST, branch_rule=BranchRule.PSEUDOCOST)
    for k in range(500):
        inst = random_binary_instance(rng, max_vars=10, max_rows=6) if k % 2 else random_mixed_instance(rng)
        models.append((inst, heavy if k % 4 < 2 else ReferenceSolverOptions()))
    compared = n_settled = lp_feasible = 0
    for inst, opts in models:
        settled.clear()
        out = branch_and_bound(inst, opts)
        form = to_standard_form(inst)
        want = _enumerated(form, form.lb, form.ub)
        if want is None:
            assert out.status is SolveStatus.INFEASIBLE, inst.name
        elif math.isfinite(want):
            assert out.status is SolveStatus.OPTIMAL, inst.name
            assert out.incumbent.objective == pytest.approx(form.user_objective(want), abs=1e-6), inst.name
        compared += want is None or math.isfinite(want)
        n_settled += len(settled)
        for child_form, lb, ub in settled:
            if BoundedSimplex(child_form).solve(lb, ub).status is not LpStatus.INFEASIBLE:
                lp_feasible += 1
                assert _enumerated(child_form, lb, ub) is None, inst.name
    assert compared > 480 and n_settled - lp_feasible > 20 and lp_feasible > 20


def _equality_model(rng) -> Instance:
    """Six to twelve binaries, some fixed at 1, under one or two equality rows
    with integer coefficients in [-9, 19], zeros among them, near a 0/1 point,
    and a packing row that cover cuts can separate."""
    n = int(rng.integers(6, 13))
    fixed = rng.random(n) < 0.15
    variables = tuple(Variable(f"x{j}", float(f), 1.0, VarKind.BINARY) for j, f in enumerate(fixed))
    anchor = np.where(fixed, 1, rng.integers(0, 2, n))
    rows = []
    for i in range(int(rng.integers(1, 3))):
        a = rng.integers(-9, 20, n)
        rhs = int(a @ anchor) + (0 if rng.random() < 0.4 else int(rng.integers(-3, 4)))
        rows.append(make_row(f"e{i}", [(j, float(a[j])) for j in range(n)], Relation.EQ, float(rhs)))
    w = rng.integers(1, 10, n)
    rows.append(make_row("p", [(j, float(w[j])) for j in range(n)], Relation.LE, float(w.sum() // 2 + w[fixed].sum())))
    return Instance(f"eq{rng.integers(0, 10 ** 9)}", Sense.MINIMIZE, variables, tuple(rows),
                    tuple((j, float(rng.integers(-10, 11))) for j in range(n)))


def test_children_settled_by_the_row_test_hold_no_point(monkeypatch):
    # a child one of whose equality rows over binaries cannot reach its
    # right-hand side is settled without an LP; no integer point of the model
    # lies in its own box, before propagation, and every solve matches
    # enumeration.  The settled children's rows carry negative coefficients,
    # zeros that form_rows drops and columns fixed at 1, beside cover cuts
    settled, failed = [], []
    reaches, propagated = bnb._reaches, bnb._Search.propagated

    def reaches_spy(terms, rhs, lb, ub):
        ok = reaches(terms, rhs, lb, ub)
        if not ok:
            failed.append(terms)
        return ok

    def propagated_spy(self, node):
        failed.clear()
        bounds = propagated(self, node)
        if bounds is None and failed:
            row = next(i for i, (terms, _) in self.equalities.items() if terms is failed[0])
            settled.append((self.form, row, node.lb.copy(), node.ub.copy()))
        return bounds

    monkeypatch.setattr(bnb, "_reaches", reaches_spy)
    monkeypatch.setattr(bnb._Search, "propagated", propagated_spy)
    models = [(_PIN_MODELS[name](), opts) for name in sorted(_PIN_MODELS) for opts in _PIN_OPTIONS.values()]
    rng = np.random.default_rng(3119)
    heavy = ReferenceSolverOptions(gomory_rounds=2, cover_cuts=True, presolve_bound_tighten=True,
                                   presolve_coeff_reduce=True, diving=True,
                                   node_strategy=NodeStrategy.DEPTH_FIRST, branch_rule=BranchRule.PSEUDOCOST)
    options = [ReferenceSolverOptions(), heavy, ReferenceSolverOptions(cover_cuts=True)]
    models += [(_equality_model(rng), options[k % 3]) for k in range(200)]
    seen = {"settled": 0, "negative": 0, "zero": 0, "fixed_at_1": 0, "cut_rows": 0}
    for inst, opts in models:
        settled.clear()
        out = branch_and_bound(inst, opts)
        form = to_standard_form(inst)
        want = _enumerated(form, form.lb, form.ub)
        if want is None:
            assert out.status is SolveStatus.INFEASIBLE, inst.name
        else:
            assert out.status is SolveStatus.OPTIMAL, inst.name
            assert out.incumbent.objective == pytest.approx(form.user_objective(want), abs=1e-6), inst.name
        for child_form, row, lb, ub in settled:
            assert _enumerated(form, lb, ub) is None, inst.name
            coefficients = inst.rows[row].coefficients
            seen["settled"] += 1
            seen["negative"] += any(a < 0 for _, a in coefficients)
            seen["zero"] += any(a == 0 for _, a in coefficients)
            seen["fixed_at_1"] += any(inst.variables[j].lower == 1 for j, _ in coefficients)
            seen["cut_rows"] += child_form.m > form.m
    assert seen["settled"] > 100 and min(seen.values()) > 10, seen


def test_only_equality_rows_of_integral_data_over_binaries_are_tested():
    # each row but the last two is ineligible for one reason: a fractional
    # coefficient or right-hand side, a general-integer or a continuous
    # column, a >= row, |coefficients| summing past the cap; the last two
    # are eligible, one of them at the cap exactly
    cap = bnb._REACH_CAP
    variables = (var("x0"), var("x1"), var("x2"), var("g", 0.0, 3.0, _INT), var("y", 0.0, 1.0, _CONT))
    rows = [
        make_row("frac_coef", [(0, 1.5), (1, 1.0)], Relation.EQ, 1.0),
        make_row("frac_rhs", [(0, 2.0), (1, 1.0)], Relation.EQ, 1.5),
        make_row("general", [(0, 1.0), (3, 1.0)], Relation.EQ, 1.0),
        make_row("continuous", [(0, 1.0), (4, 1.0)], Relation.EQ, 1.0),
        make_row("cover", [(0, 1.0), (1, 1.0)], Relation.GE, 1.0),
        make_row("wide", [(0, cap / 2 + 1), (1, -cap / 2)], Relation.EQ, 1.0),
        make_row("at_cap", [(0, cap / 2), (1, -cap / 2)], Relation.EQ, 0.0),
        make_row("plain", [(0, 3.0), (1, 0.0), (2, -2.0)], Relation.EQ, 1.0),
    ]
    form = to_standard_form(Instance("rows", Sense.MINIMIZE, variables, tuple(rows), ()))
    got = bnb._binary_equalities(bnb.form_rows(form), form.is_int.tolist(), form.lb, form.ub)
    assert got == {6: ([(0, cap // 2), (1, -(cap // 2))], 0), 7: ([(0, 3), (2, -2)], 1)}
    # the >= rows that cut rounds append are never tested
    search = bnb._Search(to_standard_form(two_row_knapsack(seed=2)), _CUTS_AND_DIVE)
    assert search.run()[0] is SolveStatus.OPTIMAL and search.rows is not None
    assert len(search.rows) > 2 and search.equalities == {}


def test_the_row_test_reads_the_rows_of_every_moved_column():
    # x0 + x1 <= 1 and 3 x1 + 2 x2 + 2 x3 + 2 x4 = 3 over binaries: the child
    # at x0 = 1 has x1 = 0 by propagation, and then 2 (x2 + x3 + x4) cannot
    # be 3, though 3 lies inside the activity range [0, 6] so that no bound
    # moves; the equality does not hold x0, the branched column, but holds
    # x1, which moved.  At x0 = 0 the row is met by x1 = 1
    rows = (make_row("pack", [(0, 1.0), (1, 1.0)], Relation.LE, 1.0),
            make_row("eq", [(1, 3.0), (2, 2.0), (3, 2.0), (4, 2.0)], Relation.EQ, 3.0))
    form = to_standard_form(Instance("moved", Sense.MINIMIZE, tuple(var(f"x{j}") for j in range(5)), rows, ()))
    search = bnb._Search(form, ReferenceSolverOptions())
    up = bnb._Node(0.0, 1, 1, np.array([1.0, 0.0, 0.0, 0.0, 0.0]), form.ub.copy(), 0, True, 0.5)
    assert search.propagated(up) is None
    assert search.equalities == {1: ([(1, 3), (2, 2), (3, 2), (4, 2)], 3)}
    down = bnb._Node(0.0, 1, 2, form.lb.copy(), np.array([0.0, 1.0, 1.0, 1.0, 1.0]), 0, False, 0.5)
    lb, ub = search.propagated(down)
    assert lb is down.lb and ub is down.ub
