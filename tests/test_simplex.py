import collections
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from milpbench.instance import Instance, Relation, Sense, Variable, make_row
from milpbench.solver.simplex import AT_LOWER, FREE, BoundedSimplex, LpStatus, SimplexBreakdown, solve_lp
from milpbench.solver.standard_form import to_standard_form

from _helpers import random_lp_instance


def test_single_variable_bound_optimum():
    inst = Instance("t", Sense.MINIMIZE, (Variable("x", 0.0, 3.5),), (), objective=((0, -1.0),))
    res = solve_lp(inst)
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(-3.5, abs=1e-9)
    assert res.point[0] == pytest.approx(3.5, abs=1e-9)


def test_contradictory_rows_infeasible():
    inst = Instance(
        "t",
        Sense.MINIMIZE,
        (Variable("x", 0.0, 10.0),),
        (make_row("a", [(0, 1.0)], Relation.GE, 1.0), make_row("b", [(0, 1.0)], Relation.LE, 0.0)),
        objective=((0, 1.0),),
    )
    assert solve_lp(inst).status is LpStatus.INFEASIBLE


def test_improving_ray_unbounded():
    inst = Instance("t", Sense.MINIMIZE, (Variable("x", 0.0),), (), objective=((0, -1.0),))
    assert solve_lp(inst).status is LpStatus.UNBOUNDED


@pytest.mark.parametrize("c", [1e-4, 1e-6, 1e-8])
def test_small_coefficient_still_blocks(c):
    # min -x s.t. c*x <= 1: the only pivot is c itself, so it must be taken
    inst = Instance(
        "t", Sense.MINIMIZE, (Variable("x", 0.0, math.inf),), (make_row("r", [(0, c)], Relation.LE, 1.0),), ((0, -1.0),)
    )
    res = solve_lp(inst)
    assert res.status is LpStatus.OPTIMAL
    assert res.point[0] == pytest.approx(1.0 / c, rel=1e-9)


def test_degenerate_equalities():
    # redundant equalities around a single point
    inst = Instance(
        "deg",
        Sense.MINIMIZE,
        (Variable("x", 0.0, 5.0), Variable("y", 0.0, 5.0)),
        (
            make_row("e1", [(0, 1.0), (1, 1.0)], Relation.EQ, 2.0),
            make_row("e2", [(0, 2.0), (1, 2.0)], Relation.EQ, 4.0),
        ),
        objective=((0, 1.0), (1, 2.0)),
    )
    res = solve_lp(inst)
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(2.0, abs=1e-8)  # x=2, y=0


def _scipy_reference(inst: Instance):
    n = inst.n_vars
    c = np.zeros(n)
    for j, v in inst.objective:
        c[j] = v
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row in inst.rows:
        dense = np.zeros(n)
        for j, v in row.coefficients:
            dense[j] = v
        lo, hi = row.interval()
        if row.relation is Relation.EQ:
            a_eq.append(dense)
            b_eq.append(hi)
            continue
        if math.isfinite(hi):
            a_ub.append(dense)
            b_ub.append(hi)
        if math.isfinite(lo):
            a_ub.append(-dense)
            b_ub.append(-lo)
    bounds = [(None if v.lower == -math.inf else v.lower, None if v.upper == math.inf else v.upper) for v in inst.variables]
    return linprog(
        c,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )


def test_random_lps_match_reference_solver(monkeypatch):
    # also counts, per outcome, the inputs whose slack start needed a cost shift
    shifted, dual = [], BoundedSimplex._dual

    def spy(self, z, movable):
        shifted.append(not np.array_equal(z, self._reduced_costs(self.cost)))
        return dual(self, z, movable)

    monkeypatch.setattr(BoundedSimplex, "_dual", spy)
    rng = np.random.default_rng(42)
    optimal_seen = 0
    shifted_seen = collections.Counter()
    for _ in range(150):
        inst = random_lp_instance(rng)
        shifted.clear()
        mine = solve_lp(inst)
        if any(shifted):
            shifted_seen[mine.status] += 1
        ref = _scipy_reference(inst)
        if ref.status == 0:
            assert mine.status is LpStatus.OPTIMAL, f"{inst} expected optimal"
            assert mine.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
            optimal_seen += 1
        elif ref.status == 2:
            assert mine.status is LpStatus.INFEASIBLE
        elif ref.status == 3:
            assert mine.status is LpStatus.UNBOUNDED
    assert optimal_seen > 30  # the generator must exercise the optimal path
    assert all(shifted_seen[status] > 0 for status in LpStatus)  # and every outcome after a cost shift


def test_bland_dual_leaves_the_lowest_index_violated_row(monkeypatch):
    # x0 >= 1 and x1 >= 5 are both violated at the slack start: steepest edge
    # takes the larger violation (row column 3), Bland the lower index (2)
    inst = Instance(
        "t",
        Sense.MINIMIZE,
        (Variable("x0", 0.0, 10.0), Variable("x1", 0.0, 10.0)),
        (make_row("a", [(0, 1.0)], Relation.GE, 1.0), make_row("b", [(1, 1.0)], Relation.GE, 5.0)),
        ((0, 1.0), (1, 1.0)),
    )
    form = to_standard_form(inst)
    leaving, pivot = [], BoundedSimplex._pivot

    def spy(self, p, q, d):
        leaving.append(int(self.basis[p]))
        pivot(self, p, q, d)

    monkeypatch.setattr(BoundedSimplex, "_pivot", spy)
    for bland, first in ((False, 3), (True, 2)):
        leaving.clear()
        res = BoundedSimplex(form).solve(bland=bland)
        assert leaving[0] == first
        assert res.status is LpStatus.OPTIMAL and res.objective == pytest.approx(6.0, abs=1e-12)


def test_optimal_point_is_feasible_and_complementary():
    rng = np.random.default_rng(7)
    for _ in range(60):
        inst = random_lp_instance(rng)
        res = solve_lp(inst)
        if res.status is not LpStatus.OPTIMAL:
            continue
        x = res.point
        for v, val in zip(inst.variables, x):
            assert val >= v.lower - 1e-7
            assert val <= v.upper + 1e-7
        for row in inst.rows:
            act = sum(c * x[j] for j, c in row.coefficients)
            lo, hi = row.interval()
            scale = max(1.0, abs(lo) if math.isfinite(lo) else 1.0, abs(hi) if math.isfinite(hi) else 1.0)
            assert act >= lo - 1e-7 * scale
            assert act <= hi + 1e-7 * scale


def _bounded_lp(rng):
    """Random LP with finite integral bounds and float coefficients."""
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 7))
    variables = []
    for j in range(n):
        lo = float(rng.integers(-4, 2))
        variables.append(Variable(f"x{j}", lo, lo + float(rng.integers(1, 8))))
    rows = []
    for i in range(m):
        support = sorted(int(j) for j in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        coeffs = [(j, float(np.round(rng.uniform(-5, 5), 2)) or 1.0) for j in support]
        relation = (Relation.LE, Relation.GE, Relation.EQ)[int(rng.integers(0, 3))]
        rows.append(make_row(f"r{i}", coeffs, relation, float(np.round(rng.uniform(-8, 8), 1))))
    objective = tuple((j, float(np.round(rng.uniform(-6, 6), 2))) for j in range(n))
    return Instance("lp", Sense.MINIMIZE, tuple(variables), tuple(rows), objective)


def _assert_feasible(form, lb, ub, x, tol=1e-7):
    assert np.all(x >= lb - tol) and np.all(x <= ub + tol)
    act = form.A @ x
    scale = np.maximum(1.0, np.abs(np.where(np.isfinite(form.rlo), form.rlo, 0.0)))
    scale = np.maximum(scale, np.abs(np.where(np.isfinite(form.rup), form.rup, 0.0)))
    assert np.all(act >= form.rlo - tol * scale) and np.all(act <= form.rup + tol * scale)


def _count_slack_starts(monkeypatch):
    """The ``warm`` argument of every solve, and the warm starts of the
    solves that fell back to the slack basis (None for a cold solve)."""
    warms, fallbacks = [], []
    solve, slack = BoundedSimplex.solve, BoundedSimplex._slack_start

    def spy(self, lb=None, ub=None, warm=None, bland=False):
        warms.append(warm)
        return solve(self, lb, ub, warm, bland)

    monkeypatch.setattr(BoundedSimplex, "solve", spy)
    monkeypatch.setattr(BoundedSimplex, "_slack_start", lambda self: fallbacks.append(warms[-1]) or slack(self))
    return warms, fallbacks


def test_warm_start_from_parent_basis_matches_cold_solve(monkeypatch):
    # branch on each fractional basic column of an optimal parent; the child
    # solved from the parent's basis must agree with the child solved cold
    (warms, fallbacks), cleanup = _count_slack_starts(monkeypatch), []
    primal = BoundedSimplex._iterate

    def iterate(self, cost):
        before = self.iterations
        outcome = primal(self, cost)
        if warms[-1] is not None:
            cleanup.append(self.iterations - before)
        return outcome

    monkeypatch.setattr(BoundedSimplex, "_iterate", iterate)
    rng = np.random.default_rng(11)
    seen = collections.Counter()
    for _ in range(400):
        form = to_standard_form(_bounded_lp(rng))
        lp = BoundedSimplex(form)
        res = lp.solve()
        if res.status is not LpStatus.OPTIMAL:
            continue
        warm = res.warm
        for j in [b for b in warm[0] if b < form.n]:
            v = res.point[j]
            if abs(v - round(v)) < 1e-6:
                continue
            for up in (False, True):
                lb, ub = form.lb.copy(), form.ub.copy()
                if up:
                    lb[j] = math.ceil(v)
                else:
                    ub[j] = math.floor(v)
                ref = lp.solve(lb, ub)
                got = lp.solve(lb, ub, warm=warm)
                assert got.status is ref.status
                seen[got.status] += 1
                if got.status is LpStatus.OPTIMAL:
                    assert got.objective == pytest.approx(ref.objective, abs=1e-9 * max(1.0, abs(ref.objective)))
                    _assert_feasible(form, lb, ub, got.point)
    assert seen[LpStatus.OPTIMAL] > 100 and seen[LpStatus.INFEASIBLE] > 20
    assert [w for w in fallbacks if w is not None] == []  # every child was solved warm
    assert sum(cleanup) == 0  # the dual simplex ends at an optimal basis


def test_warm_start_falls_back_to_cold_when_it_does_not_apply(monkeypatch):
    _, fallbacks = _count_slack_starts(monkeypatch)
    form = to_standard_form(_bounded_lp(np.random.default_rng(3)))
    lp = BoundedSimplex(form)
    parent = lp.solve()
    assert parent.status is LpStatus.OPTIMAL
    basis, status = parent.warm
    bad_status = status.copy()
    bad_status[bad_status == AT_LOWER] = FREE  # a free status on a bounded column
    lb = form.lb.copy()
    lb[0] = form.ub[0]
    ref = lp.solve(lb=lb)

    real_dual = BoundedSimplex._dual

    def breakdown(self, z, movable):
        if not fallbacks:  # only the warm attempt breaks down
            raise SimplexBreakdown("injected")
        return real_dual(self, z, movable)

    for warm, dual in (((basis[:-1], status), None), ((basis, bad_status), None), ((basis, status), breakdown)):
        if dual:
            monkeypatch.setattr(BoundedSimplex, "_dual", dual)
        fallbacks.clear()
        got = lp.solve(lb=lb, warm=warm)
        assert [w is warm for w in fallbacks] == [True]
        assert (got.status, got.objective) == (ref.status, ref.objective)


def test_warm_start_leaves_an_undecided_row_to_the_cold_path(monkeypatch):
    # x + 1e-10 y = 0.5 with y >= 0: after x <= 0 only y = 5e9 could restore
    # the row, through an entry below the pivot tolerance, so the dual simplex
    # neither pivots nor proves the child infeasible, from the parent's basis
    # or from the slack basis: the solve is a breakdown, not a verdict
    inst = Instance(
        "t",
        Sense.MINIMIZE,
        (Variable("x", 0.0, 1.0), Variable("y", 0.0, math.inf)),
        (make_row("r", [(0, 1.0), (1, 1e-10)], Relation.EQ, 0.5),),
        ((0, -1.0),),
    )
    lp = BoundedSimplex(to_standard_form(inst))
    parent = lp.solve()
    assert parent.point[0] == pytest.approx(0.5)
    _, fallbacks = _count_slack_starts(monkeypatch)
    ub = np.array([0.0, math.inf])
    with pytest.raises(SimplexBreakdown):
        lp.solve(ub=ub, warm=parent.warm)
    assert len(fallbacks) == 1
    with pytest.raises(SimplexBreakdown):
        lp.solve(ub=ub)


def _one_basic_structural():
    # min -x - y  s.t.  x + 2y <= 3,  x, y in [0, 2]: x = 2 at its bound, y = 0.5 basic
    inst = Instance(
        "t",
        Sense.MINIMIZE,
        (Variable("x", 0.0, 2.0), Variable("y", 0.0, 2.0)),
        (make_row("r", [(0, 1.0), (1, 2.0)], Relation.LE, 3.0),),
        ((0, -1.0), (1, -1.0)),
    )
    return to_standard_form(inst)


def _overshooting_iterate(monkeypatch, times):
    """Phase-2 iterations that leave the basic y past its upper bound, ``times`` times."""
    real = BoundedSimplex._iterate
    left = [times]

    def stub(self, cost):
        outcome = real(self, cost)
        if outcome == "optimal" and left[0]:
            left[0] -= 1
            self.xval[1] = self.hi[1] + 0.5
        return outcome

    monkeypatch.setattr(BoundedSimplex, "_iterate", stub)


def test_basic_value_outside_its_bound_is_recomputed_before_optimal(monkeypatch):
    _overshooting_iterate(monkeypatch, times=1)
    res = BoundedSimplex(_one_basic_structural()).solve()
    assert res.status is LpStatus.OPTIMAL
    assert res.point == pytest.approx([2.0, 0.5], abs=1e-12)
    assert res.objective == pytest.approx(-2.5, abs=1e-12)


def test_basic_value_left_outside_its_bound_is_a_breakdown(monkeypatch):
    _overshooting_iterate(monkeypatch, times=2)
    with pytest.raises(SimplexBreakdown):
        BoundedSimplex(_one_basic_structural()).solve()


def test_reused_object_solves_like_a_fresh_one():
    # one object solves cold, then warm children with tightened bounds, then
    # under Bland's rule, then under the form's bounds again: each solve must
    # equal a fresh object's, so no iterations, rule or bounds leak
    def same(a, b):
        assert (a.status, a.iterations, a.objective) == (b.status, b.iterations, b.objective)
        assert np.array_equal(a.point, b.point)
        assert (a.warm is None) == (b.warm is None)
        assert a.warm is None or all(np.array_equal(x, y) for x, y in zip(a.warm, b.warm))

    rng = np.random.default_rng(5)
    children = 0
    for _ in range(80):
        form = to_standard_form(_bounded_lp(rng))
        lp = BoundedSimplex(form)
        root = lp.solve()
        same(root, BoundedSimplex(form).solve())
        calls = []
        if root.status is LpStatus.OPTIMAL:
            for j in [b for b in root.warm[0] if b < form.n]:
                lb, ub = form.lb.copy(), form.ub.copy()
                lb[j] = math.ceil(root.point[j])
                ub[j] = math.floor(root.point[j])
                calls += [{"lb": lb, "warm": root.warm}, {"ub": ub, "warm": root.warm}]
        children += len(calls)
        calls += [{"bland": True}, {"lb": None}]
        for kwargs in calls:
            same(lp.solve(**kwargs), BoundedSimplex(form).solve(**kwargs))
    assert children > 50
