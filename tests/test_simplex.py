import collections
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from milpbench.instance import Instance, Relation, Sense, Variable, make_row
from milpbench.solver import BranchRule, NodeStrategy, ReferenceSolverOptions, SolveStatus, branch_and_bound, simplex
from milpbench.solver.bnb import _Search
from milpbench.solver.cuts import gomory_cuts
from milpbench.solver.simplex import (
    _DEGEN_TOL,
    _FEAS_TOL,
    _OPT_TOL,
    _PIVOT_TOL,
    AT_LOWER,
    AT_UPPER,
    BASIC,
    FREE,
    BoundedSimplex,
    LpStatus,
    SimplexBreakdown,
    solve_lp,
)
from milpbench.solver.standard_form import StandardForm, to_standard_form

from _helpers import market_split_instance, perfbench_instances, random_lp_instance, random_mixed_instance


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


@pytest.mark.parametrize("kernel_rows", [simplex._KERNEL_ROWS, 0], ids=["row_rule", "kernel"])
def test_random_lps_match_reference_solver(monkeypatch, kernel_rows):
    # also counts, per outcome, the inputs whose start was dual infeasible and
    # went through phase 1; a row rule of 0 sends every LP through the kernel
    # and sparse eta path
    monkeypatch.setattr(simplex, "_KERNEL_ROWS", kernel_rows)
    entered = _count_calls(monkeypatch, "_phase_one")
    rng = np.random.default_rng(42)
    optimal_seen = 0
    phase_one_seen = collections.Counter()
    for _ in range(150):
        inst = random_lp_instance(rng)
        entered.clear()
        mine = solve_lp(inst)
        if entered:
            phase_one_seen[mine.status] += 1
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
    assert all(phase_one_seen[status] > 0 for status in LpStatus)  # and every outcome after phase 1


def _count_calls(monkeypatch, name):
    """One entry per call of the ``BoundedSimplex`` method ``name``."""
    calls, method = [], getattr(BoundedSimplex, name)
    monkeypatch.setattr(BoundedSimplex, name, lambda self, *a: calls.append(1) or method(self, *a))
    return calls


def _injected_dual_breakdowns(monkeypatch):
    """Each entry put in the returned list makes the next ``_dual`` call
    raise a breakdown."""
    pending, dual = [], BoundedSimplex._dual

    def flaky(self, z, movable):
        if pending:
            pending.pop()
            raise SimplexBreakdown("injected")
        return dual(self, z, movable)

    monkeypatch.setattr(BoundedSimplex, "_dual", flaky)
    return pending


def test_bland_dual_leaves_the_lowest_index_violated_row(monkeypatch):
    # x0 >= 1 and x1 >= 5 are both violated at the slack start: steepest edge
    # takes the larger violation (row column 3), Bland the lower index (2);
    # Bland's rule runs when the first slack attempt breaks down
    inst = Instance(
        "t",
        Sense.MINIMIZE,
        (Variable("x0", 0.0, 10.0), Variable("x1", 0.0, 10.0)),
        (make_row("a", [(0, 1.0)], Relation.GE, 1.0), make_row("b", [(1, 1.0)], Relation.GE, 5.0)),
        ((0, 1.0), (1, 1.0)),
    )
    form = to_standard_form(inst)
    leaving, pivot = [], BoundedSimplex._pivot
    breakdowns = _injected_dual_breakdowns(monkeypatch)

    def spy(self, p, q, d):
        leaving.append(int(self.basis[p]))
        pivot(self, p, q, d)

    monkeypatch.setattr(BoundedSimplex, "_pivot", spy)
    for bland, first in ((False, 3), (True, 2)):
        leaving.clear()
        breakdowns[:] = [True] if bland else []
        res = BoundedSimplex(form).solve()
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

    def spy(self, lb=None, ub=None, warm=None):
        warms.append(warm)
        return solve(self, lb, ub, warm)

    monkeypatch.setattr(BoundedSimplex, "solve", spy)
    monkeypatch.setattr(BoundedSimplex, "_slack_start", lambda self: fallbacks.append(warms[-1]) or slack(self))
    return warms, fallbacks


def test_warm_start_from_parent_basis_matches_cold_solve(monkeypatch):
    # branch on each fractional basic column of an optimal parent; the child
    # solved from the parent's basis must agree with the child solved cold
    (warms, fallbacks), warm_phase_one = _count_slack_starts(monkeypatch), []
    phase_one = BoundedSimplex._phase_one
    monkeypatch.setattr(
        BoundedSimplex, "_phase_one", lambda self, *a: warm_phase_one.append(warms[-1]) or phase_one(self, *a)
    )
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
    assert [w for w in warm_phase_one if w is not None] == []  # no warm child enters phase 1


def test_warm_cut_lp_matches_a_slack_basis_solve(monkeypatch):
    # cuts violated at an optimal vertex join its basis as basic row columns;
    # the LP from that start and the same rows from the slack basis agree
    _, fallbacks = _count_slack_starts(monkeypatch)
    rng = np.random.default_rng(13)
    seen = collections.Counter()
    for _ in range(300):
        form = to_standard_form(_bounded_lp(rng))
        search = _Search(form, ReferenceSolverOptions())
        res = search.lp(form.lb, form.ub)
        if res.status is not LpStatus.OPTIMAL:
            continue
        cuts = []
        for _ in range(int(rng.integers(1, 4))):
            g = np.round(rng.uniform(-3, 3, form.n), 2)
            cuts.append((g, float(g @ res.point) + float(rng.uniform(0.1, 2.0))))
        basis, status = search.add_cut_rows(cuts, res.warm)
        new_rows = np.arange(form.n + form.m, form.n + form.m + len(cuts))
        assert np.array_equal(basis, np.concatenate([res.warm[0], new_rows]))
        assert (status[new_rows] == BASIC).all() and np.array_equal(status[: form.n + form.m], res.warm[1])
        fallbacks.clear()
        got = search.splx.solve(warm=(basis, status))
        assert fallbacks == []  # solved from the warm start
        ref = search.splx.solve()
        assert got.status is ref.status
        seen[got.status] += 1
        if got.status is LpStatus.OPTIMAL:
            assert got.objective == pytest.approx(ref.objective, abs=1e-9 * max(1.0, abs(ref.objective)))
    assert seen[LpStatus.OPTIMAL] > 50 and seen[LpStatus.INFEASIBLE] > 10


def _children(res, lb, ub):
    """The bounds of both children of each fractional basic structural
    column of the OPTIMAL ``res``, solved under ``lb``/``ub``."""
    for j in [b for b in res.warm[0] if b < lb.size]:
        v = res.point[j]
        if abs(v - round(v)) < 1e-6:
            continue
        for up in (False, True):
            child_lb, child_ub = lb.copy(), ub.copy()
            if up:
                child_lb[j] = math.ceil(v)
            else:
                child_ub[j] = math.floor(v)
            yield child_lb, child_ub


def test_child_from_the_carried_factor_matches_the_bare_basis(monkeypatch):
    # both children of an optimal parent share its factor; each solved from
    # it refactorizes nothing and agrees with the child solved from the
    # parent's basis and statuses alone
    refactorized = _count_calls(monkeypatch, "_refactorize")
    rng = np.random.default_rng(17)
    seen = collections.Counter()
    for _ in range(400):
        form = to_standard_form(_bounded_lp(rng))
        lp = BoundedSimplex(form)
        res = lp.solve()
        if res.status is not LpStatus.OPTIMAL:
            continue
        assert res.warm.factor is not None and res.warm.factor.form is form
        for lb, ub in _children(res, form.lb, form.ub):
            refactorized.clear()
            got = lp.solve(lb, ub, warm=res.warm)
            assert refactorized == []
            ref = lp.solve(lb, ub, warm=tuple(res.warm))
            assert len(refactorized) >= 1  # a bare basis is factored afresh
            assert got.status is ref.status
            seen[got.status] += 1
            if got.status is LpStatus.OPTIMAL:
                assert got.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)
                assert got.point == pytest.approx(ref.point, rel=1e-9, abs=1e-9)
    assert seen[LpStatus.OPTIMAL] > 100 and seen[LpStatus.INFEASIBLE] > 20


def test_carried_eta_count_refactorizes_on_schedule(monkeypatch):
    # down chains of children, each started from its parent's factor, B^-1
    # is refactorized exactly when the eta updates since the last
    # refactorization reach _REFACTOR_EVERY, counted across the solves
    monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 3)
    refactorized = _count_calls(monkeypatch, "_refactorize")
    pivots, pivot = [], BoundedSimplex._pivot
    monkeypatch.setattr(BoundedSimplex, "_pivot", lambda self, *a: pivots.append(1) or pivot(self, *a))
    rng = np.random.default_rng(19)
    longest = carried_refactorizations = 0
    for _ in range(300):
        form = to_standard_form(_bounded_lp(rng))
        lp = BoundedSimplex(form)
        res, lb, ub, updates = lp.solve(), form.lb, form.ub, 0
        while res.status is LpStatus.OPTIMAL:
            etas, deeper = res.warm.factor.etas, None
            for child_lb, child_ub in _children(res, lb, ub):
                pivots.clear(), refactorized.clear()
                child = lp.solve(child_lb, child_ub, res.warm)
                assert len(refactorized) == (etas + len(pivots)) // 3
                carried_refactorizations += len(refactorized)
                if child.status is LpStatus.OPTIMAL:
                    assert child.warm.factor.etas == (etas + len(pivots)) % 3
                    deeper = deeper or (child, child_lb, child_ub, len(pivots))
            if deeper is None:
                break
            res, lb, ub, pivoted = deeper
            updates += pivoted
        longest = max(longest, updates)
    assert longest > 10 and carried_refactorizations > 100


def test_no_factor_for_cut_rows_other_rows_or_a_moved_nonbasic_bound(monkeypatch):
    # the warm start of a cut LP has new rows and no factor; a factor made
    # over other rows of the same shape, or under another bound of a
    # nonbasic column, is never used: those solves refactorize and match
    # the solve from the bare basis and statuses
    refactorized = _count_calls(monkeypatch, "_refactorize")
    rng = np.random.default_rng(23)
    seen = collections.Counter()

    def matches_the_bare_basis(lp, lb, ub, warm):
        refactorized.clear()
        got = lp.solve(lb, ub, warm=warm)
        assert refactorized
        ref = lp.solve(lb, ub, warm=tuple(warm))
        assert (got.status, got.objective, got.iterations) == (ref.status, ref.objective, ref.iterations)
        assert np.array_equal(got.point, ref.point)

    for _ in range(200):
        form = to_standard_form(_bounded_lp(rng))
        search = _Search(form, ReferenceSolverOptions())
        res = search.lp(form.lb, form.ub)
        if res.status is not LpStatus.OPTIMAL:
            continue
        g = np.round(rng.uniform(-3, 3, form.n), 2)
        warm = search.add_cut_rows([(g, float(g @ res.point) + 1.0)], res.warm)
        assert getattr(warm, "factor", None) is None
        refactorized.clear()
        search.splx.solve(warm=warm)
        assert refactorized
        seen["cut rows"] += 1

        other = BoundedSimplex(replace(form, A=form.A * 2.0, c=-form.c))  # the same shapes
        for lb, ub in _children(res, form.lb, form.ub):
            matches_the_bare_basis(other, lb, ub, res.warm)
            seen["other rows"] += 1

        at_lower = [j for j in range(form.n) if res.warm[1][j] == AT_LOWER and form.ub[j] > form.lb[j]]
        for j in at_lower[:1]:
            lb = form.lb.copy()
            lb[j] += 1.0
            matches_the_bare_basis(BoundedSimplex(form), lb, form.ub, res.warm)
            seen["moved nonbasic bound"] += 1
    assert min(seen.values()) > 50, seen


def _rows_only(A):
    """An LP over the rows A with zero costs and unit boxes."""
    m, n = A.shape
    return StandardForm(
        name="k", c=np.zeros(n), A=A, rlo=np.zeros(m), rup=np.ones(m), lb=np.zeros(n), ub=np.ones(n),
        is_int=np.zeros(n, bool), var_names=tuple(f"x{j}" for j in range(n)), obj_constant=0.0, flipped=False,
    )


@pytest.mark.parametrize("structural", [0, 4, 8])
def test_kernel_refactorization_matches_the_dense_inverse(monkeypatch, structural):
    monkeypatch.setattr(simplex, "_KERNEL_ROWS", 0)
    rng = np.random.default_rng(5)
    m, n = 8, 12
    for _ in range(20):
        lp = BoundedSimplex(_rows_only(rng.uniform(-2, 2, (m, n))))
        picked = [rng.choice(n, structural, replace=False), n + rng.choice(m, m - structural, replace=False)]
        lp.basis = rng.permutation(np.concatenate(picked))
        np.testing.assert_allclose(lp._refactorize(), np.linalg.inv(lp.F[:, lp.basis]), rtol=1e-9, atol=1e-12)


def test_singular_kernel_is_a_breakdown(monkeypatch):
    monkeypatch.setattr(simplex, "_KERNEL_ROWS", 0)
    A = np.random.default_rng(6).uniform(-2, 2, (4, 6))
    A[:2, 0] = 0.0  # column 0 meets only rows 2 and 3, whose row columns are basic
    lp = BoundedSimplex(_rows_only(A))
    lp.basis = np.array([0, 1, 8, 9])
    with pytest.raises(SimplexBreakdown):
        lp._refactorize()


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
    # or from the slack basis, under either rule: the solve is a breakdown,
    # not a verdict
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
    assert len(fallbacks) == 2  # the slack basis, then the slack basis under Bland's rule
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


def _overshooting_dual(monkeypatch, times):
    """Dual phases that leave the basic y past its upper bound, ``times`` times."""
    real = BoundedSimplex._dual
    left = [times]

    def stub(self, z, movable):
        feasible = real(self, z, movable)
        if feasible and left[0]:
            left[0] -= 1
            self.xval[1] = self.hi[1] + 0.5
        return feasible

    monkeypatch.setattr(BoundedSimplex, "_dual", stub)


def test_basic_value_outside_its_bound_is_recomputed_before_optimal(monkeypatch):
    _overshooting_dual(monkeypatch, times=1)
    res = BoundedSimplex(_one_basic_structural()).solve()
    assert res.status is LpStatus.OPTIMAL
    assert res.point == pytest.approx([2.0, 0.5], abs=1e-12)
    assert res.objective == pytest.approx(-2.5, abs=1e-12)


def test_basic_value_left_outside_its_bound_is_a_breakdown(monkeypatch):
    # twice in the slack attempt and twice in its retry under Bland's rule
    _overshooting_dual(monkeypatch, times=4)
    with pytest.raises(SimplexBreakdown):
        BoundedSimplex(_one_basic_structural()).solve()


def test_reused_object_solves_like_a_fresh_one(monkeypatch):
    # one object solves cold, then warm children with tightened bounds, then
    # under Bland's rule after a breakdown, then under the form's bounds
    # again: each solve must equal a fresh object's, so no iterations, rule,
    # bounds or kept pricing weights leak; the last three LPs have 64 rows
    # or more
    breakdowns = _injected_dual_breakdowns(monkeypatch)

    def same(a, b):
        assert (a.status, a.iterations, a.objective) == (b.status, b.iterations, b.objective)
        assert np.array_equal(a.point, b.point)
        assert (a.warm is None) == (b.warm is None)
        assert a.warm is None or all(np.array_equal(x, y) for x, y in zip(a.warm, b.warm))

    rng = np.random.default_rng(5)
    children = 0
    forms = [to_standard_form(_bounded_lp(rng)) for _ in range(80)] + [_kernel_lp(rng, m) for m in (64, 80, 96)]
    for form in forms:
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
            bland = kwargs.pop("bland", False)
            breakdowns[:] = [True] * bland  # the slack attempt breaks down
            mine = lp.solve(**kwargs)
            breakdowns[:] = [True] * bland
            same(mine, BoundedSimplex(form).solve(**kwargs))
    assert children > 50


# ---- dual phase 1 -----------------------------------------------------------
# A start that some nonbasic column leaves dual infeasible (its cost favours
# an infinite bound) is first solved on the auxiliary problem, whose infinite
# bounds are a box; the benchmark's boxed LPs never take this path.


def test_tiny_only_blocking_pivot_is_a_breakdown_not_unbounded():
    # min -x s.t. 1e-10 x <= 1, x >= 0: the optimum is -1e10, but only an
    # entry below the pivot tolerance bounds x, so phase 1 cannot pivot on
    # it; the solve breaks down (bnb: ERROR) rather than reporting a ray
    inst = Instance(
        "t", Sense.MINIMIZE, (Variable("x", 0.0, math.inf),), (make_row("r", [(0, 1e-10)], Relation.LE, 1.0),), ((0, -1.0),)
    )
    with pytest.raises(SimplexBreakdown):
        solve_lp(inst)
    assert branch_and_bound(inst, ReferenceSolverOptions()).status is SolveStatus.ERROR


def _unboxed_lp(rng, m):
    """An LP over ``m`` sparse rows about a point inside the column bounds,
    so that most are feasible, with one unreachable row in about a quarter
    of them; about a third of the columns lack a lower bound, an upper
    bound, or both."""
    n = int(rng.integers(max(2, m // 3), m + 1))
    lb = rng.integers(-3, 1, n).astype(float)
    ub = lb + rng.integers(0, 6, n)
    x0 = lb + rng.random(n) * (ub - lb)
    lb[rng.random(n) < 0.3] = -np.inf
    ub[rng.random(n) < 0.3] = np.inf
    A = np.zeros((m, n))
    for i in range(m):
        support = rng.choice(n, size=int(rng.integers(2, min(n, 6) + 1)), replace=False)
        A[i, support] = np.round(rng.uniform(-3, 3, support.size), 1)
    act = A @ x0
    rlo, rup = np.floor(act) - rng.integers(0, 3, m), np.ceil(act) + rng.integers(0, 3, m)
    roll = rng.random(m)
    rlo[roll < 0.4], rup[roll > 0.8] = -np.inf, np.inf
    if rng.random() < 0.25:
        i = int(rng.integers(m))
        rlo[i], rup[i] = act[i] + 1e3, np.inf
    return StandardForm(
        name="unboxed", c=np.round(rng.uniform(-3, 3, n), 1), A=A, rlo=rlo, rup=rup, lb=lb, ub=ub,
        is_int=np.zeros(n, bool), var_names=tuple(f"x{j}" for j in range(n)), obj_constant=0.0, flipped=False,
    )


def _highs(form, c):
    up, lo = np.isfinite(form.rup), np.isfinite(form.rlo)
    bounds = [(a if np.isfinite(a) else None, b if np.isfinite(b) else None) for a, b in zip(form.lb, form.ub)]
    A_ub, b_ub = np.vstack([form.A[up], -form.A[lo]]), np.concatenate([form.rup[up], -form.rlo[lo]])
    return linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")


@pytest.mark.parametrize("kernel_rows", [simplex._KERNEL_ROWS, 0], ids=["row_rule", "kernel"])
def test_unboxed_lps_of_kernel_size_match_reference_solver(monkeypatch, kernel_rows):
    # 64 to 120 rows: phase 1 on the kernel path, and with a row rule of 0 on
    # the dense path.  HiGHS may call an unbounded LP infeasible; UNBOUNDED is
    # right then if HiGHS finds the rows feasible under zero costs
    monkeypatch.setattr(simplex, "_KERNEL_ROWS", kernel_rows)
    entered = _count_calls(monkeypatch, "_phase_one")
    rng = np.random.default_rng(67)
    seen = collections.Counter()
    for _ in range(30):
        form = _unboxed_lp(rng, int(rng.integers(64, 121)))
        entered.clear()
        mine = BoundedSimplex(form).solve()
        ref = _highs(form, form.c)
        if ref.status == 0:
            assert mine.status is LpStatus.OPTIMAL
            assert mine.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
            _assert_feasible(form, form.lb, form.ub, mine.point)
        elif ref.status == 2 and mine.status is LpStatus.UNBOUNDED:
            assert _highs(form, np.zeros(form.n)).status == 0
        else:
            assert mine.status is {2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}[ref.status]
        seen[mine.status] += bool(entered)
    assert min(seen[status] for status in LpStatus) >= 4, seen


def _ray_lp(row_lo):
    """min -x s.t. x - y <= 1 and y >= ``row_lo``, x >= 0, y in [0, 3]:
    the cost favours x's infinite upper bound."""
    inst = Instance(
        "ray",
        Sense.MINIMIZE,
        (Variable("x", 0.0, math.inf), Variable("y", 0.0, 3.0)),
        (make_row("a", [(0, 1.0), (1, -1.0)], Relation.LE, 1.0), make_row("b", [(1, 1.0)], Relation.GE, row_lo)),
        ((0, -1.0),),
    )
    return to_standard_form(inst)


@pytest.mark.parametrize("row_lo, want", [(2.0, LpStatus.OPTIMAL), (4.0, LpStatus.INFEASIBLE)])
def test_phase_one_on_hand_built_lps(monkeypatch, row_lo, want):
    # x is bounded through y's box: dual feasible after phase 1, optimum -4
    # at y = 3; with y >= 4 the rows cannot be met
    entered = _count_calls(monkeypatch, "_phase_one")
    res = BoundedSimplex(_ray_lp(row_lo)).solve()
    assert entered and res.status is want
    if want is LpStatus.OPTIMAL:
        assert res.objective == pytest.approx(-4.0, abs=1e-12) and res.point == pytest.approx([4.0, 3.0], abs=1e-12)


@pytest.mark.parametrize("feasible, want", [(True, LpStatus.UNBOUNDED), (False, LpStatus.INFEASIBLE)])
def test_dual_infeasible_lp_is_unbounded_or_infeasible(monkeypatch, feasible, want):
    # min -x - y s.t. x - y <= 1 and x + y >= 2, x, y >= 0, and for the
    # infeasible one also x - y >= 2: the ray x = y improves in both, so
    # phase 1 leaves a column dual infeasible, and the rows decide
    rows = [make_row("a", [(0, 1.0), (1, -1.0)], Relation.LE, 1.0), make_row("b", [(0, 1.0), (1, 1.0)], Relation.GE, 2.0)]
    if not feasible:
        rows.append(make_row("c", [(0, 1.0), (1, -1.0)], Relation.GE, 2.0))
    inst = Instance(
        "t", Sense.MINIMIZE, (Variable("x", 0.0, math.inf), Variable("y", 0.0, math.inf)), tuple(rows), ((0, -1.0), (1, -1.0))
    )
    dual_feasible, phase_one = [], BoundedSimplex._phase_one
    monkeypatch.setattr(BoundedSimplex, "_phase_one", lambda self, *a: dual_feasible.append(phase_one(self, *a)) or dual_feasible[-1])
    assert solve_lp(inst).status is want
    assert dual_feasible == [False]


def test_breakdown_inside_phase_one_leaves_no_auxiliary_bound(monkeypatch):
    # a breakdown in phase 1's dual simplex, in the slack attempt or in both
    # attempts, with the auxiliary box in place: the object's bounds are the
    # true ones afterwards, the retry under Bland's rule solves as on a fresh
    # object, and so does every later solve
    inside, pending = [], []
    phase_one, dual = BoundedSimplex._phase_one, BoundedSimplex._dual

    def spy_phase_one(self, z, movable):
        inside.append(True)
        try:
            return phase_one(self, z, movable)
        finally:
            inside.pop()

    def flaky(self, z, movable):
        if inside and pending:
            pending.pop()
            raise SimplexBreakdown("injected")
        return dual(self, z, movable)

    monkeypatch.setattr(BoundedSimplex, "_phase_one", spy_phase_one)
    monkeypatch.setattr(BoundedSimplex, "_dual", flaky)
    rng = np.random.default_rng(71)
    forms = [_unboxed_lp(rng, m) for m in (8, 20, 70, 90)] + [_ray_lp(2.0)]
    for form in forms:
        lp = BoundedSimplex(form)
        lo, hi = lp.lo.copy(), lp.hi.copy()
        for breakdowns in (1, 2, 0):
            pending[:] = [True] * breakdowns
            if breakdowns == 2:
                with pytest.raises(SimplexBreakdown):
                    lp.solve()
            else:
                mine = lp.solve()
                pending[:] = [True] * breakdowns
                want = BoundedSimplex(form).solve()
                assert (mine.status, mine.iterations, mine.objective) == (want.status, want.iterations, want.objective)
                assert np.array_equal(mine.point, want.point)
            assert pending == [] and np.array_equal(lp.lo, lo) and np.array_equal(lp.hi, hi)


# ---- the dual simplex that multiplied by all of F, kept as the oracle -------
# The dual simplex and tableau row that formed every row times F, every
# entering column as B^-1 F[:, q], and the pricing weights of the violated
# rows afresh in each iteration.  From _KERNEL_ROWS rows the solver skips the
# -I block and keeps its weights; that must not change one bit of a result.
# The oracle takes the solver's long-step gate and calls its _long_step, and
# its primal step reads the leaving value as the flips left it.


def _oracle_dual(self, z, movable):
    if not self.m:
        return True
    at_lo, at_hi = self.status == AT_LOWER, self.status == AT_UPPER
    dirn = np.where(movable, at_lo * 1.0 - at_hi, 0.0)
    free = self.status == FREE
    span = self.hi - self.lo
    for _ in range(self._max_iter):
        xb, lob, hib = self.xval[self.basis], self.lo[self.basis], self.hi[self.basis]
        viol = np.maximum(lob - xb, xb - hib)
        rows = (viol > _FEAS_TOL).nonzero()[0]
        if rows.size == 0:
            return True
        if self._bland:
            p = int(rows[self.basis[rows].argmin()])
        elif rows.size == 1:
            p = int(rows[0])
        else:
            B_rows = self.B_inv[rows]
            w = np.einsum("ij,ij->i", B_rows, B_rows)
            p = int(rows[(viol[rows] ** 2 / w).argmax()])
        s = 1.0 if xb[p] < lob[p] else -1.0
        target = lob[p] if s > 0 else hib[p]
        alpha = s * (self.B_inv[p] @ self.F)
        g = alpha * dirn
        g[free] = -np.abs(alpha[free])
        idx = (g < -_PIVOT_TOL).nonzero()[0]
        if idx.size == 0:
            helpful = g < -_DEGEN_TOL
            if float((-g[helpful] * span[helpful]).sum()) < viol[p] - _FEAS_TOL:
                return False
            raise SimplexBreakdown("dual ratio test found no usable pivot")
        mag = -g[idx]
        slack = np.maximum(dirn[idx] * z[idx], 0.0)
        ratio = slack / mag
        relaxed = (slack + _OPT_TOL) / mag
        ok = (ratio <= relaxed.min()).nonzero()[0]
        k = ok[mag[ok].argmax()]
        if mag[k] * span[idx[k]] < viol[p] and not self._bland:
            k = self._long_step(k, idx, mag, ratio, relaxed, viol[p], span, dirn)
        q, t = int(idx[k]), float(ratio[k])

        self.iterations += 1
        z += t * alpha
        z[q] = 0.0
        d = self.B_inv @ self.F[:, q]
        leaving = self.basis[p]
        dirn[leaving] = s if movable[leaving] else 0.0
        dirn[q], free[q] = 0.0, False
        self._exchange(p, q, d, (self.xval[leaving] - target) / d[p], s < 0)
    raise SimplexBreakdown("dual iteration limit")


def _oracle_tableau_row(self, p):
    return self.B_inv[p, :] @ self.F


def _as_oracle(patch):
    """Route ``patch``'s BoundedSimplex through the full products of F."""
    patch.setattr(BoundedSimplex, "_dual", _oracle_dual)
    patch.setattr(BoundedSimplex, "tableau_row", _oracle_tableau_row)
    patch.setattr(BoundedSimplex, "_times_F", lambda self, v: v @ self.F)
    patch.setattr(BoundedSimplex, "_column", lambda self, q: self.B_inv @ self.F[:, q])


def _kernel_lp(rng, m, n=None):
    """A box-bounded LP over ``m`` sparse rows: about a fifth of them
    covering rows that the slack basis violates, the rest packing rows and a
    few equalities; a few integer columns, so that Gomory cuts have rows."""
    n = n or int(rng.integers(m // 3, m + 1))
    A = np.zeros((m, n))
    rlo, rup = np.full(m, -np.inf), np.full(m, np.inf)
    for i in range(m):
        support = rng.choice(n, size=int(rng.integers(2, 7)), replace=False)
        roll = rng.random()
        if roll < 0.2:  # covering: violated at x = 0
            A[i, support] = rng.integers(1, 4, support.size)
            rlo[i] = float(rng.integers(1, 5)) + 0.5 * (rng.random() < 0.5)
        elif roll < 0.95:
            A[i, support] = np.round(rng.uniform(-1, 3, support.size), 2)
            rup[i] = float(np.round(rng.uniform(4, 12), 1))
        else:
            A[i, support] = rng.integers(1, 4, support.size)
            rlo[i] = rup[i] = float(rng.integers(2, 7))
    return StandardForm(
        name="kernel", c=np.round(rng.uniform(-1, 4, n), 2), A=A, rlo=rlo, rup=rup,
        lb=np.zeros(n), ub=rng.integers(1, 4, n).astype(float), is_int=rng.random(n) < 0.5,
        var_names=tuple(f"x{j}" for j in range(n)), obj_constant=0.0, flipped=False,
    )


def _bits(res, lp):
    """Every field of ``res`` and the final ``B^-1`` of ``lp``, as bytes."""
    factor = getattr(res.warm, "factor", None)
    return (
        res.status, np.float64(np.nan if res.objective is None else res.objective).tobytes(),
        res.point.tobytes(), res.iterations,
        None if res.warm is None else (res.warm[0].tobytes(), res.warm[1].tobytes()),
        None if factor is None else (factor.B_inv.tobytes(), factor.xval.tobytes(), factor.z.tobytes(), factor.etas),
        None if lp.B_inv is None else lp.B_inv.tobytes(),
    )


def _branched_solves(form, children):
    """The bits of a cold solve of ``form`` and of up to ``children`` warm
    solves of its children, each on one object, and the solves' statuses."""
    lp = BoundedSimplex(form)
    root = lp.solve()
    out = [_bits(root, lp)]
    if root.status is LpStatus.OPTIMAL:
        for lb, ub in list(_children(root, form.lb, form.ub))[:children]:
            out.append(_bits(lp.solve(lb, ub, warm=root.warm), lp))
    return out


def _both_sides(monkeypatch, run, *args):
    """``run(*args)`` as the solver computes it and under the oracle."""
    mine = run(*args)
    with monkeypatch.context() as patch:
        _as_oracle(patch)
        return mine, run(*args)


def test_kernel_lps_match_the_full_product_oracle_bitwise(monkeypatch):
    rng = np.random.default_rng(41)
    seen = collections.Counter()
    for _ in range(150):
        form = _kernel_lp(rng, int(rng.integers(64, 161)))
        mine, want = _both_sides(monkeypatch, _branched_solves, form, 4)
        assert mine == want
        for bits in mine:
            seen[bits[0]] += 1
        seen["warm"] += len(mine) - 1
        seen["n not a multiple of 16"] += form.n % 16 != 0
    assert seen[LpStatus.OPTIMAL] > 250 and seen[LpStatus.INFEASIBLE] > 50 and seen["warm"] > 300, seen
    assert seen["n not a multiple of 16"] > 100



def test_kernel_products_have_the_bits_of_the_full_products(monkeypatch):
    # every row times F and every entering column of a kernel LP, in the dual
    # simplex, its pricing and the Gomory rows, equals the full product
    # byte for byte: zero signs and the BLAS tail included
    seen = collections.Counter()
    times_F, column = BoundedSimplex._times_F, BoundedSimplex._column

    def spy_times_F(self, v):
        got = times_F(self, v)
        assert got.tobytes() == (v @ self.F).tobytes()
        seen["rows"] += 1
        return got

    def spy_column(self, q):
        got = column(self, q)
        assert got.tobytes() == (self.B_inv @ self.F[:, q]).tobytes()
        seen["row columns" if q >= self.n else "structural columns"] += 1
        return got

    monkeypatch.setattr(BoundedSimplex, "_times_F", spy_times_F)
    monkeypatch.setattr(BoundedSimplex, "_column", spy_column)
    rng = np.random.default_rng(61)
    for _ in range(30):
        form = _kernel_lp(rng, int(rng.integers(64, 161)))
        lp = BoundedSimplex(form)
        if lp.solve().status is LpStatus.OPTIMAL:
            gomory_cuts(lp, form.is_int)
    assert seen["rows"] > 300 and seen["structural columns"] > 300 and seen["row columns"] > 30, seen

@pytest.mark.parametrize("m", [63, 64])
def test_lps_at_the_row_rule_match_the_oracle_bitwise(monkeypatch, m):
    # 63 rows keep the full products and carry a factor; 64 take the shortcuts
    rng = np.random.default_rng(43 + m)
    for _ in range(5):
        mine, want = _both_sides(monkeypatch, _branched_solves, _kernel_lp(rng, m), 6)
        assert mine == want
        carried = mine[0][5] is not None  # the root's factor
        assert carried == (m < simplex._KERNEL_ROWS and mine[0][0] is LpStatus.OPTIMAL)


def test_warm_cut_lp_growing_past_the_row_rule_matches_the_oracle(monkeypatch):
    # a 60-row LP gains 8 violated cuts and is solved warm over 68 rows
    rng = np.random.default_rng(47)
    grown = 0

    def cut_lp(form, cuts):
        search = _Search(form, ReferenceSolverOptions())
        res = search.lp(form.lb, form.ub)
        before = _bits(res, search.splx)
        warm = search.add_cut_rows([(g, float(g @ res.point) + shift) for g, shift in cuts], res.warm)
        return before, search.splx.m, _bits(search.splx.solve(warm=warm), search.splx)

    while grown < 10:
        form = _kernel_lp(rng, 60)
        if BoundedSimplex(form).solve().status is not LpStatus.OPTIMAL:
            continue
        cuts = [(np.round(rng.uniform(-1, 3, form.n), 2), float(rng.uniform(0.1, 2.0))) for _ in range(8)]
        mine, want = _both_sides(monkeypatch, cut_lp, form, cuts)
        assert mine == want and mine[1] == 68
        grown += 1


def test_gomory_cuts_from_a_kernel_lp_match_the_oracle(monkeypatch):
    def cuts_of(form):
        lp = BoundedSimplex(form)
        if lp.solve().status is not LpStatus.OPTIMAL:
            return []
        return [(g.tobytes(), np.float64(rhs).tobytes()) for g, rhs in gomory_cuts(lp, form.is_int)]

    rng = np.random.default_rng(53)
    total = 0
    for _ in range(10):
        mine, want = _both_sides(monkeypatch, cuts_of, _kernel_lp(rng, int(rng.integers(64, 129))))
        assert mine == want
        total += len(mine)
    assert total > 20


def test_kept_weights_equal_fresh_ones_at_every_dual_iteration(monkeypatch):
    # before and after each pivot of the dual simplex, the kept weight of
    # each violated row (and of every row) is the einsum over its row of
    # B^-1, bit for bit: across refactorizations every 5 updates and across
    # refactorizations forced by a tiny pivot
    monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 5)
    checked, in_dual = collections.Counter(), []
    dual, pivot, refactorize = BoundedSimplex._dual, BoundedSimplex._pivot, BoundedSimplex._refactorize

    def check(lp):
        viol = np.maximum(lp.lo[lp.basis] - lp.xval[lp.basis], lp.xval[lp.basis] - lp.hi[lp.basis])
        for rows in (np.flatnonzero(viol > _FEAS_TOL), np.arange(lp.m)):
            B_rows = lp.B_inv[rows]
            assert lp._w[rows].tobytes() == np.einsum("ij,ij->i", B_rows, B_rows).tobytes()
        checked["iterations"] += 1

    def spy_dual(self, z, movable):
        in_dual.append(True)
        try:
            return dual(self, z, movable)
        finally:
            in_dual.pop()

    def spy_pivot(self, p, q, d):
        if in_dual:
            check(self)
            if self.iterations % 7 == 0:  # tiny pivot: B^-1 is refactorized
                d = d.copy()
                d[p] = 0.0
                checked["tiny pivot"] += 1
        pivot(self, p, q, d)
        if in_dual:
            check(self)

    monkeypatch.setattr(BoundedSimplex, "_dual", spy_dual)
    monkeypatch.setattr(BoundedSimplex, "_pivot", spy_pivot)
    monkeypatch.setattr(BoundedSimplex, "_refactorize", lambda self: checked.update(["refactorized"]) or refactorize(self))
    rng = np.random.default_rng(59)
    for _ in range(8):
        _branched_solves(_kernel_lp(rng, int(rng.integers(64, 129))), 3)
    assert checked["iterations"] > 200 and checked["tiny pivot"] > 20 and checked["refactorized"] > 60, checked


# ---- the solver before its small numpy calls were trimmed, kept as the oracle
# _solve_from, _dual and _eligible as they were when they called numpy's
# Python-level wrappers (ndarray.any, np.array_equal, ndarray.min) and tested
# each status apart, and bnb's fractional and pick_branch_var as they were
# when they used np.round and np.flatnonzero.  The trimmed solver must give
# the same bits: every LpResult, warm start, factor and tree.  As above, the
# oracle's _dual takes the long-step gate and calls the solver's _long_step.


def _wrapped_solve_from(self, basis, status):
    n, m = self.n, self.m
    carried = self._carried
    own = carried is not None and basis is carried[0] and status is carried[1]
    basis = np.array(basis, dtype=np.int64)
    status = np.array(status, dtype=np.int8)
    if not own and (basis.shape != (m,) or status.shape != (n + m,) or (m and basis.max() >= n + m)
                    or np.count_nonzero(status == BASIC) != m or (status[basis] != BASIC).any()):
        return None
    lo, hi = self.lo, self.hi
    xval = np.where(status == AT_UPPER, hi, np.where(status == AT_LOWER, lo, 0.0))
    if (~np.isfinite(xval) | ((status == FREE) & (np.isfinite(lo) | np.isfinite(hi)))).any():
        return None
    self.basis, self.status, self.xval = basis, status, xval
    movable = hi - lo > 0
    factor = carried.factor if own else None
    if factor is not None:
        xval[basis] = factor.xval[basis]
    fresh = factor is None or not np.array_equal(xval, factor.xval)
    if not fresh:
        self.B_inv, self._since_refactor, z = factor.B_inv.copy(), factor.etas, factor.z.copy()
    for again in (False, True):
        if fresh or again:
            self._refresh()
            z = self._reduced_costs()
            if self._eligible(z, movable).any() and not self._phase_one(z, movable):
                zero = np.zeros_like(z)
                self._place(zero)
                return self._result(LpStatus.UNBOUNDED if self._dual(zero, movable) else LpStatus.INFEASIBLE)
        if not self._dual(z, movable):
            return self._result(LpStatus.INFEASIBLE)
        z = self._reduced_costs()
        if not self._eligible(z, movable).any() and not self._bounds_violated():
            self.z = z
            return self._result(LpStatus.OPTIMAL)
    raise SimplexBreakdown("reduced costs or basic values drifted at the optimum")


def _wrapped_eligible(self, z, movable):
    return movable & (
        ((self.status == AT_LOWER) & (z < -_OPT_TOL))
        | ((self.status == AT_UPPER) & (z > _OPT_TOL))
        | ((self.status == FREE) & (np.abs(z) > _OPT_TOL))
    )


def _wrapped_dual(self, z, movable):
    if not self.m:
        return True
    at_lo, at_hi = self.status == AT_LOWER, self.status == AT_UPPER
    dirn = np.where(movable, at_lo * 1.0 - at_hi, 0.0)
    free = self.status == FREE
    span = self.hi - self.lo
    for _ in range(self._max_iter):
        xb, lob, hib = self.xval[self.basis], self.lo[self.basis], self.hi[self.basis]
        viol = np.maximum(lob - xb, xb - hib)
        rows = (viol > _FEAS_TOL).nonzero()[0]
        if rows.size == 0:
            return True
        if self._bland:
            p = int(rows[self.basis[rows].argmin()])
        elif rows.size == 1:
            p = int(rows[0])
        else:
            w = self._w[rows] if self._w is not None else simplex._squared_norms(self.B_inv[rows])
            p = int(rows[(viol[rows] ** 2 / w).argmax()])
        s = 1.0 if xb[p] < lob[p] else -1.0
        target = lob[p] if s > 0 else hib[p]
        alpha = s * self._times_F(self.B_inv[p])
        g = alpha * dirn
        g[free] = -np.abs(alpha[free])
        idx = (g < -_PIVOT_TOL).nonzero()[0]
        if idx.size == 0:
            helpful = g < -_DEGEN_TOL
            if float((-g[helpful] * span[helpful]).sum()) < viol[p] - _FEAS_TOL:
                return False
            raise SimplexBreakdown("dual ratio test found no usable pivot")
        mag = -g[idx]
        slack = np.maximum(dirn[idx] * z[idx], 0.0)
        ratio = slack / mag
        relaxed = (slack + _OPT_TOL) / mag
        ok = (ratio <= relaxed.min()).nonzero()[0]
        k = ok[mag[ok].argmax()]
        if mag[k] * span[idx[k]] < viol[p] and not self._bland:
            k = self._long_step(k, idx, mag, ratio, relaxed, viol[p], span, dirn)
        q, t = int(idx[k]), float(ratio[k])

        self.iterations += 1
        z += t * alpha
        z[q] = 0.0
        d = self._column(q)
        leaving = self.basis[p]
        dirn[leaving] = s if movable[leaving] else 0.0
        dirn[q], free[q] = 0.0, False
        self._exchange(p, q, d, (self.xval[leaving] - target) / d[p], s < 0)
    raise SimplexBreakdown("dual iteration limit")


def _wrapped_fractional(self, x):
    f = np.abs(x[self.int_idx] - np.round(x[self.int_idx]))
    return self.int_idx[f > simplex._INT_TOL]


def _wrapped_pick_branch_var(self, x, cand):
    frac = x[cand] - np.floor(x[cand])
    if self.opts.branch_rule is BranchRule.MOST_FRACTIONAL:
        score = np.minimum(frac, 1.0 - frac)
    else:
        score = np.maximum(self.pc_dn[cand] * frac, 1e-6) * np.maximum(self.pc_up[cand] * (1.0 - frac), 1e-6)
    best = np.flatnonzero(score == score.max())
    return int(cand[best[0]])


def _both_wrapped(monkeypatch, run, *args):
    """``run(*args)`` as the solver computes it and under the wrapped oracle."""
    mine = run(*args)
    with monkeypatch.context() as patch:
        patch.setattr(BoundedSimplex, "_solve_from", _wrapped_solve_from)
        patch.setattr(BoundedSimplex, "_eligible", _wrapped_eligible)
        patch.setattr(BoundedSimplex, "_dual", _wrapped_dual)
        patch.setattr(_Search, "fractional", _wrapped_fractional)
        patch.setattr(_Search, "pick_branch_var", _wrapped_pick_branch_var)
        return mine, run(*args)


def _count_free_duals(monkeypatch):
    """How many of the solver's ``_dual`` calls start with a FREE column,
    and how many ``_phase_one`` calls it makes."""
    seen, dual, phase_one = collections.Counter(), BoundedSimplex._dual, BoundedSimplex._phase_one

    def spy_dual(self, z, movable):
        seen["free column"] += bool(np.count_nonzero(self.status == FREE))
        return dual(self, z, movable)

    monkeypatch.setattr(BoundedSimplex, "_dual", spy_dual)
    monkeypatch.setattr(BoundedSimplex, "_phase_one", lambda self, *a: seen.update(["phase one"]) or phase_one(self, *a))
    return seen


def test_bounded_lps_and_their_children_match_the_wrapped_oracle_bitwise(monkeypatch):
    rng = np.random.default_rng(5)
    seen = collections.Counter()
    for _ in range(80):
        mine, want = _both_wrapped(monkeypatch, _branched_solves, to_standard_form(_bounded_lp(rng)), 50)
        assert mine == want
        seen.update(bits[0] for bits in mine)
        seen["warm"] += len(mine) - 1
    assert seen[LpStatus.OPTIMAL] > 50 and seen[LpStatus.INFEASIBLE] > 50 and seen["warm"] > 50, seen


def test_lps_with_free_columns_and_infinite_bounds_match_the_wrapped_oracle_bitwise(monkeypatch):
    # dual phase 1 and the free columns' branch of the ratio test run here;
    # the kernel path from 64 rows
    seen = _count_free_duals(monkeypatch)
    rng = np.random.default_rng(89)
    forms = [_unboxed_lp(rng, int(rng.integers(3, 30))) for _ in range(60)]
    forms += [to_standard_form(random_lp_instance(rng)) for _ in range(60)]
    forms += [_unboxed_lp(rng, m) for m in (64, 80)] + [_ray_lp(2.0), _ray_lp(4.0)]
    # without a cost toward an infinite bound the slack start is dual
    # feasible, so _dual starts with the free columns nonbasic
    forms += [replace(f, c=np.where((f.c > 0) & np.isinf(f.lb) | (f.c < 0) & np.isinf(f.ub), 0.0, f.c)) for f in forms[:60]]
    statuses = collections.Counter()
    for form in forms:
        mine, want = _both_wrapped(monkeypatch, _branched_solves, form, 6)
        assert mine == want
        statuses.update(bits[0] for bits in mine)
    assert min(statuses[status] for status in LpStatus) >= 10, statuses
    assert seen["phase one"] > 100 and seen["free column"] > 30, seen


def test_bland_retries_match_the_wrapped_oracle_bitwise(monkeypatch):
    # a breakdown in the first attempt sends a cold solve to Bland's rule
    # and a warm child to the slack basis; two send a warm child to Bland's rule
    def retried(form):
        with monkeypatch.context() as patch:
            breakdowns = _injected_dual_breakdowns(patch)
            lp = BoundedSimplex(form)
            breakdowns[:] = [True]
            root = lp.solve()
            out = [_bits(root, lp)]
            if root.status is LpStatus.OPTIMAL:
                for k, (lb, ub) in enumerate(list(_children(root, form.lb, form.ub))[:6]):
                    breakdowns[:] = [True] * (1 + k % 2)
                    out.append(_bits(lp.solve(lb, ub, warm=root.warm), lp))
            return out

    rng = np.random.default_rng(97)
    forms = [to_standard_form(_bounded_lp(rng)) for _ in range(40)] + [_unboxed_lp(rng, 12) for _ in range(20)]
    warm = 0
    for form in forms:
        mine, want = _both_wrapped(monkeypatch, retried, form)
        assert mine == want
        warm += len(mine) - 1
    assert warm > 60


def test_branch_and_bound_matches_the_wrapped_oracle(monkeypatch):
    def outcomes(insts):
        out = []
        for inst in insts:
            for opts in (
                ReferenceSolverOptions(),
                ReferenceSolverOptions(node_strategy=NodeStrategy.DEPTH_FIRST, branch_rule=BranchRule.PSEUDOCOST),
                ReferenceSolverOptions(diving=True, gomory_rounds=2, cover_cuts=True),
            ):
                o = branch_and_bound(inst, opts)
                incumbent = None if o.incumbent is None else (np.float64(o.incumbent.objective).tobytes(), o.incumbent.values)
                out.append((o.status, o.nodes, o.deterministic_ticks, np.float64(o.best_bound).tobytes(), incumbent))
        return out

    rng = np.random.default_rng(101)
    # node propagation and the equality rows' reachability test settle many
    # market-split children without an LP, so eight of them keep the node LPs
    # above a thousand
    insts = [random_mixed_instance(rng) for _ in range(150)]
    insts += [market_split_instance(seed=s, n=12, m=2) for s in (5, 6, 7, 8, 9, 10)]
    insts += [market_split_instance(seed=s, n=14, m=2) for s in (6, 7)]
    mine, want = _both_wrapped(monkeypatch, outcomes, insts)
    assert mine == want
    assert sum(nodes for _, nodes, *_ in mine) > 1000


# ---- the long step ----------------------------------------------------------
# When Harris's candidate cannot close the leaving row's gap over its whole
# range, the dual ratio test passes the breakpoints of boxed columns and flips
# them to their other bound, all in one pivot.

def test_long_step_cuts_the_root_lp_of_a_large_knapsack(monkeypatch):
    # 600 binaries under 200 packing rows: 818 pivots without flips
    instances = perfbench_instances(monkeypatch)
    res = solve_lp(instances.knapsack(np.random.default_rng(0), "k", 600, 200))
    assert res.status is LpStatus.OPTIMAL
    assert res.iterations <= 460 and res.flips > 0


def test_equal_weight_knapsack_takes_a_few_pivots(monkeypatch):
    # one row 3 sum(x) <= 3k + 1: every column flips to 1 but the one that
    # enters at a third; about n/2 pivots without flips
    instances = perfbench_instances(monkeypatch)
    inst, _ = instances.equal_weight_knapsack(np.random.default_rng(3), "e", 100)
    res = solve_lp(inst)
    assert res.status is LpStatus.OPTIMAL and res.iterations <= 3 and res.flips > 40


def _flipping_forms(rng):
    """Boxed LPs of 1 to 100 rows, below and from the row rule, and a few unboxed ones."""
    forms = [to_standard_form(_bounded_lp(rng)) for _ in range(40)]
    forms += [_kernel_lp(rng, int(rng.integers(18, 101))) for _ in range(40)]
    return forms + [_unboxed_lp(rng, int(rng.integers(3, 30))) for _ in range(20)]


def test_basic_values_after_a_long_step_equal_a_fresh_solve(monkeypatch):
    checked = collections.Counter()
    long_step = BoundedSimplex._long_step

    def spy(self, *args):
        flips = self.flips
        k = long_step(self, *args)
        if self.flips > flips:
            nonbasic = self.status != BASIC
            rhs = -(self.F[:, nonbasic] @ self.xval[nonbasic])
            fresh = np.linalg.solve(self.F[:, self.basis], rhs)
            scale = max(1.0, float(np.abs(fresh).max()), float(np.abs(self.xval[nonbasic]).max()))
            assert np.abs(self.xval[self.basis] - fresh).max() <= 1e-9 * scale
            checked["long steps"] += 1
            checked["flips"] += self.flips - flips
        return k

    monkeypatch.setattr(BoundedSimplex, "_long_step", spy)
    rng = np.random.default_rng(71)
    for form in _flipping_forms(rng):
        _branched_solves(form, 4)
    assert checked["long steps"] > 150 and checked["flips"] > 200, checked


def test_a_bland_attempt_never_flips(monkeypatch):
    calls = []
    long_step = BoundedSimplex._long_step
    monkeypatch.setattr(BoundedSimplex, "_long_step", lambda self, *a: calls.append(self._bland) or long_step(self, *a))
    instances = perfbench_instances(monkeypatch)
    form = to_standard_form(instances.equal_weight_knapsack(np.random.default_rng(3), "e", 100)[0])
    assert BoundedSimplex(form).solve().flips > 0 and calls
    calls.clear()
    breakdowns = _injected_dual_breakdowns(monkeypatch)
    breakdowns[:] = [True]  # the first attempt breaks down: the slack basis under Bland's rule
    res = BoundedSimplex(form).solve()
    assert breakdowns == [] and res.status is LpStatus.OPTIMAL
    assert res.flips == 0 and calls == [] and res.iterations > 40


def test_lps_that_flip_match_highs():
    pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(73)
    seen = collections.Counter()
    for form in _flipping_forms(rng):
        mine = BoundedSimplex(form).solve()
        ref = _highs(form, form.c)
        if mine.flips == 0:
            continue
        seen[mine.status] += 1
        if ref.status == 0:
            assert mine.status is LpStatus.OPTIMAL
            assert mine.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
            _assert_feasible(form, form.lb, form.ub, mine.point)
        else:
            assert mine.status is {2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}[ref.status]
    assert seen[LpStatus.OPTIMAL] > 20 and seen[LpStatus.INFEASIBLE] > 3, seen
