import math

import numpy as np
import pytest
from scipy.optimize import linprog

from milpbench.instance import Instance, Relation, Sense, Variable, make_row
from milpbench.solver.simplex import LpStatus, solve_lp

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


def test_tolerances_must_be_positive():
    inst = Instance("t", Sense.MINIMIZE, (Variable("x", 0.0, 1.0),), ())
    with pytest.raises(ValueError):
        solve_lp(inst, feas_tol=0.0)


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


def test_random_lps_match_reference_solver():
    rng = np.random.default_rng(42)
    optimal_seen = 0
    for _ in range(150):
        inst = random_lp_instance(rng)
        mine = solve_lp(inst)
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
