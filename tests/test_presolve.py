import importlib
import math
from dataclasses import replace

import numpy as np
import pytest

from milpbench.instance import INF, Instance, Relation, Sense, Variable, VarKind, make_row
from milpbench.solver import ReferenceSolverOptions, SolveStatus, bnb, branch_and_bound, presolve

from _helpers import binary_instance, counting_clock

presolve_module = importlib.import_module("milpbench.solver.presolve")

BOTH_ON = ReferenceSolverOptions(presolve_bound_tighten=True, presolve_coeff_reduce=True)
TIGHTEN = ReferenceSolverOptions(presolve_bound_tighten=True)
REDUCE = ReferenceSolverOptions(presolve_coeff_reduce=True)
OFF = ReferenceSolverOptions()


def test_bound_pass_tightens_integer_uppers():
    # x + y <= 1 over nonnegative integers: upper bounds become 1
    inst = Instance(
        "tight",
        Sense.MINIMIZE,
        (
            Variable("x", 0.0, math.inf, VarKind.INTEGER),
            Variable("y", 0.0, math.inf, VarKind.INTEGER),
        ),
        (make_row("r", [(0, 1.0), (1, 1.0)], Relation.LE, 1.0),),
        objective=((0, -1.0), (1, -1.0)),
    )
    res = presolve(inst, TIGHTEN)
    assert not res.proven_infeasible
    assert [v.upper for v in res.instance.variables] == [1.0, 1.0]
    assert [v.lower for v in res.instance.variables] == [0.0, 0.0]


def test_disabled_passes_are_identity():
    inst = binary_instance(
        "id",
        3,
        [make_row("r", [(0, 5.0), (1, 3.0)], Relation.LE, 7.0)],
        [(0, -1.0)],
    )
    res = presolve(inst, OFF)
    assert res.instance == inst
    assert res.passes == 0
    assert res.back_map.to_full({"x0": 1.0, "x1": 0.0, "x2": 1.0}) == {
        "x0": 1.0,
        "x1": 0.0,
        "x2": 1.0,
    }


def test_crossed_tightened_bounds_proven_infeasible():
    inst = Instance(
        "cross",
        Sense.MINIMIZE,
        (Variable("x", 0.0, 10.0, VarKind.INTEGER),),
        (
            make_row("ge", [(0, 1.0)], Relation.GE, 2.0),
            make_row("le", [(0, 1.0)], Relation.LE, 1.0),
        ),
        objective=((0, 1.0),),
    )
    res = presolve(inst, TIGHTEN)
    assert res.proven_infeasible


def test_coefficient_reduction_tightens_binary_row():
    # 5x + 3y <= 7 over binaries iterates to x + y <= 1; all four 0/1 points
    # keep the same feasibility (only (1,1) violates either form) while the
    # LP box shrinks
    inst = binary_instance(
        "coeff",
        2,
        [make_row("r", [(0, 5.0), (1, 3.0)], Relation.LE, 7.0)],
        [(0, -1.0), (1, -1.0)],
    )
    res = presolve(inst, REDUCE)
    row = res.instance.rows[0]
    assert row.coefficients == ((0, 1.0), (1, 1.0))
    assert row.rhs == 1.0
    for x in (0, 1):
        for y in (0, 1):
            assert (5 * x + 3 * y <= 7) == (x + y <= 1)


def test_coefficient_reduction_handles_negative_weight():
    # -5x + 3y <= 2 complements x and iterates to -x + y <= 0; the 0/1
    # feasibility pattern is unchanged (only (0,1) violates either form)
    inst = binary_instance(
        "negw",
        2,
        [make_row("r", [(0, -5.0), (1, 3.0)], Relation.LE, 2.0)],
        [(1, -1.0)],
    )
    res = presolve(inst, REDUCE)
    row = res.instance.rows[0]
    assert row.coefficients == ((0, -1.0), (1, 1.0))
    assert row.rhs == 0.0
    for x in (0, 1):
        for y in (0, 1):
            assert (-5 * x + 3 * y <= 2) == (-x + y <= 0)


def test_redundant_row_dropped():
    inst = binary_instance(
        "red",
        2,
        [make_row("loose", [(0, 1.0), (1, 1.0)], Relation.LE, 5.0)],
        [(0, -1.0)],
    )
    res = presolve(inst, REDUCE)
    assert res.instance.rows == ()
    assert res.back_map.dropped_rows == ("loose",)


def test_fixpoint_chains_across_rows():
    # x <= 3 forces y <= 3 via y <= x, then z <= 3 via z <= y
    inst = Instance(
        "chain",
        Sense.MINIMIZE,
        tuple(Variable(nm, 0.0, 50.0, VarKind.INTEGER) for nm in ("x", "y", "z")),
        (
            make_row("cap", [(0, 1.0)], Relation.LE, 3.0),
            make_row("yx", [(0, -1.0), (1, 1.0)], Relation.LE, 0.0),
            make_row("zy", [(1, -1.0), (2, 1.0)], Relation.LE, 0.0),
        ),
        objective=((2, -1.0),),
    )
    res = presolve(inst, TIGHTEN)
    assert [v.upper for v in res.instance.variables] == [3.0, 3.0, 3.0]


# ---- the per-coefficient bound pass, kept as a reference -------------------


def _reference_activity(coeffs, lb, ub):
    lo = hi = 0.0
    for j, a in coeffs:
        if a > 0:
            lo += a * lb[j] if math.isfinite(lb[j]) else -INF
            hi += a * ub[j] if math.isfinite(ub[j]) else INF
        elif a < 0:
            lo += a * ub[j] if math.isfinite(ub[j]) else -INF
            hi += a * lb[j] if math.isfinite(lb[j]) else INF
    return lo, hi


def _reference_tighten(rows, lb, ub, is_int):
    """The O(sum of row_nnz^2) pass: the other terms' activity is summed afresh
    for every coefficient."""
    changed = False
    for row in rows:
        rlo, rup = row.interval()
        for j, a in row.coefficients:
            if a == 0.0:
                continue
            olo, ohi = _reference_activity([(k, v) for k, v in row.coefficients if k != j], lb, ub)
            new_lo, new_hi = lb[j], ub[j]
            if math.isfinite(rup) and olo > -INF:
                limit = (rup - olo) / a
                if a > 0:
                    new_hi = min(new_hi, limit)
                else:
                    new_lo = max(new_lo, limit)
            if rlo > -INF and math.isfinite(ohi):
                limit = (rlo - ohi) / a
                if a > 0:
                    new_lo = max(new_lo, limit)
                else:
                    new_hi = min(new_hi, limit)
            if is_int[j]:
                if math.isfinite(new_lo):
                    new_lo = math.ceil(new_lo - 1e-7)
                if math.isfinite(new_hi):
                    new_hi = math.floor(new_hi + 1e-7)
            if new_lo > lb[j] + 1e-9:
                lb[j] = new_lo
                changed = True
            if new_hi < ub[j] - 1e-9:
                ub[j] = new_hi
                changed = True
            if lb[j] > ub[j] + 1e-9:
                return changed, True
    return changed, False


def _reference_presolve(inst, opts, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(presolve_module, "_tighten_bounds", _reference_tighten)
        return presolve(inst, opts)


_RELATIONS = (Relation.LE, Relation.GE, Relation.EQ, Relation.RANGE)


def _random_rows(rng, n, coefficient, rhs):
    rows = []
    for i in range(int(rng.integers(1, 7))):
        support = sorted(int(j) for j in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        relation = _RELATIONS[int(rng.integers(0, 4))]
        width = abs(rhs()) if relation is Relation.RANGE else None
        rows.append(make_row(f"r{i}", [(j, coefficient()) for j in support], relation, rhs(), width))
    return tuple(rows)


def _random_integer_instance(rng):
    """Integral data over binaries and general integers, some bounds infinite."""
    variables = []
    for j in range(int(rng.integers(2, 9))):
        if rng.random() < 0.4:
            variables.append(Variable(f"x{j}", 0.0, 1.0, VarKind.BINARY))
            continue
        lo = -INF if rng.random() < 0.2 else float(rng.integers(-6, 3))
        up = INF if rng.random() < 0.2 else max(lo, 0.0) + float(rng.integers(0, 9))
        variables.append(Variable(f"x{j}", lo, up, VarKind.INTEGER))
    rows = _random_rows(
        rng,
        len(variables),
        lambda: float(rng.integers(-9, 10)),  # zeros included
        lambda: float(rng.integers(-12, 25)),
    )
    return Instance("int", Sense.MINIMIZE, tuple(variables), rows)


def _random_float_instance(rng):
    """Continuous variables with float data, some bounds infinite."""
    variables = []
    for j in range(int(rng.integers(2, 9))):
        lo = -INF if rng.random() < 0.2 else rng.uniform(-10.0, 5.0)
        up = INF if rng.random() < 0.2 else max(lo, -5.0) + rng.uniform(0.0, 15.0)
        variables.append(Variable(f"x{j}", lo, up, VarKind.CONTINUOUS))
    rows = _random_rows(rng, len(variables), lambda: rng.uniform(-5.0, 5.0), lambda: rng.uniform(-20.0, 40.0))
    return Instance("float", Sense.MINIMIZE, tuple(variables), rows)


@pytest.mark.parametrize("opts", [TIGHTEN, BOTH_ON], ids=["tighten", "both"])
def test_integer_data_matches_reference_exactly(opts, monkeypatch):
    rng = np.random.default_rng(2020)
    verdicts = set()
    for _ in range(600):
        inst = _random_integer_instance(rng)
        want = _reference_presolve(inst, opts, monkeypatch)
        assert presolve(inst, opts) == want
        verdicts.add((want.proven_infeasible, want.instance.variables != inst.variables))
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_float_data_matches_reference_up_to_rounding(monkeypatch):
    # Summation order differs, so bounds agree only to rounding.
    rng = np.random.default_rng(2021)
    verdicts = set()
    for _ in range(600):
        inst = _random_float_instance(rng)
        want = _reference_presolve(inst, BOTH_ON, monkeypatch)
        got = presolve(inst, BOTH_ON)
        assert got.proven_infeasible == want.proven_infeasible
        verdicts.add(want.proven_infeasible)
        for v, w in zip(got.instance.variables, want.instance.variables):
            for b, ref in ((v.lower, w.lower), (v.upper, w.upper)):
                assert b == ref or abs(b - ref) <= 1e-9 * max(1.0, abs(ref))
    assert verdicts == {True, False}


def test_huge_finite_bound_is_not_cancelled(monkeypatch):
    # x + y <= 12.5 with x >= -1e30: the row total -1e30 - 0.5 rounds to -1e30,
    # so taking x's term back out of it would give 0 for y's share, not -0.5,
    # and cut x down to 12.5 although x = 13, y = -0.5 is feasible.
    inst = Instance(
        "huge",
        Sense.MINIMIZE,
        (
            Variable("x", -1e30, 20.0, VarKind.CONTINUOUS),
            Variable("y", -0.5, 5.0, VarKind.CONTINUOUS),
        ),
        (make_row("r", [(0, 1.0), (1, 1.0)], Relation.LE, 12.5),),
    )
    res = presolve(inst, TIGHTEN)
    assert res.instance.variables[0].upper == 13.0
    assert res == _reference_presolve(inst, TIGHTEN, monkeypatch)


def test_bound_pass_cost_is_linear_in_row_length(monkeypatch):
    # one dense row, every bound moves: 2x_0 + ... + 2x_{n-1} <= n with x_j in [0, 1000]
    n = 400
    row = make_row("cap", [(j, 2.0) for j in range(n)], Relation.LE, float(n))
    lb, ub, is_int = [0.0] * n, [1000.0] * n, [True] * n
    calls = []
    contribution = presolve_module._contribution
    monkeypatch.setattr(presolve_module, "_contribution", lambda *a: calls.append(a) or contribution(*a))
    assert presolve_module._tighten_bounds([row], lb, ub, is_int) == (True, False)
    assert ub == [float(n // 2)] * n
    assert len(calls) <= 2 * n


def _creeping_pair():
    """x <= y/2 and y <= x/2 over [0, 10]: each pass cuts both upper bounds
    to a quarter, so bound tightening creeps toward 0 for 18 passes, the way
    two continuous bounds converge on -5/7 in protocol's mix102."""
    return Instance(
        "creep",
        Sense.MINIMIZE,
        (Variable("x", 0.0, 10.0, VarKind.CONTINUOUS), Variable("y", 0.0, 10.0, VarKind.CONTINUOUS)),
        (
            make_row("a", [(0, 1.0), (1, -0.5)], Relation.LE, 0.0),
            make_row("b", [(0, -0.5), (1, 1.0)], Relation.LE, 0.0),
        ),
        objective=((0, -1.0), (1, -1.0)),
    )


def test_presolve_stops_at_the_deadline(monkeypatch):
    # the search reads the clock at 0 when it starts and presolve reads it
    # at 1, 2 and 3 before its first three passes; at 4 a limit of 4 has run
    # out, and presolve stops with the valid, looser bounds it has
    inst = _creeping_pair()
    full = presolve(inst, TIGHTEN)
    assert full.passes == 18
    seen = []
    monkeypatch.setattr(bnb, "presolve", lambda *a: seen.append(presolve(*a)) or seen[-1])
    out = branch_and_bound(inst, replace(TIGHTEN, time_limit_s=4), clock=counting_clock())
    assert [res.passes for res in seen] == [3]
    uppers = [v.upper for v in seen[0].instance.variables]
    assert uppers == [10.0 / 4**3 * 2, 10.0 / 4**3]
    assert all(up > v.upper for up, v in zip(uppers, full.instance.variables))
    assert out.status is SolveStatus.OPTIMAL and out.incumbent.objective == pytest.approx(0.0, abs=1e-9)


def test_disabled_presolve_reads_no_clock():
    clock = counting_clock()
    assert presolve(_creeping_pair(), OFF, 0.0, clock).passes == 0
    assert clock() == 0  # the first reading
