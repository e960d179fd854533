import importlib
import math
from dataclasses import replace

import numpy as np
import pytest

from milpbench.instance import INF, Instance, LinearRow, Relation, Sense, Variable, VarKind, make_row
from milpbench.solver import ReferenceSolverOptions, SolveStatus, bnb, branch_and_bound, presolve
from milpbench.solver.standard_form import to_standard_form

from _helpers import binary_instance, counting_clock, perfbench_instances

presolve_module = importlib.import_module("milpbench.solver.presolve")

BOTH_ON = ReferenceSolverOptions(presolve_bound_tighten=True, presolve_coeff_reduce=True)
TIGHTEN = ReferenceSolverOptions(presolve_bound_tighten=True)
REDUCE = ReferenceSolverOptions(presolve_coeff_reduce=True)
OFF = ReferenceSolverOptions()


def _presolve(inst, opts, *args):
    """``presolve`` of the standard form of ``inst``."""
    return presolve(to_standard_form(inst), opts, *args)


def _form_bits(form):
    """Every bit of a form's arrays: shape and ``float.hex`` of each entry, and ``is_int``."""
    arrays = (form.c, form.A, form.rlo, form.rup, form.lb, form.ub)
    return [(a.shape, [float.hex(x) for x in a.ravel().tolist()]) for a in arrays], form.is_int.tolist()


def _bits(res):
    """Every bit of a ``PresolveResult``: ``==`` on one would compare arrays."""
    return _form_bits(res.form), res.back_map.dropped_rows, res.proven_infeasible, res.passes


def _unchanged(res, inst):
    return _form_bits(res.form) == _form_bits(to_standard_form(inst))


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
    res = _presolve(inst, TIGHTEN)
    assert not res.proven_infeasible
    assert res.form.ub.tolist() == [1.0, 1.0]
    assert res.form.lb.tolist() == [0.0, 0.0]


def test_disabled_passes_are_identity():
    inst = binary_instance(
        "id",
        3,
        [make_row("r", [(0, 5.0), (1, 3.0)], Relation.LE, 7.0)],
        [(0, -1.0)],
    )
    form = to_standard_form(inst)
    res = presolve(form, OFF)
    assert res.form is form
    assert res.passes == 0


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
    res = _presolve(inst, TIGHTEN)
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
    res = _presolve(inst, REDUCE)
    assert res.form.A.tolist() == [[1.0, 1.0]]
    assert (res.form.rlo.tolist(), res.form.rup.tolist()) == ([-INF], [1.0])
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
    res = _presolve(inst, REDUCE)
    assert res.form.A.tolist() == [[-1.0, 1.0]]
    assert (res.form.rlo.tolist(), res.form.rup.tolist()) == ([-INF], [0.0])
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
    res = _presolve(inst, REDUCE)
    assert res.form.A.shape == (0, 2) and res.form.rlo.shape == res.form.rup.shape == (0,)
    assert res.back_map.dropped_rows == (0,)


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
    res = _presolve(inst, TIGHTEN)
    assert res.form.ub.tolist() == [3.0, 3.0, 3.0]


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
    """The O(sum of row_nnz^2) pass over ``(terms, rlo, rup)`` rows: the other
    terms' activity is summed afresh for every coefficient."""
    changed = False
    for terms, rlo, rup in rows:
        for j, a in terms:
            if a == 0.0:
                continue
            olo, ohi = _reference_activity([(k, v) for k, v in terms if k != j], lb, ub)
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


def _reference_row(row, lb, ub, is_int):
    """``_reference_tighten`` on one row, in the seam of ``presolve._tighten_row``:
    returns the columns whose bound moved and the infeasible flag."""
    before = [(lb[j], ub[j]) for j, _ in row[0]]
    _, infeasible = _reference_tighten([row], lb, ub, is_int)
    return [j for (j, _), b in zip(row[0], before) if b != (lb[j], ub[j])], infeasible


def _reference_presolve(inst, opts, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(presolve_module, "_tighten_row", _reference_row)
        return _presolve(inst, opts)


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
        assert _bits(_presolve(inst, opts)) == _bits(want)
        verdicts.add((want.proven_infeasible, not _unchanged(want, inst)))
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_float_data_matches_reference_up_to_rounding(monkeypatch):
    # Summation order differs, so bounds agree only to rounding.
    rng = np.random.default_rng(2021)
    verdicts = set()
    for _ in range(600):
        inst = _random_float_instance(rng)
        want = _reference_presolve(inst, BOTH_ON, monkeypatch)
        got = _presolve(inst, BOTH_ON)
        assert got.proven_infeasible == want.proven_infeasible
        verdicts.add(want.proven_infeasible)
        for b, ref in zip([*got.form.lb, *got.form.ub], [*want.form.lb, *want.form.ub]):
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
    res = _presolve(inst, TIGHTEN)
    assert res.form.ub[0] == 13.0
    assert _bits(res) == _bits(_reference_presolve(inst, TIGHTEN, monkeypatch))


class _CountingList(list):
    """A bound list that counts its reads: the per-coefficient work of a row visit."""

    reads = 0

    def __getitem__(self, j):
        self.reads += 1
        return super().__getitem__(j)


def test_bound_pass_cost_is_linear_in_row_length():
    # one dense row, every bound moves: 2x_0 + ... + 2x_{n-1} <= n with x_j in [0, 1000]
    n = 400
    row = ([(j, 2.0) for j in range(n)], -INF, float(n))
    lb, ub, is_int = _CountingList([0.0] * n), _CountingList([1000.0] * n), [True] * n
    assert presolve_module._tighten_row(row, lb, ub, is_int) == (list(range(n)), False)
    assert ub == [float(n // 2)] * n
    assert lb.reads + ub.reads <= 10 * n  # summing the others afresh would read n^2


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
    full = _presolve(inst, TIGHTEN)
    assert full.passes == 18
    seen = []
    monkeypatch.setattr(bnb, "presolve", lambda *a: seen.append(presolve(*a)) or seen[-1])
    out = branch_and_bound(inst, replace(TIGHTEN, time_limit_s=4), clock=counting_clock())
    assert [res.passes for res in seen] == [3]
    uppers = seen[0].form.ub.tolist()
    assert uppers == [10.0 / 4**3 * 2, 10.0 / 4**3]
    assert all(up > full_up for up, full_up in zip(uppers, full.form.ub))
    assert out.status is SolveStatus.OPTIMAL and out.incumbent.objective == pytest.approx(0.0, abs=1e-9)


def test_disabled_presolve_reads_no_clock():
    clock = counting_clock()
    assert _presolve(_creeping_pair(), OFF, 0.0, clock).passes == 0
    assert clock() == 0  # the first reading


# ---- the full-sweep presolve, kept as the oracle ---------------------------
# The presolve that visited every row and re-derived every coefficient in
# each pass, over the instance's rows with integer bounds rounded as
# ``to_standard_form`` rounds them; its result is mapped to the standard
# form.  Skipping rows and per-coefficient loops must not change one bit of
# its result.

_ORACLE_EPS, _ORACLE_HUGE = 1e-9, 1e6


def _oracle_contribution(a, lo, up):
    if a > 0:
        return (a * lo if math.isfinite(lo) else -INF), (a * up if math.isfinite(up) else INF)
    return (a * up if math.isfinite(up) else -INF), (a * lo if math.isfinite(lo) else INF)


def _oracle_split(parts):
    finite = [c for c in parts if math.isfinite(c)]
    return sum(finite, 0.0), len(parts) - len(finite)


def _oracle_others(total, n_inf, own, inf):
    if math.isfinite(own):
        return total - own if n_inf == 0 else inf
    return total if n_inf == 1 else inf


def _oracle_swap(total, n_inf, old, new):
    if math.isfinite(old):
        total -= old
    else:
        n_inf -= 1
    if math.isfinite(new):
        total += new
    else:
        n_inf += 1
    return total, n_inf


def _oracle_tighten_bounds(rows, lb, ub, is_int):
    changed = False
    for row in rows:
        rlo, rup = row.interval()
        terms = [(j, a) for j, a in row.coefficients if a != 0.0]
        parts = [_oracle_contribution(a, lb[j], ub[j]) for j, a in terms]
        direct = any(_ORACLE_HUGE < abs(c) < INF for part in parts for c in part)
        lo_sum, lo_inf = _oracle_split([clo for clo, _ in parts])
        hi_sum, hi_inf = _oracle_split([chi for _, chi in parts])
        for (j, a), (clo, chi) in zip(terms, parts):
            if direct:
                olo, ohi = _reference_activity([t for t in terms if t[0] != j], lb, ub)
            else:
                olo = _oracle_others(lo_sum, lo_inf, clo, -INF)
                ohi = _oracle_others(hi_sum, hi_inf, chi, INF)
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
                    new_lo = float(math.ceil(new_lo - 1e-7))
                if math.isfinite(new_hi):
                    new_hi = float(math.floor(new_hi + 1e-7))
            moved = False
            if new_lo > lb[j] + _ORACLE_EPS:
                lb[j] = new_lo
                moved = True
            if new_hi < ub[j] - _ORACLE_EPS:
                ub[j] = new_hi
                moved = True
            if lb[j] > ub[j] + _ORACLE_EPS:
                return changed | moved, True
            if moved and not direct:
                nlo, nhi = _oracle_contribution(a, lb[j], ub[j])
                if nlo != clo:
                    lo_sum, lo_inf = _oracle_swap(lo_sum, lo_inf, clo, nlo)
                if nhi != chi:
                    hi_sum, hi_inf = _oracle_swap(hi_sum, hi_inf, chi, nhi)
            changed |= moved
    return changed, False


def _oracle_reduce_row(row, lb, ub, is_int):
    rlo, rup = row.interval()
    if math.isinf(rlo) == math.isinf(rup):  # reduced only with exactly one infinite side
        return row, False
    sign = 1.0 if math.isinf(rlo) else -1.0
    coeffs = {j: sign * a for j, a in row.coefficients}
    rhs = rup if sign > 0 else -rlo
    _, umax = _reference_activity(list(coeffs.items()), lb, ub)
    if not math.isfinite(umax):
        return row, False
    if umax <= rhs + _ORACLE_EPS:
        return None, True
    changed = False
    for j in sorted(coeffs):
        a = coeffs[j]
        if a == 0.0 or not is_int[j] or lb[j] != 0.0 or ub[j] != 1.0:
            continue
        if a > 0:
            if umax - a < rhs < umax:
                new_a = umax - rhs
                rhs = umax - a
                umax = umax - a + new_a
                coeffs[j] = new_a
                changed = True
        elif umax < rhs - a and rhs < umax:
            coeffs[j] = rhs - umax
            changed = True
    if not changed:
        return row, False
    out = tuple(sorted((j, float(sign * a)) for j, a in coeffs.items() if a != 0.0))
    return LinearRow(row.name, out, Relation.LE if sign > 0 else Relation.GE, float(sign * rhs)), True


def _oracle_presolve(inst, opts):
    is_int = [v.is_integral for v in inst.variables]
    lb = [float(math.ceil(v.lower - 1e-9)) if k and math.isfinite(v.lower) else float(v.lower)
          for v, k in zip(inst.variables, is_int)]
    ub = [float(math.floor(v.upper + 1e-9)) if k and math.isfinite(v.upper) else float(v.upper)
          for v, k in zip(inst.variables, is_int)]
    rows = list(inst.rows)
    dropped = []
    passes = 0
    infeasible = any(lo > up + _ORACLE_EPS for lo, up in zip(lb, ub))
    while not infeasible and passes < 50:
        passes += 1
        changed = False
        if opts.presolve_bound_tighten:
            tightened, infeasible = _oracle_tighten_bounds(rows, lb, ub, is_int)
            changed |= tightened
            if infeasible:
                break
        if opts.presolve_coeff_reduce:
            new_rows = []
            for row in rows:
                reduced, row_changed = _oracle_reduce_row(row, lb, ub, is_int)
                if reduced is None:
                    dropped.append(row.name)
                    changed = True
                    continue
                changed |= row_changed
                new_rows.append(reduced)
            rows = new_rows
        if not changed:
            break
    variables = tuple(Variable(v.name, float(lb[j]), float(ub[j]), v.kind) for j, v in enumerate(inst.variables))
    reduced = to_standard_form(replace(inst, variables=variables, rows=tuple(rows)))
    position = {row.name: i for i, row in enumerate(inst.rows)}
    back_map = presolve_module.BackMap(tuple(position[name] for name in dropped))
    return presolve_module.PresolveResult(reduced, back_map, infeasible, passes)


@pytest.mark.parametrize("opts", [TIGHTEN, BOTH_ON], ids=["tighten", "both"])
def test_random_models_match_the_full_sweep_oracle_exactly(opts):
    rng = np.random.default_rng(2015)
    for make in (_random_integer_instance, _random_float_instance):
        verdicts = set()
        for _ in range(600):
            inst = make(rng)
            want = _oracle_presolve(inst, opts)
            assert _bits(_presolve(inst, opts)) == _bits(want)
            verdicts.add((want.proven_infeasible, want.passes > 1))
        assert verdicts >= {(True, False), (False, False), (False, True)}


def _mixed(name, variables, rows):
    return Instance(name, Sense.MINIMIZE, tuple(Variable(*v) for v in variables), tuple(rows))


_EDGE_MODELS = {
    # x's bounds round to [1, 3]; the row alone has room for every column
    "fractional-integer-bounds": _mixed(
        "frac",
        [("x", 0.5, 3.7, VarKind.INTEGER), ("y", 0.0, 1.0, VarKind.CONTINUOUS)],
        [make_row("loose", [(0, 1.0), (1, 1.0)], Relation.LE, 100.0)],
    ),
    # a term above _HUGE: the other terms are summed afresh
    "huge-row": _mixed(
        "huge",
        [("x", -3e6, 20.0, VarKind.CONTINUOUS), ("y", -0.5, 5.0, VarKind.CONTINUOUS), ("z", 0.0, 4.0, VarKind.INTEGER)],
        [make_row("r", [(0, 1.0), (1, 1.0), (2, 2.0)], Relation.LE, 12.5),
         make_row("s", [(0, 1.0), (2, -1.0)], Relation.GE, -10.0)],
    ),
    # x's term is above _HUGE; the one visit moves x to [0, 4], and y, which
    # then reads x's new contribution, to [1, 10]: 2 passes.  Read from the
    # visit's start, x's old term would leave y for a second visit: 3 passes
    "huge-row-moves-in-one-visit": _mixed(
        "huge1",
        [("x", -3e6, 20.0, VarKind.INTEGER), ("y", 0.5, 10.0, VarKind.CONTINUOUS), ("z", 0.0, 1.0, VarKind.CONTINUOUS)],
        [make_row("r", [(0, 2.0), (1, 1.0), (2, 1.0)], Relation.EQ, 10.0)],
    ),
    # 3x + 3y <= 4 as a RANGE row of infinite width: in the form it is a row
    # with one infinite side, like a <= row, and coefficient reduction
    # rewrites it to 2x + 2y <= 2, which keeps every binary point's verdict
    "infinite-range-row": _mixed(
        "range",
        [("x", 0.0, 1.0, VarKind.BINARY), ("y", 0.0, 1.0, VarKind.BINARY)],
        [make_row("r", [(0, 3.0), (1, 3.0)], Relation.RANGE, 4.0, INF)],
    ),
    # y's lower bound is infinite: y's own term is the row's one infinite one
    "one-infinite-term": _mixed(
        "inf1",
        [("x", 0.0, 5.0, VarKind.CONTINUOUS), ("y", -INF, 20.0, VarKind.INTEGER)],
        [make_row("r", [(0, 1.0), (1, 1.0)], Relation.LE, 10.0),
         make_row("s", [(0, 1.0), (1, -1.0)], Relation.LE, 3.5)],
    ),
    # the row's slack, 1.2100000083 in floats, fits y's range 1.21, but the
    # loop's own sums near -1.55e8 round y's limit more than _EPS below 0.85:
    # the slack test's margin must send this row to the loop
    "rounding-at-the-slack": _mixed(
        "ulp",
        [(f"w{k}", -1e6 + 0.06, -1e6 + 0.56, VarKind.CONTINUOUS) for k in range(155)]
        + [("y", -0.36, 0.85, VarKind.CONTINUOUS)],
        [make_row("r", [(j, 1.0) for j in range(156)], Relation.LE, -154999989.84999976)],
    ),
    # coefficient reduction rewrites r to 3x0 + 3x1 + z <= 4, which the next
    # pass visits again
    "rewritten-row": _mixed(
        "rewrite",
        [("x0", 0.0, 1.0, VarKind.BINARY), ("x1", 0.0, 1.0, VarKind.BINARY), ("z", 0.0, 1.0, VarKind.CONTINUOUS)],
        [make_row("r", [(0, 4.0), (1, 4.0), (2, 1.0)], Relation.LE, 6.0)],
    ),
    # pass 1 leaves x in [1, 5] and y in [5, 8]; in pass 2, b's y <= x - 1
    # crosses y, and c, d and e are not visited
    "infeasible-mid-pass": _mixed(
        "crossed",
        [("x", 0.0, 9.0, VarKind.INTEGER), ("y", 0.0, 9.0, VarKind.INTEGER)],
        [make_row("a", [(0, 1.0), (1, 1.0)], Relation.LE, 18.0),
         make_row("b", [(0, -1.0), (1, 1.0)], Relation.LE, -1.0),
         make_row("c", [(1, 1.0)], Relation.GE, 5.0),
         make_row("d", [(0, 1.0)], Relation.LE, 5.0),
         make_row("e", [(0, 1.0), (1, 1.0)], Relation.LE, 17.0)],
    ),
}


@pytest.mark.parametrize("opts", [TIGHTEN, BOTH_ON], ids=["tighten", "both"])
@pytest.mark.parametrize("model", sorted(_EDGE_MODELS))
def test_edge_models_match_the_full_sweep_oracle(model, opts):
    inst = _EDGE_MODELS[model]
    assert _bits(_presolve(inst, opts)) == _bits(_oracle_presolve(inst, opts))


def _benchmark_models(gen):
    """The benchmark's model shapes at its sizes: ``root``'s interval covers,
    chains, equal-weight knapsacks and facility locations, and ``protocol``'s
    tiny mixed models."""
    rng = np.random.default_rng(2026)
    kinds = (VarKind.BINARY, VarKind.INTEGER, VarKind.CONTINUOUS)
    models = [gen.interval_cover(rng, f"cover{k}", 120, 360) for k in range(3)]
    models += [gen.chain(f"chain{n}", n)[0] for n in (5, 300)]
    models += [gen.equal_weight_knapsack(rng, f"knap{n}", n)[0] for n in (20, 100, 200)]
    models += [gen.facility_location(rng, f"facility{k}", 6, 15) for k in range(3)]
    for k in range(200):
        mixed = tuple(kinds[i] for i in rng.choice(3, size=int(rng.integers(2, 9)), p=(0.4, 0.3, 0.3)))
        models.append(gen.tiny_mixed(rng, f"mix{k:03d}", mixed, int(rng.integers(1, 5))))
    return models


@pytest.mark.parametrize("opts", [TIGHTEN, BOTH_ON], ids=["tighten", "both"])
def test_benchmark_models_match_the_full_sweep_oracle(opts, monkeypatch):
    outcomes = set()
    for inst in _benchmark_models(perfbench_instances(monkeypatch)):
        want = _oracle_presolve(inst, opts)
        assert _bits(_presolve(inst, opts)) == _bits(want)
        outcomes.add((want.proven_infeasible, not _unchanged(want, inst), bool(want.back_map.dropped_rows)))
    assert outcomes >= {(True, True, False), (False, True, False), (False, False, False)}
    assert opts is TIGHTEN or (False, True, True) in outcomes


def test_edge_model_outcomes():
    both = {name: _presolve(inst, BOTH_ON).form for name, inst in _EDGE_MODELS.items()}
    frac = both["fractional-integer-bounds"]
    assert (frac.lb[0], frac.ub[0]) == (1.0, 3.0)
    assert (both["huge-row"].lb[0], both["huge-row"].ub[0]) == (-10.0, 13.0)
    one_visit = both["huge-row-moves-in-one-visit"]
    assert (one_visit.lb[:2].tolist(), one_visit.ub[:2].tolist()) == ([0.0, 1.0], [4.0, 10.0])
    assert _presolve(_EDGE_MODELS["huge-row-moves-in-one-visit"], BOTH_ON).passes == 2
    ranged = both["infinite-range-row"]
    assert (ranged.A.tolist(), ranged.rlo.tolist(), ranged.rup.tolist()) == ([[2.0, 2.0]], [-INF], [2.0])
    assert _presolve(_EDGE_MODELS["infinite-range-row"], BOTH_ON).passes == 2
    assert both["one-infinite-term"].ub[1] == 10.0
    assert 0.85 - 1e-8 < both["rounding-at-the-slack"].ub[-1] < 0.85 - 1e-9
    rewritten = both["rewritten-row"]
    assert (rewritten.A.tolist(), rewritten.rup.tolist()) == ([[3.0, 3.0, 1.0]], [4.0])
    crossed = _presolve(_EDGE_MODELS["infeasible-mid-pass"], BOTH_ON)
    assert crossed.proven_infeasible and crossed.passes == 2


# ---- propagate over the rows of a standard form -----------------------------


def _form_sweeps(inst):
    """Sweep the rows of ``to_standard_form(inst)`` with ``propagate`` until no
    row is marked, within presolve's 50 passes; (lb, ub, infeasible, passes)."""
    form = to_standard_form(inst)
    rows = presolve_module.form_rows(form)
    lb, ub, is_int = form.lb.tolist(), form.ub.tolist(), form.is_int.tolist()
    col_rows, marked, passes, infeasible = [], [True] * form.m, 0, False
    while any(marked) and passes < 50 and not infeasible:
        passes += 1
        _, infeasible = presolve_module.propagate(rows, lb, ub, is_int, col_rows, marked, [False] * form.m)
    return lb, ub, infeasible, passes


def test_propagate_over_standard_form_rows_is_presolves_bound_pass():
    # the same rows built from the dense form: bounds to the bit, the
    # infeasible flag and the pass count equal presolve's own
    rng = np.random.default_rng(2026)
    models = [make(rng) for make in (_random_integer_instance, _random_float_instance) for _ in range(600)]
    models += list(_EDGE_MODELS.values())
    verdicts = set()
    for inst in models:
        lb, ub, infeasible, passes = _form_sweeps(inst)
        res = _presolve(inst, TIGHTEN)
        assert [float.hex(x) for x in res.form.lb.tolist()] == [float.hex(x) for x in lb]
        assert [float.hex(x) for x in res.form.ub.tolist()] == [float.hex(x) for x in ub]
        assert (res.proven_infeasible, res.passes) == (infeasible, passes)
        verdicts.add((infeasible, passes > 2))
    assert len(models) == 1208
    assert verdicts == {(True, False), (True, True), (False, False), (False, True)}


def _spy_visits(monkeypatch):
    """Record the indices of the rows each bound pass visits and of the rows
    whose per-coefficient loop runs; the clock marks the start of each pass.
    A row is found by identity in the rows ``propagate`` last swept."""
    passes, loops, swept = [], [], []
    sweep, row_visit, row_loop = (presolve_module.propagate, presolve_module._tighten_row,
                                   presolve_module._tighten_terms)

    def index(row):
        return next(i for i, r in enumerate(swept[-1]) if r is row)

    monkeypatch.setattr(presolve_module, "propagate", lambda rows, *a: swept.append(rows) or sweep(rows, *a))
    monkeypatch.setattr(presolve_module, "_tighten_row",
                        lambda row, *a: passes[-1].append(index(row)) or row_visit(row, *a))
    monkeypatch.setattr(presolve_module, "_tighten_terms",
                        lambda row, *a: loops.append(index(row)) or row_loop(row, *a))
    return passes, loops, lambda: passes.append([]) or 0.0


def test_rows_with_room_skip_their_loop_when_no_bound_moves(monkeypatch):
    passes, loops, clock = _spy_visits(monkeypatch)
    inst = binary_instance(
        "still",
        4,
        [
            make_row("cap", [(0, 3.0), (1, 2.0), (2, 4.0)], Relation.LE, 10.0),
            make_row("cover", [(1, 1.0), (2, 1.0), (3, 1.0)], Relation.GE, 1.0),
            make_row("one", [(0, 1.0), (3, 1.0)], Relation.EQ, 1.0),  # no room: its loop runs
            make_row("wide", [(0, 1.0), (1, -1.0), (3, 2.0)], Relation.RANGE, 3.0, 5.0),
        ],
        [(0, 1.0)],
    )
    res = _presolve(inst, TIGHTEN, math.inf, clock)
    assert _unchanged(res, inst) and res.passes == 1
    assert passes == [[0, 1, 2, 3]]  # cap, cover, one, wide
    assert loops == [2]  # one


def test_second_pass_visits_only_the_rows_of_the_moved_column(monkeypatch):
    passes, loops, clock = _spy_visits(monkeypatch)
    inst = _mixed(
        "moved",
        [(f"x{j}", 0.0, 10.0, VarKind.INTEGER) for j in range(3)],
        [
            make_row("a", [(0, 1.0), (1, 1.0)], Relation.LE, 30.0),
            make_row("b", [(1, 1.0), (2, 1.0)], Relation.LE, 30.0),
            make_row("c", [(0, 1.0), (2, -1.0)], Relation.GE, -20.0),
            make_row("cap", [(0, 2.0)], Relation.LE, 5.0),  # x0 <= 2 in pass 1
        ],
    )
    res = _presolve(inst, TIGHTEN, math.inf, clock)
    assert res.form.ub.tolist() == [2.0, 10.0, 10.0]
    assert passes == [[0, 1, 2, 3], [0, 2, 3]]  # a, b, c, cap; then a, c, cap
    assert loops == [3]  # cap; in pass 2, 2x0 <= 5 has room for x0 in [0, 2]


def test_a_pass_revisits_a_rewritten_row_and_stops_at_a_crossing(monkeypatch):
    passes, _, clock = _spy_visits(monkeypatch)
    seen, visit = [], presolve_module._tighten_row
    monkeypatch.setattr(presolve_module, "_tighten_row", lambda row, *a: seen.append(row) or visit(row, *a))
    _presolve(_EDGE_MODELS["rewritten-row"], BOTH_ON, math.inf, clock)
    assert passes == [[0], [0]]  # r
    # the second visit reads the row as coefficient reduction rewrote it
    assert seen == [([(0, 4.0), (1, 4.0), (2, 1.0)], -INF, 6.0), ([(0, 3.0), (1, 3.0), (2, 1.0)], -INF, 4.0)]
    passes.clear()
    _presolve(_EDGE_MODELS["infeasible-mid-pass"], TIGHTEN, math.inf, clock)
    assert passes == [[0, 1, 2, 3, 4], [0, 1]]  # a, b, c, d, e; then a, b
