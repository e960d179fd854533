"""Presolve reductions: iterated single-row bound tightening and coefficient
reduction on rows with binary support.

The first bound pass visits every row; a later one visits only the rows that
can change: those coefficient reduction rewrote and those holding a column
whose bound moved after the row's last visit began.  Coefficient reduction
reruns on the same rows.  Any other row would read the bounds its last visit
read, so the result, ``passes`` included, is the one a sweep over every row
gives.  A visit costs O(row_nnz): per row it keeps the finite part of the
minimum and the maximum activity and a count of the infinite contributions
to each, so the activity of a coefficient's other terms is the row total
less its own term (Achterberg, Bixby, Gu, Rothberg and Weninger, "Presolve
reductions in MIP", INFORMS J. Comput. 32, 2020).  A visit skips its
per-coefficient loop when every term is finite and the largest
|a_j|(u_j - l_j) fits inside both activity slacks by a margin far above
rounding, so that no bound can move (SCIP's "maxactdelta" test); a row
holding an integer column with a fractional bound, which the loop rounds, is
not skipped.  Coefficients are visited by index, and a bound that moves
updates its row's sums at once: later coefficients of the same row and later
rows see it in the same pass.  A row with a finite term above ``_HUGE`` in
magnitude sums the other terms afresh for each coefficient, O(row_nnz^2),
because taking a huge term back out of a total loses the digits of the small
ones.

Both passes preserve the variable space, so the back map is an identity on
variable names; redundant rows may be dropped.  Disabled passes leave the
instance structurally untouched.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from operator import sub
from typing import Callable

from ..instance import INF, Instance, LinearRow, Relation, Variable
from .options import ReferenceSolverOptions

_MAX_PASSES = 50
_EPS = 1e-9
_HUGE = 1e6  # a row term this large is never taken back out of a row total


@dataclass(frozen=True)
class BackMap:
    """Maps a reduced-space solution to the full space (identity here:
    reductions never remove variables)."""

    var_names: tuple[str, ...]
    dropped_rows: tuple[str, ...]

    def to_full(self, values: dict[str, float]) -> dict[str, float]:
        return {name: values[name] for name in self.var_names}


@dataclass(frozen=True)
class PresolveResult:
    instance: Instance
    back_map: BackMap
    proven_infeasible: bool
    passes: int


def _activity_bounds(coeffs, lb, ub):
    """(min, max) of a row activity over the variable box; inf-aware."""
    lo = hi = 0.0
    for j, a in coeffs:
        if a > 0:
            lo += a * lb[j] if math.isfinite(lb[j]) else -INF
            hi += a * ub[j] if math.isfinite(ub[j]) else INF
        elif a < 0:
            lo += a * ub[j] if math.isfinite(ub[j]) else -INF
            hi += a * lb[j] if math.isfinite(lb[j]) else INF
    return lo, hi


def _split(parts):
    """(sum of the finite terms, count of the infinite ones)."""
    finite = [c for c in parts if -INF < c < INF]
    return sum(finite, 0.0), len(parts) - len(finite)


def _swap(total, n_inf, old, new):
    """``_split`` of a row after one term moved from ``old`` to ``new``."""
    if -INF < old < INF:
        total -= old
    else:
        n_inf -= 1
    if -INF < new < INF:
        total += new
    else:
        n_inf += 1
    return total, n_inf


def _tighten_row(row, lb, ub, is_int, rounding) -> tuple[list[int], bool]:
    """Tighten the bounds of ``row``'s columns from the row, in place; returns
    the columns whose bound moved and whether some column's bounds crossed.
    ``rounding`` holds the integer columns whose bounds may be non-integral."""
    terms = [(j, a) for j, a in row.coefficients if a != 0.0]
    if not terms:
        return [], False
    # each term's contribution to the row's min and max activity; an infinite
    # bound gives an infinite one, whose sign no later step reads
    los = [a * (lb[j] if a > 0 else ub[j]) for j, a in terms]
    his = [a * (ub[j] if a > 0 else lb[j]) for j, a in terms]
    lo_sum, hi_sum = sum(los, 0.0), sum(his, 0.0)
    if -INF < lo_sum < INF and -INF < hi_sum < INF:  # every term is finite
        big = max(max(map(abs, los)), max(map(abs, his)))
        if big <= _HUGE and (not rounding or rounding.isdisjoint([j for j, _ in terms])):
            # no term's range |a_j|(u_j - l_j) reaches past a slack of the
            # row, so no limit cuts into a bound; the margin dwarfs the
            # rounding of the loop's sums
            rlo, rup = row.interval()
            slack = min(rup - lo_sum, hi_sum - rlo) * (1.0 - _EPS)
            if max(max(map(sub, his, los)), 0.0) + _EPS * (abs(lo_sum) + abs(hi_sum) + big) <= slack:
                return [], False
    return _tighten_terms(row, terms, los, his, lb, ub, is_int)


def _tighten_terms(row, terms, los, his, lb, ub, is_int) -> tuple[list[int], bool]:
    """The per-coefficient loop of ``_tighten_row``; ``los``/``his`` are the
    terms' contributions to the row's min and max activity."""
    rlo, rup = row.interval()
    direct = any(_HUGE < abs(c) < INF for c in los + his)
    lo_sum, lo_inf = _split(los)
    hi_sum, hi_inf = _split(his)
    moved = []
    for (j, a), clo, chi in zip(terms, los, his):
        if direct:
            olo, ohi = _activity_bounds([t for t in terms if t[0] != j], lb, ub)
        else:  # the row total less the own term
            olo = (lo_sum - clo if lo_inf == 0 else -INF) if -INF < clo < INF else (lo_sum if lo_inf == 1 else -INF)
            ohi = (hi_sum - chi if hi_inf == 0 else INF) if -INF < chi < INF else (hi_sum if hi_inf == 1 else INF)
        # a*x_j <= rup - olo   and   a*x_j >= rlo - ohi
        lo = new_lo = lb[j]
        up = new_hi = ub[j]
        if -INF < rup < INF and olo > -INF:
            limit = (rup - olo) / a
            if a > 0:
                if limit < new_hi:
                    new_hi = limit
            elif limit > new_lo:
                new_lo = limit
        if rlo > -INF and -INF < ohi < INF:
            limit = (rlo - ohi) / a
            if a > 0:
                if limit > new_lo:
                    new_lo = limit
            elif limit < new_hi:
                new_hi = limit
        if is_int[j]:
            if -INF < new_lo < INF:
                new_lo = float(math.ceil(new_lo - 1e-7))
            if -INF < new_hi < INF:
                new_hi = float(math.floor(new_hi + 1e-7))
        if new_lo > lo + _EPS or new_hi < up - _EPS:
            if new_lo > lo + _EPS:
                lb[j] = new_lo
            if new_hi < up - _EPS:
                ub[j] = new_hi
            moved.append(j)
            if lb[j] > ub[j] + _EPS:
                return moved, True
            if not direct:  # later coefficients of this row see the new bounds
                nlo, nhi = a * (lb[j] if a > 0 else ub[j]), a * (ub[j] if a > 0 else lb[j])
                if nlo != clo:
                    lo_sum, lo_inf = _swap(lo_sum, lo_inf, clo, nlo)
                if nhi != chi:
                    hi_sum, hi_inf = _swap(hi_sum, hi_inf, chi, nhi)
    return moved, False


def _reduce_row(row: LinearRow, lb, ub, is_int) -> tuple[LinearRow | None, bool]:
    """Coefficient reduction on one <=/>= row; returns (new row or None if
    redundant, changed)."""
    if row.relation not in (Relation.LE, Relation.GE):
        return row, False
    sign = 1.0 if row.relation is Relation.LE else -1.0
    coeffs = {j: sign * a for j, a in row.coefficients}
    rhs = sign * row.rhs

    umax = 0.0  # an infinite bound makes it infinite or nan
    for j, a in coeffs.items():
        if a != 0.0:
            umax += a * (ub[j] if a > 0 else lb[j])
    if not math.isfinite(umax):
        return row, False
    if umax <= rhs + _EPS:
        return None, True  # redundant

    changed = False
    for j in sorted(coeffs):
        a = coeffs[j]
        if a == 0.0 or not is_int[j] or lb[j] != 0.0 or ub[j] != 1.0:
            continue
        if a > 0:
            # constraint binds only through x_j = 1
            if umax - a < rhs < umax:
                new_a = umax - rhs
                rhs = umax - a
                umax = umax - a + new_a
                coeffs[j] = new_a
                changed = True
        else:
            # complemented variable carries weight -a; rhs and umax unchanged
            if umax < rhs - a and rhs < umax:
                coeffs[j] = rhs - umax
                changed = True
    if not changed:
        return row, False
    out = tuple(sorted((j, float(sign * a)) for j, a in coeffs.items() if a != 0.0))
    return LinearRow(row.name, out, row.relation, float(sign * rhs), None), True


def _column_rows(rows, n) -> list[list[int]]:
    """The indices of the rows in which each of the ``n`` columns has a nonzero coefficient."""
    col_rows: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for j, a in row.coefficients:
            if a != 0.0:
                col_rows[j].append(i)
    return col_rows


def presolve(inst: Instance, opts: ReferenceSolverOptions, deadline: float = math.inf,
             clock: Callable[[], float] = time.monotonic) -> PresolveResult:
    """Apply the enabled reductions; identity when both toggles are off.
    No pass starts once ``clock()`` reaches ``deadline``; each leaves a valid reduction."""
    names = tuple(v.name for v in inst.variables)
    if not (opts.presolve_bound_tighten or opts.presolve_coeff_reduce):
        return PresolveResult(inst, BackMap(names, ()), False, 0)

    lb = [float(v.lower) for v in inst.variables]
    ub = [float(v.upper) for v in inst.variables]
    is_int = [v.is_integral for v in inst.variables]
    rows: list[LinearRow | None] = list(inst.rows)  # None once dropped
    col_rows: list[list[int]] | None = None  # the rows of each column, built at the first moved bound
    # rows the next bound pass and the next coefficient reduction must visit
    visit, reduce = [True] * len(rows), [True] * len(rows)
    # integer columns with a fractional bound, which a visit rounds (inf % 1 is nan)
    rounding = {j for j in range(len(lb)) if is_int[j] and (lb[j] % 1 > 0 or ub[j] % 1 > 0)}
    dropped: list[str] = []
    passes = 0
    infeasible = any(lo > up + _EPS for lo, up in zip(lb, ub))

    while not infeasible and passes < _MAX_PASSES:
        if clock() >= deadline:
            break
        passes += 1
        changed = False
        if opts.presolve_bound_tighten:
            for i, row in enumerate(rows):
                if row is None or not visit[i]:
                    continue
                visit[i] = False
                moved, infeasible = _tighten_row(row, lb, ub, is_int, rounding)
                if moved and col_rows is None:
                    col_rows = _column_rows(inst.rows, len(lb))
                for j in moved:
                    for k in col_rows[j]:
                        visit[k] = reduce[k] = True
                changed = changed or bool(moved)
                if infeasible:
                    break
            if infeasible:
                break
        if opts.presolve_coeff_reduce:
            for i, row in enumerate(rows):
                if row is None or not reduce[i]:
                    continue
                reduce[i] = False
                reduced, row_changed = _reduce_row(row, lb, ub, is_int)
                if reduced is None:
                    dropped.append(row.name)
                elif row_changed:
                    visit[i] = reduce[i] = True
                changed = changed or row_changed
                rows[i] = reduced
        if not changed:
            break

    variables = tuple(Variable(v.name, float(lb[j]), float(ub[j]), v.kind) for j, v in enumerate(inst.variables))
    reduced = replace(inst, variables=variables, rows=tuple(row for row in rows if row is not None))
    return PresolveResult(reduced, BackMap(names, tuple(dropped)), infeasible, passes)
