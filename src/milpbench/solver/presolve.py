"""Presolve reductions: iterated single-row bound tightening and coefficient
reduction on rows with binary support.

A bound-tightening pass costs O(nnz).  Per row it keeps the finite part of
the minimum and the maximum activity and a count of the infinite
contributions to each, so the activity of a coefficient's other terms is the
row total less its own term (Achterberg, Bixby, Gu, Rothberg and Weninger,
"Presolve reductions in MIP", INFORMS J. Comput. 32, 2020).  Rows are visited
in order and coefficients by index, and a bound that moves updates its row's
sums at once: later coefficients of the same row and later rows see it in the
same pass.  A row with a finite term above ``_HUGE`` in magnitude sums the
other terms afresh for each coefficient, O(row_nnz^2), because taking a huge
term back out of a total loses the digits of the small ones.

Both passes preserve the variable space, so the back map is an identity on
variable names; redundant rows may be dropped.  Disabled passes leave the
instance structurally untouched.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
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


def _contribution(a, lo, up):
    """(min, max) of ``a * x`` over ``lo <= x <= up`` for ``a != 0``; an
    infinite bound contributes -INF to the min and INF to the max."""
    if a > 0:
        return (a * lo if math.isfinite(lo) else -INF), (a * up if math.isfinite(up) else INF)
    return (a * up if math.isfinite(up) else -INF), (a * lo if math.isfinite(lo) else INF)


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
    finite = [c for c in parts if math.isfinite(c)]
    return sum(finite, 0.0), len(parts) - len(finite)


def _others(total, n_inf, own, inf):
    """Activity bound of a row without one term, from the row's ``_split``;
    ``inf`` is the side's infinity (-INF for the min, INF for the max)."""
    if math.isfinite(own):
        return total - own if n_inf == 0 else inf
    return total if n_inf == 1 else inf


def _swap(total, n_inf, old, new):
    """``_split`` of a row after one term moved from ``old`` to ``new``."""
    if math.isfinite(old):
        total -= old
    else:
        n_inf -= 1
    if math.isfinite(new):
        total += new
    else:
        n_inf += 1
    return total, n_inf


def _tighten_bounds(rows, lb, ub, is_int) -> tuple[bool, bool]:
    """One pass over ``rows``, updating ``lb``/``ub`` in place; returns
    (changed, infeasible)."""
    changed = False
    for row in rows:
        rlo, rup = row.interval()
        terms = [(j, a) for j, a in row.coefficients if a != 0.0]
        parts = [_contribution(a, lb[j], ub[j]) for j, a in terms]
        direct = any(_HUGE < abs(c) < INF for part in parts for c in part)
        lo_sum, lo_inf = _split([clo for clo, _ in parts])
        hi_sum, hi_inf = _split([chi for _, chi in parts])
        for (j, a), (clo, chi) in zip(terms, parts):
            if direct:
                olo, ohi = _activity_bounds([t for t in terms if t[0] != j], lb, ub)
            else:
                olo = _others(lo_sum, lo_inf, clo, -INF)
                ohi = _others(hi_sum, hi_inf, chi, INF)
            # a*x_j <= rup - olo   and   a*x_j >= rlo - ohi
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
            if new_lo > lb[j] + _EPS:
                lb[j] = new_lo
                moved = True
            if new_hi < ub[j] - _EPS:
                ub[j] = new_hi
                moved = True
            if lb[j] > ub[j] + _EPS:
                return changed | moved, True
            if moved and not direct:
                # later coefficients of this row see the new bounds
                nlo, nhi = _contribution(a, lb[j], ub[j])
                if nlo != clo:
                    lo_sum, lo_inf = _swap(lo_sum, lo_inf, clo, nlo)
                if nhi != chi:
                    hi_sum, hi_inf = _swap(hi_sum, hi_inf, chi, nhi)
            changed |= moved
    return changed, False


def _reduce_row(row: LinearRow, lb, ub, is_int) -> tuple[LinearRow | None, bool]:
    """Coefficient reduction on one <=/>= row; returns (new row or None if
    redundant, changed)."""
    if row.relation not in (Relation.LE, Relation.GE):
        return row, False
    sign = 1.0 if row.relation is Relation.LE else -1.0
    coeffs = {j: sign * a for j, a in row.coefficients}
    rhs = sign * row.rhs

    _, umax = _activity_bounds(list(coeffs.items()), lb, ub)
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
    rows = list(inst.rows)
    dropped: list[str] = []
    passes = 0
    infeasible = any(lo > up + _EPS for lo, up in zip(lb, ub))

    while not infeasible and passes < _MAX_PASSES:
        if clock() >= deadline:
            break
        passes += 1
        changed = False
        if opts.presolve_bound_tighten:
            tightened, infeasible = _tighten_bounds(rows, lb, ub, is_int)
            changed |= tightened
            if infeasible:
                break
        if opts.presolve_coeff_reduce:
            new_rows = []
            for row in rows:
                reduced, row_changed = _reduce_row(row, lb, ub, is_int)
                if reduced is None:
                    dropped.append(row.name)
                    changed = True
                    continue
                changed |= row_changed
                new_rows.append(reduced)
            rows = new_rows
        if not changed:
            break

    variables = tuple(
        Variable(v.name, float(lb[j]), float(ub[j]), v.kind) for j, v in enumerate(inst.variables)
    )
    reduced = Instance(
        name=inst.name,
        sense=inst.sense,
        variables=variables,
        rows=tuple(rows),
        objective=inst.objective,
        objective_constant=inst.objective_constant,
        objective_name=inst.objective_name,
    )
    return PresolveResult(reduced, BackMap(names, tuple(dropped)), infeasible, passes)
