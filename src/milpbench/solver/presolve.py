"""Presolve on a standard form: iterated single-row bound tightening and
coefficient reduction on rows with binary support.

The bound pass is ``propagate``: one sweep in row order over the marked rows.
A column whose bound moves marks the rows that hold it, so a later one is
visited in the same sweep and an earlier one, the visited row included, in the
next.  Both passes work on one list of ``form_rows``; coefficient reduction
rewrites a row in place, and the exit slices out the kept rows and writes
back the rewritten ones.  The first sweep visits every row, a later one the
rewritten rows and those a moved column marked, and coefficient reduction
reruns on the same rows; any other row would read the bounds its last visit
read, so the result, ``passes`` included, is a full sweep's.

A visit costs O(row_nnz): per row it keeps the finite part of the minimum and
the maximum activity and a count of the infinite contributions to each, so the
activity of a coefficient's other terms is the row total less its own term
(Achterberg, Bixby, Gu, Rothberg and Weninger, "Presolve reductions in MIP",
INFORMS J. Comput. 32, 2020).  A visit skips its per-coefficient loop when
every term is finite and the largest |a_j|(u_j - l_j) fits inside both
activity slacks by a margin far above rounding, so that no bound can move
(SCIP's "maxactdelta" test).  Coefficients are visited by index, and a moved
bound updates its row's sums at once.  A row with a finite term above
``_HUGE`` in magnitude sums the other terms' contributions afresh for each
coefficient, O(row_nnz^2), because taking a huge term back out of a total
loses the digits of the small ones.

Both passes keep the variables; redundant rows may be dropped.  Disabled
passes return the input form.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, replace
from operator import add, sub
from typing import Callable

import numpy as np

from ..instance import INF
from .options import ReferenceSolverOptions
from .standard_form import StandardForm

_MAX_PASSES = 50
_EPS = 1e-9
_HUGE = 1e6  # a row term this large is never taken back out of a row total


@dataclass(frozen=True)
class BackMap:
    """The input positions of the rows presolve dropped; no reduction removes a variable."""

    dropped_rows: tuple[int, ...]


@dataclass(frozen=True)
class PresolveResult:
    form: StandardForm
    back_map: BackMap
    proven_infeasible: bool
    passes: int


def _split(parts):
    """(sum of the finite terms, count of the infinite ones)."""
    finite = [c for c in parts if -INF < c < INF]
    return sum(finite, 0.0), len(parts) - len(finite)


def _swap(total, n_inf, old, new):
    """``_split`` of a row after one term moved from ``old`` to ``new``."""
    total, n_inf = (total - old, n_inf) if -INF < old < INF else (total, n_inf - 1)
    return (total + new, n_inf) if -INF < new < INF else (total, n_inf + 1)


def _others(parts, k, inf):
    """The sum of ``parts`` but its ``k``-th entry, added in index order, or
    ``inf``, that side's infinity, if one of those entries is not finite."""
    rest = parts[:k] + parts[k + 1:]
    return functools.reduce(add, rest, 0.0) if all(-INF < c < INF for c in rest) else inf


def _tighten_row(row, lb, ub, is_int) -> tuple[list[int], bool]:
    """Tighten the bounds of ``row``'s columns in place; returns the moved
    columns and whether some column's bounds crossed."""
    terms, rlo, rup = row
    if not terms:
        return [], False
    # each term's contribution to the row's min and max activity; an infinite
    # bound gives an infinite one, whose sign no later step reads
    los = [a * (lb[j] if a > 0 else ub[j]) for j, a in terms]
    his = [a * (ub[j] if a > 0 else lb[j]) for j, a in terms]
    lo_sum, hi_sum = sum(los, 0.0), sum(his, 0.0)
    if -INF < lo_sum < INF and -INF < hi_sum < INF:  # every term is finite
        big = max(max(map(abs, los)), max(map(abs, his)))
        if big <= _HUGE:
            # no term's range |a_j|(u_j - l_j) reaches past a slack of the
            # row, so no limit cuts into a bound; the margin dwarfs the
            # rounding of the loop's sums
            slack = min(rup - lo_sum, hi_sum - rlo) * (1.0 - _EPS)
            if max(max(map(sub, his, los)), 0.0) + _EPS * (abs(lo_sum) + abs(hi_sum) + big) <= slack:
                return [], False
    return _tighten_terms(row, los, his, lb, ub, is_int)


def _tighten_terms(row, los, his, lb, ub, is_int) -> tuple[list[int], bool]:
    """The per-coefficient loop of ``_tighten_row``; ``los``/``his`` are the
    terms' contributions to the row's min and max activity."""
    terms, rlo, rup = row
    direct = any(_HUGE < abs(c) < INF for c in los + his)
    (lo_sum, lo_inf), (hi_sum, hi_inf) = _split(los), _split(his)
    moved = []
    for k, ((j, a), clo, chi) in enumerate(zip(terms, los, his)):
        if direct:
            olo, ohi = _others(los, k, -INF), _others(his, k, INF)
        else:  # the row total less the own term
            olo = (lo_sum - clo if lo_inf == 0 else -INF) if -INF < clo < INF else (lo_sum if lo_inf == 1 else -INF)
            ohi = (hi_sum - chi if hi_inf == 0 else INF) if -INF < chi < INF else (hi_sum if hi_inf == 1 else INF)
        # a*x_j <= rup - olo   and   a*x_j >= rlo - ohi
        lo, up = new_lo, new_hi = lb[j], ub[j]
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
            # later coefficients of this row see the new bounds
            los[k] = nlo = a * (lb[j] if a > 0 else ub[j])
            his[k] = nhi = a * (ub[j] if a > 0 else lb[j])
            if nlo != clo and not direct:
                lo_sum, lo_inf = _swap(lo_sum, lo_inf, clo, nlo)
            if nhi != chi and not direct:
                hi_sum, hi_inf = _swap(hi_sum, hi_inf, chi, nhi)
    return moved, False


def _reduce_row(row, lb, ub, is_int):
    """Coefficient reduction on a row with exactly one infinite side; returns
    ``row`` itself, its rewrite, or None if it is redundant."""
    terms, rlo, rup = row
    sign, rhs = (1.0, rup) if rlo == -INF else (-1.0, -rlo)  # a >= row is reduced as its negation
    coeffs = [(j, sign * a) for j, a in terms]
    # the row's maximum activity, added in index order; an infinite bound makes it infinite or nan
    umax = functools.reduce(add, [a * (ub[j] if a > 0 else lb[j]) for j, a in coeffs], 0.0)
    if not math.isfinite(umax):
        return row
    if umax <= rhs + _EPS:
        return None
    changed = False
    for k, (j, a) in enumerate(coeffs):
        if not is_int[j] or lb[j] != 0.0 or ub[j] != 1.0:
            continue
        if a > 0:  # the row binds only through x_j = 1
            if umax - a < rhs < umax:  # a becomes umax - rhs, and rhs umax - a
                coeffs[k] = (j, umax - rhs)
                rhs, umax = umax - a, umax - a + (umax - rhs)
                changed = True
        elif umax < rhs - a and rhs < umax:  # x_j complemented carries weight -a; rhs and umax stay
            coeffs[k] = (j, rhs - umax)
            changed = True
    if not changed:
        return row
    terms = [(j, float(sign * a)) for j, a in coeffs]
    return (terms, -INF, float(rhs)) if sign > 0 else (terms, float(-rhs), INF)


def _column_rows(rows, n) -> list[list[int]]:
    """The indices of the rows in which each of the ``n`` columns has a term."""
    col_rows: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for j, _ in row[0] if row else ():
            col_rows[j].append(i)
    return col_rows


def propagate(rows, lb, ub, is_int, col_rows, marked, touched) -> tuple[list[int], bool]:
    """The bound sweep over the rows flagged in ``marked`` (None is a dropped
    row); returns the moved columns and whether some column's bounds crossed.
    A visit clears its row's flag; a moved column flags its rows in ``marked``
    and ``touched``.  An empty ``col_rows`` is filled at the first move."""
    moved: list[int] = []
    for i, row in enumerate(rows):
        if row is None or not marked[i]:
            continue
        marked[i] = False
        cols, infeasible = _tighten_row(row, lb, ub, is_int)
        if cols and not col_rows:
            col_rows += _column_rows(rows, len(lb))
        for j in cols:
            for k in col_rows[j]:
                marked[k] = touched[k] = True
        moved += cols
        if infeasible:
            return moved, True
    return moved, False


def form_rows(form: StandardForm) -> list:
    """The rows of ``form`` as ``propagate`` reads them: ``(terms, rlo, rup)``, the
    nonzero ``(column, coefficient)`` terms of a row of ``A`` in index order and its interval."""
    r, c = np.nonzero(form.A)  # row by row, each row's columns in index order
    terms = list(zip(c.tolist(), form.A[r, c].tolist()))
    ends = np.cumsum(np.bincount(r, minlength=form.m)).tolist()
    return [(terms[s:e], lo, up) for s, e, lo, up in zip([0] + ends, ends, form.rlo.tolist(), form.rup.tolist())]


def presolve(form: StandardForm, opts: ReferenceSolverOptions, deadline: float = math.inf,
             clock: Callable[[], float] = time.monotonic) -> PresolveResult:
    """Apply the enabled reductions; identity when both toggles are off.
    No pass starts once ``clock()`` reaches ``deadline``; each leaves a valid reduction."""
    if not (opts.presolve_bound_tighten or opts.presolve_coeff_reduce):
        return PresolveResult(form, BackMap(()), False, 0)

    lb, ub, is_int = form.lb.tolist(), form.ub.tolist(), form.is_int.tolist()
    entry = form_rows(form)
    rows = list(entry)  # the one row list, as propagate reads it; None once dropped
    col_rows: list[list[int]] = []  # the rows of each column, built at the first moved bound
    # rows the next bound pass and the next coefficient reduction must visit
    visit, reduce = [True] * len(rows), [True] * len(rows)
    dropped, passes = [], 0
    infeasible = any(lo > up + _EPS for lo, up in zip(lb, ub))

    while not infeasible and passes < _MAX_PASSES and clock() < deadline:
        passes += 1
        moved, infeasible = (propagate(rows, lb, ub, is_int, col_rows, visit, reduce)
                             if opts.presolve_bound_tighten else ([], False))
        if infeasible:
            break
        changed = bool(moved)
        if opts.presolve_coeff_reduce:
            for i, row in enumerate(rows):
                if row is None or not reduce[i] or (row[1] == -INF) == (row[2] == INF):
                    continue  # only a row with exactly one infinite side is reduced
                rows[i] = _reduce_row(row, lb, ub, is_int)
                reduce[i] = rows[i] is not row  # a rewritten row is visited and reduced again
                visit[i] |= reduce[i]
                if rows[i] is None:
                    dropped.append(i)
                changed = changed or reduce[i]
        if not changed:
            break

    kept = [i for i, row in enumerate(rows) if row is not None]
    A, rlo, rup = form.A[kept], form.rlo[kept], form.rup[kept]
    for k, i in enumerate(kept):
        if rows[i] is not entry[i]:  # rewritten: its entries go back into the form
            terms, rlo[k], rup[k] = rows[i]
            A[k, [j for j, _ in terms]] = [a for _, a in terms]
    out = replace(form, A=A, rlo=rlo, rup=rup, lb=np.array(lb, dtype=float), ub=np.array(ub, dtype=float))
    return PresolveResult(out, BackMap(tuple(dropped)), infeasible, passes)
