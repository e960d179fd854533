"""Root cutting planes: Gomory mixed-integer cuts and knapsack cover cuts.

All cuts are returned as ``g . x >= rhs`` rows over the structural
variables.  Right-hand sides are relaxed by 1e-9*max(1,|rhs|) so float
drift can never exclude an integral feasible point.
"""

from __future__ import annotations

import math

import numpy as np

from .simplex import AT_UPPER, BASIC, FREE, BoundedSimplex

_F0_MIN = 0.005          # skip cuts from nearly integral rows
_COEF_DROP = 1e-11
_DYNAMISM_MAX = 1e7
_RHS_RELAX = 1e-9
_COVER_TOL = 1e-6
_MAX_CUTS = 16           # per separator and round


def _relax(rhs: float) -> float:
    return rhs - _RHS_RELAX * max(1.0, abs(rhs))


def gomory_cuts(splx: BoundedSimplex, is_int: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """Derive GMI cuts from fractional basic integer variables of the final
    tableau of ``splx``'s last solve, which must have ended OPTIMAL.

    Nonbasic columns are shifted onto their bounds; activity columns are
    substituted back through the row definitions so each cut lives purely in
    structural-variable space.
    """
    n, m = splx.n, splx.m
    A = splx.form.A
    cuts: list[tuple[np.ndarray, float]] = []

    fractional = []
    for p in range(m):
        col = int(splx.basis[p])
        if col >= n or not is_int[col]:
            continue
        val = splx.xval[col]
        f0 = val - math.floor(val)
        if _F0_MIN <= f0 <= 1.0 - _F0_MIN:
            fractional.append((abs(f0 - 0.5), p, f0))
    fractional.sort()

    for _, p, f0 in fractional[:_MAX_CUTS]:
        tab = splx.tableau_row(p)
        g = np.zeros(n + m)  # over structural + activity columns
        rhs = f0
        ok = True
        for j in range(splx.F.shape[1]):
            if splx.status[j] == BASIC or j == splx.basis[p]:
                continue
            a = float(tab[j])
            if abs(a) < _COEF_DROP:
                continue
            width = splx.hi[j] - splx.lo[j]
            if width <= 0:
                continue  # fixed column, shifted weight is identically zero
            if splx.status[j] == FREE:
                ok = False  # cannot shift an unbounded nonbasic column
                break
            at_upper = splx.status[j] == AT_UPPER
            abar = -a if at_upper else a
            integral_shift = j < n and is_int[j]
            if integral_shift:
                fj = abar - math.floor(abar)
                gamma = fj if fj <= f0 else f0 * (1.0 - fj) / (1.0 - f0)
            else:
                gamma = abar if abar > 0 else f0 * (-abar) / (1.0 - f0)
            if gamma == 0.0:
                continue
            if at_upper:
                g[j] -= gamma
                rhs -= gamma * splx.hi[j]
            else:
                g[j] += gamma
                rhs += gamma * splx.lo[j]
        if not ok:
            continue
        # substitute activity columns r_i = A_i . x
        coeffs = g[:n] + A.T @ g[n : n + m]
        mags = np.abs(coeffs[np.abs(coeffs) > _COEF_DROP])
        if mags.size and mags.max() / mags.min() > _DYNAMISM_MAX:
            continue
        coeffs[np.abs(coeffs) <= _COEF_DROP] = 0.0
        cuts.append((coeffs, _relax(rhs)))
    return cuts


def cover_cuts(
    A: np.ndarray,
    rlo: np.ndarray,
    rup: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    is_int: np.ndarray,
    xstar: np.ndarray,
) -> list[tuple[np.ndarray, float]]:
    """Separate minimal cover cuts from knapsack relaxations of the rows.

    Every finite row side ``a.x <= b`` whose support is all binary yields a
    knapsack; negative weights are complemented.  Only cuts violated by
    ``xstar`` are emitted.  A set is a cover only if its weight exceeds the
    capacity by more than ``_COVER_TOL`` relative: a Gomory row that a 0/1
    point meets only up to rounding must not yield a cover that cuts it off.
    """
    n = A.shape[1]
    binary = is_int & (lb == 0.0) & (ub == 1.0)
    cuts: list[tuple[np.ndarray, float]] = []

    sides: list[tuple[np.ndarray, float]] = []
    for i in range(A.shape[0]):
        support = np.flatnonzero(A[i])
        if support.size == 0 or not np.all(binary[support]):
            continue
        if math.isfinite(rup[i]):
            sides.append((A[i], float(rup[i])))
        if math.isfinite(rlo[i]) and rlo[i] != rup[i]:
            sides.append((-A[i], float(-rlo[i])))

    for a_row, b in sides:
        if len(cuts) >= _MAX_CUTS:
            break
        support = np.flatnonzero(a_row)
        flip = a_row[support] < 0
        w = np.abs(a_row[support])
        cap = b - float(a_row[support][flip].sum())  # complements shift the rhs
        cap += _COVER_TOL * max(1.0, abs(cap))
        if w.sum() <= cap:
            continue  # no cover exists
        xs = np.where(flip, 1.0 - xstar[support], xstar[support])

        order = sorted(range(len(support)), key=lambda k: (-xs[k], support[k]))
        cover: list[int] = []
        weight = 0.0
        for k in order:
            cover.append(k)
            weight += w[k]
            if weight > cap:
                break
        if weight <= cap:
            continue
        # minimalize: drop heavy members that are not needed
        for k in sorted(cover, key=lambda t: -w[t]):
            if weight - w[k] > cap:
                cover.remove(k)
                weight -= w[k]

        if sum(xs[k] for k in cover) <= len(cover) - 1 + 1e-4:
            continue  # not violated at xstar
        # sum of (complement-aware) cover vars <= |C| - 1, as a >= row
        g = np.zeros(n)
        rhs = -(len(cover) - 1)
        for k in cover:
            j = int(support[k])
            if flip[k]:
                g[j] += 1.0
                rhs += 1.0
            else:
                g[j] -= 1.0
        cuts.append((g, _relax(rhs)))
    return cuts
