"""Root cutting planes: Gomory mixed-integer cuts and knapsack cover cuts.

All cuts are returned as ``g . x >= rhs`` rows over the structural
variables.  Right-hand sides are relaxed by 1e-9*max(1,|rhs|) so float
drift can never exclude an integral feasible point.  A Gomory right-hand
side adds its terms one float at a time in column order, and the cover test
its values in cover order, because float addition is not associative: numpy's
pairwise sum, or the compensated ``sum`` of Python 3.12, would move the cuts'
last bits.
"""

from __future__ import annotations

import functools
import math
import operator

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
    A, status = splx.form.A, splx.status
    int_col = np.concatenate([is_int, np.zeros(m, dtype=bool)])
    shifted = (status != BASIC) & (splx.hi > splx.lo)  # a fixed column's shifted weight is identically zero
    rows = np.flatnonzero(int_col[splx.basis])
    vals = splx.xval[splx.basis[rows]]
    frac = vals - np.floor(vals)
    keep = (_F0_MIN <= frac) & (frac <= 1.0 - _F0_MIN)
    rows, frac = rows[keep], frac[keep]
    cuts: list[tuple[np.ndarray, float]] = []

    for k in np.argsort(np.abs(frac - 0.5), kind="stable")[:_MAX_CUTS]:
        f0, tab = frac[k], splx.tableau_row(rows[k])
        cols = np.flatnonzero(shifted & (np.abs(tab) >= _COEF_DROP))
        if np.any(status[cols] == FREE):
            continue  # cannot shift an unbounded nonbasic column
        at_upper = status[cols] == AT_UPPER
        abar = np.where(at_upper, -tab[cols], tab[cols])
        fj = abar - np.floor(abar)
        gamma = np.where(int_col[cols], np.where(fj <= f0, fj, f0 * (1.0 - fj) / (1.0 - f0)),
                         np.where(abar > 0, abar, f0 * -abar / (1.0 - f0)))
        g = np.zeros(n + m)  # over structural + activity columns
        g[cols] = np.where(at_upper, -gamma, gamma)
        terms = g[cols] * np.where(at_upper, splx.hi[cols], splx.lo[cols])
        rhs = functools.reduce(operator.add, terms.tolist(), f0)
        # substitute activity columns r_i = A_i . x
        coeffs = g[:n] + A.T @ g[n:]
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
    knapsack, except an equality's ``>=`` side; negative weights are
    complemented.  An integer column fixed at 0 or 1 counts as a constant:
    its term moves to the row's sides, and the knapsack is over the free
    binaries.  Only cuts violated by ``xstar`` are emitted.  A set is a
    cover only if its weight exceeds the capacity by more than
    ``_COVER_TOL`` relative: a Gomory row that a 0/1 point meets only up to
    rounding must not yield a cover that cuts it off.
    """
    binary = is_int & (lb == 0.0) & (ub == 1.0)
    at_one = is_int & (lb == 1.0) & (ub == 1.0)
    fixed = at_one | is_int & (lb == 0.0) & (ub == 0.0)
    nonzero = A != 0.0
    cuts: list[tuple[np.ndarray, float]] = []

    for i in np.flatnonzero(nonzero[:, binary].any(axis=1) & ~nonzero[:, ~(binary | fixed)].any(axis=1)):
        support = np.flatnonzero(nonzero[i] & binary)
        # the terms of the columns fixed at 1, one float at a time
        const = functools.reduce(operator.add, A[i, at_one].tolist(), 0.0)
        for a, b in ((A[i, support], rup[i] - const),
                     (-A[i, support], math.inf if rlo[i] == rup[i] else -(rlo[i] - const))):
            if not math.isfinite(b):
                continue
            flip = a < 0
            w = np.abs(a)
            cap = b - float(a[flip].sum())  # complements shift the rhs
            cap += _COVER_TOL * max(1.0, abs(cap))
            if w.sum() <= cap:
                continue  # no cover exists
            xs, w = np.where(flip, 1.0 - xstar[support], xstar[support]).tolist(), w.tolist()

            cover: list[int] = []
            weight = 0.0
            for k in sorted(range(len(xs)), key=lambda t: -xs[t]):
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

            if functools.reduce(operator.add, [xs[k] for k in cover], 0.0) <= len(cover) - 1 + 1e-4:
                continue  # not violated at xstar
            # sum of (complement-aware) cover vars <= |C| - 1, as a >= row
            g = np.zeros(A.shape[1])
            g[support[cover]] = np.where(flip[cover], 1.0, -1.0)
            cuts.append((g, _relax(int(flip[cover].sum()) - (len(cover) - 1))))
            if len(cuts) == _MAX_CUTS:
                return cuts
    return cuts
