"""Two-phase bounded-variable primal simplex.

Works on the equality system ``A x - r = 0`` where r holds the row
activities with bounds ``rlo <= r <= rup``.  Phase 1 introduces an
artificial column for every row whose activity at the starting point
violates its interval and minimizes the total artificial mass; phase 2
minimizes the true costs.  Dantzig pricing with a switch to Bland's rule
after 1000 consecutive degenerate steps; the basis inverse is maintained
by eta updates with periodic refactorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from ..instance import Instance
from .standard_form import StandardForm, to_standard_form

AT_LOWER, AT_UPPER, FREE, BASIC = 0, 1, 2, 3

_REFACTOR_EVERY = 64
_BLAND_TRIGGER = 1000
_PIVOT_TOL = 1e-9
_SMALL_PIVOT = 1e-5
_DEGEN_TOL = 1e-12


class SimplexBreakdown(RuntimeError):
    """Numeric breakdown (singular basis beyond refactorization recovery)."""


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LpResult:
    status: LpStatus
    objective: Optional[float]
    point: np.ndarray
    basis: tuple[int, ...]
    iterations: int


class BoundedSimplex:
    """One LP solve; exposes the final tableau for cut generation."""

    def __init__(
        self,
        form: StandardForm,
        lb: Optional[np.ndarray] = None,
        ub: Optional[np.ndarray] = None,
        feas_tol: float = 1e-7,
        opt_tol: float = 1e-9,
    ):
        self.form = form
        self.n = form.n
        self.m = form.m
        self.feas_tol = feas_tol
        self.opt_tol = opt_tol
        self.iterations = 0
        self._lb_struct = form.lb if lb is None else lb
        self._ub_struct = form.ub if ub is None else ub

    def solve(self) -> LpResult:
        n, m = self.n, self.m
        if self.feas_tol <= 0 or self.opt_tol <= 0:
            raise ValueError("tolerances must be positive")
        if np.any(self._lb_struct > self._ub_struct) or np.any(self.form.rlo > self.form.rup):
            return LpResult(LpStatus.INFEASIBLE, None, np.zeros(n), (), 0)

        # starting point: nonbasic structural columns at a finite bound
        x0 = np.where(
            np.isfinite(self._lb_struct),
            self._lb_struct,
            np.where(np.isfinite(self._ub_struct), self._ub_struct, 0.0),
        )
        act = self.form.A @ x0 if m else np.zeros(0)

        sat = (act >= self.form.rlo - self.feas_tol) & (act <= self.form.rup + self.feas_tol)
        viol_rows = np.flatnonzero(~sat)
        n_art = len(viol_rows)
        total = n + m + n_art

        lo = np.concatenate([self._lb_struct, self.form.rlo, np.zeros(n_art)])
        hi = np.concatenate([self._ub_struct, self.form.rup, np.full(n_art, np.inf)])

        F = np.zeros((m, total))
        F[:, :n] = self.form.A
        F[:, n : n + m] = -np.eye(m)

        status = np.full(total, AT_LOWER, dtype=np.int8)
        status[:n] = np.where(
            np.isfinite(self._lb_struct),
            AT_LOWER,
            np.where(np.isfinite(self._ub_struct), AT_UPPER, FREE),
        )
        xval = np.concatenate([x0, np.zeros(m), np.zeros(n_art)])

        basis = np.empty(m, dtype=np.int64)
        for i in range(m):
            if sat[i]:
                basis[i] = n + i
                status[n + i] = BASIC
                xval[n + i] = act[i]
        for k, i in enumerate(viol_rows):
            if act[i] > self.form.rup[i]:
                xval[n + i] = self.form.rup[i]
                status[n + i] = AT_UPPER
            else:
                xval[n + i] = self.form.rlo[i]
                status[n + i] = AT_LOWER
            residual = xval[n + i] - act[i]  # sigma*t must equal this
            sigma = 1.0 if residual > 0 else -1.0
            col = n + m + k
            F[i, col] = sigma
            basis[i] = col
            status[col] = BASIC
            xval[col] = abs(residual)

        self.F = F
        self.lo = lo
        self.hi = hi
        self.status = status
        self.xval = xval
        self.basis = basis
        self.B_inv = self._refactorize()
        self.art_start = n + m

        # phase 1: drive artificial mass to zero
        if n_art:
            c1 = np.zeros(total)
            c1[self.art_start :] = 1.0
            outcome = self._iterate(c1, phase_one=True)
            if outcome == "breakdown":
                raise SimplexBreakdown("phase-1 iteration limit or singular basis")
            infeas = float(np.sum(xval[self.art_start :]))
            if infeas > self.feas_tol:
                return LpResult(
                    LpStatus.INFEASIBLE, None, xval[:n].copy(), tuple(basis), self.iterations
                )
            self._expel_artificials()
        lo[self.art_start :] = 0.0
        hi[self.art_start :] = 0.0

        c2 = np.zeros(total)
        c2[:n] = self.form.c
        outcome = self._iterate(c2, phase_one=False)
        if outcome == "breakdown":
            raise SimplexBreakdown("phase-2 iteration limit or singular basis")
        if outcome == "unbounded":
            return LpResult(LpStatus.UNBOUNDED, None, xval[:n].copy(), tuple(basis), self.iterations)
        obj = float(self.form.c @ xval[:n])
        return LpResult(LpStatus.OPTIMAL, obj, xval[:n].copy(), tuple(basis), self.iterations)

    # -- iteration machinery ------------------------------------------------

    def _refactorize(self) -> np.ndarray:
        B = self.F[:, self.basis] if self.m else np.zeros((0, 0))
        try:
            B_inv = np.linalg.inv(B) if self.m else np.zeros((0, 0))
        except np.linalg.LinAlgError:
            raise SimplexBreakdown("singular basis") from None
        return B_inv

    def _recompute_basics(self) -> None:
        nonbasic = np.flatnonzero(self.status != BASIC)
        rhs = -(self.F[:, nonbasic] @ self.xval[nonbasic]) if self.m else np.zeros(0)
        self.xval[self.basis] = self.B_inv @ rhs

    def _iterate(self, cost: np.ndarray, phase_one: bool) -> str:
        total = self.F.shape[1]
        max_iter = 5000 + 200 * (self.m + total)
        degenerate_run = 0
        bland = False
        pivots_since_refactor = 0

        movable = self.hi - self.lo > 0  # fixed columns never enter

        for _ in range(max_iter):
            y = cost[self.basis] @ self.B_inv if self.m else np.zeros(0)
            z = cost - (y @ self.F if self.m else 0.0)

            eligible = movable & (
                ((self.status == AT_LOWER) & (z < -self.opt_tol))
                | ((self.status == AT_UPPER) & (z > self.opt_tol))
                | ((self.status == FREE) & (np.abs(z) > self.opt_tol))
            )
            if phase_one:
                eligible &= np.arange(total) < self.art_start  # artificials never re-enter
            idx = np.flatnonzero(eligible)
            if idx.size == 0:
                return "optimal"

            if bland:
                q = int(idx[0])
            else:
                # |z| is the improvement rate for every eligible status
                q = int(idx[int(np.argmax(np.abs(z[idx])))])

            delta = 1.0
            if self.status[q] == AT_UPPER or (self.status[q] == FREE and z[q] > 0):
                delta = -1.0

            d = self.B_inv @ self.F[:, q] if self.m else np.zeros(0)

            # ratio test over basic variables
            t_best = np.inf
            p_best = -1
            xb = self.xval[self.basis]
            lob = self.lo[self.basis]
            hib = self.hi[self.basis]
            step = delta * d
            for p in range(self.m):
                s = step[p]
                if s > _PIVOT_TOL:
                    if np.isfinite(lob[p]):
                        t = (xb[p] - lob[p]) / s
                    else:
                        continue
                elif s < -_PIVOT_TOL:
                    if np.isfinite(hib[p]):
                        t = (hib[p] - xb[p]) / (-s)
                    else:
                        continue
                else:
                    continue
                t = max(t, 0.0)
                if t < t_best - 1e-9:
                    t_best = t
                    p_best = p
                elif p_best >= 0 and t <= t_best + 1e-9 and bland and self.basis[p] < self.basis[p_best]:
                    t_best = min(t_best, t)
                    p_best = p

            if p_best >= 0 and abs(step[p_best]) < _SMALL_PIVOT:
                p_best, t_best = self._avoid_small_pivot(step, xb, lob, hib, p_best, t_best)

            t_flip = self.hi[q] - self.lo[q]  # inf for free/one-sided columns

            if not np.isfinite(t_best) and not np.isfinite(t_flip):
                return "breakdown" if phase_one else "unbounded"

            self.iterations += 1
            if t_flip <= t_best:
                # bound flip, basis unchanged
                self.xval[self.basis] -= t_flip * step
                self.xval[q] = self.hi[q] if self.status[q] == AT_LOWER else self.lo[q]
                self.status[q] = AT_UPPER if self.status[q] == AT_LOWER else AT_LOWER
                move = t_flip
            else:
                leaving = self.basis[p_best]
                self.xval[self.basis] -= t_best * step
                self.xval[q] = self.xval[q] + delta * t_best
                if step[p_best] > 0:
                    self.status[leaving] = AT_LOWER
                    self.xval[leaving] = self.lo[leaving]
                else:
                    self.status[leaving] = AT_UPPER
                    self.xval[leaving] = self.hi[leaving]
                self.basis[p_best] = q
                self.status[q] = BASIC

                if abs(d[p_best]) < _PIVOT_TOL:
                    self.B_inv = self._refactorize()
                else:
                    r = self.B_inv[p_best, :] / d[p_best]
                    self.B_inv -= np.outer(d, r)
                    self.B_inv[p_best, :] = r
                pivots_since_refactor += 1
                if pivots_since_refactor >= _REFACTOR_EVERY:
                    self.B_inv = self._refactorize()
                    self._recompute_basics()
                    pivots_since_refactor = 0
                move = t_best

            if move <= _DEGEN_TOL:
                degenerate_run += 1
                if degenerate_run >= _BLAND_TRIGGER:
                    bland = True
            else:
                degenerate_run = 0
        return "breakdown"

    def _avoid_small_pivot(self, step, xb, lob, hib, p_best, t_best):
        """Harris's second pass, run when the min-ratio pivot is below
        ``_SMALL_PIVOT``: such pivots left near-singular bases whose next
        steps pushed basic variables far outside their bounds.  Take instead
        the largest pivot whose ratio keeps every basic variable within
        ``feas_tol`` of its bounds, if there is one."""
        mag = np.abs(step)
        slack = np.where(step > 0, xb - lob, hib - xb)
        rows = np.flatnonzero((mag > _PIVOT_TOL) & np.isfinite(slack))
        ratio = np.maximum(slack[rows] / mag[rows], 0.0)
        t_max = np.min((slack[rows] + self.feas_tol) / mag[rows])
        ok = np.flatnonzero((mag[rows] >= _SMALL_PIVOT) & (ratio <= t_max))
        if ok.size == 0:
            return p_best, t_best
        k = ok[int(np.argmax(mag[rows][ok]))]
        return int(rows[k]), float(ratio[k])

    def _expel_artificials(self) -> None:
        """Pivot basic artificials out where possible; stuck rows are redundant."""
        for p in range(self.m):
            if self.basis[p] < self.art_start:
                continue
            w = self.B_inv[p, :] @ self.F[:, : self.art_start]
            candidates = np.flatnonzero((np.abs(w) > 1e-7) & (self.status[: self.art_start] != BASIC))
            if candidates.size == 0:
                continue  # redundant row; artificial stays basic pinned at 0
            q = int(candidates[0])
            d = self.B_inv @ self.F[:, q]
            leaving = self.basis[p]
            self.status[leaving] = AT_LOWER
            self.xval[leaving] = 0.0
            self.basis[p] = q
            self.status[q] = BASIC
            if abs(d[p]) < _PIVOT_TOL:
                self.B_inv = self._refactorize()
                self._recompute_basics()
            else:
                r = self.B_inv[p, :] / d[p]
                self.B_inv -= np.outer(d, r)
                self.B_inv[p, :] = r
                self._recompute_basics()

    # -- tableau access for cut generation ----------------------------------

    def tableau_row(self, p: int) -> np.ndarray:
        """Row p of B^-1 F, expressed over all columns."""
        return self.B_inv[p, :] @ self.F

    def basic_position(self, col: int) -> Optional[int]:
        hits = np.flatnonzero(self.basis == col)
        return int(hits[0]) if hits.size else None


def solve_lp(inst: Instance, feas_tol: float = 1e-7, opt_tol: float = 1e-9) -> LpResult:
    """Solve the LP relaxation of ``inst`` (integrality dropped).

    Raises :class:`SimplexBreakdown` on numeric failure, which callers treat
    as an error state distinct from infeasibility.
    """
    form = to_standard_form(inst)
    solver = BoundedSimplex(form, feas_tol=feas_tol, opt_tol=opt_tol)
    result = solver.solve()
    if result.status is LpStatus.OPTIMAL:
        # report in the user's orientation, constant included
        result.objective = form.user_objective(result.objective + form.obj_constant)
    return result
