"""Bounded-variable dual simplex: phase 1 on a boxed auxiliary problem when
the start is dual infeasible, then phase 2.

Works on the equality system ``A x - r = 0`` where r holds the row
activities with bounds ``rlo <= r <= rup``.  A :class:`BoundedSimplex` is
the LP over one set of rows: it builds the columns ``[A, -I]`` once, and each
``solve`` takes the column bounds and the start basis as arguments, so one
object serves a whole search as long as its rows stay the same.

Every attempt takes one path.  It starts from a basis: a warm start is
another solve's final basis and statuses over the same rows
(``LpResult.warm``), typically a parent node's LP after one bound moved;
otherwise the slack basis, with every row column basic and each structural
column at the bound its cost favours.  One loop, a bounded dual simplex with
steepest-edge pricing, makes every pivot.  A dual feasible start, as every
start is when all columns have two finite bounds, goes straight to it.  Any
other start (a cost that favours an infinite bound, or a free column with a
nonzero cost) first runs it on the auxiliary problem whose finite bounds are
0 and whose infinite ones a box: dual phase 1 (Fourer, 1994; Koberstein and
Suhl, 2007).  Its optimum is dual feasible for the LP unless the LP has an
improving ray; then the loop under zero costs tells unbounded from
infeasible.  Below ``_KERNEL_ROWS`` rows an OPTIMAL
solve's warm start also carries its final factor, m^2 + 2(n+m) floats that
both children of a node share; a child whose only moved bound is a basic
column's starts from it as it is, with no refactorization or
recomputation, and its dual simplex from the one violated row.  The eta count
travels too: ``B^-1`` is refactorized every ``_REFACTOR_EVERY`` updates on a path.

A solve climbs one ladder of attempts: the warm start when it is given and
fits, the slack basis when it is not or it broke down, and the slack basis
under Bland's rule when that broke down too; only a breakdown of the last
attempt reaches the caller.  ``iterations`` counts the dual pivots of every
phase and attempt, and ``flips`` the columns that long steps moved to their
other bound.  Fresh reduced costs and basic values
decide OPTIMAL, so no solve returns OPTIMAL with a basic value outside its
bounds.

The dual ratio test takes a long step (Maros, 2003; Koberstein, 2005) when
the entering candidate of Harris's rule cannot close the leaving row's gap
over its whole range, as in a knapsack row over many binaries: it passes the
breakpoints of columns with two finite bounds in order of their ratios, each
flipping to its other bound, while the flips still leave the row short, and
then pivots on one of the breakpoints left.  A long step is one pivot.  On
the 600 x 200 multi-row knapsack of the benchmark's generators, the root LP
takes 453 pivots against 818 without flips; a row of equal weights takes
one or two.  Bland's rule never flips.

One row rule picks how ``B^-1`` is kept.  Below ``_KERNEL_ROWS`` rows it is
inverted densely and updated by a dense eta step.  From that many rows only
the kernel is inverted: the basic structural columns over the rows whose row
column is not basic, since a basic row column is a unit column.  An eta step
then touches only the rows where the entering column is nonzero (Suhl and
Suhl, 1990).  The crossover was measured on a 2-core Xeon: at 8 rows a dense
inverse takes 12-16 µs and the kernel 15-72 µs; at 64 rows, with half the
basis structural, both take about 150 µs; at 348 rows with no structural
column in the basis, 10 ms against 57 µs.  The sparse eta step overtakes the
dense one at about 64 rows too.  From that many rows no product takes in the
-I block (``v F = [v A, -v]``, ``B^-1 F[:, n+i] = -B^-1[:, i]``), and the
dual pricing weights live beside ``B^-1``: an eta step re-derives those of the
rows it touched.  Each shortcut gives the bits of the full product.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from ..instance import Instance
from .standard_form import StandardForm, to_standard_form

AT_LOWER, AT_UPPER, FREE, BASIC = 0, 1, 2, 3

_REFACTOR_EVERY = 64
_KERNEL_ROWS = 64  # the row rule: from this many rows, B^-1 is built from its kernel and updated sparsely
_PIVOT_TOL = 1e-9
_DEGEN_TOL = 1e-12
_FEAS_TOL = 1e-7  # primal: how far a basic value may lie outside its bounds
# phase 1's stand-in for an infinite bound: a column at the box must move a row
# through an entry just above _PIVOT_TOL by more than _FEAS_TOL (here 100 times
# more), else that row reads satisfied and its LP unbounded; values this large
# still round far inside _FEAS_TOL
_BOX = 1e4
_OPT_TOL = 1e-9  # dual: how far a reduced cost may lie on its improving side
_INT_TOL = 1e-6  # integrality tolerance (bnb's); as the bound tolerance, no fractional value is out of bounds
# the direction in which a nonbasic column may move off its bound, by status:
# +1 up from its lower bound, -1 down from its upper bound, 0 for free (either
# way) and basic columns.  A node LP of a few rows is a fixed cost of about a
# hundred small numpy calls, so the hot paths index this table and reduce with
# ufuncs and count_nonzero: a Python-level reduction (ndarray.any, .min,
# np.array_equal, np.round, np.flatnonzero) costs 2-3 times a ufunc call
_SIGN = np.array([1.0, -1.0, 0.0, 0.0])


class WarmStart(tuple):
    """``(basis, status)``: a basis over the structural and row columns and
    the status of each of them, and the ``factor`` of an OPTIMAL solve."""

    factor: Optional["_Factor"] = None


class _Factor(NamedTuple):
    """``B_inv`` after ``etas`` eta updates, column values and reduced costs, over ``form``."""

    form: StandardForm
    B_inv: np.ndarray
    xval: np.ndarray
    z: np.ndarray
    etas: int


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
    iterations: int  # dual pivots; a long step is one
    warm: Optional[WarmStart]  # the final basis and statuses, and any factor; None when no basis was built
    flips: int = 0  # columns the long steps moved to their other bound, not counted in iterations


class BoundedSimplex:
    """The LP over one set of rows; after a solve, its final tableau stays
    readable for cut generation until the next solve."""

    def __init__(self, form: StandardForm):
        self.form = form
        self.n = form.n
        self.m = form.m
        self.F = np.hstack([form.A, -np.eye(form.m)])
        # BLAS sums the last few columns of v @ M apart, in another order; past
        # n up to a multiple of 16, _A keeps A's columns out of that tail, as F does
        self._A = self.F[:, : min(self.F.shape[1], -(-self.n // 16) * 16)]
        self.cost = np.concatenate([form.c, np.zeros(form.m)])  # over the columns of F
        self._max_iter = 5000 + 200 * (self.m + self.F.shape[1])  # per phase; beyond it, a breakdown
        # the value of a nonbasic column by its status: row AT_LOWER holds the
        # lower bounds and row AT_UPPER the upper ones, which each solve writes
        # its column bounds into through lo and hi; FREE and BASIC read 0
        self._table = np.zeros((4, form.n + form.m))
        self.lo, self.hi = self._table[AT_LOWER], self._table[AT_UPPER]
        self.lo[:] = np.concatenate([form.lb, form.rlo])
        self.hi[:] = np.concatenate([form.ub, form.rup])
        self._cols = np.arange(form.n + form.m)
        ones = np.ones(form.n)  # _bounds_violated's tolerance on each column's bounds
        self._tol_lo = _INT_TOL * np.concatenate([ones, np.maximum(1.0, np.abs(form.rlo))])
        self._tol_hi = _INT_TOL * np.concatenate([ones, np.maximum(1.0, np.abs(form.rup))])

    def solve(
        self,
        lb: Optional[np.ndarray] = None,
        ub: Optional[np.ndarray] = None,
        warm: Optional[WarmStart] = None,
    ) -> LpResult:
        """Solve under the column bounds ``lb``/``ub`` (the form's where
        None): from ``warm`` when it fits these rows, then from the slack
        basis, then from the slack basis under Bland's rule, each attempt
        taken when the one before did not fit or broke down.  A breakdown of
        the last attempt reaches the caller.  Of an earlier solve only
        ``warm`` carries over, with any factor over these rows."""
        self.iterations = self.flips = 0
        self.lo[: self.n] = self.form.lb if lb is None else lb
        self.hi[: self.n] = self.form.ub if ub is None else ub
        self.basis = self.status = self.xval = self.B_inv = self._w = None
        if np.count_nonzero(self.lo > self.hi):
            return LpResult(LpStatus.INFEASIBLE, None, np.zeros(self.n), 0, None)
        factor = getattr(warm, "factor", None)
        self._carried = warm if factor is not None and factor.form is self.form else None
        self._bland = False
        for start in (warm, None) if warm is not None else (None,):
            try:
                result = self._solve_from(*(self._slack_start() if start is None else start))
            except SimplexBreakdown:
                continue
            if result is not None:
                return result
        self._bland = True
        return self._solve_from(*self._slack_start())

    def _slack_start(self) -> WarmStart:
        """Every row column basic; each structural column placed by its cost."""
        status = _favoured(self.form.c, self.lo[: self.n], self.hi[: self.n])
        return np.arange(self.n, self.n + self.m), np.concatenate([status, np.full(self.m, BASIC, np.int8)])

    def _solve_from(self, basis, status) -> Optional[LpResult]:
        """Start from a basis and the statuses of the structural and row
        columns: dual phase 1 when the start is dual infeasible, then the
        dual simplex to a primal feasible, hence optimal, basis.  None when
        they do not fit this LP, and the caller starts from the slack basis.
        A warm start with a factor over these rows is not checked again; the
        factor is used when the nonbasic values are its."""
        n, m = self.n, self.m
        carried = self._carried
        own = carried is not None and basis is carried[0] and status is carried[1]
        if own:
            basis, status = basis.copy(), status.copy()
        else:
            basis = np.array(basis, dtype=np.int64)
            status = np.array(status, dtype=np.int8)
            # as unsigned, a status outside the four is above BASIC
            if (basis.shape != (m,) or status.shape != (n + m,) or (m and basis.max() >= n + m)
                    or np.count_nonzero(status.view(np.uint8) > BASIC)
                    or np.count_nonzero(status == BASIC) != m or np.count_nonzero(status[basis] != BASIC)):
                return None  # other rows, or no basis
        lo, hi = self.lo, self.hi
        xval = self._table[status, self._cols]
        free = status == FREE
        if np.count_nonzero(np.isfinite(xval)) != n + m or (
            np.count_nonzero(free) and np.count_nonzero(free & (np.isfinite(lo) | np.isfinite(hi)))
        ):
            return None  # a status points at an infinite bound, or a free one at a finite bound
        self.basis, self.status, self.xval = basis, status, xval
        movable = hi - lo > 0
        factor = carried.factor if own else None
        if factor is not None:
            xval[basis] = factor.xval[basis]
        fresh = factor is None or np.count_nonzero(xval != factor.xval) != 0
        if not fresh:
            self.B_inv, self._since_refactor, z = factor.B_inv.copy(), factor.etas, factor.z.copy()
        for again in (False, True):
            if fresh or again:
                self._refresh()
                z = self._reduced_costs()
                if np.count_nonzero(self._eligible(z, movable)) and not self._phase_one(z, movable):
                    zero = np.zeros_like(z)  # under zero costs every basis is dual feasible
                    self._place(zero)
                    return self._result(LpStatus.UNBOUNDED if self._dual(zero, movable) else LpStatus.INFEASIBLE)
            if not self._dual(z, movable):
                return self._result(LpStatus.INFEASIBLE)
            z = self._reduced_costs()
            if not np.count_nonzero(self._eligible(z, movable)) and not self._bounds_violated():
                self.z = z
                return self._result(LpStatus.OPTIMAL)
        raise SimplexBreakdown("reduced costs or basic values drifted at the optimum")

    def _phase_one(self, z: np.ndarray, movable: np.ndarray) -> bool:
        """The dual simplex on the auxiliary problem: these rows and costs,
        each finite bound 0 and each infinite one ``-_BOX`` or ``+_BOX``, so
        every basis is dual feasible once placed.  The box holds x = 0, so it
        has an optimum; placed again under the true bounds, with ``z`` their
        reduced costs, its columns are dual feasible unless the LP has an
        improving ray: then False."""
        lo, hi = self.lo.copy(), self.hi.copy()
        try:
            self.lo[:] = np.where(np.isfinite(lo), 0.0, -_BOX)
            self.hi[:] = np.where(np.isfinite(hi), 0.0, _BOX)
            self._place(z)
            if not self._dual(z, self.hi - self.lo > 0):
                raise SimplexBreakdown("the auxiliary problem reads infeasible")
        finally:
            self.lo[:], self.hi[:] = lo, hi
        z[:] = self._reduced_costs()
        self._place(z)
        return not np.count_nonzero(self._eligible(z, movable))

    def _place(self, z: np.ndarray) -> None:
        """Each nonbasic column at the bound its reduced cost favours, then
        ``B^-1`` refactorized and the basic values recomputed."""
        status = _favoured(z, self.lo, self.hi)
        status[self.basis] = BASIC
        self.status[:] = status
        self.xval[:] = self._table[status, self._cols]
        self._refresh()

    def _bounds_violated(self) -> bool:
        """Any basic value beyond its bounds by more than ``_INT_TOL``,
        absolute on structural columns (bnb's integrality tolerance) and
        relative to the bound on row columns."""
        b = self.basis
        xb = self.xval[b]
        return np.count_nonzero((xb < self.lo[b] - self._tol_lo[b]) | (xb > self.hi[b] + self._tol_hi[b])) != 0

    def _result(self, status: LpStatus) -> LpResult:
        point = self.xval[: self.n].copy()
        # shared, as the factor's arrays are: the next solve replaces these
        # arrays before it changes them
        warm = WarmStart((self.basis, self.status))
        if status is LpStatus.OPTIMAL and self.m < _KERNEL_ROWS:
            warm.factor = _Factor(self.form, self.B_inv, self.xval, self.z, self._since_refactor)
        obj = float(self.form.c @ point) if status is LpStatus.OPTIMAL else None
        return LpResult(status, obj, point, self.iterations, warm, self.flips)

    # -- iteration machinery ------------------------------------------------

    def _refactorize(self) -> np.ndarray:
        """``B^-1`` of the current basis.  From ``_KERNEL_ROWS`` rows only its
        kernel is inverted: with the structural columns J at positions S, the
        row columns of rows rho at positions R, and K the other rows,
        ``B^-1[S, K] = F[K, J]^-1``, ``B^-1[R, K] = F[rho, J] F[K, J]^-1``,
        ``B^-1[R, rho] = -1`` and every other entry is 0."""
        m, basis = self.m, self.basis
        try:
            if m < _KERNEL_ROWS:
                return np.linalg.inv(self.F[:, basis])
            structural = basis < self.n
            S, R = np.flatnonzero(structural), np.flatnonzero(~structural)
            J, rho = basis[S], basis[R] - self.n
            in_kernel = np.ones(m, dtype=bool)
            in_kernel[rho] = False
            K = np.flatnonzero(in_kernel)
            B_inv = np.zeros((m, m))
            B_inv[R, rho] = -1.0
            if S.size:
                kernel_inv = np.linalg.inv(self.F[np.ix_(K, J)])
                B_inv[np.ix_(S, K)] = kernel_inv
                B_inv[np.ix_(R, K)] = self.F[np.ix_(rho, J)] @ kernel_inv
            return B_inv
        except np.linalg.LinAlgError:
            raise SimplexBreakdown("singular basis") from None

    def _invert(self) -> None:
        """Refactorize ``B^-1``, and from ``_KERNEL_ROWS`` rows the pricing weights of all rows."""
        self.B_inv = self._refactorize()
        if self.m >= _KERNEL_ROWS:
            self._w = _squared_norms(self.B_inv)

    def _refresh(self) -> None:
        """Refactorize ``B^-1`` and recompute the basic values from it."""
        self._invert()
        self._since_refactor = 0
        nonbasic = (self.status != BASIC).nonzero()[0]
        rhs = -(self.F[:, nonbasic] @ self.xval[nonbasic]) if self.m else np.zeros(0)
        self.xval[self.basis] = self.B_inv @ rhs

    def _reduced_costs(self) -> np.ndarray:
        y = self.cost[self.basis] @ self.B_inv if self.m else np.zeros(0)
        return self.cost - (self._times_F(y) if self.m else 0.0)

    def _times_F(self, v: np.ndarray) -> np.ndarray:
        """``v @ F``; from ``_KERNEL_ROWS`` rows ``[v A, 0 - v]`` (+0, as the product gives, for v's zeros)."""
        if self.m < _KERNEL_ROWS:
            return v @ self.F
        return np.concatenate([(v @ self._A)[: self.n], 0.0 - v])

    def _column(self, q: int) -> np.ndarray:
        """``B^-1 F[:, q]``; from ``_KERNEL_ROWS`` rows a row column's is ``0 - B^-1[:, q - n]``."""
        if self.m >= _KERNEL_ROWS and q >= self.n:
            return 0.0 - self.B_inv[:, q - self.n]
        return self.B_inv @ self.F[:, q]

    def _eligible(self, z: np.ndarray, movable: np.ndarray) -> np.ndarray:
        """Nonbasic columns whose reduced cost says the objective improves
        when they move off their bound."""
        eligible = movable & (_SIGN[self.status] * z < -_OPT_TOL)
        free = self.status == FREE
        if np.count_nonzero(free):
            eligible |= movable & free & (np.abs(z) > _OPT_TOL)
        return eligible

    def _pivot(self, p: int, q: int, d: np.ndarray) -> None:
        """Column q replaces the basic column at position p; ``d`` is
        ``B^-1 F[:, q]``.  Eta update, with a refactorization every
        ``_REFACTOR_EVERY`` updates, carried factors' updates included."""
        self.basis[p] = q
        self.status[q] = BASIC
        if abs(d[p]) < _PIVOT_TOL:
            self._invert()
        else:
            r = self.B_inv[p, :] / d[p]
            if self.m < _KERNEL_ROWS:
                self.B_inv -= d[:, np.newaxis] * r
                self.B_inv[p, :] = r
            else:  # only the rows that d touches, p among them, and their weights
                nz = d.nonzero()[0]
                self.B_inv[nz] -= d[nz, np.newaxis] * r
                self.B_inv[p, :] = r
                self._w[nz] = _squared_norms(self.B_inv[nz])
        self._since_refactor += 1
        if self._since_refactor >= _REFACTOR_EVERY:
            self._refresh()

    def _exchange(self, p: int, q: int, d: np.ndarray, theta: float, to_upper: bool) -> None:
        """Column q enters, moved by ``theta`` (the basic values by
        ``-theta * d``), and the basic column at position p leaves at its
        upper bound when ``to_upper``, else at its lower bound."""
        leaving = self.basis[p]
        self.xval[self.basis] -= theta * d
        self.xval[q] += theta
        self.status[leaving] = AT_UPPER if to_upper else AT_LOWER
        self.xval[leaving] = self.hi[leaving] if to_upper else self.lo[leaving]
        self._pivot(p, q, d)

    def _dual(self, z: np.ndarray, movable: np.ndarray) -> bool:
        """Bounded dual simplex from a dual feasible basis with reduced costs
        ``z``, kept up to date in place: while a basic value lies outside
        its bounds, one of them leaves at the bound it violates
        and the entering column is chosen by Harris's two-pass ratio test on
        the reduced costs.  The leaving row maximizes ``viol_p^2 / w_p``, the
        dual steepest-edge rule with exact weights ``w_p = |e_p^T B^-1|^2``
        (Forrest and Goldfarb, 1992), kept beside ``B^-1`` from
        ``_KERNEL_ROWS`` rows and below that computed only when more than
        one row is violated; under Bland's rule the violated row whose basic column
        has the lowest index leaves.  When Harris's candidate, moved over its
        whole range, would still leave the row short of its bound (the gate
        ``mag * span < viol``, two scalars the loop holds), ``_long_step``
        flips the boxed columns whose breakpoints come first and picks the
        entering column among the rest; the primal step then reads the
        leaving value as the flips left it.  Under Bland's rule no column
        flips.  True once every basic value is within
        ``_FEAS_TOL`` of its bounds, False when a row proves the LP
        infeasible; neither depends on the costs."""
        if not self.m:
            return True
        dirn = _SIGN[self.status] * movable  # -0 on a column at its upper bound that cannot move: no candidate
        free = self.status == FREE
        any_free = np.count_nonzero(free)
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
                w = self._w[rows] if self._w is not None else _squared_norms(self.B_inv[rows])
                p = int(rows[(viol[rows] ** 2 / w).argmax()])
            s = 1.0 if xb[p] < lob[p] else -1.0  # +1: the leaving value must rise
            target = lob[p] if s > 0 else hib[p]
            alpha = s * self._times_F(self.B_inv[p])
            # moving column j off its bound by u moves the leaving value
            # toward its target by -g[j] * u
            g = alpha * dirn
            if any_free:
                g[free] = -np.abs(alpha[free])
            idx = (g < -_PIVOT_TOL).nonzero()[0]
            if idx.size == 0:
                # the nonbasic columns' whole ranges cannot close the gap
                # (entries at rounding level count as zero)
                helpful = g < -_DEGEN_TOL
                if float((-g[helpful] * span[helpful]).sum()) < viol[p] - _FEAS_TOL:
                    return False
                raise SimplexBreakdown("dual ratio test found no usable pivot")
            mag = -g[idx]
            slack = np.maximum(dirn[idx] * z[idx], 0.0)  # free columns: 0
            ratio = slack / mag
            if idx.size == 1:
                k = 0
            else:
                relaxed = (slack + _OPT_TOL) / mag
                ok = (ratio <= np.minimum.reduce(relaxed)).nonzero()[0]
                k = ok[mag[ok].argmax()]
                # the long step's gate: the candidate's whole range leaves the row short
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
            # the leaving value as the flips left it: xb[p]'s bits when nothing flipped
            self._exchange(p, q, d, (self.xval[leaving] - target) / d[p], s < 0)
        raise SimplexBreakdown("dual iteration limit")

    def _long_step(self, k, idx, mag, ratio, relaxed, gap, span, dirn) -> int:
        """The bound-flipping ratio test (Maros, 2003; Koberstein, 2005),
        entered when Harris's candidate ``idx[k]`` cannot close the leaving
        row's ``gap`` over its whole range.  Moving column j's reduced cost
        past its breakpoint ``ratio`` is dual feasible once j flips to its
        other bound, which moves the leaving value toward its target by
        ``mag * span``.  The breakpoints are passed in stable order of their
        ratios while those passed still leave the row short, and one is
        always left.  The passed columns flip (status, value and ``dirn``)
        and the basic values move once, by ``-B^-1 (F[:, J] delta)``;
        Harris's rule over the breakpoints left returns the entering
        column's position in ``idx``, ``k`` when nothing flipped."""
        order = ratio.argsort(kind="stable")
        short = np.cumsum((mag * span[idx])[order]) < gap
        passed = order[: min(np.count_nonzero(short), idx.size - 1)]
        if not passed.size:
            return k
        J = idx[passed]
        status = self.status[J] ^ 1  # AT_LOWER and AT_UPPER trade places
        value = self._table[status, J]
        delta = value - self.xval[J]
        self.status[J], self.xval[J] = status, value
        dirn[J] = -dirn[J]
        self.xval[self.basis] -= self.B_inv @ (self.F[:, J] @ delta)
        self.flips += J.size
        left = np.ones(idx.size, dtype=bool)
        left[passed] = False
        ok = (left & (ratio <= np.minimum.reduce(relaxed[left]))).nonzero()[0]
        return ok[mag[ok].argmax()]

    # -- tableau access for cut generation ----------------------------------

    def tableau_row(self, p: int) -> np.ndarray:
        """Row p of B^-1 F, expressed over all columns."""
        return self._times_F(self.B_inv[p, :])


def _favoured(z: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The status of each column at the bound its reduced cost ``z``
    favours (the upper one where z < 0), at its other bound when that one
    is infinite, and free at 0 when both are."""
    status = np.where(np.isfinite(lo), AT_LOWER, FREE).astype(np.int8)
    status[np.isfinite(hi) & ((z < 0) | ~np.isfinite(lo))] = AT_UPPER
    return status


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """``|e_p^T B^-1|^2`` of each of these rows of ``B^-1``."""
    return np.einsum("ij,ij->i", rows, rows)


def solve_lp(inst: Instance) -> LpResult:
    """Solve the LP relaxation of ``inst`` (integrality dropped).

    Raises :class:`SimplexBreakdown` on numeric failure, which callers treat
    as an error state distinct from infeasibility.
    """
    form = to_standard_form(inst)
    result = BoundedSimplex(form).solve()
    if result.status is LpStatus.OPTIMAL:
        # report in the user's orientation, constant included
        result.objective = form.user_objective(result.objective)
    return result
