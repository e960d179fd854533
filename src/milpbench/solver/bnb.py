"""Deterministic branch-and-bound over the bounded-simplex LP engine.

The root is a node like any other: ``_Search.visit`` decides the fate of
every node's LP, so each way the search can end is decided in one place.
Gomory and cover cuts are separated after the root's LP, and the dive, when
on, runs before the root branches; node selection and branching follow the
configured strategies with fixed index-based tie breaking.  An integral
point that the row check rejects ends the solve as ``ERROR`` at any node.
The clock is consulted only for termination, so two runs with identical
inputs traverse identical trees.

Objective integrality, a structural rule with no option: when every column
is bounded, every continuous column costs 0 and every integer column's cost
is an integer below 2^53, every feasible objective (before the constant) is
a multiple of the gcd of those costs, the objective's step.  Every bound the
search compares or reports is then rounded up to the next multiple, less the
LP's possible over-read (``step_tolerance``) and never below itself
(``_Search.rounded``), so a node whose LP bound cannot beat the incumbent on
that lattice is pruned, and an OPTIMAL solve at gap 0 reports its objective
as its bound (Achterberg, *Constraint Integer Programming*, 2007).  Cuts add
rows, not columns, so the step holds for the whole search; their row columns
widen the tolerance.

Node bound propagation, a structural rule with no option, as CPLEX presolves
at every node by default: before the LP of every node, ``presolve.propagate``
sweeps the form's rows (built at the first sweep, and again at the first sweep
after a cut round adds rows) until no row is flagged, at most ``_MAX_PASSES``
times.  The root flags every row, and is not swept when presolve's bound pass
ran, which reached the same fixpoint; a child flags the rows of its branched
column.  A node whose bounds cross is settled without an LP, and so is one
with an equality row of integral data over binaries, flagged first or holding
a moved column, that a subset sum shows cannot meet its right-hand side
(``_reaches``; Trick, *Ann. Oper. Res.* 118, 2003).  Like a child pruned by
its bound a settled node is not counted: ``nodes`` counts the nodes whose LP
ran, and a settled root ends the solve ``INFEASIBLE`` with none.  Moved bounds
go into new arrays for that node and its children, since siblings share their
parent's arrays; the root's become its own, so its cut rounds and dive start
from them.  The dive does not propagate.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional

import numpy as np

from ..instance import Instance
from .cuts import cover_cuts, gomory_cuts
from .options import BranchRule, NodeStrategy, ReferenceSolverOptions
from .presolve import _MAX_PASSES, _column_rows, form_rows, presolve, propagate
from .simplex import (_INT_TOL, _OPT_TOL, BASIC, BoundedSimplex, LpResult, LpStatus,
                      SimplexBreakdown, WarmStart)
from .standard_form import StandardForm, to_standard_form

_COVER_ROUNDS = 5
# the most sum(|a|) of a row that _reaches tests: it bounds the bitset's bits and
# shifts, so a test costs at most about _REACH_CAP^2 / 64 word operations, a few
# ms, below one LP over that many columns (a market split's row sums to < 1,200)
_REACH_CAP = 4096


class SolveStatus(Enum):
    """How a solve ended; a run record carries it as is (``runner.RunStatus``)."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    TIME_LIMIT = "time_limit"
    ERROR = "error"


@dataclass(frozen=True)
class Solution:
    values: dict[str, float]
    objective: float


@dataclass
class SolveOutcome:
    status: SolveStatus
    incumbent: Optional[Solution]
    best_bound: float
    gap: float
    nodes: int
    wall_time_s: float
    deterministic_ticks: int


def compute_gap(incumbent_obj: Optional[float], best_bound: float) -> float:
    """Relative optimality gap; infinity when there is no incumbent.

    Symmetric in sense: |incumbent - bound| / max(1e-10, |incumbent|).
    """
    if incumbent_obj is None or not math.isfinite(best_bound):
        return math.inf
    return abs(incumbent_obj - best_bound) / max(1e-10, abs(incumbent_obj))


def objective_step(form: StandardForm) -> Optional[float]:
    """The gcd of the integer columns' costs when every continuous column
    costs 0 and each of those costs is an integer below 2^53, so that every
    feasible ``c @ x`` is a multiple of it; None otherwise, for an all-zero
    objective, and when a column is unbounded: no tolerance then covers how
    far an LP bound may read high (``step_tolerance``)."""
    c, is_int = form.c, form.is_int
    cost = np.abs(c[is_int])
    if (np.count_nonzero(c[~is_int]) or not np.count_nonzero(cost)
            or np.count_nonzero(cost != np.floor(cost)) or cost.max() >= 2.0 ** 53
            or not np.all(np.isfinite(form.ub - form.lb))):
        return None
    return float(np.gcd.reduce(cost.astype(np.int64)))


# the search rounds a bound up to the next multiple of the objective's step,
# less a tolerance in steps of which this is the floor.  An OPTIMAL LP may
# over-read its true minimum: c @ x exceeds it by at most the reduced costs left
# up to _OPT_TOL on their improving side times how far their nonbasic columns
# could still move, plus the rounding of c @ x; a basic value up to _FEAS_TOL
# outside its bound has a zero reduced cost and adds nothing.  step_tolerance
# adds _OPT_TOL times the most every column could move, per step, to this
# floor, and rounded takes off 1e-12 of the bound for its rounding, so an
# integral bound read a little high is never lifted by a whole step
_STEP_TOL = 1e-6


def step_tolerance(form: StandardForm, step: float) -> float:
    """How far, in steps, an OPTIMAL LP bound over ``form`` may read above
    its true minimum: ``_STEP_TOL`` plus ``_OPT_TOL`` times the most that all
    columns could move, in objective units per step.  A structural column
    moves at most its range, a row column at most its row's range or its
    activity's over the column box (see ``_STEP_TOL``)."""
    span = form.ub - form.lb
    row_span = np.minimum(form.rup - form.rlo, np.abs(form.A) @ span)
    return _STEP_TOL + _OPT_TOL * float(span.sum() + row_span.sum()) / step


def _binary_equalities(rows, is_int: list, lb: np.ndarray, ub: np.ndarray) -> dict[int, tuple[list, int]]:
    """The ``form_rows`` that ``_reaches`` tests, by index, as int terms and
    right-hand side: equalities of integral data, ``_REACH_CAP`` at most in
    absolute sum, over integer columns with bounds inside [0, 1]."""
    out = {}
    for i, (terms, rlo, rup) in enumerate(rows):
        if (rlo == rup and float(rlo).is_integer() and all(float(a).is_integer() for _, a in terms)
                and sum(abs(a) for _, a in terms) <= _REACH_CAP
                and all(is_int[j] and lb[j] >= 0.0 and ub[j] <= 1.0 for j, _ in terms)):
            out[i] = ([(j, int(a)) for j, a in terms], int(rlo))
    return out


def _reaches(terms: list, rhs: int, lb: list, ub: list) -> bool:
    """Whether 0/1 values of the free columns meet ``sum(a x) == rhs``, less
    the fixed columns' terms: bit k of ``reach`` is set when the free columns,
    those of negative ``a`` complemented, can sum to k."""
    reach = 1
    for j, a in terms:
        if lb[j] == ub[j]:
            rhs -= a * int(lb[j])
            continue
        if a < 0:  # a x = a + |a| (1 - x)
            rhs, a = rhs - a, -a
        reach |= reach << a
    return rhs >= 0 and bool(reach >> rhs & 1)


@dataclass
class _Node:
    bound_est: float
    depth: int
    node_id: int
    lb: np.ndarray
    ub: np.ndarray
    branch_var: int = -1
    branch_up: bool = False
    parent_frac: float = math.nan
    warm: Optional[WarmStart] = None  # the parent LP's final basis, and its factor, shared by both children


class _Search:
    """The whole search over one standard form: the rows so far (``form``,
    root cuts included) and the one LP object over them (``splx``), the
    incumbent and the open nodes, counters, pseudocosts, and the clock with
    its deadline.  ``visit`` decides each node's fate, the root's included,
    and ``run`` returns how the search ended."""

    def __init__(self, form: StandardForm, opts: ReferenceSolverOptions,
                 clock: Callable[[], float] = time.monotonic, deadline: float = math.inf):
        self.opts = opts
        self.form = form
        self.splx = BoundedSimplex(form)
        self.int_idx = np.flatnonzero(form.is_int)
        self.step = objective_step(form)
        self.step_tol = step_tolerance(form, self.step) if self.step else 0.0
        self.clock = clock
        self.deadline = deadline
        self.ticks = 0
        self.nodes = 0
        self.incumbent_obj: Optional[float] = None
        self.x_inc: Optional[np.ndarray] = None
        # one heap of open nodes keyed by the node strategy; the depth-first key
        # (deepest first, then the down child, whose id is lower) pops them in
        # the order of a stack
        self.open_nodes: list[tuple[tuple, _Node]] = []
        self.next_id = 1
        self.best_first = opts.node_strategy is NodeStrategy.BEST_BOUND
        self.pc_up = np.maximum(np.abs(form.c), 1e-6)  # cold start from cost magnitudes
        self.pc_dn = self.pc_up.copy()
        self.pc_up_count = np.zeros(form.n)
        self.pc_dn_count = np.zeros(form.n)
        # propagate's rows of form, their column index, is_int as a list and the
        # rows _reaches tests, built at the first sweep and after each cut round
        self.rows: Optional[list] = None
        self.col_rows: list[list[int]] = []
        self.int_list: list[bool] = []
        self.equalities: dict[int, tuple[list, int]] = {}

    def lp(self, lb: np.ndarray, ub: np.ndarray, warm: Optional[WarmStart] = None) -> LpResult:
        """Solve ``splx`` under these bounds, from ``warm`` when given; its
        pivots count in ticks even when the solve breaks down."""
        try:
            return self.splx.solve(lb, ub, warm)
        finally:
            self.ticks += self.splx.iterations

    def add_cut_rows(self, cuts: list[tuple[np.ndarray, float]], warm: WarmStart) -> WarmStart:
        """Append one round's cuts ``g x >= rhs``; the LP object is rebuilt
        for the new rows.  Returns ``warm``, the last LP's basis, with each
        cut's row column added as basic: the cuts are violated there, so the
        new LP starts primal infeasible and dual feasible, with no factor."""
        f, (basis, status) = self.form, warm
        new_rows = np.arange(f.n + f.m, f.n + f.m + len(cuts))
        self.form = replace(
            f,
            A=np.vstack([f.A] + [g[np.newaxis, :] for g, _ in cuts]),
            rlo=np.concatenate([f.rlo, [rhs for _, rhs in cuts]]),
            rup=np.concatenate([f.rup, np.full(len(cuts), np.inf)]),
        )
        self.splx = BoundedSimplex(self.form)
        self.rows = None  # the next sweep reads the cut rows too
        if self.step:  # the cuts' row columns can move too
            self.step_tol = step_tolerance(self.form, self.step)
        return np.concatenate([basis, new_rows]), np.concatenate([status, np.full(len(cuts), BASIC, np.int8)])

    def rows_ok(self, x: np.ndarray, tol: float = _INT_TOL) -> bool:
        """Each row side holds up to ``tol`` times ``max(1, |side|)``, the
        scaling that ``validate.check_feasibility`` applies."""
        A, rlo, rup = self.form.A, self.form.rlo, self.form.rup
        if not A.shape[0]:
            return True
        act = A @ x
        lo_ok = act >= rlo - tol * np.maximum(1.0, np.abs(rlo))  # -inf: always holds
        hi_ok = act <= rup + tol * np.maximum(1.0, np.abs(rup))
        return bool(np.all(lo_ok & hi_ok))

    def fractional(self, x: np.ndarray) -> np.ndarray:
        xi = x[self.int_idx]
        return self.int_idx[np.abs(xi - xi.round()) > _INT_TOL]

    def pick_branch_var(self, x: np.ndarray, cand: np.ndarray) -> int:
        xc = x[cand]
        frac = xc - np.floor(xc)
        if self.opts.branch_rule is BranchRule.MOST_FRACTIONAL:
            score = np.minimum(frac, 1.0 - frac)
        else:
            score = np.maximum(self.pc_dn[cand] * frac, 1e-6) * np.maximum(
                self.pc_up[cand] * (1.0 - frac), 1e-6
            )
        return int(cand[score.argmax()])  # the first maximum: the lowest index wins ties

    def observe_pseudocost(self, node: _Node, child_obj: float) -> None:
        j = node.branch_var
        if j < 0 or not math.isfinite(node.bound_est):
            return
        if node.branch_up:
            pc, count, frac = self.pc_up, self.pc_up_count, 1.0 - node.parent_frac
        else:
            pc, count, frac = self.pc_dn, self.pc_dn_count, node.parent_frac
        k = count[j]
        pc[j] = (pc[j] * k + max(0.0, child_obj - node.bound_est) / max(frac, 1e-6)) / (k + 1)
        count[j] = k + 1

    def accept_candidate(self, x: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> bool:
        """Snap integers, exactly complete the continuous part, verify, keep;
        False when the row check rejects the point."""
        snapped = x.copy()
        ii = self.int_idx
        snapped[ii] = np.round(snapped[ii])
        snapped = np.clip(snapped, lb, ub)
        if not self.rows_ok(snapped):
            if ii.size == self.form.n:
                return False
            lb2, ub2 = lb.copy(), ub.copy()
            lb2[ii] = snapped[ii]
            ub2[ii] = snapped[ii]
            try:
                res = self.lp(lb2, ub2)
            except SimplexBreakdown:
                return False
            if res.status is not LpStatus.OPTIMAL or not self.rows_ok(res.point):
                return False
            snapped = res.point
            snapped[ii] = np.round(snapped[ii])
        obj = float(self.form.c @ snapped)
        if self.incumbent_obj is None or obj < self.incumbent_obj - 1e-12:
            self.incumbent_obj = obj
            self.x_inc = snapped
        return True

    def rounded(self, bound: float) -> float:
        """``bound`` raised to the next multiple of the objective's step, once
        ``step_tol`` steps and the rounding of ``bound`` itself (1e-12 of it)
        are taken off; never below ``bound``, which is returned as it is when
        there is no step."""
        step = self.step
        if step is None or not math.isfinite(bound):
            return bound
        k = bound / step
        return max(bound, step * math.ceil(k - self.step_tol - 1e-12 * abs(k)))

    def prunes(self, bound: float) -> bool:
        """No point under ``bound`` can beat the incumbent by more than the
        tolerance; with an objective step, none can once ``bound`` rounded up
        to the step reaches it."""
        inc = self.incumbent_obj
        return inc is not None and self.rounded(bound) >= inc - 1e-9 * max(1.0, abs(inc))

    def push(self, node: _Node) -> None:
        key = (node.bound_est, -node.depth, node.node_id) if self.best_first else (-node.depth, node.node_id)
        heapq.heappush(self.open_nodes, (key, node))

    def open_bound(self) -> float:
        """The least bound over the open nodes, rounded to the objective's step."""
        if self.best_first:  # the least key holds the least bound
            return self.rounded(self.open_nodes[0][1].bound_est if self.open_nodes else math.inf)
        return self.rounded(min((node.bound_est for _, node in self.open_nodes), default=math.inf))

    def branch(self, parent_obj: float, depth: int, lb, ub, x_frac, cand, warm: WarmStart) -> None:
        j = self.pick_branch_var(x_frac, cand)
        frac = x_frac[j] - math.floor(x_frac[j])
        # each child shares the parent's array for the side it keeps: no node's
        # bounds are written after it is made
        dn = _Node(parent_obj, depth, self.next_id, lb, ub.copy(), j, False, frac, warm)
        dn.ub[j] = math.floor(x_frac[j])
        up = _Node(parent_obj, depth, self.next_id + 1, lb.copy(), ub, j, True, frac, warm)
        up.lb[j] = math.ceil(x_frac[j])
        self.next_id += 2
        self.push(up)
        self.push(dn)

    def cut_rounds(self, root: _Node, res: LpResult) -> LpResult:
        """The cut rounds after the root LP ``res``; returns the last LP
        solved, which ends the rounds when it is not OPTIMAL.  Each OPTIMAL
        LP's objective is the root's bound until a later one replaces it."""
        opts, lb, ub = self.opts, root.lb, root.ub
        for rnd in range(max(opts.gomory_rounds, _COVER_ROUNDS if opts.cover_cuts else 0)):
            if res.status is LpStatus.OPTIMAL:
                root.bound_est = res.objective
            if (res.status is not LpStatus.OPTIMAL or self.fractional(res.point).size == 0
                    or self.clock() >= self.deadline):
                break
            cuts: list[tuple[np.ndarray, float]] = []
            if rnd < opts.gomory_rounds:
                cuts.extend(gomory_cuts(self.splx, self.form.is_int))
            if opts.cover_cuts:  # self.form holds the cut rows added so far
                cuts.extend(cover_cuts(self.form.A, self.form.rlo, self.form.rup, lb, ub, self.form.is_int, res.point))
            if not cuts:
                break
            res = self.lp(lb, ub, self.add_cut_rows(cuts, res.warm))
        return res

    def dive(self, lb: np.ndarray, ub: np.ndarray, x: np.ndarray, warm: WarmStart) -> None:
        """Fix the least fractional integer to its rounding, re-solve and
        repeat; an integral point is offered as the incumbent."""
        lb, ub = lb.copy(), ub.copy()
        for _ in range(2 * max(1, self.int_idx.size)):
            if self.clock() >= self.deadline:
                break
            cand = self.fractional(x)
            if cand.size == 0:
                self.accept_candidate(x, lb, ub)
                break
            frac = x[cand] - np.floor(x[cand])
            j = int(cand[int(np.argmin(np.minimum(frac, 1.0 - frac)))])
            lb[j] = ub[j] = min(max(float(np.round(x[j])), lb[j]), ub[j])
            try:
                res = self.lp(lb, ub, warm)
            except SimplexBreakdown:
                break
            if res.status is not LpStatus.OPTIMAL:
                break
            x, warm = res.point, res.warm

    def propagated(self, node: _Node) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """The node's bounds after ``propagate`` sweeps from every row at the
        root, or from the rows of a child's branched column, until no row is
        flagged, at most ``_MAX_PASSES`` times: new arrays when a bound moved,
        the node's own otherwise, and None when some column's bounds cross or
        when an equality row over binaries, flagged first or holding a moved
        column, cannot meet its right-hand side (``_reaches``)."""
        if self.rows is None:
            self.rows = form_rows(self.form)
            self.col_rows = _column_rows(self.rows, self.form.n)
            self.int_list = self.form.is_int.tolist()
            self.equalities = _binary_equalities(self.rows, self.int_list, self.form.lb, self.form.ub)
        # the root flags every row; its branch_var of -1 names no column
        flagged = self.col_rows[node.branch_var] if node.depth else range(len(self.rows))
        marked = [False] * len(self.rows)
        for i in flagged:
            marked[i] = True
        lb, ub = node.lb.tolist(), node.ub.tolist()
        moved: list[int] = []
        for _ in range(_MAX_PASSES):
            if not any(marked):
                break
            # the tree keeps no touched rows, so marked stands in for them
            cols, infeasible = propagate(self.rows, lb, ub, self.int_list, self.col_rows, marked, marked)
            if infeasible:
                return None
            moved += cols
        eqs = self.equalities
        if eqs and not all(_reaches(*eqs[i], lb, ub)
                           for i in {*flagged, *(i for j in moved for i in self.col_rows[j])} if i in eqs):
            return None
        return (np.array(lb), np.array(ub)) if moved else (node.lb, node.ub)

    def visit(self, node: _Node) -> Optional[SolveStatus]:
        """Decide a node's fate, the root's included: pruned by its bound,
        settled by bound propagation (its bounds cross, or an equality row
        over binaries cannot meet its right-hand side), infeasible, pruned
        after its LP, integral (offered as the incumbent) or branched.  The
        root is propagated unless presolve's bound pass ran, and its swept
        bounds become its own; the cut rounds follow its LP and the dive,
        when on, comes before it branches.  Returns ``None`` to go on, or
        ``ERROR`` when an LP breaks down or is unbounded, or when the row
        check rejects the node's integral point.  Only a node whose LP ran
        counts in ``nodes``, and once it has run its objective is the node's
        bound."""
        if self.prunes(node.bound_est):
            return None
        # presolve's bound pass, when on, has swept the root to the fixpoint
        if node.depth or not self.opts.presolve_bound_tighten:
            bounds = self.propagated(node)
            if bounds is None:
                return None
            node.lb, node.ub = bounds  # the root's cut rounds, dive and children start from them
        lb, ub = node.lb, node.ub
        try:
            res = self.lp(lb, ub, node.warm)
            self.nodes += 1
            if not node.depth:
                res = self.cut_rounds(node, res)
        except SimplexBreakdown:
            return SolveStatus.ERROR
        if res.status is LpStatus.INFEASIBLE:
            return None
        if res.status is LpStatus.UNBOUNDED:
            return SolveStatus.ERROR
        obj, x = res.objective, res.point
        self.observe_pseudocost(node, obj)
        node.bound_est = obj
        if self.prunes(obj):
            return None
        cand = self.fractional(x)
        if cand.size == 0:
            return None if self.accept_candidate(x, lb, ub) else SolveStatus.ERROR
        if not node.depth and self.opts.diving:
            self.dive(lb, ub, x, res.warm)
        # the dive's LPs reuse splx: the tree starts from the root's basis
        self.branch(obj, node.depth + 1, lb, ub, x, cand, res.warm)
        return None

    def run(self) -> tuple[SolveStatus, float]:
        """Search from the root to the end: how it ended, and the bound
        proven over every node not yet solved, internal (minimizing), rounded
        to the objective's step and before the incumbent is counted."""
        node = _Node(-math.inf, 0, 0, self.form.lb.copy(), self.form.ub.copy())
        status = self.visit(node)
        while status is None and self.open_nodes:
            if self.clock() >= self.deadline:
                return SolveStatus.TIME_LIMIT, self.open_bound()
            inc = self.incumbent_obj
            if inc is not None and compute_gap(inc, min(self.open_bound(), inc)) <= self.opts.rel_gap:
                break
            node = heapq.heappop(self.open_nodes)[1]
            status = self.visit(node)
        if status is not None:  # the node is not settled: its bound still counts
            return status, min(self.open_bound(), self.rounded(node.bound_est))
        if self.incumbent_obj is None:
            return SolveStatus.INFEASIBLE, math.inf
        return SolveStatus.OPTIMAL, self.open_bound()


def branch_and_bound(
    inst: Instance,
    opts: ReferenceSolverOptions,
    clock: Callable[[], float] = time.monotonic,
) -> SolveOutcome:
    """Exact tree search honoring the configured options."""
    t0 = clock()
    deadline = t0 + opts.time_limit_s
    pres = presolve(to_standard_form(inst), opts, deadline, clock)
    form = pres.form
    search = _Search(form, opts, clock, deadline)
    status, bound = (SolveStatus.INFEASIBLE, math.inf) if pres.proven_infeasible else search.run()

    sol, x = None, search.x_inc
    if x is not None:
        sol = Solution({name: float(x[j]) for j, name in enumerate(form.var_names)},
                       form.user_objective(search.incumbent_obj))
        bound = min(bound, search.incumbent_obj)
    user_bound = form.user_objective(bound)
    return SolveOutcome(
        status=status,
        incumbent=sol,
        best_bound=user_bound,
        gap=compute_gap(sol.objective if sol else None, user_bound),
        nodes=search.nodes,
        wall_time_s=clock() - t0,
        deterministic_ticks=search.ticks,
    )
