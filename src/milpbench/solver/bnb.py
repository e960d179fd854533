"""Deterministic branch-and-bound over the bounded-simplex LP engine.

Gomory and cover cuts are separated at the root; node selection and
branching follow the configured strategies with fixed index-based tie
breaking.  The clock is consulted only for termination, so two runs with
identical inputs traverse identical trees.
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
from .presolve import presolve
from .simplex import _INT_TOL, BASIC, BoundedSimplex, LpResult, LpStatus, SimplexBreakdown, WarmStart
from .standard_form import StandardForm, to_standard_form

_COVER_ROUNDS = 5


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
    """Mutable solve state: the rows so far (``form``, root cuts included) and
    the one LP object over them (``splx``), counters, pseudocosts."""

    def __init__(self, form: StandardForm, opts: ReferenceSolverOptions):
        self.opts = opts
        self.form = form
        self.splx = BoundedSimplex(form)
        self.int_idx = np.flatnonzero(form.is_int)
        self.ticks = 0
        self.nodes = 0
        self.pc_up = np.maximum(np.abs(form.c), 1e-6)  # cold start from cost magnitudes
        self.pc_dn = self.pc_up.copy()
        self.pc_up_count = np.zeros(form.n)
        self.pc_dn_count = np.zeros(form.n)

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
        degrade = max(0.0, child_obj - node.bound_est)
        if node.branch_up:
            unit = degrade / max(1.0 - node.parent_frac, 1e-6)
            k = self.pc_up_count[j]
            self.pc_up[j] = (self.pc_up[j] * k + unit) / (k + 1)
            self.pc_up_count[j] = k + 1
        else:
            unit = degrade / max(node.parent_frac, 1e-6)
            k = self.pc_dn_count[j]
            self.pc_dn[j] = (self.pc_dn[j] * k + unit) / (k + 1)
            self.pc_dn_count[j] = k + 1


def branch_and_bound(
    inst: Instance,
    opts: ReferenceSolverOptions,
    clock: Callable[[], float] = time.monotonic,
) -> SolveOutcome:
    """Exact tree search honoring the configured options."""
    t0 = clock()
    deadline = t0 + opts.time_limit_s

    pres = presolve(inst, opts, deadline, clock)
    form = to_standard_form(pres.instance)
    names = form.var_names
    n = form.n

    incumbent_obj: Optional[float] = None
    x_inc: Optional[np.ndarray] = None
    search = _Search(form, opts)

    def finish(status: SolveStatus, internal_bound: float) -> SolveOutcome:
        sol = None
        if incumbent_obj is not None and x_inc is not None:
            sol = Solution({names[j]: float(x_inc[j]) for j in range(n)}, form.user_objective(incumbent_obj))
            internal_bound = min(internal_bound, incumbent_obj)
        user_bound = form.user_objective(internal_bound)
        return SolveOutcome(
            status=status,
            incumbent=sol,
            best_bound=user_bound,
            gap=compute_gap(sol.objective if sol else None, user_bound),
            nodes=search.nodes,
            wall_time_s=clock() - t0,
            deterministic_ticks=search.ticks,
        )

    if pres.proven_infeasible:
        return finish(SolveStatus.INFEASIBLE, math.inf)

    def accept_candidate(x: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> None:
        """Snap integers, exactly complete the continuous part, verify, keep."""
        nonlocal incumbent_obj, x_inc
        snapped = x.copy()
        ii = search.int_idx
        snapped[ii] = np.round(snapped[ii])
        snapped = np.clip(snapped, lb, ub)
        if not search.rows_ok(snapped):
            if ii.size == n:
                return
            lb2, ub2 = lb.copy(), ub.copy()
            lb2[ii] = snapped[ii]
            ub2[ii] = snapped[ii]
            try:
                res = search.lp(lb2, ub2)
            except SimplexBreakdown:
                return
            if res.status is not LpStatus.OPTIMAL or not search.rows_ok(res.point):
                return
            snapped = res.point
            snapped[ii] = np.round(snapped[ii])
        obj = float(form.c @ snapped)
        if incumbent_obj is None or obj < incumbent_obj - 1e-12:
            incumbent_obj = obj
            x_inc = snapped

    # ---- root ----
    root_lb = form.lb.copy()
    root_ub = form.ub.copy()
    try:
        res = search.lp(root_lb, root_ub)
        search.nodes += 1
        if res.status is LpStatus.INFEASIBLE:
            return finish(SolveStatus.INFEASIBLE, math.inf)
        if res.status is LpStatus.UNBOUNDED:
            return finish(SolveStatus.ERROR, -math.inf)

        max_rounds = max(opts.gomory_rounds, _COVER_ROUNDS if opts.cover_cuts else 0)
        for rnd in range(max_rounds):
            if search.fractional(res.point).size == 0 or clock() >= deadline:
                break
            cuts: list[tuple[np.ndarray, float]] = []
            if rnd < opts.gomory_rounds:
                cuts.extend(gomory_cuts(search.splx, form.is_int))
            if opts.cover_cuts:
                rows = search.form
                cuts.extend(cover_cuts(rows.A, rows.rlo, rows.rup, root_lb, root_ub, form.is_int, res.point))
            if not cuts:
                break
            res = search.lp(root_lb, root_ub, search.add_cut_rows(cuts, res.warm))
            if res.status is LpStatus.INFEASIBLE:
                return finish(SolveStatus.INFEASIBLE, math.inf)
            if res.status is LpStatus.UNBOUNDED:
                return finish(SolveStatus.ERROR, -math.inf)
    except SimplexBreakdown:
        return finish(SolveStatus.ERROR, -math.inf)

    # the dive and completion LPs reuse search.splx: keep the root's basis for the tree
    root_obj, root_x, root_warm = res.objective, res.point, res.warm
    root_cand = search.fractional(root_x)

    if opts.diving and root_cand.size:
        lbd, ubd = root_lb.copy(), root_ub.copy()
        xd, warm = root_x, root_warm
        for _ in range(2 * max(1, search.int_idx.size)):
            if clock() >= deadline:
                break
            cand = search.fractional(xd)
            if cand.size == 0:
                accept_candidate(xd, lbd, ubd)
                break
            frac = xd[cand] - np.floor(xd[cand])
            j = int(cand[int(np.argmin(np.minimum(frac, 1.0 - frac)))])
            val = min(max(float(np.round(xd[j])), lbd[j]), ubd[j])
            lbd[j] = ubd[j] = val
            try:
                dive = search.lp(lbd, ubd, warm)
            except SimplexBreakdown:
                break
            if dive.status is not LpStatus.OPTIMAL:
                break
            xd, warm = dive.point, dive.warm

    # ---- tree ----
    # one heap of open nodes keyed by the node strategy; the depth-first key
    # (deepest first, then the down child, whose id is lower) pops them in
    # the order of a stack
    open_nodes: list[tuple[tuple, _Node]] = []
    next_id = 1
    best_first = opts.node_strategy is NodeStrategy.BEST_BOUND

    def push(node: _Node) -> None:
        key = (node.bound_est, -node.depth, node.node_id) if best_first else (-node.depth, node.node_id)
        heapq.heappush(open_nodes, (key, node))

    def open_bound() -> float:
        if best_first:  # the least key holds the least bound
            return open_nodes[0][1].bound_est if open_nodes else math.inf
        return min((node.bound_est for _, node in open_nodes), default=math.inf)

    def prune_eps() -> float:
        return 1e-9 * max(1.0, abs(incumbent_obj)) if incumbent_obj is not None else 0.0

    def branch(parent_obj: float, depth: int, lb, ub, x_frac, cand, warm: WarmStart) -> None:
        nonlocal next_id
        j = search.pick_branch_var(x_frac, cand)
        frac = x_frac[j] - math.floor(x_frac[j])
        dn = _Node(parent_obj, depth, next_id, lb.copy(), ub.copy(), j, False, frac, warm)
        dn.ub[j] = math.floor(x_frac[j])
        up = _Node(parent_obj, depth, next_id + 1, lb.copy(), ub.copy(), j, True, frac, warm)
        up.lb[j] = math.ceil(x_frac[j])
        next_id += 2
        push(up)
        push(dn)

    if root_cand.size == 0:
        accept_candidate(root_x, root_lb, root_ub)
        if incumbent_obj is None:  # integral point rejected by the row check
            return finish(SolveStatus.ERROR, root_obj)
        return finish(SolveStatus.OPTIMAL, root_obj)
    branch(root_obj, 1, root_lb, root_ub, root_x, root_cand, root_warm)

    limit_status: Optional[SolveStatus] = None
    while open_nodes:
        if clock() >= deadline:
            limit_status = SolveStatus.TIME_LIMIT
            break
        if incumbent_obj is not None:
            bound_now = min(open_bound(), incumbent_obj)
            if compute_gap(incumbent_obj, bound_now) <= opts.rel_gap:
                break

        node = heapq.heappop(open_nodes)[1]
        if incumbent_obj is not None and node.bound_est >= incumbent_obj - prune_eps():
            continue

        try:
            res = search.lp(node.lb, node.ub, node.warm)
        except SimplexBreakdown:
            limit_status = SolveStatus.ERROR
            break
        search.nodes += 1
        if res.status is LpStatus.INFEASIBLE:
            continue
        if res.status is LpStatus.UNBOUNDED:
            limit_status = SolveStatus.ERROR
            break
        obj, x = res.objective, res.point
        search.observe_pseudocost(node, obj)
        if incumbent_obj is not None and obj >= incumbent_obj - prune_eps():
            continue
        cand = search.fractional(x)
        if cand.size == 0:
            accept_candidate(x, node.lb, node.ub)
            continue
        branch(obj, node.depth + 1, node.lb, node.ub, x, cand, res.warm)

    if limit_status is not None:
        bound = open_bound()
        if limit_status is SolveStatus.ERROR and incumbent_obj is None and not math.isfinite(bound):
            bound = -math.inf
        return finish(limit_status, bound)

    if incumbent_obj is None:
        return finish(SolveStatus.INFEASIBLE, math.inf)
    return finish(SolveStatus.OPTIMAL, open_bound())
