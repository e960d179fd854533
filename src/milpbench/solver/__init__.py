"""Deterministic reference MILP solver: a bounded-variable dual simplex
(phase 1 on a boxed auxiliary problem, then phase 2) plus branch-and-bound
with presolve, root cuts, and a diving heuristic."""

from .options import BranchRule, NodeStrategy, ReferenceSolverOptions
from .simplex import LpResult, LpStatus, SimplexBreakdown, solve_lp
from .presolve import PresolveResult, presolve
from .bnb import Solution, SolveOutcome, SolveStatus, branch_and_bound, compute_gap

__all__ = [
    "BranchRule",
    "NodeStrategy",
    "ReferenceSolverOptions",
    "LpResult",
    "LpStatus",
    "SimplexBreakdown",
    "solve_lp",
    "PresolveResult",
    "presolve",
    "Solution",
    "SolveOutcome",
    "SolveStatus",
    "branch_and_bound",
    "compute_gap",
]
