"""Option set for the reference solver.

Mirrors the supported subset of the benchmark configuration space; anything
the reference solver cannot honor is carried in ``ignored`` for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class NodeStrategy(Enum):
    BEST_BOUND = "best_bound"
    DEPTH_FIRST = "depth_first"


class BranchRule(Enum):
    MOST_FRACTIONAL = "most_fractional"
    PSEUDOCOST = "pseudocost"


@dataclass(frozen=True)
class ReferenceSolverOptions:
    node_strategy: NodeStrategy = NodeStrategy.BEST_BOUND
    branch_rule: BranchRule = BranchRule.MOST_FRACTIONAL
    gomory_rounds: int = 0
    cover_cuts: bool = False
    presolve_bound_tighten: bool = False
    presolve_coeff_reduce: bool = False
    diving: bool = False
    rel_gap: float = 0.0
    time_limit_s: float = 3600.0
    ignored: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.rel_gap < 0:
            raise ValueError("rel_gap must be nonnegative")
        if self.time_limit_s <= 0:
            raise ValueError("time_limit_s must be positive")
        if self.gomory_rounds < 0:
            raise ValueError("gomory_rounds must be nonnegative")
