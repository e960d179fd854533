"""Independent certificate checking for claimed solutions.

Feasibility is recomputed from raw instance data, never trusted from the
solver; objective values are re-evaluated the same way.  Violations are
normalized by max(1, |reference magnitude|) so one tolerance per category
covers badly scaled rows.  Incumbent claims are adjudicated against a
best-known registry with a strict relative tolerance.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Optional, Union

from .instance import Instance
from .runner import RunLog
from .solution_io import read_solution
from .solver import Solution

DEFAULT_ROW_TOL = 1e-6
DEFAULT_BOUND_TOL = 1e-6
DEFAULT_INT_TOL = 1e-6
STRICT_TOL = 1e-9  # relative to the previous best


@dataclass(frozen=True)
class FeasibilityReport:
    max_row_violation: float
    max_bound_violation: float
    max_integrality_violation: float
    objective_recomputed: float
    feasible: bool


class Verdict(Enum):
    BETTER = "better"
    TIED = "tied"
    WORSE = "worse"
    INFEASIBLE = "infeasible"
    UNVERIFIABLE = "unverifiable"
    SKIPPED = "skipped"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class RegistryEntry:
    objective: float
    sense: str  # "min" or "max"
    source: str = ""


@dataclass(frozen=True)
class BestKnownRegistry:
    entries: dict[str, RegistryEntry]

    def get(self, name: str) -> Optional[RegistryEntry]:
        return self.entries.get(name)


def load_registry(path: Union[str, Path, None] = None) -> BestKnownRegistry:
    """Load a registry JSON map from ``path``; None loads the shipped
    best-known fixture."""
    if path is None:
        text = resources.files("milpbench").joinpath("data/best_known.json").read_text()
    else:
        text = Path(path).read_text()
    doc = json.loads(text)
    entries = {}
    for name, raw in doc.items():
        sense = raw.get("sense", "min")
        if sense not in ("min", "max"):
            raise ValueError(f"registry entry {name!r}: sense must be 'min' or 'max'")
        entries[name] = RegistryEntry(float(raw["objective"]), sense, raw.get("source", ""))
    return BestKnownRegistry(entries)


def check_feasibility(
    inst: Instance,
    sol: Solution,
    row_tol: float = DEFAULT_ROW_TOL,
    bound_tol: float = DEFAULT_BOUND_TOL,
    int_tol: float = DEFAULT_INT_TOL,
) -> FeasibilityReport:
    """Exact violation accounting; missing variable values default to 0."""
    x = []
    missing = []
    for v in inst.variables:
        if v.name in sol.values:
            x.append(float(sol.values[v.name]))
        else:
            x.append(0.0)
            missing.append(v.name)
    if missing:
        warnings.warn(f"solution is missing {len(missing)} variable value(s); defaulting to 0")

    max_bound = 0.0
    max_int = 0.0
    for j, v in enumerate(inst.variables):
        scale = max(1.0, abs(v.lower) if v.lower > -float("inf") else 1.0)
        if x[j] < v.lower:
            max_bound = max(max_bound, (v.lower - x[j]) / scale)
        scale = max(1.0, abs(v.upper) if v.upper < float("inf") else 1.0)
        if x[j] > v.upper:
            max_bound = max(max_bound, (x[j] - v.upper) / scale)
        if v.is_integral:
            max_int = max(max_int, abs(x[j] - round(x[j])))

    max_row = 0.0
    for row in inst.rows:
        act = sum(c * x[j] for j, c in row.coefficients)
        lo, hi = row.interval()
        if act > hi:
            max_row = max(max_row, (act - hi) / max(1.0, abs(hi)))
        if act < lo:
            max_row = max(max_row, (lo - act) / max(1.0, abs(lo)))

    objective = inst.objective_value(x)
    feasible = max_row <= row_tol and max_bound <= bound_tol and max_int <= int_tol
    return FeasibilityReport(
        max_row_violation=max_row,
        max_bound_violation=max_bound,
        max_integrality_violation=max_int,
        objective_recomputed=objective,
        feasible=feasible,
    )


def compare_incumbent(new_obj: float, registry_entry: RegistryEntry) -> Verdict:
    """Strictly-better test with a relative tolerance on the previous best."""
    prev = registry_entry.objective
    threshold = STRICT_TOL * max(1.0, abs(prev))
    if abs(new_obj - prev) <= threshold:
        return Verdict.TIED
    if registry_entry.sense == "min":
        return Verdict.BETTER if new_obj < prev - threshold else Verdict.WORSE
    return Verdict.BETTER if new_obj > prev + threshold else Verdict.WORSE


@dataclass(frozen=True)
class AuditEntry:
    instance: str
    verdict: Verdict
    report: Optional[FeasibilityReport]
    note: str = ""


def judge_claim(name: str, inst: Instance, sol: Solution, registry: BestKnownRegistry) -> AuditEntry:
    """The verdict on one claimed solution: the feasibility gate first, then
    the registry entry under ``name`` (none gives "unknown")."""
    report = check_feasibility(inst, sol)
    if not report.feasible:
        return AuditEntry(name, Verdict.INFEASIBLE, report, "feasibility gate failed")
    entry = registry.get(name)
    if entry is None:
        return AuditEntry(name, Verdict.UNKNOWN, report, "no registry entry")
    return AuditEntry(name, compare_incumbent(report.objective_recomputed, entry), report)


def audit_log_incumbents(
    log: RunLog,
    instances: dict[str, Union[str, Path]],
    registry: BestKnownRegistry,
) -> list[AuditEntry]:
    """Re-check every logged solution and classify it against the registry.

    Records without solutions are skipped with a note; unreadable files or
    missing instance paths yield "unverifiable" instead of aborting.
    """
    from .mps import MpsParseError, load_instance

    out: list[AuditEntry] = []
    for record in log.records:
        name = record.instance_name
        if not record.solution_path:
            out.append(AuditEntry(name, Verdict.SKIPPED, None, "record carries no solution"))
            continue
        inst_path = instances.get(name)
        if inst_path is None:
            out.append(AuditEntry(name, Verdict.UNVERIFIABLE, None, "no instance path supplied"))
            continue
        try:
            inst = load_instance(inst_path)
            values, file_obj = read_solution(record.solution_path)
        except (OSError, ValueError, MpsParseError) as exc:
            out.append(AuditEntry(name, Verdict.UNVERIFIABLE, None, f"unreadable: {exc}"))
            continue
        claim = Solution(values, file_obj if file_obj is not None else 0.0)
        out.append(judge_claim(name, inst, claim, registry))
    return out
