"""Outside-in spans around the public functions the runner and solver call.

The program carries no telemetry of its own, so the traced run patches the
module attributes through which the runner, the CLI, validation and the
branch-and-bound search reach each layer, records one span per call in memory,
and restores every attribute afterwards.  A layer's self time is its spans'
duration minus the part covered by their child spans.

LP solves are classified by order inside each ``branch_and_bound`` call: the
first solve is the root LP, a solve right after a cut separation that returned
rows is a cut LP, and every other solve (dive, completion, nodes) is tree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from milpbench import cli, mps, runner, validate
from milpbench.solver import bnb, simplex

# (owner, attribute, span name): every call site through which a layer is reached
_TARGETS = (
    (runner, "run_suite", "runner"),
    (runner, "resume_suite", "runner.resume"),
    (runner, "run_job", "runner"),
    (runner, "write_solution", "runner.solution_write"),
    (runner, "write_status", "runner.solution_write"),
    (runner, "read_log", "runner.read_log"),
    (cli, "read_log", "runner.read_log"),
    (runner, "load_instance", "mps"),
    (mps, "load_instance", "mps"),
    (cli, "load_instance", "mps"),
    (runner, "extract_features", "instance"),
    (runner, "adapt", "config"),
    (runner, "branch_and_bound", "bnb"),
    (bnb, "presolve", "presolve"),
    (bnb, "to_standard_form", "standard_form"),
    (simplex.BoundedSimplex, "solve", "simplex"),
    (bnb, "gomory_cuts", "cuts.gomory"),
    (bnb, "cover_cuts", "cuts.cover"),
    (cli, "summarize", "scores"),
    (cli, "cli_dispatch", "report"),
    (validate, "audit_log_incumbents", "validate"),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    data: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Install with ``with Tracer() as t:``; spans accumulate in ``t.spans``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._lp_seen = True
        self._cut_rows: Optional[int] = None

    def __enter__(self) -> "Tracer":
        for owner, attr, name in _TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except simplex.SimplexBreakdown:
                span.data["breakdown"] = 1
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            self._observe(span, result)
            return result

        return traced

    def _open(self, name: str) -> Span:
        span = Span(name, 0.0, self._stack[-1] if self._stack else -1)
        if name == "bnb":
            self._lp_seen, self._cut_rows = False, None
        elif name == "simplex":
            if not self._lp_seen:
                span.data["kind"] = "root"
            else:
                span.data["kind"] = "cut_lp" if self._cut_rows else "tree"
            self._lp_seen, self._cut_rows = True, None
        elif name.startswith("cuts."):
            if self._cut_rows is None:
                span.data["round"] = 1
                self._cut_rows = 0
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _observe(self, span: Span, result: Any) -> None:
        if span.name == "simplex":
            span.data["iters"] = result.iterations
        elif span.name.startswith("cuts."):
            span.data["rows"] = len(result)
            self._cut_rows += len(result)
        elif span.name == "presolve":
            span.data["passes"] = result.passes
            span.data["rows_dropped"] = len(result.back_map.dropped_rows)
        elif span.name == "bnb":
            span.data["nodes"] = result.nodes
        elif span.name == "runner" and isinstance(result, runner.RunRecord):
            span.data["job"] = 1
        elif span.name == "validate":
            span.data["checked"] = sum(1 for entry in result if entry.report is not None)


_UNIT_EXCEPTIONS = {
    "simplex.us_per_iter": "us",
    "bnb.nodes_per_s": "1/s",
    "runner.log_bytes": "B",
    "mps.parse_calls_per_job": "ratio",
    "simplex.iters_per_solve": "ratio",
    "trace.overhead_share": "ratio",
}


def unit(metric: str) -> str:
    if metric in _UNIT_EXCEPTIONS:
        return _UNIT_EXCEPTIONS[metric]
    return "s" if metric.endswith(("_s", ".s")) else "count"


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counts of one traced pass; times in seconds."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration

    def total(name: str, kind: Optional[str] = None) -> float:
        return sum(s.duration for s in spans if s.name == name and (kind is None or s.data.get("kind") == kind))

    def own(name: str) -> float:
        return sum(s.duration - child_time[k] for k, s in enumerate(spans) if s.name == name)

    def count(name: str, key: Optional[str] = None, kind: Optional[str] = None) -> int:
        return sum(
            (s.data.get(key, 0) if key else 1)
            for s in spans
            if s.name == name and (kind is None or s.data.get("kind") == kind)
        )

    jobs = count("runner", "job")
    parse_calls = count("mps")
    solves = count("simplex")
    iters = count("simplex", "iters")
    simplex_s = total("simplex")
    bnb_s = total("bnb")
    nodes = count("bnb", "nodes")
    m = {
        "mps.parse_s": total("mps"),
        "mps.parse_calls": parse_calls,
        "mps.parse_calls_per_job": parse_calls / jobs if jobs else 0.0,
        "instance.features_s": total("instance"),
        "config.adapt_s": total("config"),
        "presolve.s": total("presolve"),
        "presolve.passes": count("presolve", "passes"),
        "presolve.rows_dropped": count("presolve", "rows_dropped"),
        "standard_form.s": total("standard_form"),
        "simplex.solves": solves,
        "simplex.iters": iters,
        "simplex.s": simplex_s,
        "simplex.us_per_iter": 1e6 * simplex_s / iters if iters else 0.0,
        "simplex.iters_per_solve": iters / solves if solves else 0.0,
        "simplex.breakdowns": count("simplex", "breakdown"),
    }
    for kind in ("root", "cut_lp", "tree"):
        m[f"simplex.{kind}_s"] = total("simplex", kind)
        m[f"simplex.{kind}_iters"] = count("simplex", "iters", kind)
    m.update({
        "cuts.rounds": count("cuts.gomory", "round") + count("cuts.cover", "round"),
        "cuts.gomory_s": total("cuts.gomory"),
        "cuts.gomory_rows": count("cuts.gomory", "rows"),
        "cuts.cover_s": total("cuts.cover"),
        "cuts.cover_rows": count("cuts.cover", "rows"),
        "bnb.s": bnb_s,
        "bnb.self_s": own("bnb"),
        "bnb.nodes_per_s": nodes / bnb_s if bnb_s else 0.0,
        "runner.self_s": own("runner") + own("runner.resume"),
        "runner.solution_write_s": total("runner.solution_write"),
        "runner.read_log_s": total("runner.read_log"),
        "runner.resume_s": total("runner.resume"),
        "validate.audit_s": total("validate"),
        "validate.checked": count("validate", "checked"),
        "scores.summarize_s": total("scores"),
        "report.s": own("report"),
    })
    return m


def inside_bnb_s(spans: list[Span]) -> float:
    """Time of the layer spans nested directly in branch_and_bound calls."""
    return sum(s.duration for s in spans if s.parent >= 0 and spans[s.parent].name == "bnb")
