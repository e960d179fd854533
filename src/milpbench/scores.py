"""Benchmark metrics: shifted geometric means, scaled ratios, solved counts,
and the baseline-vs-adapted distribution series.

The shifted geometric mean of nonnegative times v with shift s is
exp(sum(ln(max(1, v_i + s))) / n) - s, computed in log space.  Timeout and
error runs enter the timing vector at the full dataset time limit.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .runner import PROTOCOL_SHIFT, DatasetSpec, ObjectiveKind, RunLog, RunRecord, RunStatus

_AT_LIMIT = (RunStatus.TIME_LIMIT, RunStatus.ERROR)


@dataclass(frozen=True)
class BenchmarkSummary:
    solver_label: str
    unscal: float
    scaled: Optional[float]
    solved: int
    n_instances: int


@dataclass(frozen=True)
class DistributionSeries:
    points: tuple[tuple[int, float, float], ...]  # (rank, baseline_s, adapted_s)


def shifted_geomean(times: Sequence[float], shift: float = PROTOCOL_SHIFT) -> float:
    if len(times) == 0:
        raise ValueError("shifted_geomean needs at least one value")
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    acc = 0.0
    for v in times:
        acc += math.log(max(1.0, v + shift))
    return math.exp(acc / len(times)) - shift


def scale(unscal_values: dict[str, float], reference_label: str) -> dict[str, float]:
    """Divide every unscaled mean by the reference solver's mean."""
    if reference_label not in unscal_values:
        raise ValueError(f"reference {reference_label!r} missing from values")
    ref = unscal_values[reference_label]
    if ref <= 0:
        raise ValueError(f"reference {reference_label!r} has nonpositive mean {ref}")
    return {label: v / ref for label, v in unscal_values.items()}


def _scored_time(rec: RunRecord, limit_s: float) -> float:
    """A timeout or error counts at the limit; any other run at its wall
    time, capped at 1.05x the limit."""
    return limit_s if rec.status in _AT_LIMIT else min(rec.wall_time_s, limit_s * 1.05)


def _check_complete(log: RunLog, ds: DatasetSpec) -> None:
    if len(log.records) < len(ds.instance_paths):
        have = {r.instance_path for r in log.records}
        missing = [p for p in ds.instance_paths if p not in have]
        raise ValueError(
            f"log incomplete: {len(log.records)} records for {len(ds.instance_paths)} instances;"
            f" missing instances: {', '.join(missing)}"
        )


def summarize(log: RunLog, ds: DatasetSpec, shift: float = PROTOCOL_SHIFT) -> BenchmarkSummary:
    """Solved (or detected) count plus the unscaled shifted geometric mean."""
    _check_complete(log, ds)
    if ds.objective_kind is ObjectiveKind.DETECT_INFEASIBLE:
        solved = sum(1 for r in log.records if r.status is RunStatus.INFEASIBLE)
    else:
        solved = sum(1 for r in log.records if r.status is RunStatus.OPTIMAL)
    unscal = shifted_geomean([_scored_time(r, ds.time_limit_s) for r in log.records], shift)
    return BenchmarkSummary(
        solver_label=log.solver_label,
        unscal=unscal,
        scaled=None,
        solved=solved,
        n_instances=len(ds.instance_paths),
    )


def distribution(series_baseline: RunLog, series_adapted: RunLog) -> DistributionSeries:
    """Per-instance times ranked by ascending baseline time.

    Timeouts and errors count as the dataset limit and sort to the end;
    ties break by instance name.
    """
    base = series_baseline.by_instance()
    adapt = series_adapted.by_instance()
    if set(base) != set(adapt):
        only_b = sorted(set(base) - set(adapt))
        only_a = sorted(set(adapt) - set(base))
        raise ValueError(f"instance sets differ (baseline-only {only_b}, adapted-only {only_a})")
    limit_b = series_baseline.dataset.time_limit_s
    limit_a = series_adapted.dataset.time_limit_s
    keyed = []
    for name, rec in base.items():
        t_b = _scored_time(rec, limit_b)
        keyed.append(((rec.status in _AT_LIMIT, t_b, name), t_b, _scored_time(adapt[name], limit_a)))
    keyed.sort(key=lambda k: k[0])
    points = tuple((rank, t_b, t_a) for rank, (_, t_b, t_a) in enumerate(keyed, start=1))
    return DistributionSeries(points)


def attach_scaled(
    summaries: Iterable[BenchmarkSummary], reference_label: str
) -> list[BenchmarkSummary]:
    """Return summaries with their scaled column filled against a reference."""
    summaries = list(summaries)
    scaled = scale({s.solver_label: s.unscal for s in summaries}, reference_label)
    return [
        BenchmarkSummary(s.solver_label, s.unscal, scaled[s.solver_label], s.solved, s.n_instances)
        for s in summaries
    ]


def write_summary_csv(summaries: Sequence[BenchmarkSummary], path: Union[str, Path]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["solver", "unscal", "scaled", "solved", "n"])
        for s in summaries:
            writer.writerow(
                [
                    s.solver_label,
                    repr(s.unscal),
                    "" if s.scaled is None else repr(s.scaled),
                    s.solved,
                    s.n_instances,
                ]
            )
    return path


def write_summary_json(summaries: Sequence[BenchmarkSummary], path: Union[str, Path]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = [
        {
            "solver": s.solver_label,
            "unscal": s.unscal,
            "scaled": s.scaled,
            "solved": s.solved,
            "n": s.n_instances,
        }
        for s in summaries
    ]
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path
