"""Benchmark orchestration: timed jobs, suites, crash-safe logs, resume.

Run logs are JSON lines: a header carrying the dataset and protocol, then
one record per executed job.  The file is append-only; when an instance is
re-run (error retry) the newer line supersedes the older one at load time,
so a log always yields at most one record per (instance, solver) pair.
"""

from __future__ import annotations

import functools
import json
import math
import os
import shlex
import subprocess
import tempfile
import time
import platform
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Callable, Optional, Union

from .config import ConfigStore, Configuration, adapt, configuration_to_json, map_to_reference
from .instance import Instance, extract_features
from .mps import MpsParseError, instance_stem, load_instance
from .solution_io import read_solution, read_status, write_solution, write_status
from .solver import SolveOutcome, SolveStatus, branch_and_bound

PathLike = Union[str, Path]

PROTOCOL_SHIFT = 10.0
PROTOCOL_GAP_TOLERANCE = 0.0

DATASET_LIMITS = {"miplib240": 7200.0, "pathological45": 10800.0, "infeasibility32": 3600.0}
_ALLOWED_NAMED_LIMITS = (7200.0, 3600.0, 10800.0)

_PLACEHOLDERS = ("{instance}", "{config}", "{timelimit}", "{solution}")


class DatasetMismatch(ValueError):
    """Resume was handed a log whose dataset differs from the requested one."""


class ObjectiveKind(Enum):
    OPTIMIZE = "optimize"
    DETECT_INFEASIBLE = "detect_infeasible"


# a run record carries the solver's own status; an external solver reports
# one of the same four values
RunStatus = SolveStatus


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    instance_paths: tuple[str, ...]
    time_limit_s: float
    objective_kind: ObjectiveKind = ObjectiveKind.OPTIMIZE

    def __post_init__(self):
        if self.time_limit_s <= 0:
            raise ValueError("time_limit_s must be positive")
        if self.name in DATASET_LIMITS and self.time_limit_s not in _ALLOWED_NAMED_LIMITS:
            raise ValueError(
                f"dataset {self.name!r} must use a time limit from {_ALLOWED_NAMED_LIMITS}"
            )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "instance_paths": list(self.instance_paths),
            "time_limit_s": self.time_limit_s,
            "objective_kind": self.objective_kind.value,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetSpec":
        return cls(
            name=d["name"],
            instance_paths=tuple(d["instance_paths"]),
            time_limit_s=float(d["time_limit_s"]),
            objective_kind=ObjectiveKind(d.get("objective_kind", "optimize")),
        )


def load_dataset(path: PathLike) -> DatasetSpec:
    """Dataset file: JSON with name, instances, optional limit and kind;
    relative instance paths resolve against the file's directory."""
    doc = json.loads(Path(path).read_text())
    base = Path(path).parent
    name = doc.get("name", "custom")
    paths = tuple(str(base / p) if not Path(p).is_absolute() else p for p in doc["instances"])
    limit = float(doc.get("time_limit_s", DATASET_LIMITS.get(name, 60.0)))
    kind = ObjectiveKind(doc.get("objective_kind", "optimize"))
    return DatasetSpec(name, paths, limit, kind)


class BackendKind(Enum):
    BUILTIN = "builtin"
    EXTERNAL = "external"


@dataclass(frozen=True)
class BackendSpec:
    kind: BackendKind = BackendKind.BUILTIN
    command_template: str = ""
    solution_path_template: str = ""

    def __post_init__(self):
        if self.kind is BackendKind.EXTERNAL:
            missing = [p for p in _PLACEHOLDERS if p not in self.command_template]
            if missing:
                raise ValueError(f"external command template lacks placeholders: {missing}")


@dataclass
class RunRecord:
    instance_name: str
    solver_label: str
    config_label: str
    status: RunStatus
    wall_time_s: float
    objective: Optional[float] = None
    best_bound: Optional[float] = None
    solution_path: Optional[str] = None
    started_at: str = ""
    host_descriptor: str = ""
    nodes: Optional[int] = None
    ticks: Optional[int] = None
    diagnostics: str = ""
    instance_path: Optional[str] = None  # the dataset path of the job; None in older logs

    def to_dict(self) -> dict:
        # every field is a str, a number, None or the status, so a shallow copy
        # in field order stands in for ``asdict``'s recursive deep copy
        return dict(vars(self), status=self.status.value, kind="record")

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        d = dict(d)
        d.pop("kind", None)
        d["status"] = RunStatus(d["status"])
        return cls(**d)


@dataclass
class RunLog:
    dataset: DatasetSpec
    solver_label: str
    adapt_enabled: bool
    records: list[RunRecord] = field(default_factory=list)
    protocol: dict = field(
        default_factory=lambda: {
            "gap_tolerance": PROTOCOL_GAP_TOLERANCE,
            "shift": PROTOCOL_SHIFT,
        }
    )

    def by_instance(self) -> dict[str, RunRecord]:
        return {r.instance_name: r for r in self.records}


class _LogWriter:
    """JSONL writer, one flush per record keeps crashes cheap.  A fresh run
    (``append=False``) starts the file over; a resume appends to it."""

    def __init__(self, path: Optional[PathLike], log: RunLog, append: bool = False):
        self.handle = None
        if path is None:
            return
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        exists = path.exists() and path.stat().st_size > 0
        if exists and append:
            with open(path, "rb+") as fh:  # heal a torn tail before appending
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
        self.handle = open(path, "a" if append else "w")
        if not (append and exists):
            header = {
                "kind": "header",
                "dataset": log.dataset.to_dict(),
                "protocol": dict(log.protocol, time_limit_s=log.dataset.time_limit_s),
                "solver_label": log.solver_label,
                "adapt_enabled": log.adapt_enabled,
            }
            self.handle.write(json.dumps(header) + "\n")
            self.handle.flush()

    def write(self, record: RunRecord) -> None:
        if self.handle is None:
            return
        self.handle.write(json.dumps(record.to_dict()) + "\n")
        self.handle.flush()

    def close(self) -> None:
        if self.handle is not None:
            self.handle.close()
            self.handle = None


def read_log(path: PathLike) -> RunLog:
    """Load a run log; a torn trailing line (crash) is ignored, and a later
    record of an (instance, solver) pair replaces the earlier one in its place."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"empty run log: {path}")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt run-log header: {exc}") from None
    if header.get("kind") != "header":
        raise ValueError("run log does not start with a header line")
    log = RunLog(
        dataset=DatasetSpec.from_dict(header["dataset"]),
        solver_label=header.get("solver_label", "builtin"),
        adapt_enabled=bool(header.get("adapt_enabled", False)),
        protocol=header.get("protocol", {}),
    )
    merged: dict[tuple[str, str], RunRecord] = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn line after a crash; completed records stand
        if doc.get("kind") == "record":
            record = RunRecord.from_dict(doc)
            merged[record.instance_name, record.solver_label] = record
    log.records = list(merged.values())
    return log


def grace_seconds(limit_s: float) -> float:
    """Teardown allowance before a forced kill: 5% of the limit or 30s."""
    return max(0.05 * limit_s, 30.0)


def _host() -> str:
    return f"{platform.node()}/{platform.machine()}"


def _expand(template: str, **subs: str) -> str:
    out = template
    for key, val in subs.items():
        out = out.replace("{" + key + "}", val)
    return out


def run_job(
    inst_path: PathLike,
    backend: BackendSpec,
    cfg: Configuration,
    limit_s: float,
    solver_label: str = "builtin",
    work_dir: Optional[PathLike] = None,
    inst: Optional[Instance] = None,
) -> RunRecord:
    """Execute one timed solve; never raises for solver-side failures.

    ``inst`` is ``inst_path`` already parsed by the caller; without it the
    path is parsed here.  Wall time is measured with a monotonic clock around
    the solve only: parsing happens before the clock starts.
    """
    if inst is None:
        try:
            inst = load_instance(inst_path)
        except (OSError, MpsParseError) as exc:
            return _unreadable(inst_path, solver_label, cfg.label, exc)
    record = _builder(inst.name, inst_path, solver_label, cfg.label)
    if backend.kind is BackendKind.BUILTIN:
        return _run_builtin(inst, backend, cfg, limit_s, record, work_dir)
    return _run_external(inst, inst_path, backend, cfg, limit_s, record, work_dir)


def _builder(name: str, path: PathLike, solver_label: str, config_label: str) -> Callable[..., RunRecord]:
    """``RunRecord`` with the fields shared by every record of one job filled in."""
    started = datetime.now(timezone.utc).isoformat()
    return functools.partial(
        RunRecord, name, solver_label, config_label, started_at=started, host_descriptor=_host(),
        instance_path=str(path),
    )


def _unreadable(path: PathLike, solver_label: str, config_label: str, exc: Exception) -> RunRecord:
    record = _builder(instance_stem(path), path, solver_label, config_label)
    return record(RunStatus.ERROR, 0.0, diagnostics=f"parse failure: {exc}")


def _solution_path(backend: BackendSpec, inst: Instance, cfg: Configuration, work_dir) -> Optional[Path]:
    if not backend.solution_path_template:
        return None
    expanded = _expand(backend.solution_path_template, instance=inst.name, config=cfg.label or "default")
    path = Path(expanded)
    if not path.is_absolute() and work_dir is not None:
        path = Path(work_dir) / path
    return path


def _run_builtin(
    inst: Instance,
    backend: BackendSpec,
    cfg: Configuration,
    limit_s: float,
    record: Callable[..., RunRecord],
    work_dir,
) -> RunRecord:
    opts = map_to_reference(cfg, time_limit_s=limit_s)
    t0 = time.perf_counter()
    outcome = branch_and_bound(inst, opts)
    wall = time.perf_counter() - t0

    target = _solution_path(backend, inst, cfg, work_dir)
    sol_path = None if target is None else _write_incumbent(target, outcome)
    return record(
        outcome.status,
        wall,
        objective=outcome.incumbent.objective if outcome.incumbent else None,
        best_bound=outcome.best_bound if math.isfinite(outcome.best_bound) else None,
        solution_path=sol_path,
        nodes=outcome.nodes,
        ticks=outcome.deterministic_ticks,
    )


def _write_incumbent(target: PathLike, outcome: SolveOutcome) -> Optional[str]:
    """Write the incumbent at ``target``, if there is one; a suite job's only
    file, since its run record carries the status.  Returns the solution
    path, or None without an incumbent."""
    if outcome.incumbent is None:
        return None
    write_solution(target, outcome.incumbent.values, outcome.incumbent.objective)
    return str(target)


def write_outcome(target: PathLike, outcome: SolveOutcome) -> Optional[str]:
    """Write the output pair the external contract asks of a child: the
    incumbent at ``target``, if there is one, and the status at
    ``<target>.status``.  Returns the solution path, or None without an incumbent."""
    sol_path = _write_incumbent(target, outcome)
    write_status(target, outcome.status.value)
    return sol_path


def _run_external(
    inst: Instance,
    inst_path: PathLike,
    backend: BackendSpec,
    cfg: Configuration,
    limit_s: float,
    record: Callable[..., RunRecord],
    work_dir,
) -> RunRecord:
    base = Path(work_dir) if work_dir else Path(tempfile.mkdtemp(prefix="milpbench-job-"))
    base.mkdir(parents=True, exist_ok=True)
    cfg_path = base / f"{inst.name}.config.json"
    cfg_path.write_text(configuration_to_json(cfg))
    target = _solution_path(backend, inst, cfg, base) or (base / f"{inst.name}.sol")

    command = _expand(
        backend.command_template,
        instance=str(inst_path),
        config=str(cfg_path),
        timelimit=repr(float(limit_s)),
        solution=str(target),
    )
    killed = False
    t0 = time.perf_counter()
    try:
        proc = subprocess.Popen(
            shlex.split(command), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            _, stderr = proc.communicate(timeout=limit_s + grace_seconds(limit_s))
        except subprocess.TimeoutExpired:
            killed = True
            proc.kill()
            _, stderr = proc.communicate()
    except OSError as exc:
        return record(RunStatus.ERROR, time.perf_counter() - t0, diagnostics=f"launch failure: {exc}")
    wall = time.perf_counter() - t0

    if killed:
        return record(RunStatus.TIME_LIMIT, wall, diagnostics="killed after the grace envelope")
    if proc.returncode != 0:
        diagnostics = f"exit code {proc.returncode}: {stderr.strip()[-500:]}"
        return record(RunStatus.ERROR, wall, diagnostics=diagnostics)

    try:
        status = RunStatus(read_status(target))
    except (OSError, ValueError) as exc:
        return record(RunStatus.ERROR, wall, diagnostics=f"unreadable status file: {exc}")
    objective = None
    sol_path = None
    if target.exists():
        try:
            _, objective = read_solution(target)
            sol_path = str(target)
        except (OSError, ValueError) as exc:
            return record(RunStatus.ERROR, wall, diagnostics=f"unparseable solution file: {exc}")
    return record(status, wall, objective=objective, solution_path=sol_path)


def _job_for_path(args) -> Optional[RunRecord]:
    """Parse one dataset path once and run it; ``None``, unparsed, when it is in ``done``."""
    path, backend, store, adapt_enabled, limit, label, work_dir, done = args
    if path in done:
        return None
    try:
        inst = load_instance(path)
    except (OSError, MpsParseError) as exc:
        return _unreadable(path, label, "", exc)
    if adapt_enabled:
        cfg = adapt(inst.name, extract_features(inst), store)
    else:
        cfg = store.configs[store.default_label]
    return run_job(path, backend, cfg, limit, solver_label=label, work_dir=work_dir, inst=inst)


def _run_paths(
    log: RunLog, writer: _LogWriter, backend, store, work_dir, done=frozenset(), parallel=1
) -> RunLog:
    """Run each dataset path of ``log`` not in ``done`` and write every record,
    then close.  A new record replaces the record of its (instance, solver)
    pair in place, or is appended."""
    ds = log.dataset
    merged = {(r.instance_name, r.solver_label): r for r in log.records}
    jobs = [
        (p, backend, store, log.adapt_enabled, ds.time_limit_s, log.solver_label, work_dir, done)
        for p in ds.instance_paths
    ]
    try:
        with ProcessPoolExecutor(max_workers=parallel) if parallel > 1 else nullcontext() as pool:
            for record in (pool.map if pool else map)(_job_for_path, jobs):
                if record is not None:
                    merged[record.instance_name, record.solver_label] = record
                    writer.write(record)
    finally:
        writer.close()
    log.records = list(merged.values())
    return log


def run_suite(
    ds: DatasetSpec,
    backend: BackendSpec,
    store: ConfigStore,
    adapt_enabled: bool,
    solver_label: Optional[str] = None,
    log_path: Optional[PathLike] = None,
    work_dir: Optional[PathLike] = None,
    parallel: int = 1,
) -> RunLog:
    """Run every dataset instance; the log is written incrementally.

    Jobs run sequentially by default to protect wall-clock fidelity; with
    ``parallel > 1`` jobs run in separate processes and times become
    load-sensitive.
    """
    label = solver_label or f"{backend.kind.value}-{'adapted' if adapt_enabled else 'default'}"
    log = RunLog(dataset=ds, solver_label=label, adapt_enabled=adapt_enabled)
    return _run_paths(log, _LogWriter(log_path, log), backend, store, work_dir, parallel=parallel)


def resume_suite(
    ds: DatasetSpec,
    backend: BackendSpec,
    store: ConfigStore,
    partial: RunLog,
    log_path: Optional[PathLike] = None,
    work_dir: Optional[PathLike] = None,
) -> RunLog:
    """Finish a suite: a path that carries a completed record is kept unparsed;
    error records, and records of older logs without a path, are re-run."""
    old = partial.dataset
    if (old.name, old.instance_paths, old.time_limit_s) != (ds.name, ds.instance_paths, ds.time_limit_s):
        raise DatasetMismatch(f"log dataset {old.name!r} does not match {ds.name!r}")

    done = frozenset(r.instance_path for r in partial.records if r.status is not RunStatus.ERROR)
    log = replace(partial, dataset=ds, records=list(partial.records), protocol=dict(partial.protocol))
    writer = _LogWriter(log_path, log, append=True)
    return _run_paths(log, writer, backend, store, work_dir, done=done)
