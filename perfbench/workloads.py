"""The three workloads: what each generates, and one pass through the public API.

``build`` writes a workload's MPS files, dataset and configuration store from a
seed and loads them back through ``load_dataset`` and ``load_store``; the program
under test sees nothing else.  ``run_pass`` executes one full pass and returns
every job it ran, with the wall time of the program calls only.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from milpbench import cli, runner, validate
from milpbench.config import ConfigStore, load_store
from milpbench.instance import Instance, VarKind
from milpbench.mps import write_mps
from milpbench.runner import BackendKind, BackendSpec, DatasetSpec, RunRecord, load_dataset

import instances as gen

# Far above every solve time here (the slowest takes about a second), so the
# clock decides only a solve that would not end; such a run stops early.
TIME_LIMIT_S = 30.0

_GOMORY = "CPXPARAM_MIP_Cuts_Gomory"
_COVERS = "CPXPARAM_MIP_Cuts_Covers"
_DIVE = "CPXPARAM_MIP_Strategy_Dive"
_VARSEL = "CPXPARAM_MIP_Strategy_VariableSelect"
_NODESEL = "CPXPARAM_MIP_Strategy_NodeSelect"
_BOUNDS = "CPXPARAM_Preprocessing_BoundStrength"
_COEFFS = "CPXPARAM_Preprocessing_CoeffReduce"

@dataclass
class Workload:
    name: str
    dataset: DatasetSpec
    store: ConfigStore
    adapt: bool
    instances: dict[str, Instance]  # the generator's own models, used by the checks
    paths: dict[str, str]
    known_optima: dict[str, float] = field(default_factory=dict)
    registry: Optional[validate.BestKnownRegistry] = None


@dataclass
class Job:
    suite: str
    record: RunRecord


@dataclass
class PassResult:
    segments: list[tuple[float, float]]  # perf_counter() spans of the timed program calls
    jobs: list[Job]
    problems: list[str] = field(default_factory=list)
    log_bytes: int = 0

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.segments)


def _rng(seed: int, family: int) -> np.random.Generator:
    return np.random.default_rng([seed, family])


def _tree(seed: int, scale: float):
    """Node LPs dominate: presolve and cuts are off, trees are hundreds of nodes deep or wide."""
    models, optima = [], {}
    jitter = _rng(seed, 0)
    for k, base in enumerate((80, 90, 100, 110, 120)[: max(1, round(5 * scale))]):
        inst, opt = gen.chain(f"chain{k}", int(base + jitter.integers(-2, 3)))
        models.append(inst)
        optima[inst.name] = opt
    rng = _rng(seed, 1)
    models += [gen.knapsack(rng, f"knap{k:03d}", 25, 8) for k in range(max(1, round(80 * scale)))]
    rng = _rng(seed, 2)
    models += [gen.market_split(rng, f"msplit{k:02d}", 12, 2) for k in range(max(1, round(16 * scale)))]
    store = {
        "configs": {
            "best_bound": {_NODESEL: 1},
            "depth_first": {_NODESEL: 0},
            "pseudocost_dive": {_VARSEL: 2, _DIVE: 1},
        },
        "rules": [
            {"when": [{"field": "n_eq_rows", "op": ">=", "value": 1}], "config": "best_bound", "priority": 20},
            {"when": [{"field": "n_rows", "op": "<=", "value": 1}], "config": "depth_first", "priority": 10},
        ],
        "default": "pseudocost_dive",
    }
    return models, optima, store, True, 0


def _root(seed: int, scale: float):
    """Presolve, the root LP and cut rounds dominate: few large LPs, trees of a few nodes.

    The knapsacks have equal weights: with these options random-weight
    knapsacks swing from one node to thousands, so they would decide this
    workload's node count, while equal weights need one cut round and no tree.
    """
    models, optima = [], {}
    rngs = [_rng(seed, f) for f in range(4)]
    for k in range(max(1, round(6 * scale))):
        models.append(gen.interval_cover(rngs[0], f"cover{k}", 120, 360))
        for inst, opt in (gen.chain(f"chain{k}", int(300 + 20 * k + rngs[1].integers(-5, 6))),
                          gen.equal_weight_knapsack(rngs[3], f"knap{k}", 100 + 20 * k)):
            models.append(inst)
            optima[inst.name] = opt
    models += [gen.facility_location(rngs[2], f"facility{k}", 6, 15) for k in range(max(1, round(4 * scale)))]
    root = {_BOUNDS: 1, _COEFFS: 1, _GOMORY: 3, _COVERS: 1, _DIVE: 1}
    store = {"configs": {"root": root}, "default": "root"}
    return models, optima, store, False, 0


def _protocol(seed: int, scale: float):
    """Hundreds of tiny instances: parsing, configuration, logs, resume, audit and report."""
    models = []
    rngs = [_rng(seed, f) for f in range(3)]
    shape = _rng(0, 3)  # sizes and variable kinds are the same for every seed
    kinds = (VarKind.BINARY, VarKind.INTEGER, VarKind.CONTINUOUS)
    for k in range(max(1, round(200 * scale))):
        models.append(gen.tiny_binary(rngs[0], f"bin{k:03d}", int(shape.integers(3, 11)), int(shape.integers(1, 6))))
        if k < 160 * scale:
            mixed = tuple(kinds[i] for i in shape.choice(3, size=int(shape.integers(2, 9)), p=(0.4, 0.3, 0.3)))
            models.append(gen.tiny_mixed(rngs[1], f"mix{k:03d}", mixed, int(shape.integers(1, 5))))
        if k < 120 * scale:
            models.append(gen.knapsack(rngs[2], f"knap{k:03d}", 10, 3, density=0.5))
    store = {
        "configs": {
            "default": {},
            "covers": {_COVERS: 1},
            "presolve_dive": {_BOUNDS: 1, _COEFFS: 1, _DIVE: 1},
            "depth_first_pc": {_NODESEL: 0, _VARSEL: 2},
        },
        "by_instance": {"knap000": "depth_first_pc"},
        "rules": [
            {"when": [{"field": "n_cont_vars", "op": ">=", "value": 1}], "config": "presolve_dive", "priority": 30},
            {"when": [{"field": "n_eq_rows", "op": ">=", "value": 1}], "config": "depth_first_pc", "priority": 20},
            {"when": [{"field": "n_vars", "op": ">=", "value": 8}], "config": "covers", "priority": 10},
        ],
        "default": "default",
    }
    return models, {}, store, True, 4  # every fourth file is gzip-compressed


def _gomory(seed: int, scale: float):
    """Reproduces a known solver defect; not a measured workload (see README.md).

    The knapsacks of ``protocol`` under 2 Gomory rounds plus covers.  After
    Gomory cuts, a node LP can return a point outside the variable bounds;
    on seeds 7 and 18 one solve then re-branches on the same node until the
    time limit, and the run ends ``correct: false``.
    """
    rng = _rng(seed, 2)
    models = [gen.knapsack(rng, f"knap{k:03d}", 10, 3, density=0.5) for k in range(max(1, round(120 * scale)))]
    store = {"configs": {"cuts": {_GOMORY: 2, _COVERS: 1}}, "default": "cuts"}
    return models, {}, store, False, 0


_SPECS: dict[str, Callable] = {"tree": _tree, "root": _root, "protocol": _protocol, "gomory": _gomory}


def build(name: str, seed: int, directory: Path, scale: float = 1.0) -> Workload:
    """Generate the workload's files under ``directory`` and load them as the CLI would."""
    models, optima, store_doc, adapt, gz_every = _SPECS[name](seed, scale)
    inst_dir = directory / "instances"
    inst_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for k, inst in enumerate(models):
        text = write_mps(inst)
        if gz_every and k % gz_every == gz_every - 1:
            path = inst_dir / f"{inst.name}.mps.gz"
            path.write_bytes(gzip.compress(text.encode(), mtime=0))
        else:
            path = inst_dir / f"{inst.name}.mps"
            path.write_text(text)
        paths[inst.name] = str(path)
    ds_path = directory / "dataset.json"
    ds_path.write_text(
        json.dumps({"name": f"bench-{name}", "instances": list(paths.values()), "time_limit_s": TIME_LIMIT_S})
    )
    store_path = directory / "store.json"
    store_path.write_text(json.dumps(store_doc))
    with open(store_path) as fh:
        store = load_store(fh)
    return Workload(
        name=name,
        dataset=load_dataset(ds_path),
        store=store,
        adapt=adapt,
        instances={inst.name: inst for inst in models},
        paths=paths,
        known_optima=optima,
        registry=validate.load_registry() if name == "protocol" else None,
    )


def _backend() -> BackendSpec:
    return BackendSpec(kind=BackendKind.BUILTIN, solution_path_template="{instance}.sol")


def run_pass(wl: Workload, pass_dir: Path) -> PassResult:
    """One full pass of the workload; only calls into the program are timed."""
    if wl.name == "protocol":
        return _protocol_pass(wl, pass_dir)
    log_path = pass_dir / "run.jsonl"
    t0 = time.perf_counter()
    log = runner.run_suite(
        wl.dataset, _backend(), wl.store, wl.adapt, solver_label=wl.name,
        log_path=log_path, work_dir=pass_dir / "solutions", parallel=1,
    )
    segment = (t0, time.perf_counter())
    return PassResult([segment], [Job(wl.name, r) for r in log.records], log_bytes=log_path.stat().st_size)


def _tear(log_path: Path, torn_path: Path) -> None:
    """Copy a run log as a crash would leave it: half the records, then a torn line."""
    lines = log_path.read_text().splitlines(keepends=True)
    keep = 1 + (len(lines) - 1) // 2
    torn_path.write_text("".join(lines[:keep]) + lines[keep][: len(lines[keep]) // 2])


def _protocol_pass(wl: Workload, pass_dir: Path) -> PassResult:
    backend = _backend()
    base_log, adapted_log, torn_log = (pass_dir / f for f in ("baseline.jsonl", "adapted.jsonl", "torn.jsonl"))
    report_argv = ["bench", "report", "--baseline", str(base_log), "--adapted", str(torn_log),
                   "--out", str(pass_dir / "report")]
    segments = []

    t0 = time.perf_counter()
    base = runner.run_suite(wl.dataset, backend, wl.store, False, solver_label="baseline",
                            log_path=base_log, work_dir=pass_dir / "baseline")
    adapted = runner.run_suite(wl.dataset, backend, wl.store, True, solver_label="adapted",
                               log_path=adapted_log, work_dir=pass_dir / "adapted")
    segments.append((t0, time.perf_counter()))

    _tear(adapted_log, torn_log)

    t0 = time.perf_counter()
    partial = runner.read_log(torn_log)
    resumed = runner.resume_suite(wl.dataset, backend, wl.store, partial,
                                  log_path=torn_log, work_dir=pass_dir / "resumed")
    with contextlib.redirect_stdout(io.StringIO()):
        report_rc = cli.cli_dispatch(report_argv)
    audit = validate.audit_log_incumbents(resumed, wl.paths, wl.registry)
    segments.append((t0, time.perf_counter()))

    kept = {r.instance_name for r in partial.records if r.status is not runner.RunStatus.ERROR}
    jobs = [Job("baseline", r) for r in base.records] + [Job("adapted", r) for r in adapted.records]
    jobs += [Job("resumed", r) for r in resumed.records if r.instance_name not in kept]
    problems = [] if report_rc == 0 else [f"bench report exited {report_rc}"]
    bad = [a for a in audit if a.verdict in (validate.Verdict.INFEASIBLE, validate.Verdict.UNVERIFIABLE)]
    problems += [f"audit {a.instance}: {a.verdict.value} ({a.note})" for a in bad]
    log_bytes = sum(p.stat().st_size for p in (base_log, adapted_log, torn_log))
    return PassResult(segments, jobs, problems, log_bytes)
