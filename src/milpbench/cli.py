"""Command-line driver.

Subcommands: solve, bench run, bench resume, bench report, validate,
config show.  Exit codes: 0 success, 1 user error (bad flags, files that
cannot be read or parsed), 2 internal error.  MILPBENCH_STORE supplies the
default store path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .config import (
    Configuration,
    adapt,
    empty_store,
    load_configuration,
    load_store,
    map_to_reference,
    param_by_index,
)
from .instance import extract_features, validate_instance
from .mps import load_instance
from .report import emit_distribution_svg, render_table
from .runner import (
    BackendKind,
    BackendSpec,
    ObjectiveKind,
    PROTOCOL_SHIFT,
    RunStatus,
    _host,
    load_dataset,
    read_log,
    resume_suite,
    run_suite,
    write_outcome,
)
from .scores import attach_scaled, distribution, summarize, write_summary_csv, write_summary_json
from .solution_io import read_solution
from .solver import Solution, branch_and_bound
from .validate import judge_claim, load_registry

STORE_ENV = "MILPBENCH_STORE"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 with usage on stderr, not argparse's 2
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="milpbench", description="MILP benchmarking harness")
    parser.add_argument("--version", action="version", version=f"milpbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one MPS instance with the builtin solver")
    p_solve.add_argument("mps", help="instance path (.mps or .mps.gz)")
    p_solve.add_argument("--config", help="JSON configuration file")
    p_solve.add_argument("--time-limit", type=float, default=3600.0)
    p_solve.add_argument("--solution", help="write the incumbent and status here")
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("bench", help="benchmark suites and reports")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    p_run = bench_sub.add_parser("run", help="run a dataset against the builtin solver")
    p_run.add_argument("--dataset", required=True, help="dataset JSON file")
    p_run.add_argument("--store", default=None, help="configuration store (or MILPBENCH_STORE)")
    mode = p_run.add_mutually_exclusive_group()
    mode.add_argument("--adapt", action="store_true", help="per-instance adapted configurations")
    mode.add_argument("--default", dest="use_default", action="store_true", help="default configuration only")
    p_run.add_argument("--out", required=True, help="run log (JSON lines)")
    p_run.add_argument("--label", default=None, help="solver label recorded in the log")
    p_run.add_argument("--parallel", type=int, default=1)
    p_run.add_argument("--workdir", default=None, help="directory for solution files")
    p_run.add_argument("--solutions", action="store_true", help="write a solution file per instance")
    p_run.set_defaults(func=_cmd_bench_run)

    p_resume = bench_sub.add_parser("resume", help="complete a partially written run log")
    p_resume.add_argument("--dataset", required=True)
    p_resume.add_argument("--store", default=None)
    p_resume.add_argument("--log", required=True, help="existing run log to complete")
    p_resume.add_argument("--workdir", default=None)
    p_resume.set_defaults(func=_cmd_bench_resume)

    p_report = bench_sub.add_parser("report", help="tables, CSV/JSON exports, distribution SVG")
    p_report.add_argument("--baseline", required=True, help="baseline run log")
    p_report.add_argument("--adapted", required=True, help="adapted run log")
    p_report.add_argument("--out", required=True, help="output directory")
    p_report.set_defaults(func=_cmd_bench_report)

    p_val = sub.add_parser("validate", help="check a claimed solution against an instance")
    p_val.add_argument("--instance", required=True)
    p_val.add_argument("--solution", required=True)
    p_val.add_argument("--registry", default=None, help="best-known registry (default: shipped)")
    p_val.set_defaults(func=_cmd_validate)

    p_cfg = sub.add_parser("config", help="inspect configuration resolution")
    cfg_sub = p_cfg.add_subparsers(dest="config_command", required=True)
    p_show = cfg_sub.add_parser("show", help="print the configuration adapt() would pick")
    p_show.add_argument("--store", default=None)
    p_show.add_argument("--instance", required=True)
    p_show.set_defaults(func=_cmd_config_show)

    return parser


def _load_store_arg(path: Optional[str]):
    path = path or os.environ.get(STORE_ENV)
    if path is None:
        return empty_store()
    with open(path) as fh:
        return load_store(fh)


def _cmd_solve(args) -> int:
    inst = load_instance(args.mps)
    problems = validate_instance(inst)
    if problems:
        for d in problems:
            print(f"invalid instance: [{d.code}] {d.message}", file=sys.stderr)
        return 1
    cfg = Configuration({}, "default")
    if args.config:
        cfg = load_configuration(Path(args.config).read_text())
    opts = map_to_reference(cfg, time_limit_s=args.time_limit)
    outcome = branch_and_bound(inst, opts)
    print(f"instance   {inst.name}")
    print(f"status     {outcome.status.value}")
    if outcome.incumbent is not None:
        print(f"objective  {outcome.incumbent.objective!r}")
    print(f"bound      {outcome.best_bound!r}")
    print(f"gap        {outcome.gap!r}")
    print(f"nodes      {outcome.nodes}")
    print(f"ticks      {outcome.deterministic_ticks}")
    print(f"time_s     {outcome.wall_time_s:.6f}")
    if opts.ignored:
        names = ", ".join(param_by_index(i).name for i in opts.ignored)
        print(f"ignored    {names}")
    if args.solution and write_outcome(args.solution, outcome):
        print(f"solution   {args.solution}")
    return 0


def _cmd_bench_run(args) -> int:
    ds = load_dataset(args.dataset)
    store = _load_store_arg(args.store)
    adapt_enabled = bool(args.adapt) and not args.use_default
    backend = BackendSpec(
        kind=BackendKind.BUILTIN,
        solution_path_template="{instance}.sol" if args.solutions else "",
    )
    log = run_suite(
        ds,
        backend,
        store,
        adapt_enabled,
        solver_label=args.label,
        log_path=args.out,
        work_dir=args.workdir,
        parallel=args.parallel,
    )
    solved = sum(1 for r in log.records if r.status in (RunStatus.OPTIMAL, RunStatus.INFEASIBLE))
    print(f"{len(log.records)} records written to {args.out} ({solved} finished in limit)")
    return 0


def _cmd_bench_resume(args) -> int:
    ds = load_dataset(args.dataset)
    store = _load_store_arg(args.store)
    partial = read_log(args.log)
    backend = BackendSpec(kind=BackendKind.BUILTIN)
    before = len([r for r in partial.records if r.status is not RunStatus.ERROR])
    log = resume_suite(ds, backend, store, partial, log_path=args.log, work_dir=args.workdir)
    print(f"resumed {args.log}: {before} kept, {len(log.records) - before} executed")
    return 0


def _cmd_bench_report(args) -> int:
    baseline = read_log(args.baseline)
    adapted = read_log(args.adapted)
    shift = baseline.protocol.get("shift", PROTOCOL_SHIFT)
    other = adapted.protocol.get("shift", PROTOCOL_SHIFT)
    if shift != other:
        raise ValueError(f"the log headers give different shifts: {shift} (baseline), {other} (adapted)")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    s_base = summarize(baseline, baseline.dataset, shift)
    s_adap = summarize(adapted, adapted.dataset, shift)
    try:
        summaries = attach_scaled([s_base, s_adap], s_base.solver_label)
    except ValueError:  # a zero reference mean leaves the scaled row empty
        summaries = [s_base, s_adap]
    solved_label = (
        "detected"
        if baseline.dataset.objective_kind is ObjectiveKind.DETECT_INFEASIBLE
        else "solved"
    )
    table = render_table(summaries, highlight={s_adap.solver_label}, solved_label=solved_label)
    (out_dir / "summary.txt").write_text(table)
    write_summary_csv(summaries, out_dir / "summary.csv")
    write_summary_json(summaries, out_dir / "summary.json")
    series = distribution(baseline, adapted)
    emit_distribution_svg(
        series,
        baseline.dataset.time_limit_s,
        out_dir / "distribution.svg",
        baseline_label=baseline.solver_label,
        adapted_label=adapted.solver_label,
    )
    meta = {
        "time_limit_s": baseline.dataset.time_limit_s,
        "shift": shift,
        "host": _host(),
    }
    print(table, end="")
    print(f"protocol: {json.dumps(meta)}")
    print(f"report written to {out_dir}")
    return 0


def _cmd_validate(args) -> int:
    inst = load_instance(args.instance)
    values, file_obj = read_solution(args.solution)
    registry = load_registry(args.registry)
    claim = Solution(values, file_obj if file_obj is not None else 0.0)
    judged = judge_claim(inst.name, inst, claim, registry)
    report = judged.report
    print(f"instance                 {inst.name}")
    print(f"max_row_violation        {report.max_row_violation!r}")
    print(f"max_bound_violation      {report.max_bound_violation!r}")
    print(f"max_integrality_violation {report.max_integrality_violation!r}")
    print(f"objective_recomputed     {report.objective_recomputed!r}")
    print(f"feasible                 {report.feasible}")
    entry = registry.get(inst.name)
    if entry is not None:
        print(f"previous_best            {entry.objective!r} ({entry.sense})")
    print(f"verdict                  {judged.verdict.value}")
    return 0


def _cmd_config_show(args) -> int:
    store = _load_store_arg(args.store)
    inst = load_instance(args.instance)
    cfg = adapt(inst.name, extract_features(inst), store)
    print(f"instance  {inst.name}")
    print(f"config    {cfg.label}")
    for idx in sorted(cfg.assignments):
        print(f"  {param_by_index(idx).name} = {cfg.assignments[idx]}")
    if not cfg.assignments:
        print("  (no assignments: solver defaults)")
    return 0


def cli_dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # ConfigError, MpsParseError and DatasetMismatch are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
