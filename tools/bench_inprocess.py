"""In-process detail of a change against its parent, added to a ``BENCH_*.json`` file.

    python3 tools/bench_inprocess.py --parent HEAD~1 --change HEAD --out BENCH_N.json --work DIR

Both revisions are exported with ``git archive`` into ``--work`` (as by
``tools/bench_pairs.py``).  The file named by ``--out`` gains these sections,
each replacing a section of the same name; the rest of the file is kept:

- ``<workload>_solve_seconds_per_family`` for ``tree``, ``root`` and
  ``protocol`` (``TIMED``): every job of that workload and seeds 11-20 is
  solved by ``branch_and_bound`` with the options ``run_suite`` would pick
  (for ``protocol``, the adapted suite's), ``REPS`` times with the parent's
  package and ``REPS`` times with the change's, in one process, alternating
  which side goes first; each side's fastest run counts.  Seconds, ticks and
  nodes are summed by family (the instance name without its digits).  A side's
  runs of one job must give the same result.
- ``tree_seed_11_solve_microseconds``: the ``tree`` jobs of seed 11, with
  every ``BoundedSimplex.solve`` call timed; a call's fastest run counts, and
  each side's medians are grouped by final status and pivots (``2+`` for two
  or more), beside its pivots and long-step flips; each group also splits
  into the solves that flipped a column and those that did not.
- ``traced_<workload>_seed_11``: ``perfbench/run.py --trace 1`` on each
  workload of ``BENCHMARK.json`` at seed 11, ``REPS`` runs from each copy,
  alternating which side goes first; each run is kept beside each metric's
  median.
- ``identical_results``: one untimed pass (``perfbench/workloads.run_pass``) of
  each workload of ``BENCHMARK.json`` and seeds 11-20, in a fresh process per
  side, counting the jobs whose status, objective (``float.hex``), nodes and
  ticks are equal, the jobs whose ``best_bound`` is equal to the bit, and the
  jobs whose status is equal and whose objective lies within
  ``1e-9 * max(1, |objective|)`` of the parent's.

All timed seconds except the traced ones are raw host seconds.  The
``signatures`` subcommand prints one pass's job signatures from a checkout, each
a ``signature`` followed by the record's ``best_bound`` (``float.hex``); the
identity section runs it once per side, workload and seed.  The ``presolve``
subcommand prints, for every model of one workload and seed, a digest of the
presolved standard form under four option sets (``PRESOLVE_SETS``): the
``float.hex`` of every entry, so two checkouts whose digests agree presolve to
the bit.  Run it once per checkout, each in its own process, and compare::

    python3 tools/bench_inprocess.py presolve --checkout DIR --workload root --seed 11
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_pairs  # noqa: E402  (no numpy: main pins BLAS threads before anything loads it)

ROOT = bench_pairs.ROOT
REPS = 3  # timed runs per side and job; the fastest counts
SEEDS = list(range(11, 21))  # the seeds of tools/bench_pairs.py's ten default pairs
SIDES = ("parent", "change")
TIMED = ("tree", "root", "protocol")  # the workloads solved in-process, family by family
OBJ_TOL = 1e-9  # relative (to max(1, |objective|)): how far an objective may move and still agree
TRACED = ("bnb.s", "bnb.self_s", "simplex.s", "simplex.solves", "simplex.iters", "simplex.us_per_iter",
          "simplex.root_iters", "simplex.cut_lp_iters", "simplex.tree_iters", "presolve.s", "cuts.gomory_s",
          "cuts.cover_s", "runner.solution_write_s", "runner.self_s", "mps.parse_s", "trace.overhead_share")
# the presolve subcommand's option sets: (bound tightening, coefficient reduction), None for the job's own
PRESOLVE_SETS = {"job": None, "tighten": (True, False), "reduce": (False, True), "both": (True, True)}


class Side:
    """One revision's ``milpbench`` package, imported under its own name."""

    def __init__(self, name: str, checkout: Path):
        pkg_dir = checkout / "src" / "milpbench"
        spec = importlib.util.spec_from_file_location(name, pkg_dir / "__init__.py",
                                                      submodule_search_locations=[str(pkg_dir)])
        package = importlib.util.module_from_spec(spec)
        sys.modules[name] = package
        spec.loader.exec_module(package)
        self.mps = importlib.import_module(f"{name}.mps")
        self.config = importlib.import_module(f"{name}.config")
        self.instance = importlib.import_module(f"{name}.instance")
        self.bnb = importlib.import_module(f"{name}.solver.bnb")
        self.simplex = importlib.import_module(f"{name}.solver.simplex")
        self.presolve = importlib.import_module(f"{name}.solver.presolve")
        self.standard_form = importlib.import_module(f"{name}.solver.standard_form")

    def job(self, path: str, store_path: Path, adapt: bool, limit_s: float):
        """The instance at ``path`` and the options ``run_suite`` would solve it with."""
        inst = self.mps.load_instance(path)
        with open(store_path) as fh:
            store = self.config.load_store(fh)
        if adapt:
            cfg = self.config.adapt(inst.name, self.instance.extract_features(inst), store)
        else:
            cfg = store.configs[store.default_label]
        return inst, self.config.map_to_reference(cfg, time_limit_s=limit_s)


def family(instance_name: str) -> str:
    return instance_name.rstrip("0123456789")


def signature(status, objective, nodes, ticks) -> list:
    return [status, None if objective is None else float(objective).hex(), nodes, ticks]


def interleaved(jobs: list[dict], run) -> list[dict]:
    """``run(side, job[side])`` for each job, ``REPS`` times per side, the sides
    alternating which goes first; per job and side, the list of what each run returned."""
    out = []
    for i, job in enumerate(jobs):
        runs = {side: [] for side in SIDES}
        for r in range(REPS):
            for side in SIDES if (i + r) % 2 == 0 else SIDES[::-1]:
                runs[side].append(run(side, job[side]))
        out.append(runs)
    return out


def agree(parent: list, change: list) -> bool:
    """Two rows of ``signatures`` with the same status, and objectives within
    ``OBJ_TOL`` relative, or both without one."""
    (status_p, obj_p), (status_c, obj_c) = parent[3:5], change[3:5]
    if status_p != status_c or (obj_p is None) != (obj_c is None):
        return False
    if obj_p is None:
        return True
    a, b = float.fromhex(obj_p), float.fromhex(obj_c)
    return abs(a - b) <= OBJ_TOL * max(1.0, abs(a))


def solve_job(side: Side, job) -> tuple[float, list]:
    inst, opts = job
    t0 = time.perf_counter()
    o = side.bnb.branch_and_bound(inst, opts)
    seconds = time.perf_counter() - t0
    return seconds, signature(o.status.value, o.incumbent.objective if o.incumbent else None,
                              o.nodes, o.deterministic_ticks)


def family_rows(seed_jobs: dict[int, list[tuple[str, dict, dict, dict]]]) -> dict:
    """``seed_jobs[seed]``: (instance name, {side: fastest seconds}, {side:
    ticks}, {side: nodes}) per job."""
    seeds = sorted(seed_jobs)
    sums = defaultdict(lambda: {seed: {s: 0.0 for s in SIDES} for seed in seeds})
    ticks = defaultdict(lambda: {s: 0 for s in SIDES})
    nodes = defaultdict(lambda: {s: 0 for s in SIDES})
    models = defaultdict(set)
    for seed in seeds:
        for name, best, job_ticks, job_nodes in seed_jobs[seed]:
            for key in (family(name), "all_jobs"):
                for s in SIDES:
                    sums[key][seed][s] += best[s]
                    ticks[key][s] += job_ticks[s]
                    nodes[key][s] += job_nodes[s]
            models[family(name)].add((seed, name))

    def row(key):
        per_seed, t, n = sums[key], ticks[key], nodes[key]
        ratios = [per_seed[seed]["change"] / per_seed[seed]["parent"] for seed in seeds]
        parent_s = sum(v["parent"] for v in per_seed.values())
        change_s = sum(v["change"] for v in per_seed.values())
        return {"parent_s": parent_s, "change_s": change_s, "change_over_parent": change_s / parent_s,
                "median_seed_ratio": statistics.median(ratios),
                "change_faster_seeds": sum(r < 1 for r in ratios), "seeds": len(seeds), "seed_ratios": ratios,
                "parent_ticks": t["parent"], "change_ticks": t["change"],
                "ticks_change_over_parent": t["change"] / t["parent"] if t["parent"] else None,
                "parent_nodes": n["parent"], "change_nodes": n["change"]}

    jobs = [best for seed in seeds for _, best, *_ in seed_jobs[seed]]
    return {
        "families": {f: {"models_per_seed": len(models[f]) // len(seeds), **row(f)} for f in sorted(models)},
        "all_jobs": {**row("all_jobs"), "change_faster_jobs": sum(b["change"] < b["parent"] for b in jobs),
                     "jobs": len(jobs)},
    }


def _median_us(seconds: list[float]):
    return statistics.median(seconds) * 1e6 if seconds else None


def outcome_rows(calls: dict[str, list[tuple[str, int, int, float]]]) -> dict:
    """``calls[side]``: (final status, pivots, flips, fastest seconds) per
    solve of that side; a change that moves pivots may change the solves.
    Each (status, pivots) row also splits its solves into those that flipped
    a column in a long step and those that did not."""
    buckets = defaultdict(lambda: {s: [] for s in SIDES})
    for s in SIDES:
        for status, pivots, flips, seconds in calls[s]:
            buckets[(status, min(pivots, 2))][s].append((flips > 0, seconds))

    def split(solves: list[tuple[bool, float]], s: str) -> dict:
        return {f"{s}_flipped_solves": sum(flipped for flipped, _ in solves),
                f"{s}_flipped_us": _median_us([t for flipped, t in solves if flipped]),
                f"{s}_unflipped_us": _median_us([t for flipped, t in solves if not flipped])}

    return {
        **{key: {s: sum(c[i] for c in calls[s]) for s in SIDES}
           for i, key in ((1, "pivots"), (2, "flips"), (3, "total_s"))},
        "solves": {s: len(calls[s]) for s in SIDES},
        "by_outcome": [
            {"status": status, "pivots": "2+" if pivots == 2 else pivots,
             **{f"{s}_solves": len(b[s]) for s in SIDES},
             **{f"{s}_us": _median_us([t for _, t in b[s]]) for s in SIDES},
             **{k: v for s in SIDES for k, v in split(b[s], s).items()}}
            for (status, pivots), b in sorted(buckets.items())
        ],
    }


def spy_on_solves(sides: dict) -> dict[str, list]:
    """Wrap each side's ``BoundedSimplex.solve`` to record (status, pivots,
    flips, seconds) per call into the returned lists, which the caller clears."""
    record = {s: [] for s in SIDES}
    for s, side in sides.items():
        cls = side.simplex.BoundedSimplex
        solve = cls.solve

        def timed(self, *args, _solve=solve, _log=record[s], **kwargs):
            t0 = time.perf_counter()
            r = _solve(self, *args, **kwargs)
            seconds = time.perf_counter() - t0
            _log.append((r.status.value, r.iterations, r.flips, seconds))
            return r

        cls.solve = timed
    return record


def build_jobs(workloads, workload: str, sides: dict, seed: int, directory: Path) -> list[tuple[str, dict]]:
    wl = workloads.build(workload, seed, directory)
    store_path = directory / "store.json"
    return [(name, {s: side.job(path, store_path, wl.adapt, wl.dataset.time_limit_s) for s, side in sides.items()})
            for name, path in wl.paths.items()]


def timed_sections(copies: dict, seeds: list[int], work: Path) -> dict:
    sys.path[:0] = [str(copies["change"] / "src"), str(copies["change"] / "perfbench")]
    workloads = importlib.import_module("workloads")
    sides = {s: Side(f"{s}_milpbench", copies[s]) for s in SIDES}
    families = {}
    for workload in TIMED:
        seed_jobs = {}
        for seed in seeds:
            jobs = build_jobs(workloads, workload, sides, seed, work / f"{workload}-{seed}")
            runs = interleaved([job for _, job in jobs], lambda s, job: solve_job(sides[s], job))
            seed_jobs[seed] = []
            for (name, _), r in zip(jobs, runs):
                for s in SIDES:
                    if len({tuple(sig) for _, sig in r[s]}) != 1:
                        raise SystemExit(f"{workload} seed {seed} {name}: the {s}'s runs differ")
                seed_jobs[seed].append((name, {s: min(t for t, _ in r[s]) for s in SIDES},
                                        {s: r[s][0][1][3] for s in SIDES}, {s: r[s][0][1][2] for s in SIDES}))
            print(workload, seed, {s: round(sum(b[s] for _, b, *_ in seed_jobs[seed]), 4) for s in SIDES}, flush=True)
        families[workload] = family_rows(seed_jobs)

    record = spy_on_solves(sides)

    def solve_calls(s, job):
        record[s].clear()
        solve_job(sides[s], job)
        return list(record[s])

    jobs = build_jobs(workloads, "tree", sides, seeds[0], work / f"solves-{seeds[0]}")
    calls = {s: [] for s in SIDES}
    for (name, _), r in zip(jobs, interleaved([job for _, job in jobs], solve_calls)):
        for s in SIDES:
            if len({tuple(c[:3] for c in run) for run in r[s]}) != 1:
                raise SystemExit(f"tree seed {seeds[0]} {name}: the {s}'s runs differ in their solves")
            calls[s] += [(*c[:3], min(run[k][3] for run in r[s])) for k, c in enumerate(r[s][0])]
    return {"families": families, "solves": outcome_rows(calls)}


def traced_sides(run) -> dict:
    """``run(side)``: one traced run's ``{"correct": ..., metric: value}``.
    ``REPS`` runs per side through ``interleaved``, so the sides alternate
    which goes first; per side, whether every run was correct, each metric's
    median over the runs, and the runs."""
    runs = interleaved([{s: s for s in SIDES}], lambda s, _: run(s))[0]
    return {s: {"correct": all(r["correct"] for r in runs[s]),
                **{k: statistics.median(r[k] for r in runs[s]) for k in TRACED}, "runs": runs[s]}
            for s in SIDES}


def record_signature(suite: str, record) -> list:
    """A job's suite, instance and configuration, its ``signature`` and its
    ``best_bound`` (``float.hex``, None when the record has none)."""
    bound = record.best_bound
    return [suite, record.instance_name, record.config_label,
            *signature(record.status.value, record.objective, record.nodes, record.ticks),
            None if bound is None else float(bound).hex()]


def signatures(checkout: Path, workload: str, seed: int) -> list:
    """One untimed pass of ``workload`` from ``checkout``: a ``record_signature`` per job."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    workloads = importlib.import_module("workloads")
    with tempfile.TemporaryDirectory() as d:
        wl = workloads.build(workload, seed, Path(d) / "setup")
        result = workloads.run_pass(wl, Path(d) / "pass")
    return [record_signature(j.suite, j.record) for j in result.jobs]


def compare_signatures(parent: list, change: list) -> dict:
    """Counts over two sides' ``signatures`` of one pass: the jobs compared, those
    whose rows are equal but for the bound, those whose bound is equal to the
    bit, and those that ``agree``."""
    pairs = list(zip(parent, change))
    return {"jobs_compared": max(len(parent), len(change)),
            "identical": sum(a[:-1] == b[:-1] for a, b in pairs),
            "same_bound": sum(a[:3] == b[:3] and a[-1] == b[-1] for a, b in pairs),
            "same_status_and_objective": sum(a[:3] == b[:3] and agree(a, b) for a, b in pairs)}


def presolved(side: Side, inst, opts) -> tuple:
    """``side``'s presolve of ``inst``: (form, dropped row positions, infeasible flag, passes)."""
    result = side.presolve.presolve(side.standard_form.to_standard_form(inst), opts)
    return result.form, result.back_map.dropped_rows, result.proven_infeasible, result.passes


def digest(form, dropped, infeasible, passes) -> str:
    """sha256 of a presolved form: the shape and the ``float.hex`` of every entry
    of each float array, ``is_int``, and the dropped rows, flag and passes."""
    h = hashlib.sha256()
    for array in (form.c, form.A, form.rlo, form.rup, form.lb, form.ub):
        h.update(repr((array.shape, [float.hex(x) for x in array.ravel().tolist()])).encode())
    h.update(repr((form.is_int.tolist(), tuple(dropped), infeasible, passes)).encode())
    return h.hexdigest()


def presolve_digests(checkout: Path, workload: str, seed: int) -> list:
    """[model, option set, ``digest`` of its presolved form] for every model
    of ``workload`` from ``checkout``, under each of ``PRESOLVE_SETS``."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    workloads = importlib.import_module("workloads")
    side = Side("side_milpbench", checkout)
    out = []
    with tempfile.TemporaryDirectory() as d:
        wl = workloads.build(workload, seed, Path(d))
        for name, path in wl.paths.items():
            inst, opts = side.job(path, Path(d) / "store.json", wl.adapt, wl.dataset.time_limit_s)
            for label, toggles in PRESOLVE_SETS.items():
                run = opts if toggles is None else dataclasses.replace(
                    opts, presolve_bound_tighten=toggles[0], presolve_coeff_reduce=toggles[1])
                out.append([name, label, digest(*presolved(side, inst, run))])
    return out


def identical_section(copies: dict, workloads: list[str], seeds: list[int]) -> dict:
    counts = defaultdict(dict)
    for workload in workloads:
        total = Counter()
        for seed in seeds:
            sigs = {}
            for s in SIDES:
                cmd = [sys.executable, str(Path(__file__).resolve()), "signatures", "--checkout", str(copies[s]),
                       "--workload", workload, "--seed", str(seed)]
                sigs[s] = json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)
            total.update(compare_signatures(sigs["parent"], sigs["change"]))
        print(workload, dict(total), flush=True)
        for key, n in total.items():
            counts[key][workload] = n
    return dict(counts)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    subcommands = {"signatures": signatures, "presolve": presolve_digests}
    if argv[:1] and argv[0] in subcommands:
        ap = argparse.ArgumentParser(prog=f"bench_inprocess.py {argv[0]}")
        ap.add_argument("--checkout", required=True, type=Path)
        ap.add_argument("--workload", required=True)
        ap.add_argument("--seed", required=True, type=int)
        args = ap.parse_args(argv[1:])
        print(json.dumps(subcommands[argv[0]](args.checkout.resolve(), args.workload, args.seed)))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", required=True, help="git revision of the change")
    ap.add_argument("--out", required=True, type=Path, help="the BENCH file to add the sections to")
    ap.add_argument("--work", required=True, type=Path, help="an empty directory for the two copies")
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # as perfbench/run.py pins them; numpy is not loaded yet

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    revs = {s: subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", rev], check=True,
                              capture_output=True, text=True).stdout.strip()
            for s, rev in (("parent", args.parent), ("change", args.change))}
    copies = {s: bench_pairs.export(revs[s], args.work / s) for s in SIDES}
    command = f"tools/bench_inprocess.py --parent {revs['parent']} --change {revs['change']}"
    span = f"seeds {SEEDS[0]}-{SEEDS[-1]}"

    workloads = [w["name"] for w in spec["workloads"]]
    timed = timed_sections(copies, SEEDS, args.work)

    def traced_run(workload: str, s: str) -> dict:
        result, _ = bench_pairs.run_once(copies[s], workload, SEEDS[0], spec["run_seconds"], trace=1)
        print("traced", workload, s, result["metrics"]["bnb.s"]["value"], flush=True)
        return {"correct": result["correct"], **{k: result["metrics"][k]["value"] for k in TRACED}}

    traced = {workload: traced_sides(lambda s, w=workload: traced_run(w, s)) for workload in workloads}
    identical = identical_section(copies, workloads, SEEDS)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    for workload in TIMED:
        doc[f"{workload}_solve_seconds_per_family"] = {
            "how": f"{command}, in-process, {span}: each {workload} job solved by branch_and_bound with the "
                   f"options run_suite would pick (for protocol, the adapted suite's), {REPS} times with each "
                   f"revision's package, alternating which goes first; the fastest of each side's runs counts (raw "
                   f"host seconds), and each side's runs of a job gave one result. Ticks and nodes are summed beside "
                   f"the seconds. seed_ratios is change/parent of a family's summed seconds, per seed.",
            **timed["families"][workload],
        }
    doc[f"tree_seed_{SEEDS[0]}_solve_microseconds"] = {
        "how": f"{command}, in-process, tree seed {SEEDS[0]}: every BoundedSimplex.solve call timed, each job "
               f"run {REPS} times per side with the sides interleaved, the fastest of a call's runs kept; each "
               f"side's solves, pivots, long-step flips and seconds, and its median raw host microseconds by "
               f"final status and pivots (2+ stands for 2 or more); each row also splits a side's solves into "
               f"those that flipped a column in a long step (flipped_solves, flipped_us) and the rest "
               f"(unflipped_us).",
        **timed["solves"],
    }
    for workload in workloads:
        doc[f"traced_{workload}_seed_{SEEDS[0]}"] = {
            "how": f"{command}: python3 perfbench/run.py --workload {workload} --seed {SEEDS[0]} --seconds "
                   f"{spec['run_seconds']:g} --trace 1, {REPS} runs from each copy, alternating which goes "
                   f"first (parent, change, change, parent, parent, change); each metric is the median of a "
                   f"side's runs, which are kept under runs. Seconds are reference seconds; "
                   f"simplex.us_per_iter is raw host time. The tracer wraps each solve, so its fixed cost per "
                   f"call narrows the traced ratio.",
            **traced[workload],
        }
    doc["identical_results"] = {
        "how": f"{command}: one untimed pass (perfbench/workloads.run_pass) of each workload, {span}, from "
               f"each side's copy in its own process: identical counts the jobs whose status, objective "
               f"(float.hex), nodes and ticks are equal; same_bound those whose best_bound is equal to the "
               f"bit; same_status_and_objective those whose status is equal and whose objective is within "
               f"{OBJ_TOL:g}*max(1, |parent objective|).",
        **identical,
    }
    args.out.write_text(json.dumps(bench_pairs._rounded(doc), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
