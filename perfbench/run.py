"""milpbench benchmark: one workload, generated from a seed, run through the public API.

    python3 perfbench/run.py --workload tree --seed 1 --seconds 30 --trace 0

The load is closed-loop from one process: ``run_suite(parallel=1)`` runs one
job at a time, and a pass starts when the previous one has been checked.
One warm-up pass is checked but not timed.  Measured passes then repeat while
another one still fits in ``--seconds`` (at least three); see ``Walls`` for how
the wall metrics are taken from these interleaved repeats.

``--trace 0`` prints the end-to-end metrics, measured with no instrumentation.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it holds
the environment, wall-time samples and any problems the gate found.

Run from a checkout that has ``src/milpbench``; anywhere else it exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"  # one solve is single-threaded; fixed before numpy loads
MIN_PASSES = 3
SETUP_REPEATS = 9
SETUP_SECONDS = 2.0
SHIFT = 10.0

E2E_UNITS = {
    "wall_s": "s",
    "sgm_wall_s": "s",
    "ticks": "count",
    "nodes": "count",
    "solved": "count",
    "ok_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program() -> None:
    """Pin BLAS threads, then make ``src/milpbench`` of this checkout importable."""
    if not (SRC / "milpbench" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'milpbench'} not found; run from a milpbench checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import milpbench

    if Path(milpbench.__file__).resolve().parent != SRC / "milpbench":
        raise SystemExit(f"error: milpbench imported from {milpbench.__file__}, not {SRC}")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": os.getloadavg(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def wall_summary(samples: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    rank = len(ordered) - 10  # 1-based rank with ten samples above it
    out = {"median": statistics.median(ordered), "n": len(ordered), "tail_pct": None, "tail_value": None}
    if rank >= 1:
        out["tail_pct"] = 100.0 * rank / len(ordered)
        out["tail_value"] = ordered[rank - 1]
    return out


def set_up(name: str, seed: int, work: Path, scale: float, clock):
    """Build the workload into one directory repeatedly, probing between builds.

    The first build creates the files and later ones overwrite them (see
    ``Passes``).  Builds repeat at least SETUP_REPEATS times and for at least
    SETUP_SECONDS.  Returns the workload and the median build, raw and in
    reference seconds.
    """
    import workloads

    raw, scaled = [], []
    clock.probe()
    start = time.perf_counter()
    while len(raw) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        t0 = time.perf_counter()
        wl = workloads.build(name, seed, work / "setup", scale)
        t1 = time.perf_counter()
        clock.probe()
        raw.append(t1 - t0)
        scaled.append(clock.program_time(t0, t1, scaled=True))
    return wl, statistics.median(raw), statistics.median(scaled)


class Passes:
    """Runs and checks passes in one directory.

    Each pass starts with fresh run logs, but writes its solution, status and
    report files over those of the previous pass: on a shared host, creating a
    file can cost five times as much in one minute as in the next, while
    overwriting one stays cheap.  The first pass creates every file.

    ``run`` returns the pass, its wall in reference seconds (see ``speed.py``)
    and each job's speed factor.
    """

    def __init__(self, wl, gate, work: Path, clock):
        self.wl, self.gate, self.work, self.clock = wl, gate, work, clock
        self.count = 0
        self.ok = True
        self.last_s = 0.0  # duration of the last pass, checks included

    def fits(self, start: float, seconds: float) -> bool:
        """Whether a pass as long as the last one still ends within ``seconds`` of ``start``."""
        return time.perf_counter() - start + self.last_s <= seconds

    def run(self, probe_jobs: bool = True):
        import workloads

        pass_dir = self.work / "pass"
        for log in pass_dir.glob("*.jsonl"):
            log.unlink()
        first_job = len(self.clock.job_ends)
        began = time.perf_counter()
        self.clock.probe()
        try:
            if probe_jobs:
                with self.clock:
                    result = workloads.run_pass(self.wl, pass_dir)
            else:
                result = workloads.run_pass(self.wl, pass_dir)
            self.clock.probe()
            self.gate.check_pass(self.count, result)
            self.ok = not self.gate.timed_out  # a solve that hit the limit would hit it again
        except Exception as exc:  # the program broke: record it, stop measuring
            self.gate.fail_pass(self.count, exc)
            self.ok = False
            return None
        finally:
            self.count += 1
            self.last_s = time.perf_counter() - began
        raw = sum(self.clock.program_time(a, b, scaled=False) for a, b in result.segments)
        scaled = sum(self.clock.program_time(a, b, scaled=True) for a, b in result.segments)
        job_ends = self.clock.job_ends[first_job:]
        if len(job_ends) == len(result.jobs):
            factors = [self.clock.factor_at(t) for t in job_ends]
        else:
            factors = [scaled / raw] * len(result.jobs)
        return Sample(result, raw, scaled, factors)


@dataclass
class Sample:
    result: object  # workloads.PassResult
    raw_wall_s: float
    wall_s: float  # reference seconds
    job_factors: list[float]

    @property
    def factor(self) -> float:
        return self.wall_s / self.raw_wall_s


class Walls:
    """Wall samples of the passes of one kind (untraced or traced).

    Each pass is scaled to reference seconds by the speed probe; a wall metric
    is the median over passes.  Raw pass walls are reported beside it.
    """

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.sgm: list[float] = []

    def add(self, sample: Sample) -> None:
        from milpbench.scores import shifted_geomean

        self.raw.append(sample.raw_wall_s)
        self.scaled.append(sample.wall_s)
        times = [job.record.wall_time_s * f for job, f in zip(sample.result.jobs, sample.job_factors)]
        self.sgm.append(shifted_geomean(times, SHIFT))

    def wall_s(self) -> float:
        return statistics.median(self.scaled)

    def sgm_wall_s(self) -> float:
        return statistics.median(self.sgm)

    def summary(self) -> dict:
        return {"wall_s": wall_summary(self.scaled), "sgm_wall_s": wall_summary(self.sgm),
                "raw_wall_s": wall_summary(self.raw),
                "speed_factors": [s / r for s, r in zip(self.scaled, self.raw)]}


def _pass_counts(result) -> dict:
    records = [job.record for job in result.jobs]
    return {
        "ticks": sum(r.ticks or 0 for r in records),
        "nodes": sum(r.nodes or 0 for r in records),
        "solved": sum(1 for r in records if r.status.value in ("optimal", "infeasible")),
    }


def measure(passes: Passes, seconds: float) -> tuple[dict, dict]:
    walls, counts = Walls(), []
    start = time.perf_counter()
    while passes.ok and (len(counts) < MIN_PASSES or passes.fits(start, seconds)):
        sample = passes.run()
        if sample is None:
            break
        walls.add(sample)
        counts.append(_pass_counts(sample.result))
    if not counts:
        return {}, {}
    metrics = {"wall_s": walls.wall_s(), "sgm_wall_s": walls.sgm_wall_s()}
    for key in ("ticks", "nodes", "solved"):
        metrics[key] = statistics.median_low([c[key] for c in counts])
    return metrics, walls.summary()


def measure_traced(passes: Passes, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; per-layer values are medians over traced passes."""
    import tracing

    untraced, traced, per_pass, ticks = Walls(), Walls(), [], None
    start = time.perf_counter()
    while passes.ok and (len(per_pass) < 2 or passes.fits(start, seconds)):
        if len(untraced.raw) <= len(per_pass):
            sample = passes.run(probe_jobs=False)
            if sample is not None:
                untraced.add(sample)
                ticks = _pass_counts(sample.result)["ticks"]
            continue
        with tracing.Tracer() as tracer:
            sample = passes.run(probe_jobs=False)
        if sample is None:
            continue
        traced.add(sample)
        layers = tracing.layer_metrics(tracer.spans)
        layers["runner.log_bytes"] = sample.result.log_bytes
        if layers["simplex.iters"] != ticks:
            passes.gate.problems.append(f"traced simplex.iters {layers['simplex.iters']} != untraced ticks {ticks}")
        inside = tracing.inside_bnb_s(tracer.spans)
        if inside > layers["bnb.s"]:
            passes.gate.problems.append(f"layer time inside branch_and_bound {inside} > bnb.s {layers['bnb.s']}")
        per_pass.append({k: v * sample.factor if tracing.unit(k) == "s" else v for k, v in layers.items()})
    if not per_pass:
        return {}, {}
    metrics = {key: statistics.median_low([m[key] for m in per_pass]) for key in per_pass[0]}
    metrics["trace.overhead_share"] = (traced.wall_s() - untraced.wall_s()) / untraced.wall_s()
    return metrics, {"untraced": untraced.summary(), "traced": traced.summary()}


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """One benchmark run; returns the result object printed on the last line."""
    import checks
    import speed
    import tracing

    env = environment(seed)
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        clock = speed.SpeedClock()
        wl, setup_raw, setup_s = set_up(workload, seed, work, scale, clock)
        gate = checks.Gate(wl)
        passes = Passes(wl, gate, work, clock)
        passes.run()  # warm-up: checked, not timed; it creates the files later passes overwrite
        if trace:
            metrics, samples = measure_traced(passes, seconds)
        else:
            metrics, samples = measure(passes, seconds)
            metrics["setup_s"] = setup_s
            samples["raw_setup_s"] = setup_raw
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if passes.ok:
            gate.check_answers()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    attempted, failed = gate.attempted, len(gate.failed)
    if not trace:
        metrics["ok_share"] = (attempted - failed) / attempted if attempted else 0.0
    units = E2E_UNITS if not trace else {name: tracing.unit(name) for name in metrics}
    env["loadavg_end"] = os.getloadavg()
    detail = {
        "workload": workload,
        "environment": env,
        "wall_samples": samples,
        "error_share": failed / attempted if attempted else 1.0,
        "problems": gate.problems[:20],
        "problem_count": len(gate.problems),
    }
    print(json.dumps(detail))
    return {
        "correct": gate.correct,
        "attempted": attempted,
        "failed": failed,
        # a run whose passes broke has no measurement: it reports 0 and correct=false
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("tree", "root", "protocol", "gomory"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="instance-count factor (smoke check only)")
    args = parser.parse_args(argv)
    import_program()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
