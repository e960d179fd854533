"""Smallest-size smoke check of the benchmark itself.

    python3 perfbench/smoke.py

* Every workload runs at a tiny scale with and without tracing; the last line
  must name exactly the metrics of BENCHMARK.json, each with its unit, and the
  answers must be judged correct.
* The gate must trip when it is fed a wrong objective.
* Without ``src/milpbench`` beside it, the benchmark must exit non-zero and
  print no result.

Exits 0 when every check holds; temporary files stay under ``.perfbench_work``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / "smoke"


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", "0.05"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics(spec: dict) -> list[str]:
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = _bench(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                errors.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
            expected = {m["name"]: m["unit"] for m in spec[group]}
            printed = {name: m.get("unit") for name, m in result["metrics"].items()}
            if printed != expected:
                errors.append(f"{where}: printed {printed} != declared {expected}")
    return errors


def check_gate_trips() -> list[str]:
    sys.path.insert(0, str(HERE))
    import run

    run.import_program()
    import checks
    import workloads

    wl = workloads.build("tree", 3, WORK / "gate", scale=0.05)
    honest = workloads.run_pass(wl, WORK / "gate" / "pass")
    gate = checks.Gate(wl)
    gate.check_pass(0, honest)
    gate.check_answers()
    errors = [f"honest pass flagged: {p}" for p in gate.problems]

    job = next(j for j in honest.jobs if j.record.status.value == "optimal")
    wrong = dataclasses.replace(job.record, objective=job.record.objective + 1.0)
    gate = checks.Gate(wl)
    gate.check_pass(0, workloads.PassResult(honest.segments, [workloads.Job(job.suite, wrong)]))
    if not any("objective" in p for p in gate.problems) or not gate.failed:
        errors.append("a logged objective that disagrees with the solution file passed the gate")
    gate.problems.clear()
    gate.check_answers()
    if not any("reference" in p for p in gate.problems):
        errors.append("a wrong optimal objective passed the reference check")
    return errors


def check_bare_directory() -> list[str]:
    bare = WORK / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _bench(bare, "tree", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        errors = check_metrics(spec) + check_gate_trips() + check_bare_directory()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    for error in errors:
        print(f"FAIL {error}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
