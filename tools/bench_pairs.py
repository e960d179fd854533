"""Paired benchmark runs of two revisions, written as a ``BENCH_*.json`` file.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --out BENCH_N.json \\
        --work DIR --pairs 10 --first-seed 11 --claim tree:sgm_wall_s

Each revision is exported with ``git archive`` into its own directory under
``--work``, so both sides run from clean copies of the committed files.  For
each workload of ``BENCHMARK.json``, pair i runs ``perfbench/run.py --workload
W --seed S --seconds RUN_SECONDS --trace 0`` in both copies, seeds
``first_seed + i``, with ``run_seconds`` from ``BENCHMARK.json``; the parent
runs first on even positions and the change on odd ones.  The metrics, their
units, directions and bounds are the end-to-end metrics of ``BENCHMARK.json``.

Per metric the file holds each side's quartiles (inclusive, linear
interpolation) and runs, the pairs the change wins and ties, how much worse
the change's median is than the parent's (0 when it is not worse) against the
bound, and whether the claim rule holds.  The rule: the change is better in at
least nine of ten pairs, and its median beats the parent's by more than the
parent's interquartile range.  ``--claim W:METRIC`` names the claimed metrics;
the claim line says whether each meets the rule.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import platform
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ("ticks", "nodes", "solved", "ok_share")  # deterministic: equal in every pair unless the change moves them
WIN_SHARE = 0.9  # the claim rule's share of pairs the change must win


def quartiles(values: list[float]) -> dict:
    """Median and inclusive quartiles (linear interpolation between ranks)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric over pairs: ``parent[i]`` and ``change[i]`` ran as pair i."""
    sign = 1.0 if better == "lower" else -1.0  # a positive sign * (p - c) favours the change
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    ties = sum(a == b for a, b in zip(parent, change))
    gain = sign * (p["median"] - c["median"])
    if p["median"]:
        worse = max(0.0, -gain / abs(p["median"]))
    else:
        worse = 0.0 if gain >= 0 else math.inf
    return {
        "parent": p,
        "change": c,
        "change_over_parent": c["median"] / p["median"] if p["median"] else None,
        "change_wins": wins,
        "ties": ties,
        "worse_than_parent_share": worse,
        "bound": bound,
        "within_bound": worse <= bound,
        "claim_rule_met": wins >= WIN_SHARE * len(parent) and gain > p["q3"] - p["q1"],
        "parent_runs": parent,
        "change_runs": change,
    }


def claim_line(workload: str, metric: str, row: dict, unit: str) -> str:
    p, c = row["parent"]["median"], row["change"]["median"]
    return (
        f"{workload} {metric}: median {_fmt(p)} -> {_fmt(c)} {unit} ({(c - p) / p:+.1%}), change better in "
        f"{row['change_wins']} of {len(row['parent_runs'])} pairs; the medians differ by {_fmt(abs(p - c))} {unit} "
        f"against a parent IQR of {_fmt(row['parent']['q3'] - row['parent']['q1'])} {unit}: "
        + ("the claim rule is met." if row["claim_rule_met"] else "the claim rule is NOT met.")
    )


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def _rounded(obj):
    """Floats to six significant digits, for a readable file."""
    if isinstance(obj, float):
        return obj if not math.isfinite(obj) else float(f"{obj:.6g}")
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return obj


def export(rev: str, dest: Path) -> Path:
    """The committed files of ``rev``, extracted into ``dest``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True).stdout
    dest.mkdir(parents=True, exist_ok=False)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def run_once(copy: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> tuple[dict, dict]:
    """The result object (last line) and the detail object (the line before) of one run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=copy, check=True, capture_output=True, text=True).stdout.splitlines()
    return json.loads(out[-1]), json.loads(out[-2])


def workload_rows(parent_results: list[dict], change_results: list[dict], seeds: list[int], spec: dict) -> dict:
    """A workload's entry from the paired result objects of ``perfbench/run.py``."""
    def values(results, name):
        return [r["metrics"][name]["value"] for r in results]

    metrics = {}
    for m in spec["end_to_end"]:
        row = compare(values(parent_results, m["name"]), values(change_results, m["name"]), m["better"], m["bound"])
        metrics[m["name"]] = {"unit": m["unit"], **row}
    return {
        "pairs": len(seeds),
        "seeds": seeds,
        "every_run_correct": all(r["correct"] for r in parent_results + change_results),
        "identical_counts_every_pair": {
            name: values(parent_results, name) == values(change_results, name) for name in COUNTS if name in metrics
        },
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", required=True, help="git revision of the change")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--work", required=True, type=Path, help="an empty directory for the two copies")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=11)
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    ap.add_argument("--describe", default="", help="what the change does, for the file's 'change' entry")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": export(args.parent, args.work / "parent"), "change": export(args.change, args.work / "change")}
    seeds = [args.first_seed + i for i in range(args.pairs)]
    doc = {"change": args.describe, "revisions": {"parent": args.parent, "change": args.change}}
    doc["protocol"] = (
        f"python3 perfbench/run.py --workload W --seed S --seconds {spec['run_seconds']:g} --trace 0, run by "
        f"tools/bench_pairs.py from git-archive copies of both revisions; {args.pairs} pairs per workload, seeds "
        f"{seeds[0]}-{seeds[-1]}, the parent first on even positions. Wall metrics are in reference seconds "
        "(perfbench/speed.py). Quartiles are inclusive (linear interpolation). worse_than_parent_share is how much "
        "worse the change's median is than the parent's, relative to the parent's, and 0 when it is not worse; "
        "bound is the BENCHMARK.json bound. claim_rule_met: the change is better in at least 9 of 10 pairs and "
        "its median beats the parent's by more than the parent's IQR."
    )
    doc["workloads"] = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        results = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                result, detail = run_once(sides[side], workload, seed, spec["run_seconds"])
                results[side].append(result)
                doc.setdefault("machine", {**detail["environment"], "platform": platform.platform()})
                print(workload, seed, side, {k: v["value"] for k, v in result["metrics"].items()}, flush=True)
        doc["workloads"][workload] = workload_rows(results["parent"], results["change"], seeds, spec)
    for key in ("seed", "git_commit", "loadavg_start", "loadavg_end"):
        doc["machine"].pop(key, None)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    claims = [c.split(":", 1) for c in args.claim]
    doc["claim"] = [claim_line(w, m, doc["workloads"][w]["metrics"][m], units[m]) for w, m in claims]
    args.out.write_text(json.dumps(_rounded(doc), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
