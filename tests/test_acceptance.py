"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  The
scaled-row reproduction criterion is expected to fail on exactly two
columns of the pathological standings table whose published scaled values
are inconsistent with their own unscaled values beyond the 1.5% check (see
README, "Known data inconsistency").
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from milpbench.config import empty_store, load_store
from milpbench.report import emit_distribution_svg, render_table
from milpbench.runner import (
    BackendKind,
    BackendSpec,
    DatasetSpec,
    ObjectiveKind,
    RunLog,
    RunStatus,
    grace_seconds,
    read_log,
    resume_suite,
    run_job,
    run_suite,
)
from milpbench.scores import attach_scaled, distribution, scale, shifted_geomean, summarize
from milpbench.solver import (
    BranchRule,
    NodeStrategy,
    ReferenceSolverOptions,
    branch_and_bound,
)
from milpbench.validate import RegistryEntry, Verdict, compare_incumbent, load_registry

from _helpers import (
    chain_instance,
    contradictory_bounds_instance,
    empty_cover_instance,
    enumerate_binary_optimum,
    knapsack_2var,
    market_split_instance,
    parity_infeasible_instance,
    random_binary_instance,
    write_instance,
)

FIXTURES = json.loads((Path(__file__).parent / "data" / "benchmark_tables.json").read_text())
BUILTIN = BackendSpec(kind=BackendKind.BUILTIN)


class _Criterion:
    """Context manager printing one [PASS]/[FAIL] line with the runtime."""

    def __init__(self, name: str, budget_s: float):
        self.name = name
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        tag = "PASS" if exc_type is None else "FAIL"
        print(f"[{tag}] {self.name} ({elapsed:.2f}s, budget {self.budget_s:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget_s, f"{self.name} exceeded its runtime budget"
        return False


def test_criterion_shifted_geometric_mean():
    with _Criterion("shifted geometric mean", 1.0):
        # frozen from the closed forms, not from any printed rounding
        assert abs(shifted_geomean([5.0] * 7, 10.0) - 5.0) < 1e-9
        assert abs(shifted_geomean([0.0], 10.0) - 0.0) < 1e-9
        assert abs(shifted_geomean([1.0, 100.0], 10.0) - (math.sqrt(11 * 110) - 10.0)) < 1e-9
        assert abs(shifted_geomean([1.0, 100.0], 10.0) - 24.785054261852174) < 1e-9

        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(1, 10))
            v = rng.uniform(0.0, 10800.0, size=n)
            base = shifted_geomean(list(v), 10.0)
            assert shifted_geomean(list(rng.permutation(v)), 10.0) == base or abs(
                shifted_geomean(list(rng.permutation(v)), 10.0) - base
            ) < 1e-9 * max(1.0, base)
            k = int(rng.integers(0, n))
            bumped = v.copy()
            bumped[k] += float(rng.uniform(0.0, 50.0))
            assert shifted_geomean(list(bumped), 10.0) >= base - 1e-9


def test_criterion_scaled_row_reproduction():
    # NOTE: expected RED on two pathological-table columns (SCIP, SCIPC):
    # 4733/160 = 29.58 vs printed 28.8 and 3489/160 = 21.81 vs printed 22.5
    # are both >1.5% off, so the published rows themselves are inconsistent.
    with _Criterion("scaled-row reproduction (<=1.5% per column)", 1.0):
        mismatches = []
        for table in FIXTURES["tables"]:
            ref_label = table["reference"]
            columns = table["columns"]
            unscal = {k: v["unscal"] for k, v in columns.items() if v["unscal"] is not None}
            if ref_label not in unscal:
                continue  # no unscaled row published for this table
            computed = scale(unscal, ref_label)
            for label, cell in columns.items():
                if cell["unscal"] is None or cell["scaled"] is None:
                    continue
                rel = abs(computed[label] - cell["scaled"]) / abs(cell["scaled"])
                if rel > 0.015:
                    mismatches.append(
                        f"{table['name']}/{label}: computed {computed[label]:.4f} "
                        f"vs printed {cell['scaled']} (off {rel:.2%})"
                    )
        assert not mismatches, "; ".join(mismatches)


def test_criterion_reference_solver_oracle_equivalence():
    with _Criterion("reference-solver oracle equivalence (200 x 12)", 60.0):
        rng = np.random.default_rng(17041)
        strategies = [
            (ns, br)
            for ns in (NodeStrategy.BEST_BOUND, NodeStrategy.DEPTH_FIRST)
            for br in (BranchRule.MOST_FRACTIONAL, BranchRule.PSEUDOCOST)
        ]
        outcomes = {"optimal": 0, "infeasible": 0}
        for _ in range(200):
            inst = random_binary_instance(rng, max_vars=10, max_rows=6)
            want_status, want_obj = enumerate_binary_optimum(inst)
            outcomes[want_status] += 1
            for ns, br in strategies:
                for rounds in (0, 1, 2):
                    opts = ReferenceSolverOptions(
                        node_strategy=ns, branch_rule=br, gomory_rounds=rounds
                    )
                    out = branch_and_bound(inst, opts)
                    assert out.status.value == want_status, (inst.name, ns, br, rounds)
                    if want_status == "optimal":
                        assert abs(out.incumbent.objective - want_obj) <= 1e-6
        assert outcomes["optimal"] >= 50 and outcomes["infeasible"] >= 20


def test_criterion_infeasibility_detection(tmp_path):
    with _Criterion("infeasibility detection (25 crafted instances)", 30.0):
        instances = []
        for k in range(8):
            instances.append(contradictory_bounds_instance())
        for k, n in enumerate(range(4, 13)):
            instances.append(parity_infeasible_instance(n, name=f"parity{n:02d}"))
        for k, (n, need) in enumerate([(2, 4), (3, 5), (4, 6), (5, 9), (3, 7), (6, 8), (2, 9), (4, 11)]):
            instances.append(empty_cover_instance(k=need, n=n, name=f"nocover{k}"))
        assert len(instances) == 25

        paths = []
        for k, inst in enumerate(instances):
            renamed = type(inst)(
                name=f"infeas{k:02d}",
                sense=inst.sense,
                variables=inst.variables,
                rows=inst.rows,
                objective=inst.objective,
                objective_constant=inst.objective_constant,
            )
            paths.append(write_instance(tmp_path, renamed))
        ds = DatasetSpec("custom", tuple(paths), 30.0, ObjectiveKind.DETECT_INFEASIBLE)
        log = run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False)
        assert all(r.status is RunStatus.INFEASIBLE for r in log.records), [
            (r.instance_name, r.status.value) for r in log.records if r.status is not RunStatus.INFEASIBLE
        ]
        detected = summarize(log, ds).solved
        assert detected == 25


def test_criterion_incumbent_audit():
    with _Criterion("incumbent audit (11 registry rows)", 1.0):
        registry = load_registry()
        rows = FIXTURES["better_incumbents"]
        assert set(rows) == set(registry.entries)
        for name, row in rows.items():
            entry = registry.entries[name]
            assert compare_incumbent(row["new"], entry) is Verdict.BETTER, name
            flipped = RegistryEntry(-entry.objective, "max", entry.source)
            assert compare_incumbent(-row["new"], flipped) is Verdict.BETTER, name


def test_criterion_protocol_enforcement(tmp_path):
    with _Criterion("protocol enforcement (limit + resume)", 30.0):
        hard = write_instance(tmp_path, market_split_instance(seed=7, n=25, m=4))
        from milpbench.config import Configuration

        record = run_job(hard, BUILTIN, Configuration({}, "default"), 1.0)
        assert record.status is RunStatus.TIME_LIMIT
        assert record.wall_time_s <= 1.0 + grace_seconds(1.0)
        assert record.wall_time_s < 3.0

        paths = [write_instance(tmp_path, chain_instance(8 + k, name=f"pr{k}")) for k in range(3)]
        ds = DatasetSpec("custom", tuple(paths), 30.0)
        out = tmp_path / "protocol.jsonl"
        run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False, log_path=out)
        raw = out.read_text()
        out.write_text(raw[: int(len(raw) * 0.7)])  # simulated crash mid-write
        partial = read_log(out)
        assert len(partial.records) < 3
        resumed = resume_suite(ds, BUILTIN, empty_store(), partial, log_path=out)
        names = [r.instance_name for r in resumed.records]
        assert sorted(names) == ["pr0", "pr1", "pr2"]
        assert len(names) == len(set(names))  # no duplicates
        reloaded = read_log(out)
        assert sorted(r.instance_name for r in reloaded.records) == ["pr0", "pr1", "pr2"]


ADAPTED_CONFIGS = [
    {"15": 1},
    {"15": 2, "14": 1},
    {"15": 1, "36": 1, "24": 1},
    {"15": 2, "4": 1, "19": 2},
    {"15": 1, "37": 0},
]


def test_criterion_default_vs_adapted_end_to_end(tmp_path):
    with _Criterion("default-vs-adapted demonstration (20 instances)", 120.0):
        sizes = list(range(40, 80, 2))
        assert len(sizes) == 20
        names = [f"demo{n:03d}" for n in sizes]
        paths = [write_instance(tmp_path, chain_instance(n, name=nm, off_lattice=True)) for n, nm in zip(sizes, names)]
        store = load_store(
            json.dumps(
                {
                    "configs": {
                        "plain": {},
                        **{f"tuned{k}": cfg for k, cfg in enumerate(ADAPTED_CONFIGS)},
                    },
                    "default": "plain",
                    "by_instance": {nm: f"tuned{k % len(ADAPTED_CONFIGS)}" for k, nm in enumerate(names)},
                }
            )
        )
        ds = DatasetSpec("custom", tuple(paths), 60.0)
        base_log = run_suite(ds, BUILTIN, store, adapt_enabled=False, log_path=tmp_path / "b.jsonl")
        adap_log = run_suite(ds, BUILTIN, store, adapt_enabled=True, log_path=tmp_path / "a.jsonl")

        assert all(r.config_label == "plain" for r in base_log.records)
        assert all(r.config_label.startswith("tuned") for r in adap_log.records)

        s_base = summarize(base_log, ds)
        s_adap = summarize(adap_log, ds)
        assert s_adap.solved >= s_base.solved
        assert s_adap.unscal < s_base.unscal, (s_adap.unscal, s_base.unscal)

        svg = emit_distribution_svg(
            distribution(base_log, adap_log), ds.time_limit_s, tmp_path / "figure.svg"
        )
        text = svg.read_text()
        import re

        polys = re.findall(r'<polyline[^>]*points="([^"]+)"', text)
        assert len(polys) == 2
        assert all(len(p.split()) == 20 for p in polys)


def _normalized_for_report(log: RunLog) -> RunLog:
    """Strip wall-clock and timestamp fields; keep the deterministic parts."""
    clone = RunLog(
        dataset=log.dataset,
        solver_label=log.solver_label,
        adapt_enabled=log.adapt_enabled,
        protocol=dict(log.protocol),
    )
    for r in log.records:
        import copy

        rr = copy.replace(r) if hasattr(copy, "replace") else copy.deepcopy(r)
        rr.wall_time_s = float(rr.ticks if rr.ticks is not None else 0)
        rr.started_at = ""
        rr.host_descriptor = ""
        clone.records.append(rr)
    return clone


def test_criterion_determinism(tmp_path):
    with _Criterion("suite determinism and report byte-identity", 60.0):
        paths = [write_instance(tmp_path, chain_instance(10 + 3 * k, name=f"det{k}")) for k in range(4)]
        paths.append(write_instance(tmp_path, knapsack_2var()))
        ds = DatasetSpec("custom", tuple(paths), 30.0)
        store = load_store(
            json.dumps(
                {
                    "configs": {"plain": {}, "cuts": {"15": 1, "14": 1}},
                    "default": "plain",
                    "by_instance": {"det1": "cuts", "det3": "cuts"},
                }
            )
        )
        runs = [run_suite(ds, BUILTIN, store, adapt_enabled=True) for _ in range(2)]
        a, b = runs
        assert [(r.instance_name, r.status, r.objective, r.nodes, r.ticks) for r in a.records] == [
            (r.instance_name, r.status, r.objective, r.nodes, r.ticks) for r in b.records
        ]

        outputs = []
        for k, log in enumerate(runs):
            norm = _normalized_for_report(log)
            summary = summarize(norm, ds)
            table = render_table(attach_scaled([summary], summary.solver_label))
            series = distribution(norm, norm)
            svg = emit_distribution_svg(series, ds.time_limit_s, tmp_path / f"det{k}.svg")
            outputs.append((table, svg.read_bytes()))
        assert outputs[0] == outputs[1]
