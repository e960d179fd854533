import json
from pathlib import Path

import numpy as np
import pytest

from milpbench.config import empty_store
from milpbench.runner import BackendKind, BackendSpec, DatasetSpec, run_suite
from milpbench.solver import ReferenceSolverOptions, Solution, branch_and_bound
from milpbench.validate import (
    RegistryEntry,
    Verdict,
    audit_log_incumbents,
    check_feasibility,
    compare_incumbent,
    load_registry,
)

from _helpers import knapsack_2var, random_binary_instance, write_instance

FIXTURES = json.loads((Path(__file__).parent / "data" / "benchmark_tables.json").read_text())
INCUMBENT_ROWS = FIXTURES["better_incumbents"]


def test_knapsack_point_feasible_with_recomputed_objective():
    # substitute (x0, x1) = (0, 1) by hand: row activity 1 <= 1, objective -2
    inst = knapsack_2var()
    report = check_feasibility(inst, Solution({"x0": 0.0, "x1": 1.0}, -2.0))
    assert report.feasible
    assert report.max_row_violation == 0.0
    assert report.max_bound_violation == 0.0
    assert report.max_integrality_violation == 0.0
    assert report.objective_recomputed == pytest.approx(-2.0, abs=0)


def test_fractional_integer_value_flagged():
    inst = knapsack_2var()
    report = check_feasibility(inst, Solution({"x0": 0.5, "x1": 0.0}, -0.5), int_tol=1e-6)
    assert report.max_integrality_violation == pytest.approx(0.5, abs=0)
    assert not report.feasible


def test_row_violation_magnitude():
    inst = knapsack_2var()
    report = check_feasibility(inst, Solution({"x0": 1.0, "x1": 1.0}, -3.0))
    assert report.max_row_violation == pytest.approx(1.0, abs=0)
    assert not report.feasible


def test_missing_values_default_to_zero_with_warning():
    inst = knapsack_2var()
    with pytest.warns(UserWarning, match="missing"):
        report = check_feasibility(inst, Solution({"x1": 1.0}, -2.0))
    assert report.feasible
    assert report.objective_recomputed == -2.0


def test_zero_tolerances_accept_exactly_the_feasible_points():
    rng = np.random.default_rng(4242)
    import itertools

    for _ in range(25):
        inst = random_binary_instance(rng, max_vars=5, max_rows=4)
        names = [v.name for v in inst.variables]
        for bits in itertools.product((0.0, 1.0), repeat=inst.n_vars):
            exact_ok = True
            for row in inst.rows:  # integral data: exact arithmetic
                act = sum(c * bits[j] for j, c in row.coefficients)
                lo, hi = row.interval()
                if act < lo or act > hi:
                    exact_ok = False
                    break
            sol = Solution(dict(zip(names, bits)), 0.0)
            report = check_feasibility(inst, sol, 0.0, 0.0, 0.0)
            assert report.feasible == exact_ok


@pytest.mark.parametrize("name", ["ns1690781", "nsr8k"])
def test_named_incumbent_rows_are_better(name):
    row = INCUMBENT_ROWS[name]
    verdict = compare_incumbent(row["new"], RegistryEntry(row["previous"], "min"))
    assert verdict is Verdict.BETTER


def test_exact_tie_is_tied():
    assert compare_incumbent(5.0, RegistryEntry(5.0, "min")) is Verdict.TIED


def test_worse_value_detected():
    assert compare_incumbent(6.0, RegistryEntry(5.0, "min")) is Verdict.WORSE
    assert compare_incumbent(4.0, RegistryEntry(5.0, "max")) is Verdict.WORSE


def test_sense_flip_antisymmetry():
    rng = np.random.default_rng(31337)
    for _ in range(200):
        prev = float(rng.normal(scale=1000))
        new = prev + float(rng.normal(scale=1.0))
        v_min = compare_incumbent(new, RegistryEntry(prev, "min"))
        v_max = compare_incumbent(-new, RegistryEntry(-prev, "max"))
        assert v_min == v_max
    for name, row in INCUMBENT_ROWS.items():
        v_min = compare_incumbent(row["new"], RegistryEntry(row["previous"], "min"))
        v_max = compare_incumbent(-row["new"], RegistryEntry(-row["previous"], "max"))
        assert v_min == v_max == Verdict.BETTER, name


def test_shipped_registry_covers_the_incumbent_table():
    registry = load_registry()
    assert set(registry.entries) == set(INCUMBENT_ROWS)
    for name, row in INCUMBENT_ROWS.items():
        entry = registry.entries[name]
        assert entry.objective == row["previous"]
        assert entry.sense == "min"
        assert compare_incumbent(row["new"], entry) is Verdict.BETTER


def test_audit_classifies_better_infeasible_and_skipped(tmp_path):
    inst = knapsack_2var()
    path = write_instance(tmp_path, inst)
    registry_path = tmp_path / "registry.json"
    registry_path.write_text(json.dumps({"knap2": {"objective": -1.0, "sense": "min"}}))
    registry = load_registry(registry_path)

    backend = BackendSpec(kind=BackendKind.BUILTIN, solution_path_template="{instance}.sol")
    ds = DatasetSpec("custom", (path,), 30.0)
    log = run_suite(ds, backend, empty_store(), adapt_enabled=False, work_dir=tmp_path)
    entries = audit_log_incumbents(log, {"knap2": path}, registry)
    assert len(entries) == 1
    assert entries[0].verdict is Verdict.BETTER  # -2 beats the registry's -1
    assert entries[0].report.feasible

    # an infeasible claimed solution is excluded from "better" despite its objective
    sol = tmp_path / "fake.sol"
    sol.write_text("x0 1.0\nx1 1.0\n=obj= -3.0\n")
    log.records[0].solution_path = str(sol)
    entries = audit_log_incumbents(log, {"knap2": path}, registry)
    assert entries[0].verdict is Verdict.INFEASIBLE

    # no solution at all: skipped with a note
    log.records[0].solution_path = None
    entries = audit_log_incumbents(log, {"knap2": path}, registry)
    assert entries[0].verdict is Verdict.SKIPPED
    assert entries[0].note


def test_audit_unreadable_solution_is_unverifiable(tmp_path):
    inst = knapsack_2var()
    path = write_instance(tmp_path, inst)
    backend = BackendSpec(kind=BackendKind.BUILTIN, solution_path_template="{instance}.sol")
    ds = DatasetSpec("custom", (path,), 30.0)
    log = run_suite(ds, backend, empty_store(), adapt_enabled=False, work_dir=tmp_path)
    log.records[0].solution_path = str(tmp_path / "vanished.sol")
    entries = audit_log_incumbents(log, {"knap2": path}, load_registry())
    assert entries[0].verdict is Verdict.UNVERIFIABLE


def test_solver_incumbents_audit_clean_at_1e6(tmp_path):
    rng = np.random.default_rng(606)
    for _ in range(15):
        inst = random_binary_instance(rng, max_vars=7, max_rows=4)
        out = branch_and_bound(inst, ReferenceSolverOptions(gomory_rounds=1, cover_cuts=True))
        if out.incumbent is None:
            continue
        report = check_feasibility(inst, out.incumbent, 1e-6, 1e-6, 1e-6)
        assert report.feasible
