"""The traced benchmark run (``perfbench/run.py --trace 1``) reaches each
layer by patching module attributes of the program (``perfbench/tracing.py``).
A two-instance suite with cut rounds under that tracer must still open a span
in every layer, with its LPs in the order the tracer labels them by, so a
refactor that renames a patched attribute or reorders LPs fails here and not
only in a traced benchmark run.  The test imports from ``perfbench/`` and
writes nothing there."""

import importlib
import sys
from pathlib import Path

from milpbench import runner
from milpbench.config import ConfigStore, Configuration

from _helpers import knapsack_2var, two_row_knapsack, write_instance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Gomory rounds (15), covers (14) and diving (4): the root LP, cut LPs and tree LPs all run
_CUTS = Configuration({4: 1, 14: 1, 15: 3}, "cuts")


def test_traced_suite_reaches_every_patched_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = importlib.import_module("tracing")
    paths = tuple(write_instance(tmp_path, inst) for inst in (knapsack_2var(), two_row_knapsack()))
    ds = runner.DatasetSpec("custom", paths, 30.0)
    backend = runner.BackendSpec(kind=runner.BackendKind.BUILTIN, solution_path_template="{instance}.sol")
    store = ConfigStore({"cuts": _CUTS}, {}, (), "cuts")

    with tracing.Tracer() as tracer:
        log = runner.run_suite(ds, backend, store, False, work_dir=tmp_path / "out")

    assert [r.status for r in log.records] == [runner.RunStatus.OPTIMAL] * 2
    names = [span.name for span in tracer.spans]
    for layer in ("runner", "mps", "bnb", "presolve", "simplex", "runner.solution_write", "cuts.gomory", "cuts.cover"):
        assert layer in names, layer
    assert names.count("runner.solution_write") == 2  # per job, the solution; the record carries the status
    assert not (tmp_path / "out" / "knap2.sol.status").exists()
    # the tracer labels LPs by call order: in each solve the root LP comes
    # first, then the cut LPs, then the dive and node LPs
    rank = {"root": 0, "cut_lp": 1, "tree": 2}
    solves = [k for k, span in enumerate(tracer.spans) if span.name == "bnb"]
    kinds = [[rank[s.data["kind"]] for s in tracer.spans if s.name == "simplex" and s.parent == k] for k in solves]
    assert all(k[0] == 0 and k == sorted(k) for k in kinds), kinds
    assert {kind for k in kinds for kind in k} == {0, 1, 2}
