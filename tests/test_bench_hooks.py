"""The traced benchmark run (``perfbench/run.py --trace 1``) reaches each
layer by patching module attributes of the program (``perfbench/tracing.py``).
A one-instance suite under that tracer must still open a span in every layer,
so a refactor that renames a patched attribute fails here and not only in a
traced benchmark run.  The test imports from ``perfbench/`` and writes nothing
there."""

import importlib
import sys
from pathlib import Path

from milpbench import runner
from milpbench.config import empty_store

from _helpers import knapsack_2var, write_instance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_suite_reaches_every_patched_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = importlib.import_module("tracing")
    path = write_instance(tmp_path, knapsack_2var())
    ds = runner.DatasetSpec("custom", (path,), 30.0)
    backend = runner.BackendSpec(kind=runner.BackendKind.BUILTIN, solution_path_template="{instance}.sol")

    with tracing.Tracer() as tracer:
        log = runner.run_suite(ds, backend, empty_store(), False, work_dir=tmp_path / "out")

    assert [r.status for r in log.records] == [runner.RunStatus.OPTIMAL]
    names = [span.name for span in tracer.spans]
    for layer in ("runner", "mps", "bnb", "presolve", "simplex", "runner.solution_write"):
        assert layer in names, layer
    assert names.count("runner.solution_write") == 2  # the solution and its status sidecar
    assert (tmp_path / "out" / "knap2.sol.status").read_text().strip() == "optimal"
