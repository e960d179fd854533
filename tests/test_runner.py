import dataclasses
import gzip
import json
import time
from pathlib import Path

import pytest

from milpbench.config import Configuration, empty_store, load_store
from milpbench.mps import write_mps
from milpbench.runner import (
    BackendKind,
    BackendSpec,
    DatasetMismatch,
    DatasetSpec,
    ObjectiveKind,
    RunRecord,
    RunStatus,
    _LogWriter,
    grace_seconds,
    load_dataset,
    read_log,
    resume_suite,
    run_job,
    run_suite,
)
from milpbench.scores import summarize

from _helpers import (
    chain_instance,
    contradictory_bounds_instance,
    enumerate_binary_optimum,
    knapsack_2var,
    market_split_instance,
    parity_infeasible_instance,
    write_instance,
)

BUILTIN = BackendSpec(kind=BackendKind.BUILTIN)


def default_cfg():
    return Configuration({}, "default")


def test_named_dataset_limit_must_be_canonical():
    with pytest.raises(ValueError):
        DatasetSpec("miplib240", ("a.mps",), 1234.0)
    ds = DatasetSpec("miplib240", ("a.mps",), 7200.0)
    assert ds.objective_kind is ObjectiveKind.OPTIMIZE


def test_external_backend_requires_placeholders():
    with pytest.raises(ValueError, match="placeholders"):
        BackendSpec(kind=BackendKind.EXTERNAL, command_template="solver {instance}")


def test_run_job_builtin_knapsack(tmp_path):
    path = write_instance(tmp_path, knapsack_2var())
    want = enumerate_binary_optimum(knapsack_2var())
    record = run_job(path, BUILTIN, default_cfg(), 30.0)
    assert record.status is RunStatus.OPTIMAL
    assert record.objective == pytest.approx(want[1], abs=1e-9)
    assert record.wall_time_s >= 0.0
    assert record.nodes >= 1
    assert record.ticks >= 1


def test_run_job_builtin_infeasible(tmp_path):
    path = write_instance(tmp_path, contradictory_bounds_instance())
    record = run_job(path, BUILTIN, default_cfg(), 30.0)
    assert record.status is RunStatus.INFEASIBLE
    assert record.objective is None


def test_run_job_parse_failure_is_error_record(tmp_path):
    bad = tmp_path / "broken.mps"
    bad.write_text("ROWS\n nonsense\n")
    record = run_job(bad, BUILTIN, default_cfg(), 30.0)
    assert record.status is RunStatus.ERROR
    assert "parse" in record.diagnostics


def test_run_job_writes_solution_files(tmp_path):
    path = write_instance(tmp_path, knapsack_2var())
    backend = BackendSpec(kind=BackendKind.BUILTIN, solution_path_template="{instance}.sol")
    record = run_job(path, backend, default_cfg(), 30.0, work_dir=tmp_path)
    sol = Path(record.solution_path)
    assert sol.exists()
    text = sol.read_text()
    assert "=obj=" in text
    assert record.status is RunStatus.OPTIMAL  # the record carries the status: a suite job writes no sidecar
    assert not (tmp_path / "knap2.sol.status").exists()


FAKE_SOLVER = """\
import sys

instance, config, timelimit, solution = sys.argv[1:5]
mode = sys.argv[5] if len(sys.argv) > 5 else "ok"
if mode == "crash":
    sys.exit(3)
if mode == "garbage":
    open(solution + ".status", "w").write("no-such-status\\n")
    sys.exit(0)
with open(solution, "w") as fh:
    fh.write("x0 0.0\\nx1 1.0\\n=obj= -2.0\\n")
with open(solution + ".status", "w") as fh:
    fh.write("optimal\\n")
"""


def _external_backend(tmp_path, mode="ok"):
    script = tmp_path / "fake_solver.py"
    script.write_text(FAKE_SOLVER)
    return BackendSpec(
        kind=BackendKind.EXTERNAL,
        command_template=f"python3 {script} {{instance}} {{config}} {{timelimit}} {{solution}} {mode}",
        solution_path_template="{instance}.extsol",
    )


def test_external_backend_round_trip(tmp_path):
    path = write_instance(tmp_path, knapsack_2var())
    backend = _external_backend(tmp_path)
    record = run_job(path, backend, default_cfg(), 20.0, solver_label="ext", work_dir=tmp_path)
    assert record.status is RunStatus.OPTIMAL
    assert record.objective == pytest.approx(-2.0)
    assert record.solver_label == "ext"
    assert Path(record.solution_path).read_text().startswith("x0")


def test_external_backend_nonzero_exit_is_error(tmp_path):
    path = write_instance(tmp_path, knapsack_2var())
    backend = _external_backend(tmp_path, mode="crash")
    record = run_job(path, backend, default_cfg(), 20.0, work_dir=tmp_path)
    assert record.status is RunStatus.ERROR
    assert "exit code 3" in record.diagnostics


def test_external_backend_bad_status_is_error(tmp_path):
    path = write_instance(tmp_path, knapsack_2var())
    backend = _external_backend(tmp_path, mode="garbage")
    record = run_job(path, backend, default_cfg(), 20.0, work_dir=tmp_path)
    assert record.status is RunStatus.ERROR


def test_external_backend_killed_past_grace(tmp_path, monkeypatch):
    import milpbench.runner as runner_mod

    script = tmp_path / "sleeper.py"
    script.write_text("import time, sys\ntime.sleep(30)\n")
    backend = BackendSpec(
        kind=BackendKind.EXTERNAL,
        command_template=f"python3 {script} {{instance}} {{config}} {{timelimit}} {{solution}}",
        solution_path_template="{instance}.sol",
    )
    monkeypatch.setattr(runner_mod, "grace_seconds", lambda limit: 0.3)
    path = write_instance(tmp_path, knapsack_2var())
    t0 = time.monotonic()
    record = run_job(path, backend, default_cfg(), 0.2, work_dir=tmp_path)
    assert record.status is RunStatus.TIME_LIMIT
    assert "killed" in record.diagnostics
    assert time.monotonic() - t0 < 10.0


def _tiny_dataset(tmp_path, n=3) -> DatasetSpec:
    paths = [write_instance(tmp_path, chain_instance(6 + k, name=f"tiny{k}")) for k in range(n)]
    return DatasetSpec("custom", tuple(paths), 30.0)


def test_run_suite_default_labels(tmp_path):
    ds = _tiny_dataset(tmp_path)
    log = run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False)
    assert len(log.records) == 3
    assert [r.instance_name for r in log.records] == ["tiny0", "tiny1", "tiny2"]
    assert all(r.config_label == "default" for r in log.records)
    assert all(r.status is RunStatus.OPTIMAL for r in log.records)
    assert log.solver_label == "builtin-default"


def test_run_suite_by_instance_override(tmp_path):
    ds = _tiny_dataset(tmp_path)
    store = load_store(
        json.dumps(
            {
                "configs": {"default": {}, "special": {"15": 1}},
                "default": "default",
                "by_instance": {"tiny1": "special"},
            }
        )
    )
    log = run_suite(ds, BUILTIN, store, adapt_enabled=True)
    labels = {r.instance_name: r.config_label for r in log.records}
    assert labels == {"tiny0": "default", "tiny1": "special", "tiny2": "default"}


def test_run_suite_detect_infeasible(tmp_path):
    paths = [
        write_instance(tmp_path, parity_infeasible_instance(5, name=f"inf{k}")) for k in range(3)
    ]
    ds = DatasetSpec("custom", tuple(paths), 30.0, ObjectiveKind.DETECT_INFEASIBLE)
    log = run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False)
    assert all(r.status is RunStatus.INFEASIBLE for r in log.records)


def test_run_suite_unreadable_instance_continues(tmp_path):
    good = write_instance(tmp_path, knapsack_2var())
    ds = DatasetSpec("custom", (str(tmp_path / "missing.mps"), good), 30.0)
    log = run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False)
    assert [r.status for r in log.records] == [RunStatus.ERROR, RunStatus.OPTIMAL]


def test_a_nan_file_first_is_an_error_record_and_the_suite_goes_on(tmp_path):
    bad = tmp_path / "nan.mps"
    bad.write_text(write_mps(knapsack_2var()).replace("    x1  c1  1.0", "    x1  c1  nan"))
    good = write_instance(tmp_path, chain_instance(6))
    ds = DatasetSpec("custom", (str(bad), good), 30.0)
    log = run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False)
    assert [r.status for r in log.records] == [RunStatus.ERROR, RunStatus.OPTIMAL]
    assert log.records[0].instance_name == "nan"
    assert "parse failure" in log.records[0].diagnostics and "NaN" in log.records[0].diagnostics


@pytest.mark.parametrize(
    "edit",
    [("    x0  c1  1.0", "    x0  c1  inf"), ("    x0  obj  -1.0", "    x0  obj  -inf")],
    ids=["row", "objective"],
)
def test_an_infinite_coefficient_file_first_is_an_error_record_and_the_suite_goes_on(tmp_path, edit):
    bad = tmp_path / "inf.mps"
    bad.write_text(write_mps(knapsack_2var()).replace(*edit))
    good = write_instance(tmp_path, chain_instance(6))
    log = run_suite(DatasetSpec("custom", (str(bad), good), 30.0), BUILTIN, empty_store(), adapt_enabled=False)
    assert [r.status for r in log.records] == [RunStatus.ERROR, RunStatus.OPTIMAL]
    assert "parse failure" in log.records[0].diagnostics and "infinite coefficient" in log.records[0].diagnostics


def test_unreadable_files_between_good_ones_each_get_one_error_record(tmp_path):
    text = write_mps(knapsack_2var())
    bad = {
        "binary.mps": b"NAME \xff\xfe\n",  # not text
        "cut.mps.gz": gzip.compress(text.encode(), mtime=0)[:-12],  # a gzip stream cut short
        "corrupt.mps.gz": gzip.compress(text.encode(), mtime=0)[:10] + b"\x07" + bytes(20),  # bad deflate data
        "folder.mps": None,  # a directory
    }
    paths = []
    for k, (name, data) in enumerate(bad.items()):
        paths.append(write_instance(tmp_path, chain_instance(6 + k, name=f"good{k}")))
        path = tmp_path / name
        if data is None:
            path.mkdir()
        else:
            path.write_bytes(data)
        paths.append(str(path))
    # a binary whose BV comes before MI: its bounds still meet [0, 1]
    paths.append(str(tmp_path / "bv_mi.mps"))
    Path(paths[-1]).write_text(text.replace(" BV BND  x0", " BV BND  x0\n MI BND  x0"))
    ds = DatasetSpec("custom", tuple(paths), 30.0)
    out = tmp_path / "run.jsonl"
    log = run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False, log_path=out)
    assert [r.instance_path for r in log.records] == paths
    assert len(read_log(out).records) == len(paths)
    errors = [r for r in log.records if r.status is RunStatus.ERROR]
    assert [r.instance_name for r in errors] == ["binary", "cut", "corrupt", "folder"]
    assert all(r.diagnostics.startswith("parse failure:") for r in errors)
    assert log.by_instance()["knap2"].objective == -2.0


def test_log_round_trip_and_header(tmp_path):
    ds = _tiny_dataset(tmp_path)
    out = tmp_path / "run.jsonl"
    log = run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False, log_path=out)
    loaded = read_log(out)
    assert loaded.dataset == ds
    assert loaded.solver_label == log.solver_label
    assert loaded.adapt_enabled is False
    assert [r.instance_name for r in loaded.records] == [r.instance_name for r in log.records]
    assert [r.status for r in loaded.records] == [r.status for r in log.records]
    assert loaded.protocol["shift"] == 10.0
    assert loaded.protocol["gap_tolerance"] == 0.0


def test_second_run_into_one_log_replaces_it(tmp_path):
    ds = _tiny_dataset(tmp_path, n=2)
    out = tmp_path / "run.jsonl"
    run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False, log_path=out)
    run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False, solver_label="other", log_path=out)
    kinds = [json.loads(line).get("kind") for line in out.read_text().splitlines()]
    assert kinds.count("header") == 1
    loaded = read_log(out)
    assert loaded.solver_label == "other"
    assert [r.instance_name for r in loaded.records] == ["tiny0", "tiny1"]
    assert {r.solver_label for r in loaded.records} == {"other"}


def test_resume_skips_done_and_runs_missing(tmp_path):
    ds = _tiny_dataset(tmp_path)
    out = tmp_path / "run.jsonl"
    full = run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False, log_path=out)
    # simulate a crash: drop the last record line
    lines = out.read_text().splitlines()
    out.write_text("\n".join(lines[:-1]) + "\n")
    partial = read_log(out)
    assert len(partial.records) == 2

    resumed = resume_suite(ds, BUILTIN, empty_store(), partial, log_path=out)
    assert len(resumed.records) == 3
    assert {r.instance_name for r in resumed.records} == {"tiny0", "tiny1", "tiny2"}
    again = read_log(out)
    assert len(again.records) == 3


def test_resume_complete_log_runs_nothing(tmp_path):
    ds = _tiny_dataset(tmp_path)
    full = run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False)
    ticks_before = [r.ticks for r in full.records]
    resumed = resume_suite(ds, BUILTIN, empty_store(), full)
    assert [r.ticks for r in resumed.records] == ticks_before
    assert [r.started_at for r in resumed.records] == [r.started_at for r in full.records]


def test_resume_reruns_error_records(tmp_path):
    ds = _tiny_dataset(tmp_path)
    full = run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False)
    broken = full.records[1]
    broken.status = RunStatus.ERROR
    broken.diagnostics = "synthetic failure"
    resumed = resume_suite(ds, BUILTIN, empty_store(), full)
    assert len(resumed.records) == 3
    fixed = resumed.by_instance()["tiny1"]
    assert fixed.status is RunStatus.OPTIMAL
    assert [r.instance_name for r in resumed.records] == ["tiny0", "tiny1", "tiny2"]  # replaced in place


def test_resume_dataset_mismatch(tmp_path):
    ds = _tiny_dataset(tmp_path)
    other = DatasetSpec("custom", ds.instance_paths[:2], 30.0)
    full = run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False)
    with pytest.raises(DatasetMismatch):
        resume_suite(other, BUILTIN, empty_store(), full)


def test_crash_truncation_mid_record_is_recoverable(tmp_path):
    ds = _tiny_dataset(tmp_path)
    out = tmp_path / "run.jsonl"
    run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False, log_path=out)
    raw = out.read_text()
    out.write_text(raw[: len(raw) - 40])  # tear the final record in half
    partial = read_log(out)
    assert len(partial.records) == 2
    resumed = resume_suite(ds, BUILTIN, empty_store(), partial, log_path=out)
    assert len(resumed.records) == 3
    assert len(read_log(out).records) == 3


@pytest.mark.parametrize("keep_records", [0, 1, 2])
def test_truncation_after_any_record_is_recoverable(tmp_path, keep_records):
    ds = _tiny_dataset(tmp_path)
    out = tmp_path / "run.jsonl"
    run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False, log_path=out)
    lines = out.read_text().splitlines()
    out.write_text("\n".join(lines[: 1 + keep_records]) + "\n")  # header + k records
    partial = read_log(out)
    assert len(partial.records) == keep_records
    resumed = resume_suite(ds, BUILTIN, empty_store(), partial, log_path=out)
    assert sorted(r.instance_name for r in resumed.records) == ["tiny0", "tiny1", "tiny2"]
    assert len(read_log(out).records) == 3


def test_timeout_safety_hard_instance(tmp_path):
    path = write_instance(tmp_path, market_split_instance(seed=7, n=25, m=4))
    t0 = time.monotonic()
    record = run_job(path, BUILTIN, default_cfg(), 1.0)
    elapsed = time.monotonic() - t0
    assert record.status is RunStatus.TIME_LIMIT
    assert record.wall_time_s <= 1.0 + grace_seconds(1.0)
    assert elapsed <= 1.0 + grace_seconds(1.0)
    assert record.wall_time_s < 3.0  # in practice the solver stops right at the deadline


def test_dataset_file_loader(tmp_path):
    p1 = write_instance(tmp_path, knapsack_2var())
    doc = {"name": "custom", "instances": [p1], "time_limit_s": 12.5}
    ds_path = tmp_path / "ds.json"
    ds_path.write_text(json.dumps(doc))
    ds = load_dataset(ds_path)
    assert ds.time_limit_s == 12.5
    assert ds.instance_paths == (p1,)
    ds_path.write_text(json.dumps(dict(doc, instances=["sub/x.mps"])))
    assert load_dataset(str(ds_path)).instance_paths == (str(tmp_path / "sub" / "x.mps"),)


def test_suite_determinism_builtin(tmp_path):
    ds = _tiny_dataset(tmp_path)
    a = run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False)
    b = run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False)
    assert [(r.status, r.objective, r.nodes, r.ticks) for r in a.records] == [
        (r.status, r.objective, r.nodes, r.ticks) for r in b.records
    ]


def test_parallel_suite_keeps_record_order(tmp_path):
    ds = _tiny_dataset(tmp_path, n=4)
    seq = run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False)
    par = run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False, parallel=2)
    assert [r.instance_name for r in par.records] == [r.instance_name for r in seq.records]
    assert [(r.status, r.objective, r.nodes) for r in par.records] == [
        (r.status, r.objective, r.nodes) for r in seq.records
    ]


def _count_parses_and_jobs(monkeypatch) -> dict:
    import milpbench.runner as runner_mod

    calls = {"parse": 0, "job": 0}
    real_load, real_job = runner_mod.load_instance, runner_mod.run_job

    def load_instance(path):
        calls["parse"] += 1
        return real_load(path)

    def run_job(*args, **kwargs):
        calls["job"] += 1
        return real_job(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "load_instance", load_instance)
    monkeypatch.setattr(runner_mod, "run_job", run_job)
    return calls


@pytest.mark.parametrize("adapt_enabled", [False, True])
def test_run_suite_parses_each_path_once(tmp_path, monkeypatch, adapt_enabled):
    ds = _tiny_dataset(tmp_path, n=4)
    calls = _count_parses_and_jobs(monkeypatch)
    log = run_suite(ds, BUILTIN, empty_store(), adapt_enabled=adapt_enabled)
    assert all(r.status is RunStatus.OPTIMAL for r in log.records)
    assert calls == {"parse": 4, "job": 4}


def test_resume_suite_parses_each_path_once(tmp_path, monkeypatch):
    ds = _tiny_dataset(tmp_path, n=4)
    full = run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False)
    full.records[2].status = RunStatus.ERROR
    calls = _count_parses_and_jobs(monkeypatch)
    resumed = resume_suite(ds, BUILTIN, empty_store(), full)
    assert resumed.by_instance()["tiny2"].status is RunStatus.OPTIMAL
    assert calls == {"parse": 1, "job": 1}


def test_name_cards_unlike_their_stems_resume_and_report_by_path(tmp_path, monkeypatch):
    names = {"a": "a", "b": "b", "c": "card_c", "d": "d", "e": "card_e"}
    paths = []
    for stem, name in names.items():
        path = tmp_path / f"{stem}.mps"
        path.write_text(write_mps(chain_instance(6, name=name)))
        paths.append(str(path))
    ds = DatasetSpec("custom", tuple(paths), 30.0)
    out = tmp_path / "run.jsonl"
    run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False, log_path=out)
    lines = out.read_text().splitlines(keepends=True)
    out.write_text("".join(lines[:5]) + lines[5][:40])  # the header, four records and a torn fifth

    partial = read_log(out)
    assert [r.instance_name for r in partial.records] == ["a", "b", "card_c", "d"]
    with pytest.raises(ValueError) as err:
        summarize(partial, ds)
    assert str(err.value).endswith(f"missing instances: {paths[4]}")

    calls = _count_parses_and_jobs(monkeypatch)
    resume_suite(ds, BUILTIN, empty_store(), partial, log_path=out)
    assert calls == {"parse": 1, "job": 1}
    resumed = read_log(out)
    assert [r.instance_path for r in resumed.records] == paths
    assert summarize(resumed, ds).solved == 5


def test_two_files_with_one_name_report_the_path_without_a_record(tmp_path):
    paths = []
    for sub, n in (("a", 6), ("b", 7)):
        (tmp_path / sub).mkdir()
        paths.append(write_instance(tmp_path / sub, chain_instance(n, name="knap")))
    ds = DatasetSpec("custom", tuple(paths), 30.0)
    out = tmp_path / "run.jsonl"
    log = run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False, log_path=out)
    assert len(out.read_text().splitlines()) == 3
    assert [r.instance_path for r in log.records] == [paths[1]]
    with pytest.raises(ValueError) as err:
        summarize(read_log(out), ds)
    assert str(err.value).endswith(f"missing instances: {paths[0]}")


def test_log_written_without_instance_paths_loads_and_resume_reruns_them(tmp_path, monkeypatch):
    ds = _tiny_dataset(tmp_path, n=3)
    out = tmp_path / "run.jsonl"
    run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False, log_path=out)
    header, *records = [json.loads(line) for line in out.read_text().splitlines()]
    for doc in records:
        del doc["instance_path"]
    out.write_text("".join(json.dumps(doc) + "\n" for doc in [header, *records]))

    old = read_log(out)
    assert [r.instance_path for r in old.records] == [None, None, None]
    calls = _count_parses_and_jobs(monkeypatch)
    resume_suite(ds, BUILTIN, empty_store(), old, log_path=out)
    assert calls == {"parse": 3, "job": 3}
    reloaded = read_log(out)
    assert [r.instance_name for r in reloaded.records] == ["tiny0", "tiny1", "tiny2"]
    assert [r.instance_path for r in reloaded.records] == list(ds.instance_paths)
    assert all(r.status is RunStatus.OPTIMAL for r in reloaded.records)


def test_corrupt_gzip_in_suite_is_error_then_rerun_on_resume(tmp_path):
    good = write_instance(tmp_path, knapsack_2var())
    bad = tmp_path / "x.mps.gz"
    bad.write_bytes(b"this is not gzip data")
    ds = DatasetSpec("custom", (good, str(bad)), 30.0)
    out = tmp_path / "run.jsonl"
    log = run_suite(ds, BUILTIN, empty_store(), adapt_enabled=False, log_path=out)
    assert [r.instance_name for r in log.records] == ["knap2", "x"]
    error = log.by_instance()["x"]
    assert error.status is RunStatus.ERROR
    assert error.config_label == ""
    assert "parse failure" in error.diagnostics

    with gzip.open(bad, "wt") as fh:
        fh.write(write_mps(chain_instance(6, name="x")))
    resume_suite(ds, BUILTIN, empty_store(), read_log(out), log_path=out)
    reloaded = read_log(out).by_instance()
    assert reloaded["x"].status is RunStatus.OPTIMAL
    assert reloaded["knap2"].status is RunStatus.OPTIMAL


def _record(name, label="s", objective=0.0):
    return RunRecord(name, label, "default", RunStatus.OPTIMAL, 1.0, objective=objective)


def test_read_log_replaces_in_place_and_keeps_first_insertion_order(tmp_path):
    header = {"kind": "header", "dataset": DatasetSpec("d", (), 10.0).to_dict(), "solver_label": "s"}
    records = [
        _record("a"),
        _record("b"),
        _record("c"),
        _record("b", objective=2.0),
        _record("b", label="other"),
        _record("d"),
        _record("d", objective=4.0),
    ]
    out = tmp_path / "run.jsonl"
    lines = [json.dumps(header)] + [json.dumps(r.to_dict()) for r in records]
    out.write_text("\n".join(lines) + '\n{"kind": "record", "instance_na')  # torn tail
    assert [(r.instance_name, r.solver_label, r.objective) for r in read_log(out).records] == [
        ("a", "s", 0.0),
        ("b", "s", 2.0),
        ("c", "s", 0.0),
        ("b", "other", 0.0),
        ("d", "s", 4.0),
    ]


@pytest.mark.parametrize(
    "record",
    [
        RunRecord("a", "s", "", RunStatus.ERROR, 0.0),
        RunRecord(
            "b", "builtin-adapted", "cfg", RunStatus.TIME_LIMIT, 1.5, objective=-2.0, best_bound=-3.25,
            solution_path="/w/b.sol", started_at="2026-01-02T03:04:05+00:00", host_descriptor="h/x86_64",
            nodes=7, ticks=42, diagnostics="note", instance_path="/d/b.mps",
        ),
    ],
    ids=["optional-fields-none", "every-field-set"],
)
def test_record_line_is_the_asdict_line_and_round_trips(record):
    reference = dataclasses.asdict(record)
    reference["status"] = record.status.value
    reference["kind"] = "record"
    assert json.dumps(record.to_dict()) == json.dumps(reference)
    assert RunRecord.from_dict(json.loads(json.dumps(record.to_dict()))) == record


@pytest.mark.parametrize("tail", ['{"kind": "record", "instance_na', ""], ids=["torn", "whole"])
def test_resume_writer_heals_a_torn_tail_then_appends(tmp_path, tail):
    header = {"kind": "header", "dataset": DatasetSpec("d", (), 10.0).to_dict(), "solver_label": "s"}
    kept = [json.dumps(header), json.dumps(_record("a").to_dict())]
    out = tmp_path / "run.jsonl"
    out.write_text("\n".join(kept) + "\n" + tail)
    writer = _LogWriter(out, read_log(out), append=True)
    writer.write(_record("b"))
    writer.close()
    assert out.read_text() == "\n".join(kept + ([tail] if tail else []) + [json.dumps(_record("b").to_dict())]) + "\n"
    assert [r.instance_name for r in read_log(out).records] == ["a", "b"]
