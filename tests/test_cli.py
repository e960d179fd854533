import json

import pytest

from milpbench.cli import cli_dispatch
from milpbench.runner import DatasetSpec, RunLog, RunRecord, RunStatus
from milpbench.scores import shifted_geomean
from milpbench.validate import audit_log_incumbents, load_registry

from _helpers import (
    chain_instance,
    knapsack_2var,
    parity_infeasible_instance,
    write_instance,
)


def _write_store(tmp_path, doc) -> str:
    path = tmp_path / "store.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _write_dataset(tmp_path, paths, limit=30.0, kind="optimize") -> str:
    doc = {"name": "custom", "instances": list(paths), "time_limit_s": limit, "objective_kind": kind}
    path = tmp_path / "dataset.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_solve_subcommand(tmp_path, capsys):
    mps = write_instance(tmp_path, knapsack_2var())
    sol = tmp_path / "out.sol"
    rc = cli_dispatch(["solve", mps, "--time-limit", "10", "--solution", str(sol)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status     optimal" in out
    assert "objective  -2.0" in out
    assert sol.exists()
    assert (tmp_path / "out.sol.status").read_text().strip() == "optimal"


def test_solve_with_config_file(tmp_path, capsys):
    mps = write_instance(tmp_path, chain_instance(12))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"CPXPARAM_MIP_Cuts_Gomory": 1, "CPXPARAM_MIP_Cuts_RLT": 2}))
    rc = cli_dispatch(["solve", mps, "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ignored    CPXPARAM_MIP_Cuts_RLT" in out


def test_solve_lists_threads_as_ignored(tmp_path, capsys):
    mps = write_instance(tmp_path, knapsack_2var())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"CPXPARAM_Threads": 4}))
    rc = cli_dispatch(["solve", mps, "--config", str(cfg)])
    assert rc == 0
    assert "ignored    CPXPARAM_Threads\n" in capsys.readouterr().out


def test_unknown_flag_exits_one(tmp_path, capsys):
    rc = cli_dispatch(["solve", "x.mps", "--bogus"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "usage" in err.lower()


def test_missing_instance_is_user_error(capsys):
    rc = cli_dispatch(["solve", "/nonexistent/q.mps"])
    assert rc == 1


def test_bench_run_and_report_round_trip(tmp_path, capsys):
    paths = [write_instance(tmp_path, chain_instance(8 + k, name=f"c{k}")) for k in range(3)]
    ds = _write_dataset(tmp_path, paths)
    store = _write_store(
        tmp_path,
        {
            "configs": {"plain": {}, "cuts": {"15": 1}},
            "default": "plain",
            "by_instance": {f"c{k}": "cuts" for k in range(3)},
        },
    )
    base_log = tmp_path / "base.jsonl"
    adap_log = tmp_path / "adapted.jsonl"

    rc = cli_dispatch(["bench", "run", "--dataset", ds, "--store", store, "--default", "--out", str(base_log)])
    assert rc == 0
    rc = cli_dispatch(
        ["bench", "run", "--dataset", ds, "--store", store, "--adapt", "--out", str(adap_log), "--label", "adapted"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "3 records" in out

    report_dir = tmp_path / "report"
    rc = cli_dispatch(
        ["bench", "report", "--baseline", str(base_log), "--adapted", str(adap_log), "--out", str(report_dir)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert (report_dir / "summary.csv").exists()
    assert (report_dir / "summary.json").exists()
    assert (report_dir / "summary.txt").exists()
    assert (report_dir / "distribution.svg").exists()
    assert "unscal" in out and "solved" in out


def _write_log(path, label, shift, runs):
    """A run log over ``runs`` = [(instance, status, wall)] whose header gives ``shift``."""
    ds = DatasetSpec("custom", tuple(f"{name}.mps" for name, _, _ in runs), 30.0)
    header = {
        "kind": "header",
        "dataset": ds.to_dict(),
        "protocol": {"gap_tolerance": 0.0, "shift": shift, "time_limit_s": 30.0},
        "solver_label": label,
    }
    records = [RunRecord(name, label, "default", status, wall).to_dict() for name, status, wall in runs]
    path.write_text("".join(json.dumps(doc) + "\n" for doc in [header, *records]))
    return str(path)


def test_bench_report_scores_with_the_header_shift(tmp_path, capsys):
    base_runs = [("a", RunStatus.OPTIMAL, 0.5), ("b", RunStatus.OPTIMAL, 2.0), ("c", RunStatus.TIME_LIMIT, 31.0)]
    adap_runs = [("a", RunStatus.OPTIMAL, 0.25), ("b", RunStatus.OPTIMAL, 1.0), ("c", RunStatus.OPTIMAL, 4.0)]
    base = _write_log(tmp_path / "base.jsonl", "base", 1.0, base_runs)
    adap = _write_log(tmp_path / "adap.jsonl", "adap", 1.0, adap_runs)
    rc = cli_dispatch(["bench", "report", "--baseline", base, "--adapted", adap, "--out", str(tmp_path / "rep")])
    assert rc == 0
    assert '"shift": 1.0' in capsys.readouterr().out
    summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
    assert [s["unscal"] for s in summary] == [shifted_geomean([0.5, 2.0, 30.0], 1.0), shifted_geomean([0.25, 1.0, 4.0], 1.0)]

    other = _write_log(tmp_path / "other.jsonl", "adap", 10.0, adap_runs)
    rc = cli_dispatch(["bench", "report", "--baseline", base, "--adapted", other, "--out", str(tmp_path / "rep2")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "rep2").exists()


def test_bench_resume_cli(tmp_path, capsys):
    paths = [write_instance(tmp_path, chain_instance(8 + k, name=f"r{k}")) for k in range(3)]
    ds = _write_dataset(tmp_path, paths)
    log = tmp_path / "log.jsonl"
    rc = cli_dispatch(["bench", "run", "--dataset", ds, "--default", "--out", str(log)])
    assert rc == 0
    lines = log.read_text().splitlines()
    log.write_text("\n".join(lines[:-1]) + "\n")  # drop the final record
    rc = cli_dispatch(["bench", "resume", "--dataset", ds, "--log", str(log)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 kept, 1 executed" in out


def test_validate_subcommand_verdict_is_data(tmp_path, capsys):
    mps = write_instance(tmp_path, knapsack_2var())
    sol = tmp_path / "claimed.sol"
    sol.write_text("x0 1.0\nx1 1.0\n=obj= -3.0\n")  # violates the row
    rc = cli_dispatch(["validate", "--instance", mps, "--solution", str(sol)])
    out = capsys.readouterr().out
    assert rc == 0  # validation ran; the verdict itself is data
    assert "feasible                 False" in out
    assert "max_row_violation        1.0" in out


# claimed solutions of knap2 (min -x0 - 2 x1, x0 + x1 <= 1), by the verdict
# each gets against a registry best of -1
CLAIMS = {
    "better": "x0 0.0\nx1 1.0\n=obj= -2.0\n",
    "tied": "x0 1.0\nx1 0.0\n=obj= -1.0\n",
    "worse": "x0 0.0\nx1 0.0\n=obj= 0.0\n",
    "infeasible": "x0 1.0\nx1 1.0\n=obj= -3.0\n",  # breaks the row, yet "beats" -1
}


def test_validate_with_registry(tmp_path, capsys):
    mps = write_instance(tmp_path, knapsack_2var())
    reg = tmp_path / "registry.json"
    reg.write_text(json.dumps({"knap2": {"objective": -1.0, "sense": "min"}}))
    for verdict in ("better", "infeasible"):
        sol = tmp_path / f"{verdict}.sol"
        sol.write_text(CLAIMS[verdict])
        rc = cli_dispatch(["validate", "--instance", mps, "--solution", str(sol), "--registry", str(reg)])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"verdict                  {verdict}\n" in out


@pytest.mark.parametrize(
    "registry", [{"knap2": {"objective": -1.0, "sense": "min"}}, {}], ids=["entry", "no_entry"]
)
@pytest.mark.parametrize("claim", sorted(CLAIMS))
def test_validate_and_audit_give_one_verdict(tmp_path, capsys, claim, registry):
    mps = write_instance(tmp_path, knapsack_2var())
    sol = tmp_path / "claimed.sol"
    sol.write_text(CLAIMS[claim])
    reg = tmp_path / "registry.json"
    reg.write_text(json.dumps(registry))
    record = RunRecord("knap2", "s", "default", RunStatus.OPTIMAL, 0.1, solution_path=str(sol))
    log = RunLog(DatasetSpec("custom", (mps,), 30.0), "s", False, [record])
    (audited,) = audit_log_incumbents(log, {"knap2": mps}, load_registry(str(reg)))
    rc = cli_dispatch(["validate", "--instance", mps, "--solution", str(sol), "--registry", str(reg)])
    assert rc == 0
    (line,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("verdict")]
    assert line.split()[1] == audited.verdict.value
    assert audited.verdict.value == (claim if registry or claim == "infeasible" else "unknown")


def test_config_show_by_instance_hit(tmp_path, capsys):
    mps = write_instance(tmp_path, knapsack_2var())
    store = _write_store(
        tmp_path,
        {
            "configs": {"plain": {}, "special": {"34": 8, "15": 2}},
            "default": "plain",
            "by_instance": {"knap2": "special"},
        },
    )
    rc = cli_dispatch(["config", "show", "--store", store, "--instance", mps])
    out = capsys.readouterr().out
    assert rc == 0
    assert "config    special" in out
    assert "CPXPARAM_Threads = 8" in out
    assert "CPXPARAM_MIP_Cuts_Gomory = 2" in out


def test_store_env_variable_default(tmp_path, capsys, monkeypatch):
    mps = write_instance(tmp_path, knapsack_2var())
    store = _write_store(
        tmp_path, {"configs": {"env": {"34": 2}}, "default": "env"}
    )
    monkeypatch.setenv("MILPBENCH_STORE", store)
    rc = cli_dispatch(["config", "show", "--instance", mps])
    out = capsys.readouterr().out
    assert rc == 0
    assert "config    env" in out


def test_detect_infeasible_report_labels_detected(tmp_path, capsys):
    paths = [write_instance(tmp_path, parity_infeasible_instance(5, name=f"p{k}")) for k in range(2)]
    ds = _write_dataset(tmp_path, paths, kind="detect_infeasible")
    log1 = tmp_path / "a.jsonl"
    log2 = tmp_path / "b.jsonl"
    assert cli_dispatch(["bench", "run", "--dataset", ds, "--default", "--out", str(log1)]) == 0
    assert cli_dispatch(["bench", "run", "--dataset", ds, "--default", "--out", str(log2), "--label", "two"]) == 0
    capsys.readouterr()
    rc = cli_dispatch(["bench", "report", "--baseline", str(log1), "--adapted", str(log2), "--out", str(tmp_path / "rep")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "detected" in out
