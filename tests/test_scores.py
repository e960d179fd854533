import json
import math
from pathlib import Path

import numpy as np
import pytest

from milpbench.runner import DatasetSpec, ObjectiveKind, RunLog, RunRecord, RunStatus
from milpbench.scores import (
    attach_scaled,
    distribution,
    scale,
    shifted_geomean,
    summarize,
    write_summary_csv,
    write_summary_json,
)

FIXTURES = json.loads((Path(__file__).parent / "data" / "benchmark_tables.json").read_text())

# frozen from the closed form sqrt((1+10)*(100+10)) - 10
SGM_1_100 = 24.785054261852174
# frozen from the closed form ((1+10)*(100+10)*(200+10))**(1/3) - 10
SGM_1_100_200 = 53.3385652803055


def test_constant_vector_is_identity():
    for t in (0.0, 0.5, 1.0, 7.25, 3600.0):
        assert shifted_geomean([t] * 5, 10.0) == pytest.approx(t, abs=1e-9)


def test_zero_vector_is_zero():
    assert shifted_geomean([0.0], 10.0) == pytest.approx(0.0, abs=1e-12)


def test_two_point_closed_form():
    assert shifted_geomean([1.0, 100.0], 10.0) == pytest.approx(SGM_1_100, abs=1e-9)


def test_empty_vector_rejected():
    with pytest.raises(ValueError):
        shifted_geomean([], 10.0)


def test_monotone_and_permutation_invariant_and_clamp_inert():
    rng = np.random.default_rng(1000)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        v = rng.uniform(0.0, 7200.0, size=n)
        base = shifted_geomean(list(v), 10.0)
        # permutation invariance
        assert shifted_geomean(list(rng.permutation(v)), 10.0) == pytest.approx(base, rel=1e-12)
        # monotonicity: bump one entry
        k = int(rng.integers(0, n))
        bumped = v.copy()
        bumped[k] += rng.uniform(0.0, 100.0)
        assert shifted_geomean(list(bumped), 10.0) >= base - 1e-12
        # the max(1, .) clamp never binds for nonnegative times with shift 10
        unclamped = math.exp(sum(math.log(t + 10.0) for t in v) / n) - 10.0
        assert base == pytest.approx(unclamped, rel=1e-12)
        assert base >= 0.0


def test_scale_fixture_tables_roundoff():
    # spot anchors quoted from the standings snapshot
    vals = {"CBC": 1328.0, "GUROB": 72.1, "MDO4CPX": 59.6}
    scaled = scale(vals, "GUROB")
    assert scaled["GUROB"] == 1.0
    assert scaled["CBC"] == pytest.approx(18.4, rel=0.015)
    assert scaled["MDO4CPX"] == pytest.approx(0.82, rel=0.015)


def test_scale_missing_or_zero_reference():
    with pytest.raises(ValueError):
        scale({"A": 1.0}, "B")
    with pytest.raises(ValueError):
        scale({"A": 0.0, "B": 1.0}, "A")


def test_scale_preserves_ranking():
    rng = np.random.default_rng(55)
    for _ in range(50):
        labels = [f"s{k}" for k in range(6)]
        vals = {lab: float(rng.uniform(1.0, 5000.0)) for lab in labels}
        scaled = scale(vals, "s0")
        assert sorted(labels, key=vals.get) == sorted(labels, key=scaled.get)


def _mklog(times_and_statuses, limit, kind=ObjectiveKind.OPTIMIZE, label="builtin-test"):
    paths = tuple(f"/data/i{k}.mps" for k in range(len(times_and_statuses)))
    ds = DatasetSpec("custom", paths, limit, kind)
    log = RunLog(dataset=ds, solver_label=label, adapt_enabled=False)
    for k, (t, status) in enumerate(times_and_statuses):
        log.records.append(
            RunRecord(
                instance_name=f"i{k}",
                solver_label=label,
                config_label="default",
                status=status,
                wall_time_s=t,
                instance_path=paths[k],
            )
        )
    return ds, log


def test_summarize_with_timeout_uses_limit():
    ds, log = _mklog(
        [(1.0, RunStatus.OPTIMAL), (100.0, RunStatus.OPTIMAL), (123.0, RunStatus.TIME_LIMIT)],
        limit=200.0,
    )
    summary = summarize(log, ds, shift=10.0)
    assert summary.solved == 2
    assert summary.unscal == pytest.approx(SGM_1_100_200, abs=1e-9)
    assert summary.n_instances == 3


def test_summarize_all_instant_is_zero():
    ds, log = _mklog([(0.0, RunStatus.OPTIMAL)] * 4, limit=100.0)
    summary = summarize(log, ds)
    assert summary.solved == 4
    assert summary.unscal == pytest.approx(0.0, abs=1e-12)


def test_summarize_detected_counts_infeasible():
    rows = [(1.0, RunStatus.INFEASIBLE)] * 31 + [(3600.0, RunStatus.TIME_LIMIT)]
    ds, log = _mklog(rows, limit=3600.0, kind=ObjectiveKind.DETECT_INFEASIBLE)
    summary = summarize(log, ds)
    assert summary.solved == 31
    assert summary.n_instances == 32


def test_summarize_error_counts_as_limit_time():
    ds, log = _mklog([(0.1, RunStatus.ERROR)], limit=50.0)
    summary = summarize(log, ds)
    assert summary.solved == 0
    assert summary.unscal == pytest.approx(50.0, abs=1e-9)


def test_summarize_incomplete_log_lists_missing():
    ds, log = _mklog([(1.0, RunStatus.OPTIMAL)] * 3, limit=10.0)
    log.records.pop()
    with pytest.raises(ValueError) as err:
        summarize(log, ds)
    assert str(err.value).endswith("missing instances: /data/i2.mps")


def test_distribution_sort_and_timeout_placement():
    ds_b, base = _mklog(
        [(3.0, RunStatus.OPTIMAL), (1.0, RunStatus.OPTIMAL), (7.0, RunStatus.OPTIMAL)],
        limit=100.0,
        label="base",
    )
    base.records[0].instance_name = "b"
    base.records[1].instance_name = "a"
    base.records[2].instance_name = "c"
    ds_a, adapted = _mklog(
        [(0.5, RunStatus.OPTIMAL), (0.1, RunStatus.TIME_LIMIT), (0.2, RunStatus.OPTIMAL)],
        limit=100.0,
        label="adapted",
    )
    adapted.records[0].instance_name = "b"
    adapted.records[1].instance_name = "a"
    adapted.records[2].instance_name = "c"

    series = distribution(base, adapted)
    assert [p[0] for p in series.points] == [1, 2, 3]
    assert [p[1] for p in series.points] == [1.0, 3.0, 7.0]  # ascending baseline
    assert series.points[0][2] == 100.0  # adapted timeout carried at the limit

    # identical logs give coincident curves
    twin = distribution(base, base)
    assert all(b == a for _, b, a in twin.points)


def test_distribution_baseline_timeout_goes_last():
    ds, base = _mklog(
        [(50.0, RunStatus.TIME_LIMIT), (99.0, RunStatus.OPTIMAL)], limit=100.0, label="base"
    )
    base.records[0].instance_name = "slowpoke"
    base.records[1].instance_name = "zeta"
    series = distribution(base, base)
    # 99 < limit yet the timeout sorts after it
    assert series.points[-1][1] == 100.0


def test_distribution_mismatched_sets_rejected():
    _, a = _mklog([(1.0, RunStatus.OPTIMAL)], limit=10.0)
    _, b = _mklog([(1.0, RunStatus.OPTIMAL)] * 2, limit=10.0)
    with pytest.raises(ValueError, match="differ"):
        distribution(a, b)


def test_csv_and_json_exports(tmp_path):
    ds, log = _mklog([(1.0, RunStatus.OPTIMAL), (2.0, RunStatus.OPTIMAL)], limit=10.0)
    summaries = attach_scaled([summarize(log, ds)], log.solver_label)
    csv_path = write_summary_csv(summaries, tmp_path / "summary.csv")
    json_path = write_summary_json(summaries, tmp_path / "summary.json")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "solver,unscal,scaled,solved,n"
    assert lines[1].startswith("builtin-test,")
    doc = json.loads(json_path.read_text())
    assert doc[0]["solved"] == 2
    assert doc[0]["scaled"] == 1.0


def test_fixture_tables_reference_scales_to_one():
    for table in FIXTURES["tables"]:
        columns = table["columns"]
        ref = table["reference"]
        known = {k: v["unscal"] for k, v in columns.items() if v["unscal"] is not None}
        if ref not in known:
            continue
        scaled = scale(known, ref)
        assert scaled[ref] == 1.0
