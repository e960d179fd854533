import re

import pytest

from milpbench.report import emit_distribution_svg, format_sig3, render_table
from milpbench.scores import BenchmarkSummary, DistributionSeries


def parse_table(text: str) -> dict[str, dict[str, str]]:
    """Inverse of render_table for round-trip checks: row -> solver -> cell."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    headers = lines[0].split()
    out: dict[str, dict[str, str]] = {}
    for line in lines[1:]:
        cells = line.split()
        out[cells[0]] = {h.rstrip("*"): c for h, c in zip(headers, cells[1:])}
    return out


def _summary(label, unscal, scaled, solved, n=240):
    return BenchmarkSummary(label, unscal, scaled, solved, n)


def test_render_table_solved_row_as_published():
    summaries = [_summary("GUROB", 72.1, 1.0, 229), _summary("MDO4CPX", 59.6, 0.82, 232)]
    text = render_table(summaries, highlight={"MDO4CPX"})
    parsed = parse_table(text)
    assert parsed["solved"] == {"GUROB": "229", "MDO4CPX": "232"}
    assert "MDO4CPX*" in text.splitlines()[0]
    solved_line = [ln for ln in text.splitlines() if ln.startswith("solved")][0]
    assert re.search(r"229\s+232", solved_line)


def test_render_table_single_column_scaled_one():
    text = render_table([_summary("only", 10.0, 1.0, 5, n=5)])
    parsed = parse_table(text)
    assert parsed["scaled"]["only"] == "1"
    assert parsed["unscal"]["only"] == "10"


def test_render_table_no_highlight_markers():
    text = render_table([_summary("a", 1.0, 1.0, 1, 1), _summary("b", 2.0, 2.0, 1, 1)])
    assert "*" not in text


def test_format_sig3():
    assert format_sig3(1328.0) == "1330"
    assert format_sig3(72.1) == "72.1"
    assert format_sig3(0.8266) == "0.827"
    assert format_sig3(1.0) == "1"
    assert format_sig3(0.0) == "0"
    assert format_sig3(None) == "-"
    assert format_sig3(-24.785054) == "-24.8"
    assert format_sig3(9.98) == "9.98"


def test_render_round_trip_at_printed_precision():
    summaries = [
        _summary("A", 1328.0, 18.419, 107),
        _summary("B", 72.1, 1.0, 229),
        _summary("C", 59.648, 0.8266, 232),
    ]
    parsed = parse_table(render_table(summaries))
    for s in summaries:
        got = float(parsed["unscal"][s.solver_label])
        assert got == pytest.approx(s.unscal, rel=0.005)  # 3 significant figures
        assert int(parsed["solved"][s.solver_label]) == s.solved


def test_table_and_svg_are_byte_stable(tmp_path):
    summaries = [_summary("base", 100.0, 1.0, 10, 20), _summary("adap", 10.0, 0.1, 20, 20)]
    assert render_table(summaries) == render_table(summaries)

    points = tuple((r, float(r), float(r) / 2.0) for r in range(1, 21))
    series = DistributionSeries(points)
    p1 = emit_distribution_svg(series, 100.0, tmp_path / "a.svg")
    p2 = emit_distribution_svg(series, 100.0, tmp_path / "b.svg")
    assert p1.read_bytes() == p2.read_bytes()


def _count_polyline_vertices(svg_text):
    counts = []
    for match in re.finditer(r'<polyline[^>]*points="([^"]+)"', svg_text):
        counts.append(len(match.group(1).split()))
    return counts


def test_svg_has_two_polylines_with_all_points(tmp_path):
    points = tuple((r, float(r) * 3.0, float(r)) for r in range(1, 241))
    series = DistributionSeries(points)
    path = emit_distribution_svg(series, 7200.0, tmp_path / "d.svg")
    text = path.read_text()
    assert text.startswith("<svg")
    assert _count_polyline_vertices(text) == [240, 240]
    assert 'id="baseline"' in text and 'id="adapted"' in text
    assert "time limit" in text


def test_svg_identical_curves_coincide(tmp_path):
    points = tuple((r, float(r), float(r)) for r in range(1, 11))
    text = emit_distribution_svg(DistributionSeries(points), 50.0, tmp_path / "e.svg").read_text()
    polys = re.findall(r'<polyline[^>]*points="([^"]+)"', text)
    assert polys[0] == polys[1]


def test_svg_log_axis_decade_ticks(tmp_path):
    # data from 0.1s to 7200s: decade labels 1, 10, 100, 1000, 10000
    points = tuple((r, 0.1 * (10 ** (r % 5)), 7200.0) for r in range(1, 21))
    text = emit_distribution_svg(DistributionSeries(points), 7200.0, tmp_path / "f.svg").read_text()
    for label in ("1", "10", "100", "1000", "10000"):
        assert f">{label}</text>" in text


def test_svg_empty_series_rejected(tmp_path):
    with pytest.raises(ValueError):
        emit_distribution_svg(DistributionSeries(()), 10.0, tmp_path / "g.svg")
