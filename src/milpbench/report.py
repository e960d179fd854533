"""Plain-text tables and the distribution SVG.

All renderers are pure functions of their inputs: fixed layouts, fixed
float formatting, no timestamps, so outputs are byte-identical across runs.
The SVG is hand-emitted with an 800x500 viewport and a logarithmic y axis.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Sequence, Union

from .scores import BenchmarkSummary, DistributionSeries

_SVG_W, _SVG_H = 800, 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 25, 30, 55
_BASELINE_COLOR = "#c0392b"
_ADAPTED_COLOR = "#2471a3"


def format_sig3(value: Union[float, int, None]) -> str:
    """Three significant figures without scientific notation; ints verbatim."""
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    if value == 0:
        return "0"
    exp = math.floor(math.log10(abs(value)))
    decimals = 2 - exp
    q = round(value, decimals)
    if decimals <= 0:
        return str(int(q))
    text = f"{q:.{decimals}f}".rstrip("0").rstrip(".")
    return text or "0"


def render_table(
    summaries: Sequence[BenchmarkSummary],
    highlight: Iterable[str] = (),
    solved_label: str = "solved",
) -> str:
    """Fixed-width table: one column per solver, rows unscal/scaled/solved.

    Highlighted solver labels get a '*' suffix (plain text has no bold).
    """
    highlight = set(highlight)
    headers = [s.solver_label + ("*" if s.solver_label in highlight else "") for s in summaries]
    rows = [
        ("unscal", [format_sig3(s.unscal) for s in summaries]),
        ("scaled", [format_sig3(s.scaled) for s in summaries]),
        (solved_label, [str(s.solved) for s in summaries]),
    ]
    label_w = max(len(name) for name, _ in rows)
    widths = [
        max(len(headers[k]), *(len(cells[k]) for _, cells in rows)) for k in range(len(summaries))
    ]
    lines = [
        " " * label_w + "  " + "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
    ]
    for name, cells in rows:
        lines.append(name.ljust(label_w) + "  " + "  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines) + "\n"


def _y_of(t: float, lo_exp: float, hi_exp: float) -> float:
    t = max(t, 10.0 ** lo_exp)
    frac = (math.log10(t) - lo_exp) / (hi_exp - lo_exp)
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B
    return _MARGIN_T + plot_h * (1.0 - frac)


def emit_distribution_svg(
    series: DistributionSeries,
    limit_s: float,
    out: Union[str, Path],
    baseline_label: str = "baseline",
    adapted_label: str = "adapted",
) -> Path:
    """Write the two ranked time curves with a rule at the time limit."""
    if not series.points:
        raise ValueError("distribution series is empty")
    n = len(series.points)
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R

    positive = [t for _, b, a in series.points for t in (b, a) if t > 0]
    min_pos = min(positive) if positive else 1.0
    lo_exp = min(0.0, math.floor(math.log10(max(min_pos, 1e-3))))
    hi_exp = max(1.0, math.ceil(math.log10(max(limit_s, 1.0))))

    def x_of(rank: int) -> float:
        if n == 1:
            return _MARGIN_L + plot_w / 2.0
        return _MARGIN_L + plot_w * (rank - 1) / (n - 1)

    def pts(select) -> str:
        return " ".join(
            f"{x_of(rank):.2f},{_y_of(select(b, a), lo_exp, hi_exp):.2f}"
            for rank, b, a in series.points
        )

    plot_bottom = _SVG_H - _MARGIN_B
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_W} {_SVG_H}" '
        'font-family="monospace" font-size="12">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="#ffffff"/>',
        f'<text x="{_SVG_W / 2:.0f}" y="18" text-anchor="middle">solution time distribution</text>',
    ]
    # decade ticks from 10^0 upward (lower data is clamped to the floor)
    for k in range(0, int(hi_exp) + 1):
        y = _y_of(10.0 ** k, lo_exp, hi_exp)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{y:.2f}" x2="{_SVG_W - _MARGIN_R}" y2="{y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{y + 4:.2f}" text-anchor="end">{10 ** k}</text>'
        )
    y_limit = _y_of(limit_s, lo_exp, hi_exp)
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{y_limit:.2f}" x2="{_SVG_W - _MARGIN_R}" y2="{y_limit:.2f}" '
        'stroke="#555555" stroke-width="1" stroke-dasharray="6,3"/>'
    )
    parts.append(
        f'<text x="{_SVG_W - _MARGIN_R}" y="{y_limit - 5:.2f}" text-anchor="end">time limit</text>'
    )
    parts.append(
        f'<polyline fill="none" stroke="{_BASELINE_COLOR}" stroke-width="1.5" '
        f'id="baseline" points="{pts(lambda b, a: b)}"/>'
    )
    parts.append(
        f'<polyline fill="none" stroke="{_ADAPTED_COLOR}" stroke-width="1.5" '
        f'id="adapted" points="{pts(lambda b, a: a)}"/>'
    )
    # axes and labels
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{plot_bottom}" '
        'stroke="#000000" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{plot_bottom}" x2="{_SVG_W - _MARGIN_R}" y2="{plot_bottom}" '
        'stroke="#000000" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{_SVG_H - 18}" text-anchor="middle">'
        "instances ranked by baseline time</text>"
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + (plot_bottom - _MARGIN_T) / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90, 18, {_MARGIN_T + (plot_bottom - _MARGIN_T) / 2:.0f})">seconds</text>'
    )
    legend_y = _MARGIN_T + 10
    parts.append(
        f'<line x1="{_MARGIN_L + 10}" y1="{legend_y}" x2="{_MARGIN_L + 40}" y2="{legend_y}" '
        f'stroke="{_BASELINE_COLOR}" stroke-width="1.5"/>'
    )
    parts.append(f'<text x="{_MARGIN_L + 46}" y="{legend_y + 4}">{baseline_label}</text>')
    parts.append(
        f'<line x1="{_MARGIN_L + 10}" y1="{legend_y + 18}" x2="{_MARGIN_L + 40}" y2="{legend_y + 18}" '
        f'stroke="{_ADAPTED_COLOR}" stroke-width="1.5"/>'
    )
    parts.append(f'<text x="{_MARGIN_L + 46}" y="{legend_y + 22}">{adapted_label}</text>')
    parts.append("</svg>")

    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(parts) + "\n")
    return out
