"""Minimal standalone SVG line charts for scenario time series.

Hand-rolled so that output is deterministic byte for byte: no timestamps,
no random ids, no external assets.  One chart shows the supplier counts of
a single run with the East series dashed, the South series marked with
squares and the total drawn solid.
"""

from __future__ import annotations

WIDTH = 640
HEIGHT = 400
MARGIN_LEFT = 56
MARGIN_RIGHT = 16
MARGIN_TOP = 44
MARGIN_BOTTOM = 48

COLOR_EAST = "#888888"
COLOR_SOUTH = "#1f77b4"
COLOR_TOTAL = "#111111"


def _escape(text: str) -> str:
    """``text`` with ``&``, ``>`` and ``<`` replaced by entities, ``&`` first.

    The rule of ``xml.sax.saxutils.escape`` with no extra entities; that
    module is not imported because it loads the network stack.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span == 0:
        span = 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def _polyline(xs, ys, stroke, extra="") -> str:
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
    return (f'<polyline fill="none" stroke="{stroke}" stroke-width="2" '
            f'{extra}points="{pts}"/>')


def timeseries_chart(ts, title: str) -> str:
    """Render one TimeSeries to an SVG string."""
    periods = [int(p) for p in ts.period]
    east = [int(v) for v in ts.suppliers_east]
    south = [int(v) for v in ts.suppliers_south]
    total = [int(v) for v in ts.suppliers_total]

    x_lo, x_hi = min(periods), max(periods)
    y_hi = max(max(total), 1)
    plot_l, plot_r = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    plot_t, plot_b = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM

    xs = _scale(periods, x_lo, x_hi, plot_l, plot_r)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{MARGIN_LEFT}" y="24" font-family="sans-serif" '
        f'font-size="15" fill="#111111">{_escape(title)}</text>',
    ]

    y_step = max(1, y_hi // 5)
    for tick in range(0, y_hi + 1, y_step):
        y = _scale([tick], 0, y_hi, plot_b, plot_t)[0]
        parts.append(f'<line x1="{plot_l}" y1="{_fmt(y)}" x2="{plot_r}" '
                     f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{plot_l - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11" '
                     f'fill="#555555">{tick}</text>')
    x_step = max(1, (x_hi - x_lo) // 10 or 1)
    for tick in range(x_lo, x_hi + 1, x_step):
        x = _scale([tick], x_lo, x_hi, plot_l, plot_r)[0]
        parts.append(f'<text x="{_fmt(x)}" y="{plot_b + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11" '
                     f'fill="#555555">{tick}</text>')
    parts.append(f'<line x1="{plot_l}" y1="{plot_b}" x2="{plot_r}" y2="{plot_b}" '
                 f'stroke="#333333" stroke-width="1"/>')
    parts.append(f'<line x1="{plot_l}" y1="{plot_t}" x2="{plot_l}" y2="{plot_b}" '
                 f'stroke="#333333" stroke-width="1"/>')

    for series, color, extra in (
        (east, COLOR_EAST, 'stroke-dasharray="6 4" '),
        (total, COLOR_TOTAL, ""),
    ):
        ys = _scale(series, 0, y_hi, plot_b, plot_t)
        parts.append(_polyline(xs, ys, color, extra))
    ys_south = _scale(south, 0, y_hi, plot_b, plot_t)
    parts.append(_polyline(xs, ys_south, COLOR_SOUTH))
    for x, y in zip(xs, ys_south):
        parts.append(f'<rect x="{_fmt(x - 3)}" y="{_fmt(y - 3)}" width="6" '
                     f'height="6" fill="{COLOR_SOUTH}"/>')

    legend_y = plot_t - 10
    legend = (
        ("East (dashed)", COLOR_EAST, 0),
        ("South (marked)", COLOR_SOUTH, 150),
        ("Total (solid)", COLOR_TOTAL, 320),
    )
    for label, color, off in legend:
        x0 = plot_l + off
        parts.append(f'<line x1="{x0}" y1="{legend_y}" x2="{x0 + 24}" '
                     f'y2="{legend_y}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{x0 + 30}" y="{legend_y + 4}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'fill="#333333">{label}</text>')
    parts.append(f'<text x="{(plot_l + plot_r) // 2}" y="{HEIGHT - 12}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="12" '
                 f'fill="#333333">period</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
