"""Minimal hand-rolled SVG charts.

Charts are a convenience view; the CSV exports next to them are the
authoritative plot data. Only plain markup is emitted (axes, bars, polylines,
text labels) so the files stay small and diffable.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

from .spec import AlphaSweepPoint, CostBreakdown

_WIDTH = 640
_HEIGHT = 360
_MARGIN = 48

_OPP_COLOR = "#c0392b"
_STOCK_COLOR = "#2471a3"
_CURVE_COLORS = ("#1b7837", "#762a83", "#d95f02", "#386cb0", "#a6611a")


def _document(body: list[str], title: str) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<title>{escape(title)}</title>',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _axes(x_label: str, y_label: str, y_max: float) -> list[str]:
    x0, y0 = _MARGIN, _HEIGHT - _MARGIN
    x1, y1 = _WIDTH - _MARGIN, _MARGIN
    return [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-size="12">{escape(x_label)}</text>',
        f'<text x="14" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {(y0 + y1) / 2:.1f})">{escape(y_label)}</text>',
        f'<text x="{x0 - 6}" y="{y1 + 4}" text-anchor="end" font-size="10">{y_max:.4g}</text>',
        f'<text x="{x0 - 6}" y="{y0 + 4}" text-anchor="end" font-size="10">0</text>',
    ]


def render_decomposition_svg(breakdown: CostBreakdown) -> str:
    """Bar chart of per-step costs; one <g> group per time step.

    When there are more steps than pixel columns in the plot, consecutive
    steps are summed into one bar per column. Each group carries its steps
    (``data-t``, a range when binned) and the opportunity and stock cost it
    draws (``data-opportunity``, ``data-stock``).
    """
    n = breakdown.n
    plot_w = _WIDTH - 2 * _MARGIN
    plot_h = _HEIGHT - 2 * _MARGIN
    bins = min(n, plot_w)
    edges = np.arange(bins + 1) * n // bins
    opps = np.add.reduceat(breakdown.per_t_opportunity, edges[:-1])
    stocks = np.add.reduceat(breakdown.per_t_stock, edges[:-1])
    y_max = max(float((opps + stocks).max()), 1e-12)
    slot = plot_w / bins
    bar_w = max(slot * 0.7, 1.0)

    body = _axes("time step t", "cost", y_max)
    for b in range(bins):
        first, last = int(edges[b]) + 1, int(edges[b + 1])
        steps = str(last) if first == last else f"{first}-{last}"
        x = _MARGIN + b * slot + (slot - bar_w) / 2
        opp = float(opps[b])
        stock = float(stocks[b])
        parts = [f'<g data-t="{steps}" data-opportunity="{opp!r}" data-stock="{stock!r}">']
        base = _HEIGHT - _MARGIN
        for amount, color in ((stock, _STOCK_COLOR), (opp, _OPP_COLOR)):
            if amount > 0:
                h = amount / y_max * plot_h
                parts.append(
                    f'<rect x="{x:.2f}" y="{base - h:.2f}" width="{bar_w:.2f}" '
                    f'height="{h:.2f}" fill="{color}"/>'
                )
                base -= h
        parts.append("</g>")
        body.append("".join(parts))
        if bins <= 20 or (b + 1) % max(1, bins // 10) == 0:
            body.append(
                f'<text x="{x + bar_w / 2:.2f}" y="{_HEIGHT - _MARGIN + 14}" '
                f'text-anchor="middle" font-size="10">{last}</text>'
            )
    body.append(
        f'<text x="{_WIDTH - _MARGIN}" y="{_MARGIN - 20}" text-anchor="end" font-size="11" '
        f'fill="{_OPP_COLOR}">opportunity</text>'
    )
    body.append(
        f'<text x="{_WIDTH - _MARGIN}" y="{_MARGIN - 6}" text-anchor="end" font-size="11" '
        f'fill="{_STOCK_COLOR}">stock</text>'
    )
    return _document(body, "Cost per time step")


def render_sweep_svg(curves: dict[str, list[AlphaSweepPoint]]) -> str:
    """Polyline chart of score against alpha1 for one or more inputs."""
    y_max = max(
        (point.spec_value for curve in curves.values() for point in curve), default=0.0
    )
    y_max = max(y_max, 1e-12)
    plot_w = _WIDTH - 2 * _MARGIN
    plot_h = _HEIGHT - 2 * _MARGIN

    body = _axes("alpha1 (alpha2 = 1 - alpha1)", "score", y_max)
    for idx, (label, curve) in enumerate(curves.items()):
        color = _CURVE_COLORS[idx % len(_CURVE_COLORS)]
        points = " ".join(
            f"{_MARGIN + p.alpha1 * plot_w:.2f},"
            f"{_HEIGHT - _MARGIN - p.spec_value / y_max * plot_h:.2f}"
            for p in curve
        )
        body.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        body.append(
            f'<text x="{_WIDTH - _MARGIN}" y="{_MARGIN + 14 * idx}" text-anchor="end" '
            f'font-size="11" fill="{color}">{escape(label)}</text>'
        )
    return _document(body, "Score vs cost weighting")
