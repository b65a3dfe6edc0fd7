"""Accuracy-versus-SNR chart emitted as standalone SVG markup.

The SVG is assembled directly with fixed number formatting, so a given
report produces byte-identical markup on every run and platform, which
keeps the output golden-testable. One series per method, error bars from
the reported standard deviations, gaps where a method is missing an SNR
that other methods cover.
"""

from __future__ import annotations

import logging
from pathlib import Path

__all__ = ["plot_accuracy_vs_snr"]

logger = logging.getLogger(__name__)

_WIDTH, _HEIGHT = 640.0, 440.0
_MARGIN_LEFT, _MARGIN_RIGHT = 70.0, 30.0
_MARGIN_TOP, _MARGIN_BOTTOM = 40.0, 60.0

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def plot_accuracy_vs_snr(rows, out_path, comment: str = "") -> None:
    """Render report rows (dicts with method/snr/mean/std accuracy) to SVG.

    Rows sharing a method form one series ordered by SNR. A method
    missing one of the union's SNR values is drawn with a gap there and a
    warning is logged.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no report rows to plot")

    series: dict = {}
    for row in rows:
        series.setdefault(row["method"], {})[float(row["snr"])] = (
            float(row["mean_accuracy"]),
            float(row["std_accuracy"]),
        )
    all_snrs = sorted({float(row["snr"]) for row in rows})
    methods = sorted(series)

    x_lo, x_hi = min(all_snrs), max(all_snrs)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    y_lo, y_hi = 0.0, 1.0
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def x_px(snr: float) -> float:
        return _MARGIN_LEFT + (snr - x_lo) / (x_hi - x_lo) * plot_w

    def y_px(acc: float) -> float:
        return _MARGIN_TOP + (y_hi - acc) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" '
        f'viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
    ]
    if comment:
        parts.append(f"<!-- {comment} -->")
    parts.append(f'<rect width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="white"/>')
    parts.append(
        f'<text x="{_WIDTH / 2:.2f}" y="24" text-anchor="middle" font-family="sans-serif" '
        'font-size="16">Accuracy vs SNR</text>'
    )

    axis_y = _MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{_MARGIN_LEFT:.2f}" y1="{axis_y:.2f}" x2="{_MARGIN_LEFT + plot_w:.2f}" '
        f'y2="{axis_y:.2f}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_LEFT:.2f}" y1="{_MARGIN_TOP:.2f}" x2="{_MARGIN_LEFT:.2f}" '
        f'y2="{axis_y:.2f}" stroke="black"/>'
    )
    for snr in all_snrs:
        x = x_px(snr)
        parts.append(f'<line x1="{_fmt(x)}" y1="{axis_y:.2f}" x2="{_fmt(x)}" y2="{axis_y + 5:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{_fmt(x)}" y="{axis_y + 20:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{snr:g}</text>'
        )
    for tick in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        y = y_px(tick)
        parts.append(f'<line x1="{_MARGIN_LEFT - 5:.2f}" y1="{_fmt(y)}" x2="{_MARGIN_LEFT:.2f}" y2="{_fmt(y)}" stroke="black"/>')
        parts.append(
            f'<text x="{_MARGIN_LEFT - 10:.2f}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{tick:.1f}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.2f}" y="{_HEIGHT - 15:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">SNR</text>'
    )
    parts.append(
        f'<text x="20" y="{_MARGIN_TOP + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {_MARGIN_TOP + plot_h / 2:.2f})">Accuracy</text>'
    )

    for m_idx, method in enumerate(methods):
        color = _PALETTE[m_idx % len(_PALETTE)]
        points = series[method]
        # split into contiguous runs over the union grid so gaps stay gaps
        segments, current = [], []
        for snr in all_snrs:
            if snr in points:
                current.append(snr)
            else:
                logger.warning("method %r has no row at snr %g; drawing a gap", method, snr)
                if current:
                    segments.append(current)
                current = []
        if current:
            segments.append(current)
        for segment in segments:
            if len(segment) > 1:
                path = " ".join(f"{_fmt(x_px(s))},{_fmt(y_px(points[s][0]))}" for s in segment)
                parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2"/>')
        for snr in sorted(points):
            mean, std = points[snr]
            x, y = x_px(snr), y_px(mean)
            y_top, y_bot = y_px(min(mean + std, 1.0)), y_px(max(mean - std, 0.0))
            parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(y_top)}" x2="{_fmt(x)}" y2="{_fmt(y_bot)}" stroke="{color}"/>')
            parts.append(f'<line x1="{_fmt(x - 4)}" y1="{_fmt(y_top)}" x2="{_fmt(x + 4)}" y2="{_fmt(y_top)}" stroke="{color}"/>')
            parts.append(f'<line x1="{_fmt(x - 4)}" y1="{_fmt(y_bot)}" x2="{_fmt(x + 4)}" y2="{_fmt(y_bot)}" stroke="{color}"/>')
            parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.5" fill="{color}"/>')
        legend_y = _MARGIN_TOP + 10 + 18 * m_idx
        legend_x = _MARGIN_LEFT + plot_w - 150
        parts.append(f'<line x1="{_fmt(legend_x)}" y1="{_fmt(legend_y)}" x2="{_fmt(legend_x + 24)}" y2="{_fmt(legend_y)}" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{_fmt(legend_x + 30)}" y="{_fmt(legend_y + 4)}" font-family="sans-serif" '
            f'font-size="12">{method}</text>'
        )

    parts.append("</svg>")
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(parts) + "\n")
