"""Accuracy-versus-SNR chart emitted as standalone SVG markup.

The SVG is assembled directly with fixed number formatting, so a given
report produces byte-identical markup on every run and platform; tests
pin the sha256 of the markup for fixed inputs. One series per method,
error bars from the reported standard deviations, gaps where a method is
missing an SNR that other methods cover. A report holding two different
values for one (method, SNR) cell is refused rather than drawn. Labels are
XML-escaped, and a comment holding "--", which no XML comment may, is
refused, so the markup is well-formed whatever the report holds.
"""

from __future__ import annotations

import itertools
import logging
from pathlib import Path
from xml.sax.saxutils import escape

__all__ = ["plot_accuracy_vs_snr"]

logger = logging.getLogger(__name__)

_WIDTH, _HEIGHT = 640.0, 440.0
_MARGIN_LEFT, _MARGIN_RIGHT = 70.0, 30.0
_MARGIN_TOP, _MARGIN_BOTTOM = 40.0, 60.0
_PLOT_W = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
_PLOT_H = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
_AXIS_Y = _MARGIN_TOP + _PLOT_H

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str = "black", extra: str = "") -> str:
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}"{extra}/>')


def _text(x: str, y: str, label: str, size: int = 12,
          anchor: str = ' text-anchor="middle"', extra: str = "") -> str:
    # anchor and extra are raw attribute strings, placed before and after the font attributes
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" font-size="{size}"'
            f'{extra}>{escape(label)}</text>')


def plot_accuracy_vs_snr(rows, out_path, comment: str = "") -> None:
    """Render report rows (dicts with method/snr/mean/std accuracy) to SVG.

    Rows sharing a method form one series ordered by SNR. A method missing
    one of the union's SNR values is drawn with a gap there and a warning
    is logged. A row repeating a (method, snr) cell with another mean or
    std, or a ``comment`` holding "--", raises ``ValueError`` before
    anything is written.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no report rows to plot")
    if "--" in comment:
        raise ValueError(f"an SVG comment cannot hold '--', and the provenance is {comment!r}")

    series: dict = {}
    for row in rows:
        method, snr = row["method"], float(row["snr"])
        cell = (float(row["mean_accuracy"]), float(row["std_accuracy"]))
        held = series.setdefault(method, {}).setdefault(snr, cell)
        if held != cell:
            raise ValueError(f"two results for method {method!r} at snr {snr:g}: {held} and {cell}")
    all_snrs = sorted({float(row["snr"]) for row in rows})

    x_lo, x_hi = min(all_snrs), max(all_snrs)
    pad = float(x_hi == x_lo)  # a single SNR gets a unit of axis either side
    x_lo, x_hi = x_lo - pad, x_hi + pad

    def x_px(snr: float) -> float:
        return _MARGIN_LEFT + (snr - x_lo) / (x_hi - x_lo) * _PLOT_W

    def y_px(acc: float) -> float:
        return _MARGIN_TOP + (1.0 - acc) * _PLOT_H

    size = f'width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}"'
    mid_y = _fmt(_MARGIN_TOP + _PLOT_H / 2)
    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<svg xmlns="http://www.w3.org/2000/svg" {size} viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">']
    if comment:
        parts.append(f"<!-- {comment} -->")
    parts += [
        f'<rect {size} fill="white"/>',
        _text(_fmt(_WIDTH / 2), "24", "Accuracy vs SNR", 16),
        _line(_MARGIN_LEFT, _AXIS_Y, _MARGIN_LEFT + _PLOT_W, _AXIS_Y),
        _line(_MARGIN_LEFT, _MARGIN_TOP, _MARGIN_LEFT, _AXIS_Y),
    ]
    for snr in all_snrs:
        x = x_px(snr)
        parts += [_line(x, _AXIS_Y, x, _AXIS_Y + 5), _text(_fmt(x), _fmt(_AXIS_Y + 20), f"{snr:g}")]
    for tick in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        y = y_px(tick)
        parts += [_line(_MARGIN_LEFT - 5, y, _MARGIN_LEFT, y),
                  _text(_fmt(_MARGIN_LEFT - 10), _fmt(y + 4), f"{tick:.1f}", anchor=' text-anchor="end"')]
    parts += [_text(_fmt(_MARGIN_LEFT + _PLOT_W / 2), _fmt(_HEIGHT - 15), "SNR", 13),
              _text("20", mid_y, "Accuracy", 13, extra=f' transform="rotate(-90 20 {mid_y})"')]

    legend_x = _MARGIN_LEFT + _PLOT_W - 150
    for m_idx, method in enumerate(sorted(series)):
        color = _PALETTE[m_idx % len(_PALETTE)]
        points = series[method]
        # contiguous runs over the union grid, so gaps stay gaps
        for present, run in itertools.groupby(all_snrs, key=points.__contains__):
            run = list(run)
            if not present:
                for snr in run:
                    logger.warning("method %r has no row at snr %g; drawing a gap", method, snr)
            elif len(run) > 1:
                path = " ".join(f"{_fmt(x_px(s))},{_fmt(y_px(points[s][0]))}" for s in run)
                parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2"/>')
        for snr, (mean, std) in sorted(points.items()):
            x, y = x_px(snr), y_px(mean)
            y_top, y_bot = y_px(min(mean + std, 1.0)), y_px(max(mean - std, 0.0))
            parts += [
                _line(x, y_top, x, y_bot, color),
                _line(x - 4, y_top, x + 4, y_top, color),
                _line(x - 4, y_bot, x + 4, y_bot, color),
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.5" fill="{color}"/>',
            ]
        legend_y = _MARGIN_TOP + 10 + 18 * m_idx
        parts += [_line(legend_x, legend_y, legend_x + 24, legend_y, color, ' stroke-width="2"'),
                  _text(_fmt(legend_x + 30), _fmt(legend_y + 4), method, anchor="")]

    parts.append("</svg>")
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(parts) + "\n")
