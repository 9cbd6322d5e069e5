"""Two-panel SVG rendering of energy and risk trajectories.

Self-contained vector output, no plotting library. The figure mirrors
the comparison view: energy E(t) on top, risk r(t) below, one series per
case, with the disturbance window shaded in both panels.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParameterError
from .io_formats import TrajectoryTable

_WIDTH = 880
_PANEL_HEIGHT = 240
_MARGIN_LEFT = 72
_MARGIN_RIGHT = 24
_MARGIN_TOP = 40
_PANEL_GAP = 56
_MARGIN_BOTTOM = 52
_MAX_POINTS = 1200
_PALETTE = ("#1b6ca8", "#d1495b", "#2e933c", "#8d6a9f", "#c77b30")


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if span / step <= target + 1:
            break
    first = np.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * span:
        ticks.append(round(v / step) * step)
        v += step
    return ticks


def _fmt(v: float) -> str:
    return format(round(v, 2), "g")


def _escape(text: str) -> str:
    """text as XML character data."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Panel:
    def __init__(self, y_top: float, t_lo: float, t_hi: float,
                 y_lo: float, y_hi: float):
        self.y_top = y_top
        self.t_lo, self.t_hi = t_lo, t_hi
        self.y_lo, self.y_hi = y_lo, y_hi
        self.x0 = _MARGIN_LEFT
        self.x1 = _WIDTH - _MARGIN_RIGHT

    def x(self, t):
        frac = (t - self.t_lo) / (self.t_hi - self.t_lo)
        return self.x0 + frac * (self.x1 - self.x0)

    def y(self, v):
        frac = (v - self.y_lo) / (self.y_hi - self.y_lo)
        return self.y_top + (1.0 - frac) * _PANEL_HEIGHT


def _polyline(panel: _Panel, t: np.ndarray, v: np.ndarray, color: str) -> str:
    stride = max(1, -(-len(t) // _MAX_POINTS))
    idx = np.arange(0, len(t), stride)
    if idx[-1] != len(t) - 1:
        idx = np.append(idx, len(t) - 1)
    # x and y take arrays with the same operation order as on scalars
    xy = np.column_stack((panel.x(t[idx]), panel.y(v[idx]))).ravel()
    pts = ("%.2f,%.2f " * len(idx) % tuple(xy.tolist()))[:-1]
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.6" '
        f'points="{pts}"/>'
    )


def _panel_frame(panel: _Panel, ylabel: str, last: bool) -> list[str]:
    parts = [
        f'<rect x="{panel.x0}" y="{panel.y_top}" '
        f'width="{panel.x1 - panel.x0}" height="{_PANEL_HEIGHT}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>'
    ]
    for tick in _nice_ticks(panel.y_lo, panel.y_hi):
        y = panel.y(tick)
        parts.append(
            f'<line x1="{panel.x0 - 4}" y1="{y:.2f}" x2="{panel.x0}" '
            f'y2="{y:.2f}" stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{panel.x0 - 8}" y="{y + 4:.2f}" font-size="11" '
            f'text-anchor="end" fill="#222222">{_fmt(tick)}</text>'
        )
    for tick in _nice_ticks(panel.t_lo, panel.t_hi, target=8):
        x = panel.x(tick)
        y1 = panel.y_top + _PANEL_HEIGHT
        parts.append(
            f'<line x1="{x:.2f}" y1="{y1}" x2="{x:.2f}" y2="{y1 + 4}" '
            f'stroke="#444444" stroke-width="1"/>'
        )
        if last:
            parts.append(
                f'<text x="{x:.2f}" y="{y1 + 18}" font-size="11" '
                f'text-anchor="middle" fill="#222222">{_fmt(tick)}</text>'
            )
    parts.append(
        f'<text x="16" y="{panel.y_top + _PANEL_HEIGHT / 2:.2f}" font-size="12" '
        f'fill="#222222" text-anchor="middle" '
        f'transform="rotate(-90 16 {panel.y_top + _PANEL_HEIGHT / 2:.2f})">'
        f"{ylabel}</text>"
    )
    return parts


def emit_plot(
    tables: Sequence[TrajectoryTable],
    destination,
    labels: Sequence[str] | None = None,
    disturbance_window: tuple[float, float] | None = None,
) -> None:
    """Write the two-panel figure (E on top, r below) for the given cases.

    All tables must share an identical time grid and carry both an E and
    an r column. disturbance_window, when given, is shaded in both panels.
    """
    tables = list(tables)
    if not tables:
        raise ParameterError("no tables to plot")
    if labels is None:
        labels = [f"case {i + 1}" for i in range(len(tables))]
    if len(labels) != len(tables):
        raise ParameterError(
            f"{len(labels)} labels for {len(tables)} tables"
        )
    t_ref = tables[0].t
    for table in tables[1:]:
        if len(table.t) != len(t_ref) or not np.array_equal(table.t, t_ref):
            raise ParameterError("tables are not on a shared time grid")
    for table in tables:
        for col in ("E", "r"):
            if col not in table.signals:
                raise ParameterError(f"table lacks required column {col!r}")

    e_all = np.concatenate([table.signals["E"] for table in tables])
    e_lo, e_hi = float(np.min(e_all)), float(np.max(e_all))
    pad = 0.05 * (e_hi - e_lo) if e_hi > e_lo else 1.0
    e_lo, e_hi = e_lo - pad, e_hi + pad
    r_all = np.concatenate([table.signals["r"] for table in tables])
    r_hi = max(1.0, float(np.max(r_all)))

    t_lo, t_hi = float(t_ref[0]), float(t_ref[-1])
    panel_e = _Panel(_MARGIN_TOP, t_lo, t_hi, e_lo, e_hi)
    panel_r = _Panel(
        _MARGIN_TOP + _PANEL_HEIGHT + _PANEL_GAP, t_lo, t_hi, 0.0, r_hi * 1.05
    )
    height = _MARGIN_TOP + 2 * _PANEL_HEIGHT + _PANEL_GAP + _MARGIN_BOTTOM

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{height}" viewBox="0 0 {_WIDTH} {height}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{height}" fill="#ffffff"/>',
    ]

    if disturbance_window is not None:
        w_lo = max(disturbance_window[0], t_lo)
        w_hi = min(disturbance_window[1], t_hi)
        if w_hi > w_lo:
            for panel in (panel_e, panel_r):
                parts.append(
                    f'<rect x="{panel.x(w_lo):.2f}" y="{panel.y_top}" '
                    f'width="{panel.x(w_hi) - panel.x(w_lo):.2f}" '
                    f'height="{_PANEL_HEIGHT}" fill="#f2c14e" opacity="0.25"/>'
                )

    for panel, column, ylabel, last in (
        (panel_e, "E", "E (J)", False),
        (panel_r, "r", "risk r (-)", True),
    ):
        parts.extend(_panel_frame(panel, ylabel, last))
        for j, table in enumerate(tables):
            parts.append(
                _polyline(
                    panel, t_ref, table.signals[column],
                    _PALETTE[j % len(_PALETTE)],
                )
            )

    x_legend = _MARGIN_LEFT
    for j, label in enumerate(labels):
        color = _PALETTE[j % len(_PALETTE)]
        parts.append(
            f'<line x1="{x_legend}" y1="22" x2="{x_legend + 22}" y2="22" '
            f'stroke="{color}" stroke-width="2.5"/>'
        )
        parts.append(
            f'<text x="{x_legend + 28}" y="26" font-size="12" '
            f'fill="#222222">{_escape(label)}</text>'
        )
        x_legend += 36 + 8 * len(label)  # by the text shown, not its markup

    y_xlabel = height - 16
    parts.append(
        f'<text x="{(_MARGIN_LEFT + _WIDTH - _MARGIN_RIGHT) / 2:.2f}" '
        f'y="{y_xlabel}" font-size="12" text-anchor="middle" '
        f'fill="#222222">t (s)</text>'
    )
    parts.append("</svg>")
    Path(destination).write_text("\n".join(parts) + "\n", newline="\n")
