"""Minimal native SVG line plots with a logarithmic y axis.

Enough plotting for convergence curves without a plotting dependency:
linear x, log10 y, axis ticks, and a legend.  Points whose y is not a
positive finite number are dropped (they have no place on a log axis).
Text is escaped with the standard library's ``html`` module.
"""
from __future__ import annotations

import html
import math

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

_WIDTH, _HEIGHT = 760, 480
_ML, _MR, _MT, _MB = 70, 160, 40, 55


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG text content."""
    return html.escape(text, quote=False)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _log_ticks(lo: float, hi: float) -> list[float]:
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    step = max(1, (last - first) // 8)
    return [10.0**e for e in range(first, last + 1, step)]


def _lin_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-9 * step:
        ticks.append(t)
        t += step
    return ticks


def render_line_plot(
    series: list[tuple[str, list[float], list[float]]],
    *,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render labeled (x, y) series to an SVG document string."""
    cleaned = []
    for label, xs, ys in series:
        pts = [(float(x), float(y)) for x, y in zip(xs, ys) if 0.0 < y < math.inf]
        if pts:
            cleaned.append((label, pts))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    x0, x1 = _ML, _WIDTH - _MR
    y0, y1 = _HEIGHT - _MB, _MT
    if not cleaned:
        parts.append(
            f'<text x="{_WIDTH / 2}" y="{_HEIGHT / 2}" text-anchor="middle" '
            f'font-family="sans-serif">no positive data</text></svg>'
        )
        return "\n".join(parts)

    xs_all = [p[0] for _, pts in cleaned for p in pts]
    ys_all = [p[1] for _, pts in cleaned for p in pts]
    xlo, xhi = min(xs_all), max(xs_all)
    if xhi == xlo:
        xhi = xlo + 1.0
    ylo, yhi = min(ys_all), max(ys_all)
    if yhi == ylo:
        yhi = ylo * 10.0
    lylo, lyhi = math.log10(ylo), math.log10(yhi)

    def px(x: float) -> float:
        return x0 + (x - xlo) / (xhi - xlo) * (x1 - x0)

    def py(y: float) -> float:
        return y0 + (math.log10(y) - lylo) / (lyhi - lylo) * (y1 - y0)

    parts.append(
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        f'fill="none" stroke="#333"/>'
    )
    for t in _lin_ticks(xlo, xhi):
        x = px(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{y0}" x2="{x:.2f}" y2="{y0 + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{y0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_fmt(t)}</text>'
        )
    for t in _log_ticks(ylo, yhi):
        if t < ylo or t > yhi:
            continue
        y = py(t)
        parts.append(
            f'<line x1="{x0 - 5}" y1="{y:.2f}" x2="{x0}" y2="{y:.2f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{_fmt(t)}</text>'
        )
    if title:
        parts.append(
            f'<text x="{(x0 + x1) / 2}" y="{_MT - 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{_escape(title)}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{(x0 + x1) / 2}" y="{_HEIGHT - 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{_escape(x_label)}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="18" y="{(y0 + y1) / 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 18 {(y0 + y1) / 2})">{_escape(y_label)}</text>'
        )
    for idx, (label, pts) in enumerate(cleaned):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"/>'
        )
        ly = _MT + 18 + 18 * idx
        parts.append(
            f'<line x1="{x1 + 10}" y1="{ly - 4}" x2="{x1 + 34}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{x1 + 40}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{_escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(path, svg_text: str):
    with open(path, "w") as fh:
        fh.write(svg_text)
