"""Minimal hand-rolled SVG line charts.

Only what the run artifacts need: multi-series line plots with axes, tick
labels, and a legend. Output is deterministic text (fixed %.6g formatting,
no timestamps, no randomness), so identical inputs give identical bytes.
"""

import numpy as np

from .data import save_text

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_MARGIN_L = 62
_MARGIN_R = 16
_MARGIN_T = 34
_MARGIN_B = 46


def _num(v: float) -> str:
    return f"{float(v):.6g}"


def nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi] at a 1/2/5 decade step."""
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("tick range must be finite")
    if hi < lo:
        lo, hi = hi, lo
    if hi == lo:
        hi = lo + (abs(lo) if lo != 0 else 1.0)
    raw = (hi - lo) / 5  # about five ticks
    mag = 10.0 ** np.floor(np.log10(raw))
    step = next(s * mag for s in (1.0, 2.0, 5.0, 10.0) if s * mag >= raw)
    first = np.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + step * 1e-9:
        snapped = 0.0 if abs(v) < step * 1e-9 else float(f"{v:.12g}")
        ticks.append(snapped)
        v += step
    return ticks


class Series:
    def __init__(self, label: str, xs, ys):
        self.label = str(label)
        self.xs = np.asarray(xs, dtype=np.float64)
        self.ys = np.asarray(ys, dtype=np.float64)
        if self.xs.shape != self.ys.shape or self.xs.ndim != 1 or len(self.xs) == 0:
            raise ValueError(f"series {label!r} needs matching 1-d x/y data")
        if not (np.isfinite(self.xs).all() and np.isfinite(self.ys).all()):
            raise ValueError(f"series {label!r} contains non-finite values")


def line_chart(series, *, title: str = "", x_label: str = "", y_label: str = "") -> str:
    """Render series (iterable of (label, xs, ys)) to SVG text."""
    width, height = 720, 420
    ss = [Series(*s) for s in series]
    if not ss:
        raise ValueError("at least one series required")

    x_lo = min(s.xs.min() for s in ss)
    x_hi = max(s.xs.max() for s in ss)
    y_lo = min(s.ys.min() for s in ss)
    y_hi = max(s.ys.max() for s in ss)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        pad = abs(y_lo) * 0.1 if y_lo != 0 else 0.5
        y_lo, y_hi = y_lo - pad, y_hi + pad
    else:
        pad = (y_hi - y_lo) * 0.05
        y_lo, y_hi = y_lo - pad, y_hi + pad

    px_w = width - _MARGIN_L - _MARGIN_R
    px_h = height - _MARGIN_T - _MARGIN_B

    def sx(v):
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * px_w

    def sy(v):
        return _MARGIN_T + px_h - (v - y_lo) / (y_hi - y_lo) * px_h

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
           '<g font-family="sans-serif" font-size="12" fill="#333">']
    if title:
        out.append(f'<text x="{width / 2:.6g}" y="20" text-anchor="middle" '
                   f'font-size="14">{_esc(title)}</text>')

    # gridlines + ticks
    for tv in nice_ticks(x_lo, x_hi):
        if not x_lo <= tv <= x_hi:
            continue
        x = sx(tv)
        out.append(f'<line x1="{x:.6g}" y1="{_MARGIN_T}" x2="{x:.6g}" '
                   f'y2="{_MARGIN_T + px_h}" stroke="#ddd" stroke-width="1"/>')
        out.append(f'<text x="{x:.6g}" y="{_MARGIN_T + px_h + 16}" '
                   f'text-anchor="middle">{_num(tv)}</text>')
    for tv in nice_ticks(y_lo, y_hi):
        if not y_lo <= tv <= y_hi:
            continue
        y = sy(tv)
        out.append(f'<line x1="{_MARGIN_L}" y1="{y:.6g}" x2="{_MARGIN_L + px_w}" '
                   f'y2="{y:.6g}" stroke="#ddd" stroke-width="1"/>')
        out.append(f'<text x="{_MARGIN_L - 6}" y="{y + 4:.6g}" '
                   f'text-anchor="end">{_num(tv)}</text>')

    # axes
    out.append(f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
               f'y2="{_MARGIN_T + px_h}" stroke="#333" stroke-width="1.5"/>')
    out.append(f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + px_h}" '
               f'x2="{_MARGIN_L + px_w}" y2="{_MARGIN_T + px_h}" '
               f'stroke="#333" stroke-width="1.5"/>')
    if x_label:
        out.append(f'<text x="{_MARGIN_L + px_w / 2:.6g}" y="{height - 10}" '
                   f'text-anchor="middle">{_esc(x_label)}</text>')
    if y_label:
        cx, cy = 16, _MARGIN_T + px_h / 2
        out.append(f'<text x="{cx}" y="{cy:.6g}" text-anchor="middle" '
                   f'transform="rotate(-90 {cx} {cy:.6g})">{_esc(y_label)}</text>')

    # data
    for i, s in enumerate(ss):
        color = PALETTE[i % len(PALETTE)]
        if len(s.xs) == 1:
            out.append(f'<circle cx="{sx(s.xs[0]):.6g}" cy="{sy(s.ys[0]):.6g}" '
                       f'r="3" fill="{color}"/>')
        else:
            pts = " ".join(f"{sx(x):.6g},{sy(y):.6g}" for x, y in zip(s.xs, s.ys))
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                       f'stroke-width="1.8"/>')

    # legend, top right inside the plot area
    for i, s in enumerate(ss):
        color = PALETTE[i % len(PALETTE)]
        ly = _MARGIN_T + 10 + 16 * i
        lx = _MARGIN_L + px_w - 130
        out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 28}" y="{ly + 4}">{_esc(s.label)}</text>')

    out.append("</g></svg>")
    return "\n".join(out) + "\n"


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def save_chart(path, svg_text: str) -> None:
    save_text(path, svg_text)
