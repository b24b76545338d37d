"""Deterministic SVG figures: range scatter plus a direction ring.

Hand-rolled writer; output bytes depend only on the input data, so a
fixed seed upstream gives byte-identical files.
"""

from __future__ import annotations

import math

import numpy as np

from .arcs import ArcSet
from .ranges import RangeSample

__all__ = ["render_range_svg"]

VIEW = 800
MARGIN = 60
RING_WIDTH = 14
MAX_POINTS = 20000  # larger samples are thinned to at most this many dots
DOT_CHUNK = 1024  # dots joined into one part of the document


def _fmt(x: float) -> str:
    # fixed format keeps files byte-stable across runs
    return f"{x:.3f}"


def _autoscale(w: np.ndarray) -> tuple[float, float, float]:
    """Map data coordinates to the square plot area; returns
    (scale, x_offset, y_offset) for px = scale*x + x_offset."""
    lo = min(float(np.min(w.real)), float(np.min(w.imag)))
    hi = max(float(np.max(w.real)), float(np.max(w.imag)))
    span = hi - lo
    if span <= 0.0:
        span = 1.0
    inner = VIEW - 2 * (MARGIN + RING_WIDTH + 6)
    scale = inner / span
    x0 = MARGIN + RING_WIDTH + 6 - scale * lo
    # SVG y axis points down
    y0 = VIEW - (MARGIN + RING_WIDTH + 6) + scale * lo
    return scale, x0, y0


def _dots(w: np.ndarray, scale: float, x0: float, y0: float) -> str:
    """The lines of the dots of the values w, one circle a line."""
    return "\n".join(
        f'<circle cx="{_fmt(scale * wk.real + x0)}" '
        f'cy="{_fmt(y0 - scale * wk.imag)}" r="1.2" '
        f'fill="#1f77b4" fill-opacity="0.55"/>' for wk in w)


def render_range_svg(samples: RangeSample, arcs: ArcSet) -> str:
    w = samples.w
    if w.size > MAX_POINTS:
        # deterministic thinning: fixed stride, no RNG
        stride = int(math.ceil(w.size / MAX_POINTS))
        w = w[::stride]
    scale, x0, y0 = _autoscale(w)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW}" '
        f'height="{VIEW}" viewBox="0 0 {VIEW} {VIEW}">',
        f'<rect width="{VIEW}" height="{VIEW}" fill="white"/>',
    ]
    cx = cy = VIEW / 2.0
    ring_r = VIEW / 2.0 - MARGIN / 2.0
    parts.append(
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(ring_r)}" '
        f'fill="none" stroke="#cccccc" stroke-width="1"/>')
    for lo, hi in arcs.arcs:
        if hi - lo < 1e-9:
            px = cx + ring_r * math.cos(lo)
            py = cy - ring_r * math.sin(lo)
            parts.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="5" '
                f'fill="#d62728"/>')
            continue
        x1 = cx + ring_r * math.cos(lo)
        y1 = cy - ring_r * math.sin(lo)
        x2 = cx + ring_r * math.cos(hi)
        y2 = cy - ring_r * math.sin(hi)
        large = 1 if (hi - lo) > math.pi else 0
        # sweep 0: counter-clockwise in math coordinates (y flipped)
        parts.append(
            f'<path d="M {_fmt(x1)} {_fmt(y1)} '
            f'A {_fmt(ring_r)} {_fmt(ring_r)} 0 {large} 0 '
            f'{_fmt(x2)} {_fmt(y2)}" fill="none" stroke="#d62728" '
            f'stroke-width="{RING_WIDTH}" stroke-linecap="round"/>')
    # a chunk of dots is one string, not one small string a dot (some 130
    # bytes each, 80 of them text), so the parts take about what the
    # document takes
    parts.extend(_dots(w[k:k + DOT_CHUNK], scale, x0, y0)
                 for k in range(0, w.size, DOT_CHUNK))
    # the closing tag ends the document, so the join is its one copy
    parts.append("</svg>\n")
    return "\n".join(parts)
