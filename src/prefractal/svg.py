"""Static SVG writers: gasket figures, convergence curves, log-log plots.

Everything is rendered with fixed-precision format strings so the same
inputs always produce byte-identical files.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import chain
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .gasket import PrefractalComplex

PALETTE = ("#1a466b", "#b03a2e", "#1e8449", "#7d3c98", "#b9770e", "#117a8b")

# pixel sizes: the square gasket figure and its margin, and the line plot
GASKET_SIZE, GASKET_MARGIN = 720, 24
PLOT_WIDTH, PLOT_HEIGHT = 640, 440


def _f(x: float) -> str:
    return ("%.4f" % x).rstrip("0").rstrip(".")


def gasket_svg(cx: PrefractalComplex, level: int, coords=None) -> Iterator[str]:
    """The level triangles as outlined polygons, one line each, in chunks
    of a row block. Every vertex of V_level (an id prefix) is placed
    before the first chunk is returned.

    coords overrides the vertex positions (one (x, y) per vertex id),
    which is how harmonic embeddings get rendered; the default is the
    Euclidean picture. y is flipped into screen orientation.
    """
    import numpy as np

    from .gasket import _fill

    tris = cx.triangles[level]
    pts = np.asarray(cx.euclidean() if coords is None else coords,
                     dtype=float)[:cx.level_vertex_counts[level]]
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    scale = (GASKET_SIZE - 2 * GASKET_MARGIN) / (float((hi - lo).max()) or 1.0)
    placed = np.column_stack([GASKET_MARGIN + (pts[:, 0] - lo[0]) * scale,
                              GASKET_MARGIN + (hi[1] - pts[:, 1]) * scale])
    row = ('<polygon points="%s,%s %s,%s %s,%s" fill="none" stroke="' + PALETTE[0]
           + '" stroke-width="0.8"/>')
    head = ('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d">\n<rect width="%d" height="%d" fill="white"/>\n'
            % ((GASKET_SIZE,) * 6))

    def corners(rows):
        return map(_f, placed[tris[rows]].ravel().tolist())

    return chain([head], _fill(row, len(tris), corners, sep="\n"), ["\n</svg>\n"])


def plane_coords(embedding) -> np.ndarray:
    """Float (k, 2) array: points of the plane x+y+z = const flattened to
    2D, orthonormally."""
    import numpy as np

    x, y, z = np.asarray(embedding, dtype=float).T
    return np.column_stack([(x - y) / math.sqrt(2.0), (x + y - 2.0 * z) / math.sqrt(6.0)])


def line_plot(series, x_label: str, y_label: str, title: str = "",
              log_x: bool = False, log_y: bool = False) -> str:
    """Polyline chart with markers; series = [(name, [(x, y), ...]), ...]."""
    if not series or not any(pts for _, pts in series):
        raise ValueError("nothing to plot")

    def tx(x):
        return math.log10(x) if log_x else float(x)

    def ty(y):
        return math.log10(y) if log_y else float(y)

    all_x = [tx(x) for _, pts in series for x, _ in pts]
    all_y = [ty(y) for _, pts in series for _, y in pts]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    width, height = PLOT_WIDTH, PLOT_HEIGHT
    left, right, top, bottom = 64, 16, 28, 44
    pw = width - left - right
    ph = height - top - bottom

    def px(x):
        return left + (tx(x) - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return top + (y_hi - ty(y)) / (y_hi - y_lo) * ph

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
    ]
    if title:
        lines.append('<text x="%d" y="18" font-size="13" font-family="sans-serif" '
                     'text-anchor="middle">%s</text>' % (width // 2, title))
    # frame and ticks
    lines.append('<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
                 'stroke="#444" stroke-width="1"/>' % (left, top, pw, ph))
    for k in range(5):
        gx = x_lo + (x_hi - x_lo) * k / 4
        gy = y_lo + (y_hi - y_lo) * k / 4
        sx = left + pw * k / 4
        sy = top + ph - ph * k / 4
        lines.append('<line x1="%s" y1="%d" x2="%s" y2="%d" stroke="#ccc" '
                     'stroke-width="0.5"/>' % (_f(sx), top, _f(sx), top + ph))
        lines.append('<line x1="%d" y1="%s" x2="%d" y2="%s" stroke="#ccc" '
                     'stroke-width="0.5"/>' % (left, _f(sy), left + pw, _f(sy)))
        x_txt = ("1e%s" % _f(gx)) if log_x else _f(gx)
        y_txt = ("1e%s" % _f(gy)) if log_y else _f(gy)
        lines.append('<text x="%s" y="%d" font-size="10" font-family="sans-serif" '
                     'text-anchor="middle">%s</text>'
                     % (_f(sx), top + ph + 14, x_txt))
        lines.append('<text x="%d" y="%s" font-size="10" font-family="sans-serif" '
                     'text-anchor="end">%s</text>' % (left - 6, _f(sy + 3), y_txt))
    lines.append('<text x="%d" y="%d" font-size="11" font-family="sans-serif" '
                 'text-anchor="middle">%s</text>'
                 % (left + pw // 2, height - 8, x_label))
    lines.append('<text x="14" y="%d" font-size="11" font-family="sans-serif" '
                 'text-anchor="middle" transform="rotate(-90 14 %d)">%s</text>'
                 % (top + ph // 2, top + ph // 2, y_label))
    for idx, (name, pts) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        path = " ".join("%s,%s" % (_f(px(x)), _f(py(y))) for x, y in pts)
        lines.append('<polyline points="%s" fill="none" stroke="%s" '
                     'stroke-width="1.5"/>' % (path, color))
        for x, y in pts:
            lines.append('<circle cx="%s" cy="%s" r="2.2" fill="%s"/>'
                         % (_f(px(x)), _f(py(y)), color))
        lines.append('<text x="%d" y="%d" font-size="11" font-family="sans-serif" '
                     'fill="%s">%s</text>'
                     % (left + 8, top + 16 + 14 * idx, color, name))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
