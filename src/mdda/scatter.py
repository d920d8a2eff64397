"""Feature-space scatter plots as standalone SVG files.

Domains are told apart by marker shape, classes by color, so a single
plot can show how several shifted domains interleave in the plane.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError

_WIDTH, _HEIGHT = 640, 480
_PLOT = (60, 20, 600, 420)  # left, top, right, bottom of the data area
_MARKERS = ("circle", "square", "triangle", "diamond")
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_SIZE = 4.0


def _marker_svg(kind: str, x: float, y: float, color: str) -> str:
    s = _SIZE
    if kind == "circle":
        return f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{s:.2f}" fill="{color}" fill-opacity="0.7"/>'
    if kind == "square":
        return (
            f'<rect x="{x - s:.2f}" y="{y - s:.2f}" width="{2 * s:.2f}" height="{2 * s:.2f}"'
            f' fill="{color}" fill-opacity="0.7"/>'
        )
    if kind == "triangle":
        pts = f"{x:.2f},{y - s:.2f} {x - s:.2f},{y + s:.2f} {x + s:.2f},{y + s:.2f}"
        return f'<polygon points="{pts}" fill="{color}" fill-opacity="0.7"/>'
    pts = f"{x:.2f},{y - s:.2f} {x + s:.2f},{y:.2f} {x:.2f},{y + s:.2f} {x - s:.2f},{y:.2f}"
    return f'<polygon points="{pts}" fill="{color}" fill-opacity="0.7"/>'


def export_scatter(domains: dict[str, tuple[np.ndarray, np.ndarray]], path) -> None:
    """Write one SVG scatter of 2-D points.

    domains maps a domain name to (x, y): coordinates [n x 2] and class
    labels (length n).  An empty mapping still produces a valid plot
    frame with axes and legend.
    """
    points = {}
    for name, (x, y) in domains.items():
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if x.ndim != 2 or x.shape[1] != 2:
            raise ShapeError(f"domain {name!r}: scatter needs [n x 2] coordinates, got {x.shape}")
        if x.shape[0] != y.shape[0]:
            raise ConfigError(f"domain {name!r}: point and label counts differ")
        points[name] = (x, y)

    all_xy = np.concatenate([x for x, _ in points.values()], axis=0) if points else np.zeros((0, 2))
    if all_xy.shape[0]:
        lo = all_xy.min(axis=0)
        hi = all_xy.max(axis=0)
    else:
        lo = np.array([-1.0, -1.0])
        hi = np.array([1.0, 1.0])
    span = np.maximum(hi - lo, 1e-9)
    lo = lo - 0.05 * span
    hi = hi + 0.05 * span
    span = hi - lo

    left, top, right, bottom = _PLOT

    def to_px(p):
        sx = left + (p[0] - lo[0]) / span[0] * (right - left)
        sy = bottom - (p[1] - lo[1]) / span[1] * (bottom - top)
        return sx, sy

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}"'
        f' viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{right - left}" height="{bottom - top}"'
        ' fill="none" stroke="#333" stroke-width="1"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        vx = lo[0] + frac * span[0]
        vy = lo[1] + frac * span[1]
        px = left + frac * (right - left)
        py = bottom - frac * (bottom - top)
        parts.append(
            f'<text x="{px:.1f}" y="{bottom + 16}" font-size="11" text-anchor="middle"'
            f' fill="#333">{vx:.3g}</text>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{py + 4:.1f}" font-size="11" text-anchor="end"'
            f' fill="#333">{vy:.3g}</text>'
        )

    classes = sorted({int(c) for _, y in points.values() for c in np.unique(y)})
    for di, (name, (x, y)) in enumerate(points.items()):
        marker = _MARKERS[di % len(_MARKERS)]
        for xi, yi in zip(x, y):
            color = _COLORS[int(yi) % len(_COLORS)]
            px, py = to_px(xi)
            parts.append(_marker_svg(marker, px, py, color))

    ly = top + 14
    for di, name in enumerate(points):
        # xml.sax.saxutils.escape, whose import pulls urllib, http and ssl in
        name = name.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
        marker = _MARKERS[di % len(_MARKERS)]
        parts.append(_marker_svg(marker, right - 120, ly - 4, "#555"))
        parts.append(
            f'<text x="{right - 110}" y="{ly}" font-size="12" fill="#333">{name}</text>'
        )
        ly += 18
    for c in classes:
        color = _COLORS[c % len(_COLORS)]
        parts.append(f'<circle cx="{right - 120}" cy="{ly - 4}" r="4" fill="{color}"/>')
        parts.append(
            f'<text x="{right - 110}" y="{ly}" font-size="12" fill="#333">class {c}</text>'
        )
        ly += 18
    if not points:
        parts.append(
            f'<text x="{right - 120}" y="{ly}" font-size="12" fill="#333">no data</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
