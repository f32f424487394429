"""Deterministic SVG rendering of regions, signed tilings and step paths.

Plane coordinates come from :mod:`hexsbs.hexgrid` half-units; here they
are scaled by the hexagon side length and the y axis is flipped for
screen coordinates.  Output depends only on the input objects and the
scale, so repeated renders are byte-identical.
"""

from __future__ import annotations

from .hexgrid import (STEP_EDGE_DELTAS, Region, cell_vertices_plane,
                      lattice_to_plane)
from .tiling import SignedTiling
from .words import Word

_SQRT3_2 = 0.8660254037844386
# the largest float32; a viewer reading the coordinates in single
# precision gets infinities past it
_FLOAT32_MAX = 3.4028234663852886e38

KIND_COLORS = {"bone": "#7cb342", "stone": "#26a69a", "snake": "#8e24aa"}


def _xy(point, scale):
    x, y = point
    return (x * scale * 0.5, -y * scale * _SQRT3_2)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _points(points) -> str:
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)


class _Doc:
    def __init__(self):
        self.body: list[str] = []
        self.points: list[tuple] = []

    def cell_polygon(self, cell, scale, fill, stroke="#333333",
                     extra=""):
        corners = [_xy(p, scale) for p in cell_vertices_plane(cell)]
        self.points.extend(corners)
        self.body.append(
            f'<polygon points="{_points(corners)}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="1"{extra}/>')

    def to_svg(self, defs: str = "") -> str:
        if not self.points:
            self.points.append((0.0, 0.0))
        xs = [p[0] for p in self.points]
        ys = [p[1] for p in self.points]
        pad = 8.0
        x0, y0 = min(xs) - pad, min(ys) - pad
        w, h = max(xs) - min(xs) + 2 * pad, max(ys) - min(ys) + 2 * pad
        frame = (x0, y0, x0 + w, y0 + h, w, h)  # its corners and sides
        if not all(abs(v) <= _FLOAT32_MAX for v in frame):
            raise OverflowError(f"the drawing's frame {w} x {h} passes "
                                f"single precision ({_FLOAT32_MAX})")
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}" '
                f'width="{_fmt(w)}" height="{_fmt(h)}">')
        return "\n".join([head, defs, *self.body, "</svg>"]) + "\n"


_HATCH_DEF = (
    '<defs><pattern id="negative" width="6" height="6" '
    'patternUnits="userSpaceOnUse" patternTransform="rotate(45)">'
    '<rect width="6" height="6" fill="none"/>'
    '<line x1="0" y1="0" x2="0" y2="6" stroke="#ffffff" stroke-width="2"/>'
    "</pattern></defs>")


def render_region(region: Region, scale: float = 24.0) -> str:
    doc = _Doc()
    for cell in region.sorted_cells():
        doc.cell_polygon(cell, scale, fill="#b3c6e7")
    return doc.to_svg()


def render_tiling(tiling: SignedTiling, scale: float = 24.0,
                  region: Region | None = None) -> str:
    doc = _Doc()
    if region is not None:
        for cell in region.sorted_cells():
            doc.cell_polygon(cell, scale, fill="#f2f2f2", stroke="#bbbbbb")
    for i, (placement, coeff) in enumerate(tiling.entries):
        color = KIND_COLORS[placement.shape.kind]
        sign = "positive" if coeff > 0 else "negative"
        doc.body.append(f'<g id="entry{i}" data-sign="{sign}">')
        for cell in sorted(placement.cells()):
            doc.cell_polygon(cell, scale, fill=color)
            if coeff < 0:
                doc.cell_polygon(cell, scale, fill="url(#negative)",
                                 extra=' stroke-dasharray="4,2"')
        doc.body.append("</g>")
    return doc.to_svg(_HATCH_DEF)


def render_path(word: Word, scale: float = 24.0) -> str:
    """Polyline along the grid edges of the path from the origin, rightmost
    letter first, with a dot at the start and an arrowhead at the end."""
    x, y = lattice_to_plane((0, 0))
    pts = [(x, y)]
    for ch in reversed(word.letters):
        for dx, dy in STEP_EDGE_DELTAS[ch]:
            x, y = x + dx, y + dy
            pts.append((x, y))
    doc = _Doc()
    doc.points = [_xy(p, scale) for p in pts]
    defs = ('<defs><marker id="arrow" viewBox="0 0 10 10" refX="8" refY="5" '
            'markerWidth="6" markerHeight="6" orient="auto-start-reverse">'
            '<path d="M 0 0 L 10 5 L 0 10 z" fill="#d32f2f"/>'
            "</marker></defs>")
    sx, sy = doc.points[0]
    doc.body.append(
        f'<polyline points="{_points(doc.points)}" fill="none" '
        f'stroke="#d32f2f" stroke-width="2" marker-end="url(#arrow)"/>')
    doc.body.append(
        f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="3" fill="#1565c0"/>')
    return doc.to_svg(defs)
