"""Deterministic SVG drawings of reconstructed diagrams.

Layout is fixed: one column per zone, one vertical unit per point index,
box arcs drawn as semicircles bulging into their zone, punctures as hollow
dots, endpoint markers as filled dots.  Identical input yields byte
identical output.  Purely cosmetic; nothing here affects any count.
"""

from __future__ import annotations

from .coords import VirtualCoordinates
from .diagram import CLOSURE, CROSS, LEFT_BOX, STRAIGHT, build_arc_graph

MAX_CANVAS = 16000.0
# layout in SVG user units: column per zone, step per point index, border
ZONE_WIDTH = 72.0
UNIT = 16.0
MARGIN = 40.0

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8" standalone="no"?>\n'
    '<!DOCTYPE svg PUBLIC "-//W3C//DTD SVG 1.1//EN" '
    '"http://www.w3.org/Graphics/SVG/1.1/DTD/svg11.dtd">\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
)


class RenderError(ValueError):
    """Raised when the drawing would exceed the canvas limit."""


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_svg(c: VirtualCoordinates, closed: bool = False) -> str:
    """Render one coordinate tuple as an SVG 1.1 document string; a canvas
    over MAX_CANVAS raises RenderError before any arc is built."""
    max_points = max(2 * si + 1 for si in c.s) + (1 if closed else 0)
    width = 2 * MARGIN + ZONE_WIDTH * c.n
    height = 2 * MARGIN + UNIT * (max_points + 1)
    if width > MAX_CANVAS or height > MAX_CANVAS:
        raise RenderError(
            f"canvas {width:.0f}x{height:.0f} exceeds the {MAX_CANVAS:.0f} limit; "
            "the tuple is too large to draw at this scale"
        )
    g = build_arc_graph(c, closed_by_above=closed)

    def x_of(i: int) -> float:
        return MARGIN + ZONE_WIDTH * i

    def y_of(j: int) -> float:
        return height - MARGIN - UNIT * j

    def pos(v: int) -> tuple[float, float]:
        i, j = g.places[v]
        return x_of(i), y_of(j)

    out = [_HEADER.format(w=_fmt(width), h=_fmt(height))]
    out.append(f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="white"/>\n')
    for i in range(1, c.n):
        x = _fmt(x_of(i))
        out.append(
            f'<line x1="{x}" y1="{_fmt(MARGIN / 2)}" x2="{x}" '
            f'y2="{_fmt(height - MARGIN / 2)}" stroke="#888888" stroke-width="2"/>\n'
        )

    stub = ZONE_WIDTH / 3.0
    mids: list[tuple[float, float]] = []  # per arc, where a puncture on it is drawn
    # build_arc_graph orients every arc for drawing: u on the zone's left
    # line, or for a box arc, u below v
    for arc in g.arcs:
        (xu, yu), (xv, yv) = pos(arc.u), pos(arc.v)
        if arc.kind in (STRAIGHT, CROSS, CLOSURE):
            points = (
                f"{_fmt(xu)},{_fmt(yu)} {_fmt(xu + stub)},{_fmt(yu)} "
                f"{_fmt(xv - stub)},{_fmt(yv)} {_fmt(xv)},{_fmt(yv)}"
            )
            out.append(
                f'<polyline points="{points}" fill="none" stroke="black" '
                'stroke-width="1.5"/>\n'
            )
            mid = ((xu + stub + xv - stub) / 2, (yu + yv) / 2)
        else:
            # semicircle bulging into the zone: rightwards for a left box,
            # leftwards for a right box
            r = (yu - yv) / 2
            sweep = 1 if arc.kind == LEFT_BOX else 0
            out.append(
                f'<path d="M {_fmt(xu)} {_fmt(yu)} A {_fmt(r)} {_fmt(r)} 0 0 {sweep} '
                f'{_fmt(xv)} {_fmt(yv)}" fill="none" stroke="black" '
                'stroke-width="1.5"/>\n'
            )
            apex = xu + r if arc.kind == LEFT_BOX else xu - r
            mid = (apex, (yu + yv) / 2)
        mids.append(mid)

    for idx in g.puncture_arcs:
        x, y = mids[idx]
        out.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="white" '
            'stroke="black" stroke-width="1.5"/>\n'
        )
    for i in (0, c.n):
        x, y = x_of(i), y_of(1)
        out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="black"/>\n')
    out.append("</svg>\n")
    return "".join(out)


def write_svg(c: VirtualCoordinates, path: str, closed: bool = False) -> int:
    """Render and write to a file; returns the byte count."""
    text = render_svg(c, closed=closed)
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)
