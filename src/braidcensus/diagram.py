"""Rebuild the arc structure of a diagram from its coordinates.

The points where the diagram meets line L_i are numbered bottom to top as
c(i, 1) .. c(i, 2*s_i + 1); the endpoint markers are c(0, 1) and c(n, 1).
Inside zone i (between L_{i-1} and L_i), with b_i := a_i + |s_{i-1} - s_i|,
the diagram consists of exactly these non-crossing arcs:

  straight   c(i-1, j) -- c(i, j)            for j <= a_i
  left-box   c(i-1, j) -- c(i-1, 2b_i+1-j)   for a_i < j <= b_i,  if s_{i-1} > s_i
  right-box  c(i, j)   -- c(i, 2b_i+1-j)     for a_i < j <= b_i,  if s_i > s_{i-1}
  cross      c(i-1, j) -- c(i, j')           with j - j' = 2(s_{i-1} - s_i)
                                             and min(j, j') > a_i

and the zone's puncture sits on the arc c(i-1,b)--c(i-1,b+1) if s_{i-1}
falls, on c(i,b)--c(i,b+1) if it rises, and on the straight-through arc at
height a_i + 1 if s_{i-1} = s_i.

Counting connected components of this graph counts the curves of the
diagram; the tuple belongs to a braid exactly when there is one component.
is_actual counts them with one union-find straight over the zone_arc_pairs
of every zone, without building labelled arcs.  "Closing by above" joins
c(0,1) to c(n,1) by a path over the top of the picture, which makes every
node degree 2 without changing the component count.  close_by_above
extends an open graph to the closed one: the same arcs, punctures and node
places, then the n closure arcs and their nodes.

Graph construction and queries are pure per input; a Partition instance is
single-owner mutable state and must not be shared across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

from .coords import VirtualCoordinates

STRAIGHT = "straight"
LEFT_BOX = "left-box"
RIGHT_BOX = "right-box"
CROSS = "cross"
CLOSURE = "closure"


class Arc(NamedTuple):
    u: int
    v: int
    zone: int
    kind: str


class Partition:
    """Union-find over a fixed index range, tracking the class count.

    Uses path halving.  reset() restores the discrete partition without
    reallocating, so one arena can serve many graphs.
    """

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.count = size

    def reset(self) -> None:
        self.parent[:] = range(len(self.parent))
        self.count = len(self.parent)

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        count = self.count
        return self.union_all(((x, y),)) < count

    def union_all(self, pairs: Iterable[tuple[int, int]]) -> int:
        """Join the classes of each (x, y) pair; returns the class count."""
        parent = self.parent
        count = self.count
        for x, y in pairs:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x != y:
                parent[y] = x
                count -= 1
        self.count = count
        return count


@dataclass
class ArcGraph:
    """The reconstructed arc structure of one coordinate tuple.

    Node indices are flat and numbered by line_bases: node (i, j) is
    line_bases(s)[i] + j - 1.  The closure nodes (one per interior line,
    present only when closed) come after all line nodes.  places holds
    each node's (line, 1-based position from the bottom), by flat index;
    a closure node sits at (i, 2*s_i + 2), above its line's regular points.
    """

    n: int
    s: tuple[int, ...]
    arcs: tuple[Arc, ...]
    puncture_arcs: tuple[int, ...]
    places: tuple[tuple[int, int], ...]
    closed: bool

    def node(self, i: int, j: int) -> int:
        # line_bases(self.s)[i]: lines 0 .. i-1 hold 2*s_t + 1 nodes each
        return i + 2 * sum(self.s[:i]) + j - 1

    @property
    def node_count(self) -> int:
        return len(self.places)

    def line_of(self, v: int) -> tuple[int, int]:
        """Inverse of node(), read from places."""
        return self.places[v]

    def degrees(self) -> list[int]:
        deg = [0] * self.node_count
        for arc in self.arcs:
            deg[arc.u] += 1
            deg[arc.v] += 1
        return deg


def line_bases(s: tuple[int, ...]) -> list[int]:
    """Flat index of node c(i, 1) for each line i, then the line node count."""
    bases = [0]
    for si in s:
        bases.append(bases[-1] + 2 * si + 1)
    return bases


def zone_arc_pairs(bl: int, br: int, sl: int, sr: int, a: int) -> list[tuple[int, int]]:
    """(u, v) node pairs of the arcs of one zone at offset a, in rule order.

    bl, br are the flat indices of c(i-1, 1), c(i, 1), and sl, sr are
    s_{i-1}, s_i.  First come the a straight arcs, then the |sl - sr| box
    arcs on the side with more points, outermost first, then the cross
    arcs.  The census walks these pairs; build_arc_graph labels them.
    Each pair is in drawing order, which render_svg relies on: u on L_{i-1}
    and v on L_i, or for a box arc, u below v.
    """
    bl -= 1  # pre-shifted for 1-based j
    br -= 1
    b = a + abs(sl - sr)
    out = [(bl + j, br + j) for j in range(1, a + 1)]
    if sl > sr:
        out += [(bl + j, bl + 2 * b + 1 - j) for j in range(a + 1, b + 1)]
        shift = 2 * (sl - sr)
        out += [(bl + j + shift, br + j) for j in range(a + 1, 2 * sr + 2)]
    elif sr > sl:
        out += [(br + j, br + 2 * b + 1 - j) for j in range(a + 1, b + 1)]
        shift = 2 * (sr - sl)
        out += [(bl + j, br + j + shift) for j in range(a + 1, 2 * sl + 2)]
    else:
        out += [(bl + j, br + j) for j in range(a + 1, 2 * sl + 2)]
    return out


def build_arc_graph(
    c: VirtualCoordinates, closed_by_above: bool = False
) -> ArcGraph:
    """Apply the four arc rules and three puncture rules to a tuple."""
    n, s, a = c.n, c.s, c.a
    bases = line_bases(s)
    arcs: list[Arc] = []
    puncture_arcs: list[int] = []
    for i in range(1, n + 1):
        sl, sr, ai = s[i - 1], s[i], a[i - 1]
        b = ai + abs(sl - sr)
        box = LEFT_BOX if sl > sr else RIGHT_BOX
        # on the innermost (last) box arc, or on the first cross arc if s is level
        puncture_arcs.append(len(arcs) + (b - 1 if sl != sr else ai))
        for idx, (u, v) in enumerate(zone_arc_pairs(bases[i - 1], bases[i], sl, sr, ai)):
            arcs.append(Arc(u, v, i, STRAIGHT if idx < ai else box if idx < b else CROSS))
    places = tuple((i, j) for i, si in enumerate(s) for j in range(1, 2 * si + 2))
    g = ArcGraph(n, s, tuple(arcs), tuple(puncture_arcs), places, closed=False)
    return close_by_above(g) if closed_by_above else g


def close_by_above(g: ArcGraph) -> ArcGraph:
    """The open graph g closed over the top: its arcs, then the closure path.

    The path runs from c(0, 1) through one new node above each interior
    line to c(n, 1).  Punctures are g's, and places extend g's.
    """
    n, top = g.n, g.node_count
    path = [0, *range(top, top + n - 1), g.node(n, 1)]
    closure = tuple(Arc(path[i - 1], path[i], i, CLOSURE) for i in range(1, n + 1))
    tops = tuple((i, 2 * g.s[i] + 2) for i in range(1, n))
    return replace(g, arcs=g.arcs + closure, places=g.places + tops, closed=True)


def component_count(g: ArcGraph) -> int:
    """Number of curves of the diagram (connected components of the graph)."""
    return Partition(g.node_count).union_all((arc.u, arc.v) for arc in g.arcs)


def is_actual(c: VirtualCoordinates) -> bool:
    """True when the tuple is the coordinate tuple of a braid.

    That is, when the diagram has a single curve: one union-find over the
    zone_arc_pairs of every zone, with no labelled arcs built, leaves one
    component.
    """
    s, a = c.s, c.a
    bases = line_bases(s)
    part = Partition(bases[-1])
    for i in range(1, c.n + 1):
        part.union_all(zone_arc_pairs(bases[i - 1], bases[i], s[i - 1], s[i], a[i - 1]))
    return part.count == 1


def tightness_check(g: ArcGraph) -> bool:
    """Self-check of the construction: minimal same-line arcs carry punctures.

    Every arc joining two vertically consecutive points of one line must
    carry exactly one puncture.  build_arc_graph guarantees this (the only
    such arcs are the innermost box arcs, which receive the zone puncture),
    so a False here means the construction is broken.
    """
    if g.closed:
        raise ValueError("tightness is checked on open graphs")
    punctures_on = {}
    for idx in g.puncture_arcs:
        punctures_on[idx] = punctures_on.get(idx, 0) + 1
    for idx, arc in enumerate(g.arcs):
        li, ju = g.places[arc.u]
        lj, jv = g.places[arc.v]
        if li == lj and abs(ju - jv) == 1:
            if punctures_on.get(idx, 0) != 1:
                return False
    return True


def zone_noninterleaving(g: ArcGraph) -> bool:
    """True when no two arcs of one zone interleave along the zone boundary.

    Walking up the left line and back down the right line visits each arc's
    endpoints; in that circular order the arcs must nest like balanced
    parentheses.  Holds for every graph the construction produces.
    """
    place = g.places
    m = len(g.arcs)
    zones: list[list[int]] = [[] for _ in range(g.n + 1)]
    for idx, (u, v, zone, kind) in enumerate(g.arcs):
        for w in (u, v):
            line, j = place[w]
            # twice the position, plus the half step by which a closure arc
            # meets an endpoint marker (position 1) above the marker's
            # regular arc; the right line is walked downwards
            j = 2 * j + (kind == CLOSURE and j == 1)
            zones[zone].append((j if line == zone - 1 else -j) * m + idx)
    for keys in zones:
        keys.sort()
        stack: list[int] = []
        for key in keys:
            idx = key % m
            if stack and stack[-1] == idx:
                stack.pop()
            else:
                stack.append(idx)
        if stack:
            return False
    return True
