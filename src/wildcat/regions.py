"""Exactly decidable regions of a product of graph realizations.

A region is a finite union of primitives: boxes of cell unions, the shifted
diagonal of a cycle, or the preimage of another region under the product of a
collapse retraction with itself.  Membership of a pair of exact graph points
is decidable with rational arithmetic only, and closedness is read off the
descriptors.  Every region also maps a single point to a hashable ``key``
such that ``contains(x, y)`` depends only on ``(key(x), key(y))``.
"""

from dataclasses import dataclass
from fractions import Fraction

from .graphs import (MultiGraph, Vertex, GraphPoint, GraphError,
                     CollapseHomotopy)

__all__ = [
    "VertexCell",
    "ClosedEdgeCell",
    "OpenEdgeCell",
    "SubArcCell",
    "CellUnion",
    "whole_graph_cells",
    "Box",
    "Shift",
    "RetractPreimage",
    "Region",
]


@dataclass(frozen=True)
class VertexCell:
    v: str


@dataclass(frozen=True)
class ClosedEdgeCell:
    edge: str


@dataclass(frozen=True)
class OpenEdgeCell:
    edge: str


@dataclass(frozen=True)
class SubArcCell:
    """Closed sub-arc [lo, hi] of an edge, 0 <= lo <= hi <= 1."""

    edge: str
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo = Fraction(self.lo)
        hi = Fraction(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if not 0 <= lo <= hi <= 1:
            raise GraphError(f"sub-arc of edge {self.edge!r} must satisfy "
                             f"0 <= lo <= hi <= 1, got {lo}..{hi}")


Cell = VertexCell | ClosedEdgeCell | OpenEdgeCell | SubArcCell


class CellUnion:
    """Finite union of cells of one graph, with O(1) point membership."""

    __slots__ = ("graph", "cells", "_vertices", "_closed_edges", "_open_edges",
                 "_arcs_by_edge")

    def __init__(self, graph: MultiGraph, cells):
        cells = tuple(cells)
        vertices = set()
        closed = set()
        open_ = set()
        arcs = {}
        for c in cells:
            if isinstance(c, VertexCell):
                if c.v not in graph.degree:
                    raise GraphError(f"unknown vertex {c.v!r} in cell")
                vertices.add(c.v)
            elif isinstance(c, (ClosedEdgeCell, OpenEdgeCell, SubArcCell)):
                e = graph.edge_by_id.get(c.edge)
                if e is None:
                    raise GraphError(f"unknown edge {c.edge!r} in cell")
                if isinstance(c, ClosedEdgeCell):
                    closed.add(c.edge)
                    vertices.add(e.v0)
                    vertices.add(e.v1)
                elif isinstance(c, OpenEdgeCell):
                    open_.add(c.edge)
                else:
                    arcs.setdefault(c.edge, []).append((c.lo, c.hi))
                    if c.lo == 0:
                        vertices.add(e.v0)
                    if c.hi == 1:
                        vertices.add(e.v1)
            else:
                raise GraphError(f"not a cell: {c!r}")
        self.graph = graph
        self.cells = cells
        self._vertices = frozenset(vertices)
        self._closed_edges = frozenset(closed)
        self._open_edges = frozenset(open_)
        self._arcs_by_edge = {e: tuple(sorted(v)) for e, v in arcs.items()}

    def contains(self, p: GraphPoint) -> bool:
        if isinstance(p, Vertex):
            return p.v in self._vertices
        e = p.edge
        if e in self._closed_edges or e in self._open_edges:
            return True
        for lo, hi in self._arcs_by_edge.get(e, ()):
            if lo <= p.t <= hi:
                return True
        return False

    def contains_cell(self, cell) -> bool:
        """Whether every point of a cell of the same graph lies in the union.

        Decided exactly: the cell's endpoint vertices by set inclusion, its
        points inside the edge by the union's whole edges or by a sweep over
        the union's closed arcs on that edge.  A finite union of closed arcs
        is closed, so it covers an open parameter interval only if it covers
        the interval's closure.
        """
        if isinstance(cell, VertexCell):
            return cell.v in self._vertices
        e = self.graph.edge_by_id[cell.edge]
        if isinstance(cell, SubArcCell):
            lo, hi = cell.lo, cell.hi
            ends = [v for v, t in ((e.v0, 0), (e.v1, 1)) if t in (lo, hi)]
        else:
            lo, hi = Fraction(0), Fraction(1)
            ends = [e.v0, e.v1] if isinstance(cell, ClosedEdgeCell) else []
        if not all(v in self._vertices for v in ends):
            return False
        if (lo == hi and lo in (0, 1)) or e.id in self._closed_edges \
                or e.id in self._open_edges:
            return True
        return _arcs_cover(self._arcs_by_edge.get(e.id, ()), lo, hi)

    def is_closed(self) -> bool:
        """Closed iff every open-edge cell has both endpoints in the union."""
        for eid in self._open_edges:
            if eid in self._closed_edges:
                continue
            e = self.graph.edge_by_id[eid]
            if not (self.contains(Vertex(e.v0)) and self.contains(Vertex(e.v1))):
                return False
        return True


def _arcs_cover(arcs, lo, hi) -> bool:
    """Whether closed arcs, sorted by their lower end, cover [lo, hi]."""
    reach = lo  # [lo, reach) is covered so far
    for a, b in arcs:
        if b < reach:
            continue
        if a > reach:
            return False
        if b >= hi:
            return True
        reach = b
    return False


def whole_graph_cells(g: MultiGraph) -> CellUnion:
    cells = [VertexCell(v) for v in g.vertices]
    cells.extend(ClosedEdgeCell(e.id) for e in g.edges)
    return CellUnion(g, cells)


class Box:
    """Product of two cell unions: the union of all cell-by-cell boxes."""

    __slots__ = ("first", "second")

    def __init__(self, first: CellUnion, second: CellUnion):
        self.first = first
        self.second = second

    def contains(self, x: GraphPoint, y: GraphPoint) -> bool:
        return self.first.contains(x) and self.second.contains(y)

    def key(self, p: GraphPoint):
        return (self.first.contains(p), self.second.contains(p))

    def is_closed(self) -> bool:
        return self.first.is_closed() and self.second.is_closed()


class Shift:
    """Pairs (x, x + offset) along an oriented cycle, offset in arclength."""

    __slots__ = ("cycle", "offset")

    def __init__(self, cycle, offset):
        self.cycle = cycle
        self.offset = Fraction(offset)

    def contains(self, x: GraphPoint, y: GraphPoint) -> bool:
        sx = self.cycle.coord(x)
        sy = self.cycle.coord(y)
        if sx is None or sy is None:
            return False
        return (sy - sx - self.offset) % self.cycle.length == 0

    def key(self, p: GraphPoint):
        return self.cycle.coord(p)

    def is_closed(self) -> bool:
        return True


class RetractPreimage:
    """Preimage of a region under r x r for a collapse retraction r."""

    __slots__ = ("homotopy", "inner")

    def __init__(self, homotopy: CollapseHomotopy, inner: "Region"):
        self.homotopy = homotopy
        self.inner = inner

    def contains(self, x: GraphPoint, y: GraphPoint) -> bool:
        return self.inner.contains(self.homotopy.retract(x),
                                   self.homotopy.retract(y))

    def key(self, p: GraphPoint):
        return self.inner.key(self.homotopy.retract(p))

    def is_closed(self) -> bool:
        return self.inner.is_closed()


class Region:
    """Finite union of primitive regions in a product of graphs."""

    __slots__ = ("primitives",)

    def __init__(self, *primitives):
        self.primitives = tuple(primitives)

    def contains(self, x: GraphPoint, y: GraphPoint) -> bool:
        for p in self.primitives:
            if p.contains(x, y):
                return True
        return False

    def key(self, p: GraphPoint):
        """Point class: ``contains(x, y)`` is a function of the two keys."""
        return tuple(q.key(p) for q in self.primitives)

    def is_closed(self) -> bool:
        return all(p.is_closed() for p in self.primitives)
