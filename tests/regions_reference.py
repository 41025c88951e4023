"""Reference copy of ``CellUnion`` as a list of cell objects, and of the
nesting decision on cut pieces, kept for differential tests only.

A union is built from ``VertexCell``, ``ClosedEdgeCell``, ``OpenEdgeCell``
and ``SubArcCell`` objects.  ``nested(g, a, b)`` decides whether union a
lies in union b by cutting every edge of g at both unions' sub-arc ends and
testing each vertex, each cut point and the midpoint of each open interval
between them; each union holds each such piece wholly or not at all.
"""

from dataclasses import dataclass
from fractions import Fraction

from wildcat.graphs import EdgeInterior, GraphError, Vertex


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


class CellUnion:
    def __init__(self, graph, cells):
        vertices = set()
        edges = set()                     # the edges whose interior it holds
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
                    edges.add(c.edge)
                    vertices.add(e.v0)
                    vertices.add(e.v1)
                elif isinstance(c, OpenEdgeCell):
                    edges.add(c.edge)
                else:
                    arcs.setdefault(c.edge, []).append((c.lo, c.hi))
                    if c.lo == 0:
                        vertices.add(e.v0)
                    if c.hi == 1:
                        vertices.add(e.v1)
            else:
                raise GraphError(f"not a cell: {c!r}")
        self.graph = graph
        self._vertices = frozenset(vertices)
        self._edges = frozenset(edges)
        self._arcs_by_edge = {e: tuple(sorted(v)) for e, v in arcs.items()}

    def contains(self, p):
        if isinstance(p, Vertex):
            return p.v in self._vertices
        e = p.edge
        if e in self._edges:
            return True
        for lo, hi in self._arcs_by_edge.get(e, ()):
            if lo <= p.t <= hi:
                return True
        return False

    def cuts(self):
        return [(e, t) for e, arcs in self._arcs_by_edge.items()
                for arc in arcs for t in arc if 0 < t < 1]

    def is_closed(self):
        vs, ends = self._vertices, map(self.graph.edge_by_id.__getitem__, self._edges)
        return all(v0 in vs and v1 in vs for _, v0, v1 in ends)


def piece_points(g, cuts):
    """A point of each piece of g cut at ``cuts``, pairs ``(edge, t)`` with
    0 < t < 1: each vertex, then along each edge its open intervals and the
    cut points between them."""
    by_edge = {}
    for e, t in cuts:
        by_edge.setdefault(e, set()).add(t)
    rep = [Vertex(v) for v in g.vertices]
    for e in g.edges:
        cs = sorted(by_edge.get(e.id, ()))
        lo = Fraction(0)
        for t in cs + [Fraction(1)]:
            rep.append(EdgeInterior(e.id, (lo + t) / 2))
            if t != 1:
                rep.append(EdgeInterior(e.id, t))
            lo = t
    return rep


def nested(g, a, b):
    """Whether union a lies in union b: every piece a holds, b holds."""
    return not any(a.contains(p) and not b.contains(p)
                   for p in piece_points(g, a.cuts() + b.cuts()))
