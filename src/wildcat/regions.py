"""Exactly decidable regions of a product of graph realizations.

A region is a finite union of primitives: boxes of cell unions, the shifted
diagonal of a cycle, or the preimage of another region under the product of a
collapse retraction with itself.  Membership of a pair of exact graph points
is decidable with integer and rational arithmetic only, and closedness is
read off the descriptors.

``filtration_witnesses`` decides whether a sequence of regions is nested and
covers G x G, exactly and over every pair of points.  Cutting each edge at
the ends of every box's sub-arcs splits G into pieces (``cut_pieces``:
vertices, cut points and the open intervals between them) on whose pairs box
membership is constant.  A shifted diagonal is a curve; one walk round its
cycle, cut where either coordinate crosses a piece boundary, decides it.

``GraphFiltration`` decides the nesting of two cell unions of G from their
sets, edge by edge and without pieces (``CellUnion.within``): the vertex
sets nest, and each edge whose interior the lower union touches is held
whole by the higher one, or nests at the two unions' sub-arc ends strictly
inside it and at the midpoints between them.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm

from .graphs import (MultiGraph, Vertex, EdgeInterior, GraphPoint, GraphError,
                     CollapseHomotopy, _ONE, _ZERO)

__all__ = [
    "CellUnion",
    "whole_graph_cells",
    "Box",
    "Shift",
    "RetractPreimage",
    "Region",
    "cut_pieces",
    "filtration_witnesses",
]


class CellUnion:
    """Finite union of cells of one graph, with O(1) point membership.

    ``CellUnion(graph, vertices, edges, arcs)`` holds the named vertices,
    the open interior of each named edge, and each closed sub-arc ``(edge,
    lo, hi)`` with 0 <= lo <= hi <= 1; an arc end at 0 or 1 adds that end's
    vertex.  A closed edge is its interior plus both ends.  A name the graph
    lacks raises ``GraphError``, for the first such name in the order given.
    """

    __slots__ = ("graph", "_vertices", "_edges", "_arcs_by_edge")

    def __init__(self, graph: MultiGraph, vertices=(), edges=(), arcs=()):
        vertices = _known(vertices, graph.degree, "vertex")
        edges = _known(edges, graph.edge_by_id, "edge")
        arcs_by_edge = {}
        ends = []
        for e, lo, hi in arcs:
            lo, hi = Fraction(lo), Fraction(hi)
            if not 0 <= lo <= hi <= 1:
                raise GraphError(f"sub-arc of edge {e!r} must satisfy "
                                 f"0 <= lo <= hi <= 1, got {lo}..{hi}")
            edge = graph.edge_by_id.get(e)
            if edge is None:
                raise GraphError(f"unknown edge {e!r} in cell")
            arcs_by_edge.setdefault(e, []).append((lo, hi))
            if lo == 0:
                ends.append(edge.v0)
            if hi == 1:
                ends.append(edge.v1)
        self.graph = graph
        self._vertices = vertices.union(ends)
        self._edges = edges
        self._arcs_by_edge = {e: tuple(sorted(v)) for e, v in arcs_by_edge.items()}

    def contains(self, p: GraphPoint) -> bool:
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
        """``(edge, t)`` for each sub-arc end strictly inside its edge: the
        union's membership is constant between consecutive cuts."""
        return [(e, t) for e, arcs in self._arcs_by_edge.items()
                for arc in arcs for t in arc if 0 < t < 1]

    def is_closed(self) -> bool:
        """Closed iff every edge whose interior it holds has both endpoints
        in the union: at once when it holds every vertex of its graph."""
        vs = self._vertices
        if len(vs) == len(self.graph.degree):
            return True
        ends = map(self.graph.edge_by_id.__getitem__, self._edges)
        return all(v0 in vs and v1 in vs for _, v0, v1 in ends)

    def within(self, other: "CellUnion") -> bool:
        """Whether every point of this union lies in ``other``, a union of
        the same graph: the vertex sets nest, and so does each edge whose
        interior this union touches and ``other`` does not hold whole."""
        if not self._vertices <= other._vertices:
            return False
        loose = self._edges.union(self._arcs_by_edge) - other._edges
        return all(self._edge_within(other, e) for e in loose)

    def _edge_within(self, other: "CellUnion", e: str) -> bool:
        """Whether the interior of edge e, which ``other`` does not hold
        whole, nests: both unions' membership is constant between
        consecutive sub-arc ends strictly inside e, so those ends and the
        midpoints between them decide it."""
        mine = ((_ZERO, _ONE),) if e in self._edges else self._arcs_by_edge.get(e, ())
        theirs = other._arcs_by_edge.get(e, ())
        ts = sorted({t for arc in mine + theirs for t in arc if 0 < t < 1})
        bounds = [_ZERO, *ts, _ONE]
        probes = ts + [(lo + hi) / 2 for lo, hi in zip(bounds, bounds[1:])]
        return all(any(lo <= t <= hi for lo, hi in theirs)
                   for t in probes if any(lo <= t <= hi for lo, hi in mine))


def _known(names, table, kind: str) -> frozenset:
    """The names as a set, each a key of ``table``; the first one that is
    not, in the order given, raises ``GraphError``."""
    names = tuple(names)
    known = frozenset(names)
    if not known <= table.keys():
        bad = next(n for n in names if n not in table)
        raise GraphError(f"unknown {kind} {bad!r} in cell")
    return known


def whole_graph_cells(g: MultiGraph) -> CellUnion:
    return CellUnion(g, g.vertices, g.edge_by_id)


class Box:
    """Product of two cell unions: the union of all cell-by-cell boxes."""

    __slots__ = ("first", "second")

    def __init__(self, first: CellUnion, second: CellUnion):
        self.first = first
        self.second = second

    def contains(self, x: GraphPoint, y: GraphPoint) -> bool:
        return self.first.contains(x) and self.second.contains(y)

    def is_closed(self) -> bool:
        return self.first.is_closed() and self.second.is_closed()


class Shift:
    """Pairs (x, x + offset) along an oriented cycle, offset in arclength."""

    __slots__ = ("cycle", "offset", "_num", "_den")

    def __init__(self, cycle, offset):
        self.cycle = cycle
        self.offset = Fraction(offset)
        # the offset mod n, as _num / _den in [0, n)
        self._den = self.offset.denominator
        self._num = self.offset.numerator % (len(cycle.steps) * self._den)

    def contains(self, x: GraphPoint, y: GraphPoint) -> bool:
        gap = self.cycle.gap(x, y)
        if gap is None:
            return False
        num, den = gap
        return num * self._den == self._num * den

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

    def is_closed(self) -> bool:
        return all(p.is_closed() for p in self.primitives)


_COVER, _NEST = 0, 1
_HALF = Fraction(1, 2)


def cut_pieces(g: MultiGraph, cuts):
    """The pieces of G cut at ``cuts``, pairs ``(edge, t)`` with 0 < t < 1:
    each vertex, then along each edge its open intervals and the cut points
    between them.  A cell union whose sub-arc ends are all cuts holds each
    piece wholly or not at all.

    Returns a point of each piece, ``(edge, lo, hi)`` of each interval (None
    for a point piece), the piece of each vertex, and per edge its sorted
    cuts and first piece (cut i is piece ``first + 2 i + 1``).
    """
    by_edge = {}
    for e, t in cuts:
        by_edge.setdefault(e, set()).add(t)
    rep = [Vertex(v) for v in g.vertices]
    span = [None] * len(rep)
    edge_cuts = {}
    for e in g.edges:
        cs = sorted(by_edge.get(e.id, ()))
        edge_cuts[e.id] = (cs, len(rep))
        lo = _ZERO
        for t in cs + [_ONE]:
            # 0 <= lo < t <= 1, so the midpoint lies strictly inside
            rep.append(EdgeInterior._trusted(e.id, (lo + t) / 2 if cs else _HALF))
            span.append((e.id, lo, t))
            if t != 1:
                rep.append(EdgeInterior(e.id, t))
                span.append(None)
            lo = t
    return rep, span, {v: i for i, v in enumerate(g.vertices)}, edge_cuts


def _chains(region, retractions=()):
    """``(retractions, primitive)`` for each box and shifted diagonal of a
    region, with the collapse homotopies it is pulled back through,
    outermost first."""
    for q in region.primitives:
        if isinstance(q, RetractPreimage):
            yield from _chains(q.inner, retractions + (q.homotopy,))
        elif isinstance(q, (Box, Shift)):
            yield retractions, q
        else:
            raise GraphError(f"cannot decide coverage by {q!r}")


def _retract(retractions, p: GraphPoint) -> GraphPoint:
    for h in retractions:
        p = h.retract(p)
    return p


class _Filtration:
    """The parts of G x G on which membership in every region of a filtration
    is constant, and the failures of nesting and coverage among them.

    Each edge is cut at every sub-arc end of every box factor (pulled back
    through retractions, which fix the core's edges).  The pieces are the
    vertices, the cut points and the open intervals between them; a piece's
    class is its membership in each box factor, so box membership of a pair
    is a function of the two classes.  A shifted diagonal with retraction r
    holds the pairs (x, y) with c(r(y)) - c(r(x)) = o on its cycle.  A pair of
    pieces that r maps to two points of the cycle ("point images") lies in it
    wholly or not at all.  Every other pair of pieces meets it in a set with
    empty interior, and only inside cycle x cycle, where r is the identity:
    the curve y = x + o.  (The cycle is also cut at v + o and v - o for each
    of its vertices v when r collapses anything, so a collapsed piece, whose
    image is a vertex, never meets the curve inside an open interval.)

    Membership is a bit mask over the strata.  All shifts must share one
    cycle and one retraction; plans built here have at most one cycle.
    """

    def __init__(self, strata, g: MultiGraph):
        self.strata = strata
        self.full = (1 << len(strata)) - 1
        self.top = 1 << (len(strata) - 1)
        boxes, shifts = [], []
        for j, f in enumerate(strata):
            for hs, q in _chains(f):
                (boxes if isinstance(q, Box) else shifts).append((j, hs, q))
        self.boxes = boxes
        cuts = [c for _, _, box in boxes for c in box.first.cuts() + box.second.cuts()]
        self.cycle = None
        self.keys = {}  # offset in units of 1/D, mod N -> mask of its strata
        if shifts:
            self._frame(shifts, cuts)
        self._pieces(g, cuts)
        self._box_masks = {}

    def _frame(self, shifts, cuts):
        _, hs, first = shifts[0]
        cyc = first.cycle
        for _, hs2, s in shifts:
            if not (s.cycle is cyc or s.cycle.graph == cyc.graph) \
                    or len(hs2) != len(hs) \
                    or not all(a is b or (a.graph, a.core, a.collapses)
                               == (b.graph, b.core, b.collapses)
                               for a, b in zip(hs, hs2)):
                raise GraphError("shifted diagonals on more than one cycle or "
                                 "retraction are not decided")
        n = len(cyc.steps)
        # in units of 1/D every vertex, offset and cut on the cycle sits at an
        # integer position in [0, N)
        on_cycle = {e.id for e, _ in cyc.steps}
        D = lcm(*(s.offset.denominator for _, _, s in shifts),
                *(t.denominator for e, t in cuts if e in on_cycle))
        N = n * D
        for j, _, s in shifts:
            key = s.offset.numerator * (D // s.offset.denominator) % N
            self.keys[key] = self.keys.get(key, 0) | 1 << j
        if hs:
            for key in self.keys:
                for k in range(n):
                    for u in ((k * D + key) % N, (k * D - key) % N):
                        if u % D:
                            p = cyc.int_point(u, D)
                            cuts.append((p.edge, p.t))
        self.cycle, self.retractions, self.D, self.N = cyc, hs, D, N

    def _pieces(self, g: MultiGraph, cuts):
        self.rep, self.span, self.vertex_piece, self.edge_cuts = cut_pieces(g, cuts)
        classes = {}
        cls, coord = [], []
        for i, p in enumerate(self.rep):
            images = {}
            fa = sb = 0
            for b, (_, hs, box) in enumerate(self.boxes):
                z = images.get(hs)
                if z is None:
                    z = images[hs] = _retract(hs, p)
                if box.first.contains(z):
                    fa |= 1 << b
                if box.second.contains(z):
                    sb |= 1 << b
            cls.append(classes.setdefault((fa, sb), len(classes)))
            c = None
            if self.cycle is not None:
                z = _retract(self.retractions, p)
                if self.span[i] is None or isinstance(z, Vertex):
                    c = self._units(z)
            coord.append(c)
        self.cls, self.coord = cls, coord
        self.sigs = list(classes)
        self.class_pieces = [[] for _ in self.sigs]
        for i, c in enumerate(cls):
            self.class_pieces[c].append(i)

    def _units(self, p: GraphPoint):
        """Position on the cycle in units of 1/D, or None off the cycle."""
        c = self.cycle.int_coord(p)
        return None if c is None else c[0] * (self.D // c[1])

    def piece_of(self, p: GraphPoint) -> int:
        if isinstance(p, Vertex):
            return self.vertex_piece[p.v]
        cs, base = self.edge_cuts[p.edge]
        k = bisect_left(cs, p.t)
        if k < len(cs) and cs[k] == p.t:
            return base + 2 * k + 1
        return base + 2 * k

    def box_mask(self, a: int, b: int) -> int:
        """Box membership of pairs of classes a and b, as a stratum mask."""
        mask = self._box_masks.get((a, b))
        if mask is None:
            ok = self.sigs[a][0] & self.sigs[b][1]
            mask = 0
            for i, (j, _, _) in enumerate(self.boxes):
                if ok >> i & 1:
                    mask |= 1 << j
            self._box_masks[a, b] = mask
        return mask

    def verdict(self, mask: int):
        """_COVER outside the top stratum, _NEST where membership is not
        monotone, None where the pair passes."""
        if not mask & self.top:
            return _COVER
        low = mask & -mask
        return None if mask == self.full - (low - 1) else _NEST

    def exact(self, x: GraphPoint, y: GraphPoint):
        mask = 0
        for j, f in enumerate(self.strata):
            if f.contains(x, y):
                mask |= 1 << j
        return self.verdict(mask)

    def _on_diagonal(self, p: int, q: int) -> bool:
        """Whether the pair of pieces lies wholly in a shifted diagonal."""
        cp, cq = self.coord[p], self.coord[q]
        return cp is not None and cq is not None and (cq - cp) % self.N in self.keys

    def _samples(self, p: int):
        """Points of a piece, more of an interval than curves can meet."""
        if self.span[p] is None:
            return [self.rep[p]]
        e, lo, hi = self.span[p]
        m = len(self.keys) + 1
        return [EdgeInterior(e, lo + (hi - lo) * k / (m + 1)) for k in range(1, m + 1)]

    def decide(self):
        """A failing pair of each kind, (cover, nest), or None where there is
        none."""
        found = [None, None]
        count = {}  # pairs of classes -> pairs of their pieces wholly on a diagonal
        k = len(self.sigs)
        size = [len(ps) for ps in self.class_pieces]
        if self.cycle is not None:
            groups = {}  # point image -> class -> its pieces
            for i, c in enumerate(self.coord):
                if c is not None:
                    groups.setdefault(c, {}).setdefault(self.cls[i], []).append(i)
            for key, kmask in self.keys.items():
                for u, row in groups.items():
                    col = groups.get((u + key) % self.N)
                    if col is None:
                        continue
                    for a, pa in row.items():
                        for b, pb in col.items():
                            count[a, b] = count.get((a, b), 0) + len(pa) * len(pb)
                            v = self.verdict(self.box_mask(a, b) | kmask)
                            if v is not None and found[v] is None:
                                found[v] = (self.rep[pa[0]], self.rep[pb[0]])
        for a in range(k):
            for b in range(k):
                v = self.verdict(self.box_mask(a, b))
                if v is not None and found[v] is None \
                        and count.get((a, b), 0) < size[a] * size[b]:
                    found[v] = self._off_diagonal(a, b, v)
        if self.cycle is not None:
            self._walk(found)
        return tuple(found)

    def _off_diagonal(self, a: int, b: int, v):
        """A pair of classes a and b, off every diagonal, that fails as v."""
        for p in self.class_pieces[a]:
            for q in self.class_pieces[b]:
                if self._on_diagonal(p, q):
                    continue
                for x in self._samples(p):
                    for y in self._samples(q):
                        if self.exact(x, y) == v:
                            return x, y
        raise AssertionError("a failing pair of classes has no failing point")

    def _walk(self, found):
        """Decide the curves y = x + o of the diagonals on cycle x cycle, one
        walk each, cut wherever x or x + o crosses a piece boundary."""
        cyc, D, N = self.cycle, self.D, self.N
        marks = {}  # position of each point piece on the cycle -> piece
        for k, (e, fwd) in enumerate(cyc.steps):
            marks[k * D] = self.piece_of(cyc.int_point(k, 1))
            cs, base = self.edge_cuts[e.id]
            for i, t in enumerate(cs):
                f = t if fwd else 1 - t
                marks[k * D + f.numerator * (D // f.denominator)] = base + 2 * i + 1
        pos = sorted(marks)
        # the open interval that follows each point piece
        after = [self.piece_of(cyc.int_point(2 * u + 1, 2 * D)) for u in pos]
        cls = self.cls
        for key, kmask in self.keys.items():
            for u in sorted(set(pos).union([(u - key) % N for u in pos])):
                y = (u + key) % N
                gx = after[bisect_right(pos, u) - 1]
                gy = after[bisect_right(pos, y) - 1]
                px, py = marks.get(u), marks.get(y)
                parts = [(gx, gy, 2 * u + 1)]  # the open stretch after u
                if px is None or py is None:  # two point pieces: a whole pair
                    parts.insert(0, (gx if px is None else px,
                                     gy if py is None else py, 2 * u))
                for p, q, w in parts:
                    v = self.verdict(self.box_mask(cls[p], cls[q]) | kmask)
                    if v is not None and found[v] is None:
                        found[v] = (cyc.int_point(w, 2 * D),
                                    cyc.int_point(w + 2 * key, 2 * D))


def filtration_witnesses(strata, g: MultiGraph):
    """``(cover, nest)``: a pair (x, y) of G x G outside the last stratum,
    and a pair inside it whose membership along the strata is not monotone
    (it lies in some stratum and not in the next); None where no pair of
    G x G fails that way.

    The decision is exact over all of G x G, and each witness is the first
    it meets: among pairs of pieces that lie wholly on a shifted diagonal,
    then at a point off every diagonal of the first failing pair of box
    classes (in class order), then on the walk round the cycle.
    """
    return _Filtration(strata, g).decide()
