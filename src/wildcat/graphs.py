"""Finite multigraphs with an exact unit-length geometric realization.

Every edge is realized as a copy of the unit interval, so points on edges,
arclengths, and path parameters are rational numbers and every geometric
predicate in this module is decided exactly.  Loops and parallel edges are
allowed everywhere; a loop counts as a cycle.  All values are immutable
after construction and all operations are pure functions.
"""

import heapq
import re
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

__all__ = [
    "GraphError",
    "Edge",
    "Vertex",
    "EdgeInterior",
    "GraphPoint",
    "MultiGraph",
    "GraphRecords",
    "build_graph",
    "subgraph",
    "betti1",
    "spanning_forest",
    "Collapse",
    "CollapseHomotopy",
    "deforest",
    "PathStep",
    "PLPath",
    "constant_path",
    "TreeRouter",
    "vertex_distances",
    "point_dist",
    "cat_graph",
    "tc_graph",
]

_IDENT = re.compile(r"[A-Za-z0-9_]+\Z")

# Whole-edge steps are built from these two values, so ``PLPath.check`` and
# ``MultiGraph.point`` can tell them by identity before comparing Fractions.
_ZERO = Fraction(0)
_ONE = Fraction(1)


class GraphError(ValueError):
    """Malformed graph data, or an operation applied to an unsuitable graph."""


class Edge(NamedTuple):
    """An edge record: an immutable named tuple, so it equals, hashes and
    unpacks like the plain triple ``(id, v0, v1)``."""

    id: str
    v0: str
    v1: str

    @property
    def is_loop(self) -> bool:
        return self.v0 == self.v1

    def other(self, v: str) -> str:
        if v == self.v0:
            return self.v1
        if v == self.v1:
            return self.v0
        raise GraphError(f"vertex {v!r} is not an endpoint of edge {self.id!r}")


# ``_new_tuple(Edge, (id, v0, v1))`` makes a record without ``Edge.__new__``
_new_tuple = tuple.__new__


@dataclass(frozen=True)
class Vertex:
    v: str


# The trusted builders of ``EdgeInterior`` and ``PathStep`` set each field
# with ``object.__setattr__``, as the dataclass constructor does, so an
# instance keeps its attributes in the compact per-class layout.  Filling
# ``__dict__`` with one ``update`` is about 20% faster, but it makes each
# instance a real dict: 248 bytes per ``PathStep`` against 104 (CPython 3.11,
# measured with tracemalloc).
_new = object.__new__
_set = object.__setattr__


@dataclass(frozen=True)
class EdgeInterior:
    """A point inside an edge, at parameter 0 < t < 1.

    The public constructor coerces t to a Fraction and checks that it lies
    strictly between 0 and 1.  ``_trusted`` takes a Fraction its caller has
    already proven in that range, unchecked: the planner's random, nudged
    and cycle points.
    """

    edge: str
    t: Fraction

    def __post_init__(self):
        t = self.t if isinstance(self.t, Fraction) else Fraction(self.t)
        object.__setattr__(self, "t", t)
        # a Fraction's denominator is positive, so this is 0 < t < 1 in ints
        if not 0 < t.numerator < t.denominator:
            raise GraphError(f"interior parameter must lie strictly in (0,1), got {t}")

    @classmethod
    def _trusted(cls, edge: str, t: Fraction) -> "EdgeInterior":
        p = _new(cls)
        _set(p, "edge", edge)
        _set(p, "t", t)
        return p


GraphPoint = Vertex | EdgeInterior


def _check_each_name(vs, es):
    """Raise ``GraphError`` at the first bad name, in declaration order."""
    vset = set()
    for v in vs:
        if not isinstance(v, str) or not _IDENT.match(v):
            raise GraphError(f"invalid vertex identifier {v!r}")
        if v in vset:
            raise GraphError(f"duplicate identifier {v!r}")
        vset.add(v)
    eset = set()
    for e in es:
        if not _IDENT.match(e.id):
            raise GraphError(f"invalid edge identifier {e.id!r}")
        if e.id in eset:
            raise GraphError(f"duplicate identifier {e.id!r}")
        eset.add(e.id)
        for v in (e.v0, e.v1):
            if v not in vset:
                raise GraphError(f"dangling endpoint {v!r} on edge {e.id!r}")


def _name_tables(vs, es):
    """``(edge_by_id, degree)`` of the vertex names ``vs`` and the ``Edge``
    records ``es``.  An endpoint that is no vertex raises ``KeyError``."""
    edge_by_id = {e.id: e for e in es}
    degree = dict.fromkeys(vs, 0)
    for _, v0, v1 in es:
        degree[v0] += 1                       # a loop counts twice
        degree[v1] += 1
    return edge_by_id, degree


def _check_names(vs, es):
    """``_name_tables(vs, es)``, or ``GraphError`` at the first bad name in
    declaration order.  The tables' sizes prove the names unique, and a
    ``KeyError`` is a dangling endpoint.  Two tests run over whole columns:
    every name is an exact ``str`` (before any is hashed), and the names
    joined, none empty, are an identifier.  When a test fails, maybe on
    valid input (a ``str`` subclass), the names are checked one by one."""
    if not {str}.issuperset(map(type, chain(vs, chain.from_iterable(es)))):
        _check_each_name(vs, es)
    try:
        tables = _name_tables(vs, es)
    except KeyError:                          # a dangling endpoint
        _check_each_name(vs, es)
        raise
    edge_by_id, degree = tables
    if (len(degree) != len(vs) or len(edge_by_id) != len(es)
            or "" in degree or "" in edge_by_id
            or not _IDENT.match("".join(chain(degree, edge_by_id)))):
        _check_each_name(vs, es)
    return tables


def _find(parent: dict, v: str) -> str:
    """Root of v in a union-find forest, halving the path on the way."""
    p = parent[v]
    while p != v:
        grand = parent[p]
        parent[v] = grand
        v, p = grand, parent[grand]
    return v


class GraphRecords(NamedTuple):
    """The vertex names and ``Edge`` records of a graph whose names have
    been checked, in declaration order, with none of ``MultiGraph``'s
    tables: what a reader of ``vertices`` and ``edges`` alone needs.
    ``MultiGraph._trusted(*records)`` builds the graph."""

    vertices: tuple
    edges: tuple


class MultiGraph:
    """Validated immutable multigraph.

    Both constructors build through ``_tables``: ``vertices`` and ``edges``
    (declaration order), ``edge_by_id`` and ``degree``, which is also the
    vertex-membership table.  The constructor checks the names from the
    last two (``_check_names``); ``_trusted`` builds them from names its
    caller has proven valid, unchecked.  The derived tables are built on
    first read and then kept: ``incident`` (each vertex's incident edge
    ids, sorted; a loop is listed once) from one pass over the edges, and
    ``component_of`` and ``n_components`` (components numbered in the
    order of their smallest vertex) from one union-find pass.  All
    deterministic tie-breaking elsewhere is by smallest identifier.  No
    distance table is kept: ``point_dist`` runs a bounded BFS per query.

    ``edge_by_id`` and ``degree`` stay eager, since the hot paths read them
    often and building them on first read slows every read: a class-level
    ``__getattr__`` keeps CPython from specialising attribute reads on the
    class, and a property adds a call to each read.  A caller that reads
    only the names and records of a graph it has proven valid, such as
    the DOT writer of ``wildcat truncate --dot``, keeps them as
    ``GraphRecords`` and builds no graph; ``wild.truncate`` builds its
    graph from the same records with ``_trusted``.  ``deforest`` builds its core with ``_trusted`` from
    its input's names and reads connectivity from the core, so the input
    runs no union-find.
    """

    __slots__ = ("vertices", "edges", "edge_by_id", "degree",
                 "_incident", "_component_of", "_n_components")

    def __init__(self, vertices, edges):
        self._tables(tuple(vertices),
                     tuple([e if isinstance(e, Edge) else Edge(*e) for e in edges]),
                     _check_names)

    @classmethod
    def _trusted(cls, vertices, edges) -> "MultiGraph":
        """A graph from names already proven valid and ``Edge`` records,
        unchecked."""
        g = cls.__new__(cls)
        g._tables(tuple(vertices), tuple(edges), _name_tables)
        return g

    def _tables(self, vs, es, name_tables):
        self.vertices = vs
        self.edges = es
        self.edge_by_id, self.degree = name_tables(vs, es)
        self._incident = None
        self._component_of = None
        self._n_components = None

    @property
    def incident(self) -> dict:
        if self._incident is None:
            self._incidence()
        return self._incident

    @property
    def component_of(self) -> dict:
        if self._component_of is None:
            self._components()
        return self._component_of

    @property
    def n_components(self) -> int:
        if self._n_components is None:
            self._components()
        return self._n_components

    def _incidence(self):
        incident = {v: [] for v in self.vertices}
        for eid, v0, v1 in self.edges:
            incident[v0].append(eid)
            if v0 != v1:
                incident[v1].append(eid)
        self._incident = {v: tuple(sorted(ids)) for v, ids in incident.items()}

    def _components(self):
        """Union-find over the edges.  Linking keeps the smaller root, so
        each root is its component's smallest vertex, and the components
        are numbered in the sorted order of their roots."""
        vs = self.vertices
        parent = dict(zip(vs, vs))
        # a vertex's parent is most often a root: _find runs only from a
        # parent that is not
        for _, a, b in self.edges:
            a = parent[a]
            if parent[a] != a:
                a = _find(parent, a)
            b = parent[b]
            if parent[b] != b:
                b = _find(parent, b)
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
        roots = [r if parent[r] == r else _find(parent, r)
                 for r in map(parent.__getitem__, vs)]
        number = {r: i for i, r in enumerate(sorted(set(roots)))}
        self._component_of = dict(zip(vs, map(number.__getitem__, roots)))
        self._n_components = len(number)

    def __eq__(self, other):
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"MultiGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def point(self, edge_id: str, t) -> GraphPoint:
        """Canonical point at parameter t of an edge; t=0,1 normalize to vertices."""
        e = self.edge_by_id.get(edge_id)
        if e is None:
            raise GraphError(f"unknown edge {edge_id!r}")
        if t is _ZERO:
            return Vertex(e.v0)
        if t is _ONE:
            return Vertex(e.v1)
        if not isinstance(t, Fraction):
            t = Fraction(t)
        # a Fraction is normalised, so t is 0 or 1 exactly when its
        # numerator is 0 or equals its denominator
        n = t.numerator
        if n == 0:
            return Vertex(e.v0)
        if n == t.denominator:
            return Vertex(e.v1)
        return EdgeInterior(edge_id, t)

    def contains_point(self, p: GraphPoint) -> bool:
        if isinstance(p, Vertex):
            return p.v in self.degree
        return p.edge in self.edge_by_id


def build_graph(vertices, edges) -> MultiGraph:
    """Validate vertex/edge records and build a multigraph.

    ``edges`` may hold ``Edge`` values or ``(id, v0, v1)`` triples.  Raises
    :class:`GraphError` naming the offending identifier on duplicates or
    dangling endpoints.
    """
    return MultiGraph(vertices, edges)


def subgraph(g: MultiGraph, edge_ids, vertices=None) -> MultiGraph:
    """Subgraph on the given edges (plus their endpoints) and extra vertices.

    When ``vertices`` is None every vertex of g is retained, so the result can
    have isolated vertices.  Declaration order of g is preserved.
    """
    eset = set(edge_ids)
    for eid in eset:
        if eid not in g.edge_by_id:
            raise GraphError(f"unknown edge {eid!r}")
    if vertices is None:
        keep = set(g.vertices)
    else:
        keep = set(vertices)
        for v in keep:
            if v not in g.degree:
                raise GraphError(f"unknown vertex {v!r}")
        for eid in eset:
            e = g.edge_by_id[eid]
            keep.add(e.v0)
            keep.add(e.v1)
    vs = tuple(v for v in g.vertices if v in keep)
    es = tuple(e for e in g.edges if e.id in eset)
    return MultiGraph(vs, es)


def betti1(g: MultiGraph) -> int:
    """First Betti number |E| - |V| + #components (the number of independent cycles)."""
    return len(g.edges) - len(g.vertices) + g.n_components


def _require_connected(g: MultiGraph, op: str):
    if g.n_components != 1:
        raise GraphError(f"{op} requires a connected graph "
                         f"({g.n_components} components)")


def spanning_forest(g: MultiGraph) -> tuple:
    """Maximal cycle-free edge subset, one tree per component.

    Deterministic: edges are considered in increasing id order; loops never
    enter the forest.
    """
    parent = dict(zip(g.vertices, g.vertices))
    chosen = []
    for e in sorted(g.edges, key=lambda e: e.id):
        a, b = _find(parent, e.v0), _find(parent, e.v1)
        if a != b:
            parent[a] = b
            chosen.append(e.id)
    return tuple(sorted(chosen))


@dataclass(frozen=True)
class Collapse:
    edge: str
    kept: str


class CollapseHomotopy:
    """Strong deformation retraction of a graph onto a core subgraph.

    Recorded as an ordered sequence of elementary free-edge collapses, each
    removing an edge with a degree-1 endpoint and retaining the other
    endpoint.  Every vertex outside the core is freed by exactly one
    collapse, so the collapses form a forest hanging off the core.  Two
    tables hold it: ``_down`` maps each freed vertex to (its collapsed
    edge, whether a slide crosses that edge from v0 to v1, the vertex it
    was collapsed onto), and ``_kept_of`` maps each collapsed edge to its
    kept end.  Neither table keeps an order.

    The public constructor checks the ``Collapse`` records it is given and
    builds both tables from them.  ``deforest`` builds them while it peels
    and hands them to ``_trusted``, unchecked, so ``collapses`` makes its
    records on first read, replaying the smallest-free-vertex-first order
    from ``_down`` (``_collapse_order``).  ``retract`` gives the induced
    retraction r: the first time a vertex is retracted, ``_down`` is
    followed from it to the core and the image kept, one shared ``Vertex``
    per image vertex.  ``slide`` gives the path D(x, .) from a point to
    r(x).  Slides share their whole-edge steps: one ``PathStep`` per
    collapsed edge and direction, made the first time a slide crosses that
    edge that way.
    """

    __slots__ = ("graph", "core", "_collapses", "_kept_of", "_down", "_whole",
                 "_images")

    def __init__(self, graph: MultiGraph, core: MultiGraph, collapses):
        collapses = tuple(collapses)
        # the core and the vertices freed by later collapses
        settled = set(core.vertices)
        down = {}
        for c in reversed(collapses):
            e = graph.edge_by_id.get(c.edge)
            if e is None:
                raise GraphError(f"collapse references unknown edge {c.edge!r}")
            if e.is_loop:
                raise GraphError(f"loop edge {c.edge!r} cannot be collapsed")
            if c.kept not in (e.v0, e.v1):
                raise GraphError(f"{c.kept!r} is not an endpoint of {c.edge!r}")
            if c.kept not in settled:
                raise GraphError(f"collapse order broken at edge {c.edge!r}")
            free = e.other(c.kept)
            if free in settled:
                raise GraphError(f"collapse of edge {c.edge!r} frees {free!r}, "
                                 "which is in the core or freed by a later collapse")
            settled.add(free)
            down[free] = (c.edge, c.kept == e.v1, c.kept)
        self._tables(graph, core, {c.edge: c.kept for c in collapses}, down,
                     collapses)

    @classmethod
    def _trusted(cls, graph: MultiGraph, core: MultiGraph, kept_of: dict,
                 down: dict) -> "CollapseHomotopy":
        """A homotopy from tables a peel has proven valid, unchecked."""
        h = cls.__new__(cls)
        h._tables(graph, core, kept_of, down, None)
        return h

    def _tables(self, graph, core, kept_of, down, collapses):
        self.graph = graph
        self.core = core
        self._collapses = collapses
        self._kept_of = kept_of
        self._down = down
        self._whole = {}
        self._images = {}

    @property
    def collapses(self) -> tuple:
        """The ``Collapse`` records in collapse order."""
        if self._collapses is None:
            self._collapses = _collapse_order(self._down)
        return self._collapses

    def _image(self, v: str) -> Vertex:
        """retract(v) for a vertex v, found by following ``_down`` to the
        core and kept for v and for its image."""
        images = self._images
        down = self._down
        w = v
        while w in down:
            w = down[w][2]
        image = images.get(w)
        if image is None:
            if w not in self.core.degree:
                raise GraphError(f"vertex {v!r} outside graph and core")
            image = images[w] = Vertex(w)
        images[v] = image
        return image

    def retract(self, p: GraphPoint) -> GraphPoint:
        if isinstance(p, Vertex):
            v = p.v
        elif p.edge in self.core.edge_by_id:
            return p
        else:
            v = self._kept_of.get(p.edge)
            if v is None:
                raise GraphError(f"point on edge {p.edge!r} outside graph and core")
        image = self._images.get(v)
        return image if image is not None else self._image(v)

    def _walk(self, p: GraphPoint, back: bool):
        """Steps of the slide from p (of its reverse when ``back``) and
        retract(p), where the slide ends and its reverse starts."""
        steps = []
        down = self._down
        whole = self._whole
        if isinstance(p, Vertex):
            v = p.v
        else:
            v = self._kept_of.get(p.edge)
            if v is not None:
                kp = _ZERO if v == self.graph.edge_by_id[p.edge].v0 else _ONE
                steps.append(PathStep._trusted(p.edge, kp, p.t) if back
                             else PathStep._trusted(p.edge, p.t, kp))
        hop = down.get(v)
        while hop is not None:
            edge, forward, v = hop
            steps.append(_whole_step(whole, edge, forward != back))
            hop = down.get(v)
        if not steps:
            if not self.graph.contains_point(p):
                raise GraphError("source point not on the graph")
            return steps, p
        if back:
            steps.reverse()
        image = self._images.get(v)
        return steps, image if image is not None else self._image(v)

    def slide(self, p: GraphPoint) -> "PLPath":
        """Path from p to retract(p), the same steps as following the
        collapses in order.

        A point inside a collapsed edge first moves to that edge's kept
        endpoint; from there the walk follows each freed vertex to the vertex
        it was collapsed onto until it reaches the core.  O(depth) for a
        point at depth ``depth`` in the collapsed forest.
        """
        return PLPath._trusted(self.graph, self._walk(p, False)[0], p)


def _collapse_order(down: dict) -> tuple:
    """The ``Collapse`` records of a peel's ``_down`` table, smallest free
    vertex first: a freed vertex is free once every vertex collapsed onto
    it has been, and the free ones wait in a min-heap."""
    waiting = dict.fromkeys(down, 0)
    for _, _, kept in down.values():
        if kept in waiting:
            waiting[kept] += 1
    free = [v for v, n in waiting.items() if n == 0]
    heapq.heapify(free)
    collapses = []
    while free:
        v = heapq.heappop(free)
        eid, _, kept = down[v]
        collapses.append(Collapse(eid, kept))
        if kept in waiting:
            waiting[kept] -= 1
            if waiting[kept] == 0:
                heapq.heappush(free, kept)
    return tuple(collapses)


def deforest(g: MultiGraph):
    """Collapse free edges until no vertex has degree <= 1.

    Returns ``(core, homotopy)`` where the core is the unique subgraph with
    no free edges (a single vertex when g is a tree) and the homotopy
    witnesses the strong deformation retraction; betti1 is preserved.
    Deterministic: the result is that of collapsing the smallest-id
    degree-1 vertex first, the order ``collapses`` gives.  The peel itself
    keeps no order.  When g has a cycle, the core and the homotopy's tables
    do not depend on the order: each freed vertex is collapsed toward the
    core.  Smallest-first never frees a tree's largest vertex, so when
    E < V that vertex is held back and the tree peels onto it.  The
    degree-1 vertices wait on a plain stack, so the peel costs O(V + E).

    Only the edge list is read, never the incidence lists: each vertex
    keeps the XOR of the indices of its live edge ends.  A loop's two ends
    cancel, so at a vertex of degree 1 the XOR is the index of its one live
    edge, and collapsing that edge XORs it out of the kept end.

    The peel fills the homotopy's own tables as it collapses (``_down`` for
    the freed vertex, ``_kept_of`` for the edge), so the homotopy is built
    by ``CollapseHomotopy._trusted`` and makes no ``Collapse`` record until
    ``collapses`` is read.  The core is built by ``MultiGraph._trusted``
    from g's checked names.  Collapsing a free edge keeps the number of
    components, so the connectivity check runs on the core, not on g: on a
    graph with one cycle, a union-find over that cycle alone.
    """
    edges = g.edges
    degree = dict(g.degree)
    ends = dict.fromkeys(degree, 0)
    for i, (_, v0, v1) in enumerate(edges):
        ends[v0] ^= i
        ends[v1] ^= i
    if len(edges) < len(degree):
        # g is a tree if it is connected: its largest vertex is held back,
        # as a degree raised by 2 never falls to 1
        degree[max(degree)] += 2
    down = {}
    kept_of = {}
    leaves = [v for v, d in degree.items() if d == 1]
    while leaves:
        v = leaves.pop()
        # a vertex is pushed once, when its degree reaches 1; it may have
        # lost that last edge since (it was the kept end of its neighbour)
        if degree[v] != 1:
            continue
        i = ends[v]
        eid, v0, v1 = edges[i]
        # a loop adds 2 to a degree, so v's one live edge is no loop, and
        # the slide from v crosses it from v0 to v1 exactly when v is v0
        forward = v == v0
        kept = v1 if forward else v0
        down[v] = (eid, forward, kept)
        kept_of[eid] = kept
        ends[kept] ^= i
        degree[v] = 0
        degree[kept] -= 1
        if degree[kept] == 1:
            leaves.append(kept)
    core = MultiGraph._trusted([v for v in g.vertices if v not in down],
                               [e for e in edges if e.id not in kept_of])
    _require_connected(core, "deforest")
    return core, CollapseHomotopy._trusted(g, core, kept_of, down)


@dataclass(frozen=True)
class PathStep:
    """One monotone piece of a path: along ``edge`` from parameter a to b.

    The public constructor coerces a and b to Fractions and checks that
    both lie in [0, 1].  ``_trusted`` takes Fractions its caller has
    already proven in range, unchecked: an edge end (``_ZERO`` or ``_ONE``)
    or the parameter of a point inside the edge.  Routers, slides and rules
    build their steps with it.
    """

    edge: str
    a: Fraction
    b: Fraction

    def __post_init__(self):
        a = self.a if isinstance(self.a, Fraction) else Fraction(self.a)
        b = self.b if isinstance(self.b, Fraction) else Fraction(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        # 0 <= a <= 1 and 0 <= b <= 1, in ints: denominators are positive
        if not (0 <= a.numerator <= a.denominator
                and 0 <= b.numerator <= b.denominator):
            raise GraphError(f"step parameters must lie in [0,1], got {a}..{b}")

    @classmethod
    def _trusted(cls, edge: str, a: Fraction, b: Fraction) -> "PathStep":
        s = _new(cls)
        _set(s, "edge", edge)
        _set(s, "a", a)
        _set(s, "b", b)
        return s


def _point_key(p: GraphPoint):
    """A point as ``PLPath.check`` reads it: a vertex's name, or the pair
    ``(edge, t)`` for a point inside an edge.  Two points are equal exactly
    when their keys are, and a name (a ``str``) never equals a pair, even
    where an edge is named like a vertex."""
    return p.v if isinstance(p, Vertex) else (p.edge, p.t)


def _step_keys(edge_by_id: dict, steps, multi: bool) -> tuple:
    """Check ``steps`` in order as ``PLPath.check`` does (``multi``: they
    are steps of a multi-step path) and return the keys of the first step's
    start and of the last step's end; the junction into the first step is
    not checked."""
    first = prev = None
    for s in steps:
        e = edge_by_id.get(s.edge)
        if e is None:
            raise GraphError(f"unknown edge {s.edge!r} in path")
        a, b = s.a, s.b
        if a is _ZERO and b is _ONE:
            start, end = e.v0, e.v1
        elif a is _ONE and b is _ZERO:
            start, end = e.v1, e.v0
        else:
            # Fractions are normalised: a parameter is 0 or 1 exactly when
            # its numerator is 0 or equals its denominator, and two are
            # equal exactly when both integers are
            an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
            if multi and an == bn and ad == bd:
                raise GraphError("degenerate step inside a multi-step path")
            start = e.v0 if an == 0 else (e.v1 if an == ad else (s.edge, a))
            end = e.v0 if bn == 0 else (e.v1 if bn == bd else (s.edge, b))
        if prev is None:
            first = start
        elif start != prev:
            raise GraphError("discontinuous consecutive steps")
        prev = end
    return first, prev


def _whole_step(memo: dict, edge: str, forward: bool) -> PathStep:
    """The step across the whole edge, v0 to v1 when ``forward``, made on
    first use and then shared through ``memo``."""
    key = (edge, forward)
    step = memo.get(key)
    if step is None:
        step = memo[key] = (PathStep._trusted(edge, _ZERO, _ONE) if forward
                            else PathStep._trusted(edge, _ONE, _ZERO))
    return step


class PLPath:
    """Piecewise-affine path, reparametrized uniformly by arclength over [0,1].

    Steps are (edge, start parameter, end parameter), each monotone along its
    edge; consecutive steps share an endpoint.  A constant path has no steps
    (at a vertex) or a single degenerate step (at an edge-interior point).
    Evaluation at 0 and 1 returns the declared endpoints exactly.

    A path is validated once, by ``check``.  The public constructor coerces
    its steps and calls it; routers and rules build their answers with
    ``_trusted``, which takes ``PathStep`` values as they are, and
    ``execute`` and ``verify_plan`` check those answers.  The arclength table
    is built on the first read of ``length`` or of a position.
    """

    __slots__ = ("graph", "steps", "source", "_cum", "_ends")

    def __init__(self, graph: MultiGraph, steps, source: GraphPoint = None):
        self.graph = graph
        self.steps = tuple(s if isinstance(s, PathStep) else PathStep(*s)
                           for s in steps)
        self.source = source
        self._cum = None
        self._ends = None
        self.check()
        if source is None:
            self.source = self.endpoint0

    @classmethod
    def _trusted(cls, graph: MultiGraph, steps, source: GraphPoint) -> "PLPath":
        """A path from steps that are already well-formed, unchecked."""
        path = cls.__new__(cls)
        path.graph = graph
        path.steps = tuple(steps)
        path.source = source
        path._cum = None
        path._ends = None
        return path

    def check(self) -> "PLPath":
        """Raise :class:`GraphError` unless the path is well-formed; return
        the path.

        Every step lies on a known edge, no step of a multi-step path is
        degenerate, consecutive steps meet, and a declared source is the
        start of the first step; a path with no steps needs a source on the
        graph.  Step parameters are in [0,1] by construction of ``PathStep``.
        ``_end_keys`` runs the check and gives the keys of the two ends it
        reads on the way (see ``_point_key``), so that a caller can compare
        them with the points it expects without building endpoint objects.
        """
        self._end_keys()
        return self

    def _end_keys(self, partner: "PLPath" = None, same_middle: bool = None) -> tuple:
        """Check the path as ``check`` does and return ``_point_key`` of its
        start and of its end.

        ``partner`` is a path already found well-formed.  When it is on the
        same graph and its middle steps (all but the first and the last)
        equal this path's, those steps and the junctions between them are
        known good, so only the first two steps, the last two and the
        source are read, in the full check's order: a fault gives the error
        the full check gives.  ``same_middle`` is whether the middle steps
        are equal, for a caller that has compared them already; when it is
        None they are compared here.
        """
        steps = self.steps
        graph = self.graph
        source = self.source
        if not steps:
            if source is None:
                raise GraphError("a path with no steps needs a source point")
            if not graph.contains_point(source):
                raise GraphError("source point not on the graph")
            key = _point_key(source)
            return key, key
        n = len(steps)
        edge_by_id = graph.edge_by_id
        if partner is not None and n > 2 and partner.graph is graph and (
                steps[1:-1] == partner.steps[1:-1] if same_middle is None
                else same_middle):
            first = _step_keys(edge_by_id, steps[:2], True)[0]
            last = _step_keys(edge_by_id, steps[-2:], True)[1]
        else:
            first, last = _step_keys(edge_by_id, steps, n > 1)
        if source is not None and _point_key(source) != first:
            raise GraphError("declared source does not match the first step")
        return first, last

    def _arclengths(self) -> tuple:
        """Cumulative arclength at the start of each step, then the total."""
        if self._cum is None:
            total = Fraction(0)
            cum = [total]
            for s in self.steps:
                total += abs(s.b - s.a)
                cum.append(total)
            self._cum = tuple(cum)
        return self._cum

    @property
    def length(self) -> Fraction:
        return self._arclengths()[-1]

    def _endpoints(self):
        if self._ends is None:
            if self.steps:
                self._ends = (self.graph.point(self.steps[0].edge, self.steps[0].a),
                              self.graph.point(self.steps[-1].edge, self.steps[-1].b))
            else:
                self._ends = (self.source, self.source)
        return self._ends

    @property
    def endpoint0(self) -> GraphPoint:
        return self._endpoints()[0]

    @property
    def endpoint1(self) -> GraphPoint:
        return self._endpoints()[1]

    def at(self, time) -> GraphPoint:
        """Exact evaluation at a rational time in [0,1]."""
        if time == 0:
            return self._endpoints()[0]
        if time == 1:
            return self._endpoints()[1]
        time = Fraction(time)
        if not 0 <= time <= 1:
            raise GraphError(f"time {time} outside [0,1]")
        cum = self._arclengths()
        if cum[-1] == 0:
            return self._endpoints()[0]
        s = time * cum[-1]
        # the first step whose end arclength is >= s
        i = bisect_left(cum, s, 1) - 1
        st = self.steps[i]
        local = s - cum[i]
        t = st.a + (local if st.b > st.a else -local)
        return self.graph.point(st.edge, t)

    def reverse(self) -> "PLPath":
        rsteps = [PathStep(s.edge, s.b, s.a) for s in reversed(self.steps)]
        return PLPath._trusted(self.graph, rsteps, self.endpoint1)

    def __repr__(self):
        return f"PLPath(length={self.length}, steps={len(self.steps)})"


def constant_path(g: MultiGraph, p: GraphPoint) -> PLPath:
    """The constant path at p, checked: p must be a point of g."""
    return _constant_path(g, p).check()


def _constant_path(g: MultiGraph, p: GraphPoint) -> PLPath:
    """The constant path at a point of g, unchecked: a rule's constant
    answer, which ``execute`` and ``verify_plan`` check."""
    if isinstance(p, EdgeInterior):
        return PLPath._trusted(g, (PathStep._trusted(p.edge, p.t, p.t),), p)
    return PLPath._trusted(g, (), p)


class TreeRouter:
    """Reduced-path router along the forest ``tree_edges`` of ``graph``.

    Routes are paths of ``graph`` itself, whose vertices all lie on the
    forest; a point of an edge outside ``tree_edges`` does not.  BFS parent
    tables (root = smallest vertex id per component, incident edges in id
    order, non-tree edges skipped) give the unique reduced path between two
    points.  The BFS takes V - roots edges, so ``tree_edges`` is a forest
    exactly when it has that many; otherwise ``GraphError`` names an id
    ``graph`` lacks, or says it is no forest.  A walk that climbs to two
    roots raises ``points lie in different components``.  Vertex-to-vertex
    walks are cached and share each vertex's whole-edge hops up to its
    parent and back, made the first time a walk climbs from it.
    """

    __slots__ = ("graph", "tree_edges", "_parent", "_depth", "_walks", "_hops")

    def __init__(self, graph: MultiGraph, tree_edges):
        tree_edges = frozenset(tree_edges)
        incident = graph.incident
        edge_by_id = graph.edge_by_id
        parent = {}
        depth = {}
        roots = 0
        for root in sorted(graph.vertices):
            if root in parent:
                continue
            roots += 1
            parent[root] = None
            depth[root] = 0
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for eid in incident[u]:
                    if eid in tree_edges:
                        w = edge_by_id[eid].other(u)
                        if w not in parent:
                            parent[w] = (eid, u)
                            depth[w] = depth[u] + 1
                            queue.append(w)
        if len(tree_edges) != len(parent) - roots:
            unknown = sorted(tree_edges - edge_by_id.keys())
            raise GraphError(f"unknown edge {unknown[0]!r}" if unknown
                             else "router requires a forest (betti1 = 0)")
        self.graph = graph
        self.tree_edges = tree_edges
        self._parent = parent
        self._depth = depth
        self._walks = {}
        self._hops = {}

    def _hop(self, v: str) -> tuple:
        """Make and keep v's hops: the steps from v up to its parent and
        from the parent down to v."""
        eid = self._parent[v][0]
        up = PathStep._trusted(eid, _ZERO, _ONE)
        down = PathStep._trusted(eid, _ONE, _ZERO)
        # a forest edge is no loop, so v is exactly one of its ends
        hop = self._hops[v] = ((up, down) if v == self.graph.edge_by_id[eid].v0
                               else (down, up))
        return hop

    def _vertex_walk(self, a: str, b: str) -> tuple:
        """Whole-edge steps of the reduced walk from vertex a to vertex b."""
        key = (a, b)
        cached = self._walks.get(key)
        if cached is not None:
            return cached
        up_a, up_b = [], []
        depth = self._depth
        parent = self._parent
        hops = self._hops
        while a != b:
            if depth[a] >= depth[b]:
                up = parent[a]
                if up is None:  # b is a root too
                    raise GraphError("points lie in different components")
                up_a.append((hops.get(a) or self._hop(a))[0])
                a = up[1]
            else:
                up_b.append((hops.get(b) or self._hop(b))[1])
                b = parent[b][1]
        up_b.reverse()
        walk = self._walks[key] = tuple(up_a + up_b)
        return walk

    def _anchor(self, p: GraphPoint) -> str:
        """The vertex a route through p leaves from: p itself, or v0 of
        p's edge."""
        if isinstance(p, EdgeInterior):
            if p.edge not in self.tree_edges:
                raise GraphError(f"point not on the forest: edge {p.edge!r}")
            return self.graph.edge_by_id[p.edge].v0
        if p.v not in self.graph.degree:
            raise GraphError(f"point not on the forest: vertex {p.v!r}")
        return p.v

    def route_steps(self, p: GraphPoint, q: GraphPoint) -> list:
        """Parametric steps of the unique reduced path from p to q.

        The walk runs between the anchors of p and q (see ``_anchor``); a
        partial step joins each edge-interior endpoint to its anchor, merged
        with the walk's step on the same edge where the walk starts or ends
        along it.  The middle steps are the router's shared whole-edge steps.
        """
        a, b = self._anchor(p), self._anchor(q)
        if isinstance(p, EdgeInterior) and isinstance(q, EdgeInterior) \
                and p.edge == q.edge:
            # both anchors are v0 of the same edge, so the walk is empty
            return [] if p.t == q.t else [PathStep._trusted(p.edge, p.t, q.t)]
        walk = self._vertex_walk(a, b)
        lo, hi = 0, len(walk)
        head = tail = None
        if isinstance(p, EdgeInterior):
            if walk and walk[0].edge == p.edge:
                head = PathStep._trusted(p.edge, p.t, _ONE)
                lo = 1
            else:
                head = PathStep._trusted(p.edge, p.t, _ZERO)
        if isinstance(q, EdgeInterior):
            if hi > lo and walk[hi - 1].edge == q.edge:
                tail = PathStep._trusted(q.edge, _ONE, q.t)
                hi -= 1
            else:
                tail = PathStep._trusted(q.edge, _ZERO, q.t)
        out = [head] if head is not None else []
        out.extend(walk[lo:hi])
        if tail is not None:
            out.append(tail)
        return out

    def route(self, p: GraphPoint, q: GraphPoint) -> PLPath:
        steps = self.route_steps(p, q)
        if not steps:
            return _constant_path(self.graph, p)
        return PLPath._trusted(self.graph, steps, p)


def vertex_distances(g: MultiGraph) -> dict:
    """All-pairs vertex distances (unit edge lengths), one BFS per vertex."""
    incident = g.incident
    edge_by_id = g.edge_by_id
    dist = {}
    for src in g.vertices:
        d = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for eid in incident[u]:
                w = edge_by_id[eid].other(u)
                if w not in d:
                    d[w] = d[u] + 1
                    queue.append(w)
        dist[src] = d
    return dist


def _endpoint_offsets(g: MultiGraph, p: GraphPoint):
    if isinstance(p, Vertex):
        return ((p.v, Fraction(0)),)
    e = g.edge_by_id[p.edge]
    return ((e.v0, p.t), (e.v1, 1 - p.t))


def point_dist(g: MultiGraph, x: GraphPoint, y: GraphPoint) -> Fraction:
    """Exact path-metric distance between two points of the realization.

    Unless x and y share an edge, a shortest path leaves x through an end
    of its edge (or at x, a vertex) and enters y through an end of y's.  A
    BFS from each end a of x, at offset da, meets y's ends in order of
    vertex distance.  It stops once da plus its radius is no shorter than
    the best distance found: an end's offset is at most 1, so at the latest
    one level after it first meets an end of y.  Raises
    :class:`GraphError` for a point not on g or points in different
    components.
    """
    if not (g.contains_point(x) and g.contains_point(y)):
        raise GraphError("point not on the graph")
    if x == y:
        return Fraction(0)
    best = None
    if isinstance(x, EdgeInterior) and isinstance(y, EdgeInterior) and x.edge == y.edge:
        best = abs(x.t - y.t)
    incident = g.incident
    edge_by_id = g.edge_by_id
    ends_y = {}
    for b, db in _endpoint_offsets(g, y):
        # both ends of a loop are one vertex: keep the nearer offset
        if b not in ends_y or db < ends_y[b]:
            ends_y[b] = db
    for a, da in _endpoint_offsets(g, x):
        seen = {a}
        frontier = [a]
        radius = 0
        while frontier:
            for u in frontier:
                db = ends_y.get(u)
                if db is not None:
                    cand = da + radius + db
                    if best is None or cand < best:
                        best = cand
            radius += 1
            if best is not None and da + radius >= best:
                break
            nxt = []
            for u in frontier:
                for eid in incident[u]:
                    w = edge_by_id[eid].other(u)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
    if best is None:
        raise GraphError("points lie in different components")
    return best


def cat_graph(g: MultiGraph) -> int:
    """LS-category of a connected graph: 0 for trees, 1 otherwise."""
    _require_connected(g, "cat_graph")
    return 0 if betti1(g) == 0 else 1


def tc_graph(g: MultiGraph) -> int:
    """Topological complexity of a connected graph: 0 / 1 / 2 for
    betti1 = 0 / = 1 / >= 2."""
    _require_connected(g, "tc_graph")
    b = betti1(g)
    if b == 0:
        return 0
    return 1 if b == 1 else 2
