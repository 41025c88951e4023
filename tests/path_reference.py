"""Reference copy of the validated path builders, kept for differential
tests only.

``march`` steps along a cycle one edge at a time, with the same Fraction
arithmetic for every step; ``Router.route_steps`` builds a fresh step for
every walk edge and cancels backtracks in one generic pass; every path is
built by ``validated``, which runs the step-chain checks on each
intermediate path; and ``lifted_path`` assembles a lifted answer from five
such paths (two slides, the core path, the reversed slide and the
concatenation).  They are the oracle for ``CycleCoords.walk`` (``march``
from x the signed distance to y), ``TreeRouter.route_steps`` and
``LiftedRule.path_for``, which share whole-edge steps and check an answer
once; a lifted answer joins step lists and builds no path for its slides.  ``coord`` reads a cycle
coordinate in Fraction arithmetic from the walk's steps, independently of
the integer ``CycleCoords.int_coord``, and ``point_at`` finds the point at a
Fraction arclength through ``CycleCoords.int_point``.
"""

from collections import deque
from fractions import Fraction

import graph_reference
from wildcat.graphs import EdgeInterior, GraphError, PathStep, PLPath, Vertex, betti1


def validated(graph, steps, source=None):
    """A path whose steps pass the step-chain checks, as ``PLPath`` ran them
    in its constructor."""
    steps = tuple(s if isinstance(s, PathStep) else PathStep(*s) for s in steps)
    if steps:
        if len(steps) > 1 and any(s.a == s.b for s in steps):
            raise GraphError("degenerate step inside a multi-step path")
        prev_key = None
        for s in steps:
            e = graph.edge_by_id.get(s.edge)
            if e is None:
                raise GraphError(f"unknown edge {s.edge!r} in path")
            a, b = s.a, s.b
            key = ("v", e.v0) if a == 0 else (("v", e.v1) if a == 1 else (s.edge, a))
            if prev_key is not None and key != prev_key:
                raise GraphError("discontinuous consecutive steps")
            prev_key = ("v", e.v0) if b == 0 else (("v", e.v1) if b == 1 else (s.edge, b))
        first = graph.point(steps[0].edge, steps[0].a)
        if source is None:
            source = first
        elif source != first:
            raise GraphError("declared source does not match the first step")
    else:
        if source is None:
            raise GraphError("a path with no steps needs a source point")
        if not graph.contains_point(source):
            raise GraphError("source point not on the graph")
    return PLPath(graph, steps, source=source)


def constant(graph, p):
    if isinstance(p, EdgeInterior):
        return validated(graph, (PathStep(p.edge, p.t, p.t),), p)
    return validated(graph, (), p)


def reverse(path):
    rsteps = tuple(PathStep(s.edge, s.b, s.a) for s in reversed(path.steps))
    return validated(path.graph, rsteps, path.endpoint1)


def concat(graph, source, paths):
    steps = []
    cur = source
    for p in paths:
        if p.endpoint0 != cur:
            raise GraphError("paths do not chain")
        steps.extend(s for s in p.steps if s.a != s.b)
        cur = p.endpoint1
    if not steps:
        return constant(graph, source)
    return validated(graph, steps, source)


def march(cycle, s0, dist):
    """Steps from arclength s0 moving dist (signed) along a ``CycleCoords``."""
    s0 = Fraction(s0)
    dist = Fraction(dist)
    steps = []
    if dist == 0:
        return steps
    direction = 1 if dist > 0 else -1
    remaining = abs(dist)
    s = s0 % cycle.length
    while remaining > 0:
        k = int(s)
        f = s - k
        if direction > 0:
            room = 1 - f
            take = min(room, remaining)
            e, fwd = cycle.steps[k]
            a, b = (f, f + take) if fwd else (1 - f, 1 - f - take)
            steps.append(PathStep(e.id, a, b))
            s = (s + take) % cycle.length
        else:
            if f == 0:
                k = (k - 1) % int(cycle.length)
                f = Fraction(1)
            take = min(f, remaining)
            e, fwd = cycle.steps[k]
            a, b = (f, f - take) if fwd else (1 - f, 1 - f + take)
            steps.append(PathStep(e.id, a, b))
            s = (s - take) % cycle.length
        remaining -= take
    return steps


def coord(cycle, p):
    """Arclength of a point on the cycle, or None off it, in Fraction
    arithmetic: the reference for ``CycleCoords.int_coord``."""
    for i, (e, fwd) in enumerate(cycle.steps):
        if isinstance(p, Vertex):
            if p.v == (e.v0 if fwd else e.v1):
                return Fraction(i)
        elif p.edge == e.id:
            return i + (p.t if fwd else 1 - p.t)
    return None


def point_at(cycle, s):
    """The point at arclength s on the cycle, taken modulo its length."""
    s = Fraction(s)
    return cycle.int_point(s.numerator, s.denominator)


def circle_path(graph, cycle, j, x, y):
    """The answer of stratum j of the circle plan: rotate by half the
    perimeter (j = 0) or follow the shorter arc (j = 1)."""
    sx = coord(cycle, x)
    if j == 0:
        return validated(graph, march(cycle, sx, cycle.length / 2), x)
    d = (coord(cycle, y) - sx) % cycle.length
    if d == 0:
        return constant(graph, x)
    half = cycle.length / 2
    return validated(graph, march(cycle, sx, d if d < half else d - cycle.length), x)


def lifted_path(homotopy, cycle, j, x, y):
    """Lifted circle-plan answer from five validated paths; the slides are
    the ordered-scan ones of ``graph_reference``."""
    g = homotopy.graph
    sx = graph_reference.slide(g, homotopy.collapses, x)
    sy = graph_reference.slide(g, homotopy.collapses, y)
    core = circle_path(homotopy.core, cycle, j, sx.endpoint1, sy.endpoint1)
    return concat(g, x, (sx, validated(g, core.steps, core.source), reverse(sy)))


def evacuate_path(graph, tree_edges, router, x, y):
    """Answer of the one- and two-coordinate evacuation rule: slide each
    off-tree point to the smaller endpoint of its edge, then route."""
    def evacuate(p):
        if isinstance(p, EdgeInterior) and p.edge not in tree_edges:
            e = graph.edge_by_id[p.edge]
            u = min(e.v0, e.v1)
            pu = Fraction(0) if u == e.v0 else Fraction(1)
            return [PathStep(p.edge, p.t, pu)], graph.point(p.edge, pu)
        return [], p

    pre, x2 = evacuate(x)
    post, y2 = evacuate(y)
    steps = pre + router.route_steps(x2, y2)
    steps.extend(PathStep(s.edge, s.b, s.a) for s in reversed(post))
    if not steps:
        return constant(graph, x)
    return validated(graph, steps, x)


class Router:
    """Reduced-path router for a forest, building every step afresh."""

    def __init__(self, forest):
        if betti1(forest) != 0:
            raise GraphError("router requires a forest (betti1 = 0)")
        parent = {}
        depth = {}
        seen = set()
        for root in sorted(forest.vertices):
            if root in seen:
                continue
            seen.add(root)
            parent[root] = None
            depth[root] = 0
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for eid in forest.incident[u]:
                    w = forest.edge_by_id[eid].other(u)
                    if w not in seen:
                        seen.add(w)
                        parent[w] = (eid, u)
                        depth[w] = depth[u] + 1
                        queue.append(w)
        self.forest = forest
        self._parent = parent
        self._depth = depth

    def _vertex_walk(self, a, b):
        if self.forest.component_of.get(a) != self.forest.component_of.get(b):
            raise GraphError("points lie in different components")
        up_a = []
        up_b = []
        x, y = a, b
        while x != y:
            if self._depth[x] >= self._depth[y]:
                eid, px = self._parent[x]
                up_a.append((eid, x, px))
                x = px
            else:
                eid, py = self._parent[y]
                up_b.append((eid, y, py))
                y = py
        return tuple(up_a + [(eid, py, v) for eid, v, py in reversed(up_b)])

    def route_steps(self, p, q):
        forest = self.forest
        raw = []
        if isinstance(p, EdgeInterior):
            e = forest.edge_by_id.get(p.edge)
            if e is None:
                raise GraphError(f"point not on the forest: edge {p.edge!r}")
            raw.append(PathStep(p.edge, p.t, Fraction(0)))
            a = e.v0
        else:
            if p.v not in forest.degree:
                raise GraphError(f"point not on the forest: vertex {p.v!r}")
            a = p.v
        post = []
        if isinstance(q, EdgeInterior):
            e = forest.edge_by_id.get(q.edge)
            if e is None:
                raise GraphError(f"point not on the forest: edge {q.edge!r}")
            post.append(PathStep(q.edge, Fraction(0), q.t))
            b = e.v0
        else:
            if q.v not in forest.degree:
                raise GraphError(f"point not on the forest: vertex {q.v!r}")
            b = q.v
        for eid, u, w in self._vertex_walk(a, b):
            e = forest.edge_by_id[eid]
            if u == e.v0:
                raw.append(PathStep(eid, Fraction(0), Fraction(1)))
            else:
                raw.append(PathStep(eid, Fraction(1), Fraction(0)))
        raw.extend(post)
        out = []
        for st in raw:
            cur = st
            if cur.a == cur.b:
                continue
            while out and out[-1].edge == cur.edge and out[-1].b == cur.a:
                prev = out.pop()
                if prev.a == cur.b:
                    cur = None
                    break
                cur = PathStep(cur.edge, prev.a, cur.b)
            if cur is not None:
                out.append(cur)
        return out

    def route(self, p, q):
        steps = self.route_steps(p, q)
        if not steps:
            return constant(self.forest, p)
        return validated(self.forest, steps, p)
