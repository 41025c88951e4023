"""Reference copy of the ordered-scan deforestation and slide, kept for
differential tests only.

``deforest`` here re-sorts every remaining vertex before each collapse, and
``slide`` walks the whole collapse sequence on every call, stepping along a
collapse whenever the current point sits on its edge or its free vertex.
Both are quadratic or worse in graph size, but each is a direct
transcription of its definition (collapse the smallest free vertex; follow
the collapses in order), which makes them the oracle for
``wildcat.graphs.deforest`` and ``wildcat.graphs.CollapseHomotopy.slide``.

``point_dist`` is the table-based distance that ``wildcat.graphs.point_dist``
replaced: it builds the all-pairs vertex distance table and takes the best
sum over the ends of both points.  ``path_at`` evaluates a path by scanning
its steps in order, as ``PLPath.at`` did before it bisected the arclength
table.

``tables`` is the eager part of the ``MultiGraph`` constructor from before
the incidence and component tables were built on first read: sorted
incident lists and degrees from one pass over the edges, then components
numbered by a BFS from each vertex in sorted order.
"""

from fractions import Fraction

from wildcat.graphs import (Collapse, Edge, EdgeInterior, GraphError, PathStep,
                            PLPath, Vertex, subgraph, vertex_distances, _IDENT)


def deforest_collapses(g):
    """``(core, collapses)`` of ``g``: the smallest-id degree-1 vertex is
    collapsed first, found by sorting all remaining vertices each time."""
    degree = dict(g.degree)
    alive = {v: set(g.incident[v]) for v in g.vertices}
    live_edges = set(g.edge_by_id)
    removed = set()
    collapses = []
    while True:
        leaves = sorted(v for v, d in degree.items() if d == 1 and v not in removed)
        if not leaves:
            break
        v = leaves[0]
        eid = min(alive[v])
        e = g.edge_by_id[eid]
        kept = e.other(v)
        collapses.append(Collapse(eid, kept))
        live_edges.discard(eid)
        alive[v].discard(eid)
        alive[kept].discard(eid)
        degree[v] -= 1
        degree[kept] -= 1
        removed.add(v)
    core_vertices = [v for v in g.vertices if v not in removed]
    if not core_vertices:
        core_vertices = [g.vertices[0]]
    return subgraph(g, sorted(live_edges), core_vertices), tuple(collapses)


def slide(g, collapses, p):
    """Path from p to its retraction, scanning every collapse in order."""
    steps = []
    cur = p
    for c in collapses:
        e = g.edge_by_id[c.edge]
        free = e.other(c.kept)
        kp = Fraction(0) if c.kept == e.v0 else Fraction(1)
        if isinstance(cur, EdgeInterior) and cur.edge == c.edge:
            steps.append(PathStep(c.edge, cur.t, kp))
            cur = Vertex(c.kept)
        elif isinstance(cur, Vertex) and cur.v == free:
            steps.append(PathStep(c.edge, 1 - kp, kp))
            cur = Vertex(c.kept)
    return PLPath(g, steps, source=p)


def _endpoint_offsets(g, p):
    if isinstance(p, Vertex):
        return ((p.v, Fraction(0)),)
    e = g.edge_by_id[p.edge]
    return ((e.v0, p.t), (e.v1, 1 - p.t))


def point_dist(g, x, y):
    """Exact path-metric distance, read from the all-pairs table."""
    if x == y:
        return Fraction(0)
    dist = vertex_distances(g)
    best = None
    if isinstance(x, EdgeInterior) and isinstance(y, EdgeInterior) and x.edge == y.edge:
        best = abs(x.t - y.t)
    for a, da in _endpoint_offsets(g, x):
        row = dist[a]
        for b, db in _endpoint_offsets(g, y):
            if b in row:
                cand = da + row[b] + db
                if best is None or cand < best:
                    best = cand
    if best is None:
        raise GraphError("points lie in different components")
    return best


def path_at(path, time):
    """Exact position of ``path`` at ``time``, found by a linear scan."""
    if time == 0:
        return path.endpoint0
    if time == 1:
        return path.endpoint1
    time = Fraction(time)
    cum = [Fraction(0)]
    for st in path.steps:
        cum.append(cum[-1] + abs(st.b - st.a))
    if cum[-1] == 0:
        return path.endpoint0
    s = time * cum[-1]
    for i, st in enumerate(path.steps):
        if s <= cum[i + 1]:
            local = s - cum[i]
            t = st.a + (local if st.b > st.a else -local)
            return path.graph.point(st.edge, t)
    return path.endpoint1


def check_names(vertices, edges):
    """Raise what ``MultiGraph(vertices, edges)`` raises for bad names, or
    return None: vertices in order, then edges in order, each checked for a
    valid identifier, a repeat and, for an edge, dangling endpoints."""
    vs = tuple(vertices)
    es = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)
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


def tables(g):
    """``(incident, degree, component_of, n_components)`` of ``g``, computed
    from its vertices and edges as the eager constructor did."""
    vs, es = g.vertices, g.edges
    edge_by_id = {e.id: e for e in es}
    incident = {v: [] for v in vs}
    degree = dict.fromkeys(vs, 0)
    for eid, v0, v1 in es:
        incident[v0].append(eid)
        if v0 == v1:
            degree[v0] += 2
        else:
            incident[v1].append(eid)
            degree[v0] += 1
            degree[v1] += 1
    incident = {v: tuple(sorted(ids)) for v, ids in incident.items()}
    comp = {}
    n = 0
    for root in sorted(vs):
        if root in comp:
            continue
        comp[root] = n
        queue = [root]
        for u in queue:
            for eid in incident[u]:
                _, v0, v1 = edge_by_id[eid]
                w = v1 if v0 == u else v0
                if w not in comp:
                    comp[w] = n
                    queue.append(w)
        n += 1
    return incident, degree, comp, n
