"""Reference copy of the ordered-scan deforestation and slide, kept for
differential tests only.

``deforest`` here re-sorts every remaining vertex before each collapse, and
``slide`` walks the whole collapse sequence on every call, stepping along a
collapse whenever the current point sits on its edge or its free vertex.
Both are quadratic or worse in graph size, but each is a direct
transcription of its definition (collapse the smallest free vertex; follow
the collapses in order), which makes them the oracle for
``wildcat.graphs.deforest`` and ``wildcat.graphs.CollapseHomotopy.slide``.
"""

from fractions import Fraction

from wildcat.graphs import (Collapse, EdgeInterior, PathStep, PLPath, Vertex,
                            subgraph)


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
