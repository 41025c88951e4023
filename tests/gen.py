"""Seeded generators and independent oracles shared across the test suite."""

from fractions import Fraction

from wildcat.graphs import MultiGraph, Vertex, EdgeInterior, build_graph, betti1
from wildcat.wild import (Node, Attachment, SeqFamily, Subcomplex, graph_expr,
                          is_w_stable, wild_set)


# --- standard fixtures ----------------------------------------------------

def point_graph():
    return build_graph(["a"], [])


def path_graph(n=3):
    vs = [f"v{i}" for i in range(n)]
    es = [(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)]
    return build_graph(vs, es)


def cycle_graph(n=3):
    vs = [f"v{i}" for i in range(n)]
    es = [(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)]
    return build_graph(vs, es)


def loop_graph():
    return build_graph(["a"], [("l", "a", "a")])


def theta_graph():
    return build_graph(["a", "b"], [("e0", "a", "b"), ("e1", "a", "b"),
                                    ("e2", "a", "b")])


def figure_eight():
    return build_graph(["a"], [("l0", "a", "a"), ("l1", "a", "a")])


def circle_with_hair():
    return build_graph(["a", "b", "c", "tip"],
                       [("c0", "a", "b"), ("c1", "b", "c"), ("c2", "c", "a"),
                        ("h0", "a", "tip")])


def k4():
    vs = ["a", "b", "c", "d"]
    es = [("e0", "a", "b"), ("e1", "a", "c"), ("e2", "a", "d"),
          ("e3", "b", "c"), ("e4", "b", "d"), ("e5", "c", "d")]
    return build_graph(vs, es)


GRAPH_FIXTURES = {
    "point": point_graph,
    "path": path_graph,
    "c3": cycle_graph,
    "circle_with_hair": circle_with_hair,
    "figure_eight": figure_eight,
    "theta": theta_graph,
    "k4": k4,
}


# --- random graphs ----------------------------------------------------------

def random_connected_graph(rng, max_vertices=8, max_edges=20):
    n = rng.randint(1, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    es = []
    for i in range(1, n):
        es.append((f"e{len(es)}", vs[rng.randrange(i)], vs[i]))
    room = max_edges - len(es)
    for _ in range(rng.randint(0, min(room, 12))):
        a = rng.choice(vs)
        b = rng.choice(vs)
        es.append((f"e{len(es)}", a, b))
    return build_graph(vs, es)


def random_tree(rng, n_vertices):
    vs = [f"v{i}" for i in range(n_vertices)]
    es = [(f"e{i - 1}", vs[rng.randrange(i)], vs[i]) for i in range(1, n_vertices)]
    return build_graph(vs, es)


def random_cycle_with_hairs(rng, cycle_len, n_hairs):
    """One cycle of ``cycle_len`` edges with ``n_hairs`` trees grown off it."""
    vs = [f"c{i}" for i in range(cycle_len)]
    es = [(f"s{i}", vs[i], vs[(i + 1) % cycle_len]) for i in range(cycle_len)]
    for i in range(n_hairs):
        tip = f"t{i}"
        es.append((f"h{i}", rng.choice(vs), tip))
        vs.append(tip)
    return build_graph(vs, es)


def random_point(rng, g: MultiGraph, denom=64):
    k = rng.randrange(len(g.vertices) + len(g.edges))
    if k < len(g.vertices):
        return Vertex(g.vertices[k])
    e = g.edges[k - len(g.vertices)]
    return EdgeInterior(e.id, Fraction(rng.randrange(1, denom), denom))


# --- independent Betti oracle -----------------------------------------------

def cycle_space_rank(g: MultiGraph) -> int:
    """Dimension of the kernel of the vertex-edge incidence matrix over Q.

    Independent of any spanning-forest construction: build the boundary
    matrix (loops give zero columns), run Gaussian elimination, and return
    #edges - rank.
    """
    vs = list(g.vertices)
    vi = {v: i for i, v in enumerate(vs)}
    cols = []
    for e in g.edges:
        col = [Fraction(0)] * len(vs)
        if not e.is_loop:
            col[vi[e.v0]] = Fraction(-1)
            col[vi[e.v1]] = Fraction(1)
        cols.append(col)
    rank = 0
    rows_used = set()
    for col in cols:
        pivot = None
        for r in range(len(vs)):
            if r not in rows_used and col[r] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rank += 1
        rows_used.add(pivot)
        for other in cols:
            if other is col or other[pivot] == 0:
                continue
            f = other[pivot] / col[pivot]
            for r in range(len(vs)):
                other[r] -= f * col[r]
    return len(g.edges) - rank


# --- naive BFS oracle for tree paths ----------------------------------------

def bfs_vertex_distance(g: MultiGraph, a: str, b: str):
    from collections import deque
    seen = {a: 0}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        if u == b:
            return seen[u]
        for eid in g.incident[u]:
            w = g.edge_by_id[eid].other(u)
            if w not in seen:
                seen[w] = seen[u] + 1
                queue.append(w)
    return None


# --- random stable expressions ----------------------------------------------

def small_connected_graph(rng, tag=""):
    n = rng.randint(1, 3)
    vs = [f"{tag}v{i}" for i in range(n)]
    es = []
    for i in range(1, n):
        es.append((f"{tag}e{len(es)}", vs[rng.randrange(i)], vs[i]))
    for _ in range(rng.randint(0, 2)):
        es.append((f"{tag}e{len(es)}", rng.choice(vs), rng.choice(vs)))
    return build_graph(vs, es)


def _anchor_for(pattern):
    """Anchor satisfying the stability requirement for the given pattern.

    The iterated wild sets are nested, so a vertex of the deepest non-empty
    level lies in every level.  Patterns whose wild set is split into pieces
    or lives inside a finite attachment (a foreign id space) are unusable.
    """
    base_vs = set(pattern.base.vertices)
    pieces = wild_set(pattern)
    if not pieces:
        return Vertex(min(pattern.base.vertices)), True
    last = None
    while pieces:
        if len(pieces) > 1 or not set(pieces[0].base.vertices) <= base_vs:
            return Vertex(min(pattern.base.vertices)), False
        last = pieces[0]
        pieces = wild_set(last)
    return Vertex(min(last.base.vertices)), True


def _random_subcomplex(rng, g: MultiGraph) -> Subcomplex:
    mode = rng.randrange(3)
    if mode == 0 or not g.edges:
        return Subcomplex.of(g, [rng.choice(g.vertices)], [])
    if mode == 1:
        return Subcomplex.of(g, [], [rng.choice(g.edges).id])
    return Subcomplex.whole(g)


def random_stable_expr(rng, depth, _tags=None) -> Node:
    """Connected, atom-free, w-stable expression of seq-nesting depth <= depth.

    Every subexpression gets its own identifier namespace, so pieces of
    nested wild sets are never confused across gluing boundaries.
    """
    if _tags is None:
        _tags = iter(range(10 ** 6))
    tag = f"g{next(_tags)}_"
    if depth == 0 or rng.random() < 0.25:
        return graph_expr(small_connected_graph(rng, tag))
    base = small_connected_graph(rng, tag)
    fin = []
    if rng.random() < 0.3:
        child = random_stable_expr(rng, depth - 1, _tags)
        fin.append(Attachment(Vertex(rng.choice(base.vertices)), child,
                              Vertex(min(child.base.vertices))))
    seq = []
    for _ in range(rng.randint(0 if fin else 1, 2)):
        for _attempt in range(8):
            pattern = random_stable_expr(rng, depth - 1, _tags)
            anchor, ok = _anchor_for(pattern)
            if ok:
                break
        else:
            loop_tag = f"g{next(_tags)}_"
            pattern = graph_expr(build_graph(
                [f"{loop_tag}v0"], [(f"{loop_tag}e0", f"{loop_tag}v0", f"{loop_tag}v0")]))
            anchor = Vertex(f"{loop_tag}v0")
        seq.append(SeqFamily(_random_subcomplex(rng, base), pattern, anchor))
    expr = Node(base, tuple(fin), tuple(seq))
    assert is_w_stable(expr), "generator must produce stable expressions"
    return expr


def seq_nesting_depth(e) -> int:
    if not isinstance(e, Node):
        return 0
    depth = 0
    for att in e.fin:
        depth = max(depth, seq_nesting_depth(att.child))
    for fam in e.seq:
        depth = max(depth, 1 + seq_nesting_depth(fam.pattern))
    return depth


# --- deep nested chains (space-file text) -------------------------------------

_CHAIN_GRAPHS = ["graph pt", "vertex v", "endgraph",
                 "graph tri", "vertex a", "vertex b", "vertex c",
                 "edge f0 a b", "edge f1 b c", "edge f2 c a", "endgraph",
                 "graph loop", "vertex o", "edge l o o", "endgraph"]


def chain_space_text(expr):
    """Space file whose main expression ``chain`` is the given s-expression
    over the graphs ``pt`` (vertex v), ``tri`` (vertices a b c, edges f0 a-b,
    f1 b-c, f2 c-a) and ``loop`` (vertex o, edge l)."""
    return "\n".join(_CHAIN_GRAPHS + [f"expr chain {expr}", "main chain"]) + "\n"


def rank_chain_text(depth):
    """Space file of a rank-growing chain: a point with shrinking copies of
    a triangle, each triangle with shrinking copies of the next one along
    all of it, the innermost with shrinking loops.  Its wild tower has
    depth + 2 levels and a dendrite at the bottom, so (wrk, cat, tc) is
    (depth + 2, depth + 1, 2 depth + 2)."""
    inner, anchor = "(graph loop)", "(vertex o)"
    for _ in range(depth):
        inner = f"(node (base tri) (seqfam (a b c f0 f1 f2) {inner} {anchor}))"
        anchor = "(vertex a)"
    return chain_space_text(f"(node (base pt) (seqfam (v) {inner} {anchor}))")


def attach_chain_text(depth):
    """Space file of ``depth`` triangles, each attached to the previous one
    at a vertex, the innermost carrying an earring.  The wild set is the
    earring's point, deep inside finite attachments, so (wrk, cat, tc) is
    (2, 1, 2) at any depth."""
    return chain_space_text(_attach_chain(depth))


def _attach_chain(depth):
    earring = "(node (base pt) (seqfam (v) (graph loop) (vertex o)))"
    return ("(node (base tri) (attach (vertex a) " * depth + earring
            + " (vertex v)))" + " (vertex b)))" * (depth - 1))


def attach_chain_family_text(depth):
    """Space file of a point with shrinking copies of the chain of
    ``attach_chain_text(depth)``, each glued at its outermost triangle's
    vertex b: every copy after the first is one subtree ``depth`` levels
    deep."""
    return chain_space_text(f"(node (base pt) (seqfam (v) {_attach_chain(depth)} (vertex b)))")


def seq_chain_text(depth):
    """Space file of ``depth`` nested families: a point with shrinking copies
    of a triangle at its vertex, each triangle with shrinking copies of the
    next one at its vertex a, glued at their own a, the innermost with
    shrinking loops.  Every copy is glued at the one accumulation point, so
    the wild tower stays two levels deep and (wrk, cat, tc) is (2, 1, 2)
    at any depth."""
    inner, anchor = "(graph loop)", "(vertex o)"
    for _ in range(depth):
        inner = f"(node (base tri) (seqfam (a) {inner} {anchor}))"
        anchor = "(vertex a)"
    return chain_space_text(f"(node (base pt) (seqfam (v) {inner} {anchor}))")


def random_anchor_chain_text(rng, depth):
    """Space file of a rank-growing chain like ``rank_chain_text``, whose
    triangle has random vertex names and whose levels each glue their copies
    at a random vertex: the pieces of its wild tower equal no pattern.  Its
    (wrk, cat, tc) is (depth + 2, depth + 1, 2 depth + 2)."""
    a, b, c = (f"q{n}" for n in rng.sample(range(100, 1000), 3))
    lines = ["graph pt", "vertex v", "endgraph",
             "graph tri", f"vertex {a}", f"vertex {b}", f"vertex {c}",
             f"edge f0 {a} {b}", f"edge f1 {b} {c}", f"edge f2 {c} {a}", "endgraph",
             "graph loop", "vertex o", "edge l o o", "endgraph"]
    inner, anchor = "(graph loop)", "(vertex o)"
    for _ in range(depth):
        inner = f"(node (base tri) (seqfam ({a} {b} {c} f0 f1 f2) {inner} {anchor}))"
        anchor = f"(vertex {rng.choice((a, b, c))})"
    lines.append(f"expr chain (node (base pt) (seqfam (v) {inner} {anchor}))")
    lines.append("main chain")
    return "\n".join(lines) + "\n"
