"""Seeded input generators and the closed-form values they are built to have.

Every generator takes a ``random.Random`` and returns plain data: graphs as
``(vertices, edges)`` with edges ``(id, v0, v1)``, points as ``("v", name)``
or ``("e", edge_id, Fraction)``, space files as text.  Sizes are fixed by
the caller; the seed only changes the wiring, the names and the query
endpoints, so run time and memory stay comparable across seeds.
"""

from fractions import Fraction


def general_graph(rng, n_vertices, n_edges):
    """Connected multigraph: a random recursive tree plus extra random edges
    (loops and parallel edges allowed), so betti1 = n_edges - n_vertices + 1."""
    vs = [f"v{i}" for i in range(n_vertices)]
    es = [(f"e{i - 1}", vs[rng.randrange(i)], vs[i]) for i in range(1, n_vertices)]
    while len(es) < n_edges:
        es.append((f"e{len(es)}", rng.choice(vs), rng.choice(vs)))
    return vs, es


def lifted_graph(rng, cycle_len, n_hairs):
    """A cycle with ``n_hairs`` tree vertices hanging off it (betti1 = 1), so
    the plan is the circle plan lifted through deforestation."""
    vs = [f"c{i}" for i in range(cycle_len)]
    es = [(f"k{i}", vs[i], vs[(i + 1) % cycle_len]) for i in range(cycle_len)]
    for j in range(n_hairs):
        parent = rng.choice(vs)
        vs.append(f"h{j}")
        es.append((f"m{j}", parent, f"h{j}"))
    return vs, es


def tree_graph(rng, n_vertices):
    vs = [f"t{i}" for i in range(n_vertices)]
    es = [(f"e{i - 1}", vs[rng.randrange(i)], vs[i]) for i in range(1, n_vertices)]
    return vs, es


def expected_tc(vertices, edges):
    """TC of a connected graph from its first Betti number E - V + 1:
    0 for trees, 1 for one cycle, 2 otherwise (Farber, DCG 29, 2003)."""
    b1 = len(edges) - len(vertices) + 1
    return 0 if b1 == 0 else (1 if b1 == 1 else 2)


def graph_text(vertices, edges, name="g"):
    lines = [f"graph {name}"]
    lines.extend(f"vertex {v}" for v in vertices)
    lines.extend(f"edge {e} {a} {b}" for e, a, b in edges)
    lines += ["endgraph", f"main {name}"]
    return "\n".join(lines) + "\n"


def random_point(rng, vertices, edges, denom=4096):
    """Uniform over vertices and edge interiors, as the verifier samples."""
    k = rng.randrange(len(vertices) + len(edges))
    if k < len(vertices):
        return ("v", vertices[k])
    return ("e", edges[k - len(vertices)][0], Fraction(rng.randrange(1, denom), denom))


def point_arg(p):
    """CLI syntax of a point: ``vertex ID`` or ``edge ID NUM/DEN``."""
    if p[0] == "v":
        return f"vertex {p[1]}"
    return f"edge {p[1]} {p[2].numerator}/{p[2].denominator}"


# --- the rank-growing nested chain -------------------------------------------
#
# pt -> c3 -> ... -> c3 -> loop: a point with shrinking copies of a triangle,
# every triangle carrying shrinking copies of the next one along its whole
# subcomplex, the innermost carrying shrinking loops.  With d triangle levels
# the wild tower has d + 2 levels and its deepest level is a dendrite.

def chain_text(rng, depth):
    names = rng.sample(range(100, 1000), 3)
    a, b, c = (f"q{n}" for n in names)
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


def chain_invariants(depth):
    """(wrk, cat, tc) of the chain: rank d + 2 with a dendrite deepest level,
    so cat = wrk - 1 and tc = 2 wrk - 2."""
    wrk = depth + 2
    return wrk, wrk - 1, 2 * wrk - 2


def chain_truncation_size(depth, copies):
    """(vertices, edges) of the chain truncated with ``copies`` copies per
    family.  Copies go round the cells of a subcomplex, vertices first; an
    edge holding m copies is cut into m + 1 segments, and a copy glued at a
    vertex anchor adds its own vertices but one, and all its edges."""
    v, e = 1, 1                                  # the loop
    on_edges = sum(1 for c in range(copies) if c % 6 >= 3)
    for _ in range(depth):                       # triangle: 3 vertex + 3 edge cells
        v, e = 3 + on_edges + copies * (v - 1), 3 + on_edges + copies * e
    return 1 + copies * (v - 1), copies * e      # the point: one vertex cell
