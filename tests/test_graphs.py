import random
import time
from fractions import Fraction

import pytest

import wildcat
from wildcat import graphs
from wildcat.graphs import (GraphError, Edge, Vertex, EdgeInterior, build_graph,
                            subgraph, betti1, spanning_forest, deforest,
                            TreeRouter, constant_path, point_dist,
                            cat_graph, tc_graph, PLPath, PathStep, Collapse,
                            CollapseHomotopy)

import graph_reference
from gen import (point_graph, path_graph, cycle_graph, loop_graph, theta_graph,
                 figure_eight, circle_with_hair, k4, random_connected_graph,
                 random_cycle_with_hairs, random_point, random_tree,
                 cycle_space_rank, bfs_vertex_distance)
from test_lift import _mutant


# --- build_graph ------------------------------------------------------------

def test_build_single_point():
    g = point_graph()
    assert len(g.vertices) == 1 and not g.edges
    assert g.n_components == 1


def test_build_theta_parallel_edges():
    g = theta_graph()
    assert len(g.edges) == 3
    assert betti1(g) == 2


def test_build_dangling_endpoint():
    with pytest.raises(GraphError, match="dangling endpoint 'c'"):
        build_graph(["a", "b"], [("e", "a", "c")])


def test_build_duplicate_ids():
    with pytest.raises(GraphError, match="duplicate identifier 'a'"):
        build_graph(["a", "a"], [])
    with pytest.raises(GraphError, match="duplicate identifier 'e'"):
        build_graph(["a", "b"], [("e", "a", "b"), ("e", "b", "a")])


def test_build_bad_identifier():
    with pytest.raises(GraphError, match="invalid"):
        build_graph(["a b"], [])


# --- constructor errors against the item-by-item reference -------------------

# "a\0" and "\1b" hold the slot characters of a truncation's text (``wild._compile``)
_BAD_NAMES = ["a b", "", "a\n", "\u00e9", 7, ["v"], "a\0", "\1b"]


def _faulty_input(rng):
    """A small graph's records with up to three faults at random positions:
    repeats, dangling endpoints and bad names, in vertices and in edges."""
    vs = [f"v{i}" for i in range(rng.randint(1, 6))]
    es = [[f"e{i}", rng.choice(vs), rng.choice(vs)] for i in range(rng.randint(0, 6))]
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        kind = rng.randrange(5)
        if kind == 0:
            vs.insert(rng.randint(0, len(vs)), rng.choice(vs))
        elif kind == 1 and es:
            es.insert(rng.randint(0, len(es)),
                      [rng.choice(es)[0], rng.choice(vs), rng.choice(vs)])
        elif kind == 2 and es:
            rng.choice(es)[rng.randint(1, 2)] = f"x{rng.randrange(3)}"
        elif kind == 3:
            vs.insert(rng.randint(0, len(vs)), rng.choice(_BAD_NAMES))
        elif kind == 4 and es:
            rng.choice(es)[rng.randrange(3)] = rng.choice(_BAD_NAMES)
    return vs, [tuple(e) for e in es]


def _build_outcome(fn, vs, es):
    try:
        fn(vs, es)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _constructor_mismatches(seed=77, n=3000):
    """Inputs on which ``MultiGraph`` and the reference loop raise a
    different error (or only one of them raises), and the outcomes seen."""
    rng = random.Random(seed)
    bad, seen = [], []
    for _ in range(n):
        vs, es = _faulty_input(rng)
        want = _build_outcome(graph_reference.check_names, vs, es)
        if _build_outcome(graphs.MultiGraph, vs, es) != want:
            bad.append((vs, es))
        seen.append(want)
    return bad, seen


def test_constructor_errors_match_the_reference_loop():
    bad, seen = _constructor_mismatches()
    assert not bad, bad[:3]
    messages = [o[1] for o in seen if o is not None and o[0] is GraphError]
    # the corpus reaches every error, and valid graphs too
    assert seen.count(None) >= 300
    for start in ("duplicate identifier", "dangling endpoint",
                  "invalid vertex identifier", "invalid edge identifier"):
        assert sum(m.startswith(start) for m in messages) >= 50, start
    for name in _BAD_NAMES:
        assert any(repr(name) in m for m in messages), name
    assert any(o is not None and o[0] is TypeError for o in seen)


def test_constructor_parity_catches_a_space_joined_identifier_check(monkeypatch):
    # joining names with a space lets the one name "a b" pass as two
    _mutant(monkeypatch, graphs, "_check_names", (
        '_IDENT.match("".join(',
        're.compile(r"[A-Za-z0-9_]+(?: [A-Za-z0-9_]+)*\\Z").match(" ".join('))
    bad, _ = _constructor_mismatches()
    assert bad and any("a b" in vs or any("a b" in e for e in es) for vs, es in bad)


def test_constructor_parity_catches_hashing_before_the_type_check(monkeypatch):
    # the tables built before the type check raise TypeError for a list
    # vertex, where the reference raises GraphError
    _mutant(monkeypatch, graphs, "_check_names", (
        "    if not {str}.issuperset(",
        "    _name_tables(vs, ())\n    if not {str}.issuperset("))
    bad, _ = _constructor_mismatches()
    assert bad and all(["v"] in vs for vs, _ in bad)


def test_edge_contract():
    e = Edge("e", "a", "b")
    assert repr(e) == "Edge(id='e', v0='a', v1='b')"
    with pytest.raises(AttributeError):
        e.v0 = "c"
    with pytest.raises(AttributeError):
        e.weight = 1
    assert (e.other("a"), e.other("b")) == ("b", "a")
    with pytest.raises(GraphError, match="'c' is not an endpoint of edge 'e'"):
        e.other("c")
    assert Edge("l", "a", "a").is_loop and not e.is_loop
    assert "Edge" in graphs.__all__ and wildcat.Edge is Edge
    # a named tuple: equal to the plain triple, and it unpacks
    assert e == ("e", "a", "b") and tuple(e) == ("e", "a", "b")
    assert build_graph(["a", "b"], [("e", "a", "b")]).edges == (e,)


def test_point_canonical_form():
    g = path_graph(2)
    assert g.point("e0", 0) == Vertex("v0")
    assert g.point("e0", 1) == Vertex("v1")
    assert g.point("e0", Fraction(1, 2)) == EdgeInterior("e0", Fraction(1, 2))
    with pytest.raises(GraphError):
        EdgeInterior("e0", Fraction(3, 2))


@pytest.mark.parametrize("t", [0, 1, Fraction(-1, 3), Fraction(4, 3),
                               1 + Fraction(1, 10 ** 30)])
def test_edge_interior_rejects_parameters_outside_the_open_interval(t):
    with pytest.raises(GraphError, match="strictly in"):
        EdgeInterior("e0", t)


def test_edge_interior_accepts_a_parameter_just_above_zero():
    assert EdgeInterior("e0", Fraction(1, 10 ** 30)).t == Fraction(1, 10 ** 30)


@pytest.mark.parametrize("a,b", [(Fraction(-1, 7), 0), (0, Fraction(-1, 7)),
                                 (Fraction(8, 7), 1), (1, Fraction(8, 7))])
def test_path_step_rejects_parameters_outside_the_closed_interval(a, b):
    with pytest.raises(GraphError, match="must lie in"):
        PathStep("e0", a, b)


def test_path_step_accepts_the_closed_ends():
    for a, b in ((0, 1), (1, 0), (0, 0), (1, 1)):
        step = PathStep("e0", a, b)
        assert (step.a, step.b) == (a, b)


# --- betti1 -----------------------------------------------------------------

def test_betti1_triangle():
    assert betti1(cycle_graph(3)) == 1
    assert cycle_space_rank(cycle_graph(3)) == 1


def test_betti1_forest():
    assert betti1(path_graph(5)) == 0
    assert betti1(point_graph()) == 0


def test_betti1_k4():
    g = k4()
    assert betti1(g) == 3
    assert cycle_space_rank(g) == 3


def test_betti1_loop_counts_as_cycle():
    assert betti1(loop_graph()) == 1


def test_betti1_matches_cycle_space_rank_random():
    rng = random.Random(7)
    for _ in range(100):
        g = random_connected_graph(rng)
        assert betti1(g) == cycle_space_rank(g)


# --- spanning_forest ---------------------------------------------------------

def test_spanning_forest_tree_keeps_everything():
    g = path_graph(4)
    assert set(spanning_forest(g)) == {"e0", "e1", "e2"}


def test_spanning_forest_triangle_smallest_ids():
    g = cycle_graph(3)
    assert spanning_forest(g) == ("e0", "e1")


def test_spanning_forest_skips_loops():
    g = loop_graph()
    assert spanning_forest(g) == ()


def test_spanning_forest_acyclic_random():
    rng = random.Random(3)
    for _ in range(50):
        g = random_connected_graph(rng)
        forest = spanning_forest(g)
        assert betti1(subgraph(g, forest)) == 0
        assert len(forest) == len(g.vertices) - g.n_components


# --- deforest ----------------------------------------------------------------

def test_deforest_path_to_point():
    g = path_graph(3)
    core, h = deforest(g)
    assert len(core.vertices) == 1 and not core.edges
    assert len(h.collapses) == 2


def test_deforest_hair():
    g = circle_with_hair()
    core, h = deforest(g)
    assert set(core.edge_by_id) == {"c0", "c1", "c2"}
    assert len(h.collapses) == 1
    assert betti1(core) == betti1(g) == 1


def test_deforest_figure_eight_identity():
    g = figure_eight()
    core, h = deforest(g)
    assert core == g
    assert h.collapses == ()


def test_deforest_disconnected_rejected():
    g = build_graph(["a", "b"], [])
    with pytest.raises(GraphError, match="connected"):
        deforest(g)


def test_deforest_retraction_properties_random():
    rng = random.Random(11)
    checked = 0
    while checked < 1000:
        g = random_connected_graph(rng)
        core, h = deforest(g)
        assert betti1(core) == betti1(g)
        assert core.n_components == g.n_components
        for _ in range(25):
            x = random_point(rng, g)
            r = h.retract(x)
            assert core.contains_point(r)
            slide = h.slide(x)
            assert slide.endpoint0 == x
            assert slide.endpoint1 == r
            if core.contains_point(x) and (
                    isinstance(x, Vertex) or x.edge in core.edge_by_id):
                assert r == x
            checked += 1


def test_homotopy_rejects_a_vertex_freed_twice():
    # b is freed by both collapses, so the pointer walk and the ordered scan
    # would slide it to different core vertices
    g = build_graph(["a", "b", "c"], [("e0", "a", "b"), ("e1", "b", "c"),
                                      ("l", "a", "a")])
    core = subgraph(g, ["l"], ["a", "c"])
    with pytest.raises(GraphError, match="frees 'b'"):
        CollapseHomotopy(g, core, [Collapse("e0", "a"), Collapse("e1", "c")])


def test_homotopy_rejects_a_core_vertex_as_free_endpoint():
    # without the check retract(v1) would be v0, although v1 is in the core
    g = path_graph(3)
    core = subgraph(g, ["e1"], ["v0", "v1", "v2"])
    with pytest.raises(GraphError, match="frees 'v1'"):
        CollapseHomotopy(g, core, [Collapse("e0", "v0")])


def test_deforest_and_slides_scale_linearly():
    # a 10-cycle with 20000 hairs grown off it, as the benchmark's lifted
    # graphs: sorting every leaf per collapse, or scanning every collapse per
    # slide, takes over a minute on this input
    rng = random.Random(77)
    g = random_cycle_with_hairs(rng, 10, 20000)
    starts = [rng.choice(g.vertices) for _ in range(2000)]
    t0 = time.perf_counter()
    core, h = deforest(g)
    for v in starts:
        h.slide(Vertex(v))
    elapsed = time.perf_counter() - t0
    assert len(core.edges) == 10 and len(h.collapses) == 20000
    assert elapsed < 3.0, f"deforest + 2000 slides took {elapsed:.2f} s"


# --- tree routes -------------------------------------------------------------

def test_tree_path_constant():
    g = path_graph(3)
    p = Vertex("v1")
    path = TreeRouter(g, g.edge_by_id).route(p, p)
    assert path.length == 0
    assert path.at(0) == p and path.at(1) == p


def test_tree_path_through_middle():
    g = path_graph(3)
    path = TreeRouter(g, g.edge_by_id).route(Vertex("v0"), Vertex("v2"))
    assert path.length == 2
    assert [s.edge for s in path.steps] == ["e0", "e1"]
    assert path.at(Fraction(1, 2)) == Vertex("v1")


def test_tree_path_from_midpoint():
    g = path_graph(3)
    p = EdgeInterior("e0", Fraction(1, 2))
    path = TreeRouter(g, g.edge_by_id).route(p, Vertex("v2"))
    assert path.length == Fraction(3, 2)
    assert path.at(0) == p
    assert path.at(1) == Vertex("v2")


def test_tree_path_same_edge_midpoints():
    g = path_graph(2)
    p = EdgeInterior("e0", Fraction(1, 4))
    q = EdgeInterior("e0", Fraction(3, 4))
    path = TreeRouter(g, g.edge_by_id).route(p, q)
    assert path.length == Fraction(1, 2)
    assert len(path.steps) == 1


def test_tree_path_reversal_and_reduced_random():
    rng = random.Random(23)
    for _ in range(60):
        g = random_connected_graph(rng)
        forest = subgraph(g, spanning_forest(g))
        router = TreeRouter(forest, forest.edge_by_id)
        p = random_point(rng, forest)
        q = random_point(rng, forest)
        path = router.route(p, q)
        back = router.route(q, p)
        assert back.steps == path.reverse().steps
        for s1, s2 in zip(path.steps, path.steps[1:]):
            assert s1.edge != s2.edge  # reduced: no immediate backtrack
        d = bfs_vertex_distance(forest, _anchor(forest, p), _anchor(forest, q))
        assert path.length <= d + 2  # partial first/last steps only


def _anchor(g, p):
    return p.v if isinstance(p, Vertex) else g.edge_by_id[p.edge].v0


def test_tree_path_different_components():
    g = build_graph(["a", "b"], [])
    with pytest.raises(GraphError, match="different components"):
        TreeRouter(g, g.edge_by_id).route(Vertex("a"), Vertex("b"))


# --- PLPath ------------------------------------------------------------------

def test_plpath_validation():
    g = path_graph(3)
    with pytest.raises(GraphError, match="discontinuous"):
        PLPath(g, [PathStep("e0", 0, 1), PathStep("e1", 1, 0)])
    with pytest.raises(GraphError, match="degenerate"):
        PLPath(g, [PathStep("e0", 0, 1), PathStep("e1", Fraction(1, 2), Fraction(1, 2))])


# one case per branch of PLPath.check: (steps, source, message)
_MALFORMED = [
    ([PathStep("e0", 0, 1), PathStep("e1", 1, 0)], None, "discontinuous"),
    ([PathStep("e0", 0, 1), PathStep("e1", Fraction(1, 2), Fraction(1, 2))], None,
     "degenerate"),
    ([PathStep("e0", 0, 1), PathStep("zz", 0, 1)], None, "unknown edge 'zz'"),
    ([PathStep("e0", 0, 1)], Vertex("v1"), "declared source does not match"),
    ([], None, "no steps needs a source"),
    ([], Vertex("nowhere"), "source point not on the graph"),
    ([], EdgeInterior("zz", Fraction(1, 2)), "source point not on the graph"),
]


@pytest.mark.parametrize("steps,source,message", _MALFORMED)
def test_plpath_constructor_rejects(steps, source, message):
    with pytest.raises(GraphError, match=message):
        PLPath(path_graph(3), steps, source=source)


@pytest.mark.parametrize("steps,source,message", _MALFORMED)
def test_plpath_trusted_check_rejects(steps, source, message):
    # the unchecked constructor takes anything; check() is the same validator
    path = PLPath._trusted(path_graph(3), steps, source)
    with pytest.raises(GraphError, match=message):
        path.check()


def test_plpath_check_accepts_shared_and_coerced_steps():
    g = path_graph(3)
    whole = PLPath(g, [("e0", 0, 1), ("e1", 0, Fraction(1, 2))])
    assert whole.check() is whole
    assert whole.source == Vertex("v0") and whole.length == Fraction(3, 2)
    router = TreeRouter(g, g.edge_by_id)
    path = router.route(EdgeInterior("e1", Fraction(1, 2)), Vertex("v0"))
    assert path.check() is path
    assert [(s.edge, s.a, s.b) for s in path.steps] == [("e1", Fraction(1, 2), 0),
                                                        ("e0", 1, 0)]


def test_plpath_constant_midedge_single_degenerate_step():
    g = path_graph(2)
    p = EdgeInterior("e0", Fraction(1, 3))
    path = constant_path(g, p)
    assert len(path.steps) == 1
    assert path.length == 0
    assert path.at(Fraction(1, 2)) == p


def test_plpath_exact_arclength_eval():
    g = path_graph(3)
    path = TreeRouter(g, g.edge_by_id).route(EdgeInterior("e0", Fraction(1, 2)), Vertex("v2"))
    # length 3/2: time 1/3 is arclength 1/2, exactly at vertex v1
    assert path.at(Fraction(1, 3)) == Vertex("v1")
    assert path.at(Fraction(2, 3)) == EdgeInterior("e1", Fraction(1, 2))


def test_plpath_at_matches_linear_scan_reference():
    rng = random.Random(11)
    breakpoints = 0
    for _ in range(30):
        tree = random_tree(rng, rng.randint(1, 25))
        router = TreeRouter(tree, tree.edge_by_id)
        for _ in range(10):
            path = router.route(random_point(rng, tree), random_point(rng, tree))
            times = {Fraction(k, 31) for k in range(32)}
            times.update(Fraction(rng.randrange(1, 1000), 1000) for _ in range(8))
            if path.length:
                # each step boundary, where the scan picks the earlier step
                cum = path._arclengths()
                times.update(c / path.length for c in cum)
                breakpoints += len(cum)
            for t in sorted(times):
                assert path.at(t) == graph_reference.path_at(path, t), (path.steps, t)
    assert breakpoints > 500


# --- distances ----------------------------------------------------------------

def test_point_dist_same_edge_and_loop():
    g = loop_graph()
    x = EdgeInterior("l", Fraction(1, 8))
    y = EdgeInterior("l", Fraction(7, 8))
    assert point_dist(g, x, y) == Fraction(1, 4)  # around the loop vertex
    g2 = path_graph(2)
    assert point_dist(g2, EdgeInterior("e0", Fraction(1, 4)),
                      EdgeInterior("e0", Fraction(3, 4))) == Fraction(1, 2)


def test_point_dist_across_vertices():
    g = path_graph(3)
    assert point_dist(g, Vertex("v0"), Vertex("v2")) == 2
    assert point_dist(g, EdgeInterior("e0", Fraction(1, 2)), Vertex("v2")) == Fraction(3, 2)


def test_point_dist_rejects_points_off_the_graph():
    g = path_graph(3)
    on = EdgeInterior("e0", Fraction(1, 2))
    for x, y in ((Vertex("nope"), on),                           # vertex as x
                 (EdgeInterior("nope", Fraction(1, 2)), on),      # edge as x
                 (on, Vertex("nope")),                            # vertex as y
                 (on, EdgeInterior("nope", Fraction(1, 2))),      # edge as y
                 (Vertex("nope"), Vertex("nope"))):               # equal points
        with pytest.raises(GraphError, match="point not on the graph"):
            point_dist(g, x, y)
    two = build_graph(["a", "b"], [])
    with pytest.raises(GraphError, match="different components"):
        point_dist(two, Vertex("a"), Vertex("b"))


def _two_component_graph(rng):
    """Two random components, with loops and parallel edges, in one graph;
    the second may be a single vertex."""
    vs, es = [], []
    for tag in "pq":
        g = random_connected_graph(rng, max_vertices=7)
        vs += [tag + v for v in g.vertices]
        es += [(tag + e.id, tag + e.v0, tag + e.v1) for e in g.edges]
    return build_graph(vs, es)


def _distance_graphs(rng):
    for _ in range(40):
        yield random_connected_graph(rng)
    for _ in range(20):
        yield random_cycle_with_hairs(rng, rng.randint(1, 6), rng.randint(0, 8))
    for _ in range(40):
        yield _two_component_graph(rng)


def _nx_point_dist(g, x, y):
    """Distance by networkx Dijkstra on g with x and y inserted as nodes
    that split their edges."""
    nx = pytest.importorskip("networkx")
    h = nx.MultiGraph()
    h.add_nodes_from(g.vertices)
    split = {}
    for name, p in (("x", x), ("y", y)):
        if isinstance(p, EdgeInterior):
            split.setdefault(p.edge, []).append((p.t, ("pt", name)))
    for e in g.edges:
        cuts = sorted(split.get(e.id, []))
        prev, at = e.v0, Fraction(0)
        for t, node in cuts:
            h.add_edge(prev, node, weight=t - at)
            prev, at = node, t
        h.add_edge(prev, e.v1, weight=1 - at)
    ends = [p.v if isinstance(p, Vertex) else ("pt", name)
            for name, p in (("x", x), ("y", y))]
    try:
        return nx.shortest_path_length(h, ends[0], ends[1], weight="weight")
    except nx.NetworkXNoPath:
        return None


@pytest.mark.parametrize("seed", [0, 1])
def test_point_dist_matches_table_reference_and_networkx(seed):
    rng = random.Random(seed)
    apart = shared_edge = on_loop = 0
    for g in _distance_graphs(rng):
        for _ in range(12):
            x = random_point(rng, g)
            y = random_point(rng, g) if rng.random() < 0.8 else \
                EdgeInterior(x.edge, Fraction(rng.randrange(1, 64), 64)) \
                if isinstance(x, EdgeInterior) else x
            want = _nx_point_dist(g, x, y)
            if want is None:
                apart += 1
                for dist in (point_dist, graph_reference.point_dist):
                    with pytest.raises(GraphError, match="different components"):
                        dist(g, x, y)
                continue
            got = point_dist(g, x, y)
            assert got == graph_reference.point_dist(g, x, y) == want, (g.edges, x, y)
            assert isinstance(got, Fraction)
            shared_edge += isinstance(x, EdgeInterior) and isinstance(y, EdgeInterior) \
                and x.edge == y.edge
            on_loop += any(isinstance(p, EdgeInterior) and g.edge_by_id[p.edge].is_loop
                           for p in (x, y))
    assert apart > 50 and shared_edge > 20 and on_loop > 20


# --- cat / tc -----------------------------------------------------------------

def test_cat_graph_values():
    assert cat_graph(point_graph()) == 0
    assert cat_graph(path_graph(4)) == 0
    assert cat_graph(theta_graph()) == 1


def test_tc_graph_values():
    assert tc_graph(path_graph(4)) == 0
    assert tc_graph(cycle_graph(4)) == 1
    assert tc_graph(figure_eight()) == 2


def test_cat_le_tc_le_twice_cat_random():
    rng = random.Random(5)
    for _ in range(100):
        g = random_connected_graph(rng)
        c, t = cat_graph(g), tc_graph(g)
        assert c <= t <= 2 * c or (c == 0 and t == 0)


def test_disconnected_rejected():
    g = build_graph(["a", "b"], [])
    with pytest.raises(GraphError):
        cat_graph(g)
    with pytest.raises(GraphError):
        tc_graph(g)
