"""Differential tests of the path builders against the validated reference
in ``path_reference``.

``CycleCoords.walk``, ``TreeRouter.route_steps`` and the rules share
whole-edge steps and build their answers unchecked.  They must give the
same steps, lengths and positions as the reference, which builds every step
afresh and validates every intermediate path.
"""

import gc
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import path_reference as ref
from gen import (random_connected_graph, random_cycle_with_hairs, random_point,
                 random_tree)
from test_lift import _mutant
from wildcat.graphs import (EdgeInterior, GraphError, PathStep, PLPath, TreeRouter,
                            Vertex, build_graph, point_dist, subgraph,
                            spanning_forest, _ONE, _ZERO)
from wildcat.planner import (CycleCoords, EdgeEvacuateRule, LiftedRule, TreeRule, execute,
                             plan_circle, plan_graph)

TIMES = [Fraction(k, 5) for k in range(6)] + [Fraction(1, 3)]


def _assert_same_path(got, want):
    assert got.steps == want.steps
    assert got.source == want.source
    assert got.length == want.length
    for t in TIMES:
        assert got.at(t) == want.at(t)


def _random_cycle(rng, n):
    """A cycle of n edges with shuffled vertex names and random edge
    orientations, so the cycle walk crosses edges both ways."""
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)
    es = []
    for i in range(n):
        a, b = names[i], names[(i + 1) % n]
        es.append((f"e{i}", *((a, b) if rng.random() < 0.5 else (b, a))))
    return build_graph(names, es)


def _cycle_points(rng, cyc):
    """Every vertex and, on every edge, the points at 1/3 and 2/3 and a
    random one, so pairs on one edge lie both ways round; then the antipode
    of each, read in Fraction arithmetic."""
    pts = []
    for k, (e, _) in enumerate(cyc.steps):
        pts += [ref.point_at(cyc, k), EdgeInterior(e.id, Fraction(1, 3)),
                EdgeInterior(e.id, Fraction(2, 3)),
                EdgeInterior(e.id, Fraction(rng.randrange(1, 4096), 4096))]
    antipodes = [ref.point_at(cyc, ref.coord(cyc, p) + cyc.length / 2) for p in pts]
    return pts + [a for a in antipodes if a not in pts]


def _reference_walk(cyc, x, y, forward):
    """``path_reference.march`` from x the signed distance that reaches y
    in the given direction, within one round."""
    d = (ref.coord(cyc, y) - ref.coord(cyc, x)) % cyc.length
    return ref.march(cyc, ref.coord(cyc, x), d if forward else d - cyc.length)


def _walk_kinds(cyc, x, y, forward, steps):
    """What a walk covers: its end kinds, whether it stays on one edge or
    goes round from it, whether it crosses the seam of the slot order and
    whether it ends at the antipode."""
    n = len(cyc.steps)
    kinds = {(type(x).__name__, type(y).__name__)}
    if isinstance(x, EdgeInterior) and isinstance(y, EdgeInterior) and x.edge == y.edge:
        kinds.add("ahead" if len(steps) == 1 else "behind")
    slots = [cyc._edge_slot[s.edge][0] for s in steps]
    if slots != sorted(slots, reverse=not forward):
        kinds.add("wraps")
    if 2 * ((ref.coord(cyc, y) - ref.coord(cyc, x)) % n) == n:
        kinds.add("antipode")
    return kinds


def test_walk_matches_reference_random_cycles():
    rng = random.Random(7101)
    kinds = set()
    checked = 0
    for n in [1, 2, 3] + list(range(4, 25)):
        g = _random_cycle(rng, n)
        cyc = CycleCoords(g)
        pts = _cycle_points(rng, cyc)
        if n > 6:
            # every pair on the shortest cycles, a sample of them on longer
            pts = rng.sample(pts, 24)
        for x in pts:
            for y in pts:
                if x == y:
                    continue
                for forward in (True, False):
                    got = cyc.walk(x, y, forward)
                    want = _reference_walk(cyc, x, y, forward)
                    assert got == want, (n, x, y, forward)
                    if checked % 7 == 0:
                        _assert_same_path(PLPath(g, got, source=x),
                                          ref.validated(g, want, x))
                    kinds |= _walk_kinds(cyc, x, y, forward, got)
                    checked += 1
    assert checked > 25000
    assert kinds == {("Vertex", "Vertex"), ("Vertex", "EdgeInterior"),
                     ("EdgeInterior", "Vertex"), ("EdgeInterior", "EdgeInterior"),
                     "ahead", "behind", "wraps", "antipode"}


def test_rotate_walks_to_the_reference_antipode():
    rng = random.Random(7107)
    for n in [1, 2, 3] + [rng.randint(4, 24) for _ in range(8)]:
        g = _random_cycle(rng, n)
        rule = plan_circle(g).rules[0]
        for x in _cycle_points(rng, rule.cycle):
            _assert_same_path(rule.path_for(x, None).check(),
                              ref.circle_path(g, rule.cycle, 0, x, None))


def test_walk_reuses_whole_edge_steps():
    cyc = CycleCoords(_random_cycle(random.Random(7102), 12))
    e0, e5 = cyc.steps[0][0].id, cyc.steps[5][0].id
    walks = {}
    for forward in (True, False):
        first = cyc.walk(EdgeInterior(e0, Fraction(1, 3)),
                         EdgeInterior(e5, Fraction(1, 3)), forward)
        again = cyc.walk(EdgeInterior(e0, Fraction(2, 3)),
                         EdgeInterior(e5, Fraction(2, 3)), forward)
        # both cross the same whole edges the same way, with the same steps
        assert len(first) == len(again) == (6 if forward else 8)
        assert all(a is b for a, b in zip(first[1:-1], again[1:-1]))
        assert first[0] != again[0] and first[-1] != again[-1]
        walks[forward] = first
    # a walk between vertices crosses slots 0-5 with the same shared steps,
    # and the reverse walk crosses slots 11-6 with the backward walk's
    out = cyc.walk(ref.point_at(cyc, 0), ref.point_at(cyc, 6), True)
    assert len(out) == 6 and all(a is b for a, b in zip(out[1:5], walks[True][1:5]))
    back = cyc.walk(ref.point_at(cyc, 0), ref.point_at(cyc, 6), False)
    assert len(back) == 6 and all(a is b for a, b in zip(back, walks[False][1:7]))


def test_walk_builds_no_fraction(monkeypatch):
    rng = random.Random(7108)
    cycles = [CycleCoords(_random_cycle(rng, n)) for n in (1, 2, 3, 9)]
    pairs = [(cyc, x, y) for cyc in cycles for x in _cycle_points(rng, cyc)
             for y in _cycle_points(rng, cyc) if x != y]
    made = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    steps = sum(len(cyc.walk(x, y, fwd)) for cyc, x, y in pairs for fwd in (True, False))
    monkeypatch.undo()
    assert steps > 5000 and made == []


def test_lifted_answer_builds_two_paths(monkeypatch):
    rng = random.Random(7109)
    g = random_cycle_with_hairs(rng, 9, 30)
    plan = plan_graph(g)
    queries = [(random_point(rng, g), random_point(rng, g)) for _ in range(200)]
    queries += [(x, x) for x, _ in queries[:20]]
    built = []
    init, trusted = PLPath.__init__, PLPath._trusted.__func__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_trusted(cls, *args):
        built.append(cls)
        return trusted(cls, *args)

    # a path is made by the checking constructor or by _trusted
    monkeypatch.setattr(PLPath, "__init__", counting_init)
    monkeypatch.setattr(PLPath, "_trusted", classmethod(counting_trusted))
    for x, y in queries:
        path = plan.rules[plan.stratum_index(x, y)].path_for(x, y)
        # the core rule's path and the answer
        assert 1 <= len(built) <= 2, (x, y)
        assert path.check().source == x and path.endpoint1 == y
        built.clear()


def _tree_points(rng, g, n):
    """Vertices and edge-interior points, with several points on one edge
    and on adjacent edges, where the reduced path cancels a backtrack."""
    pts = [random_point(rng, g) for _ in range(n)]
    for e in g.edges[:4]:
        pts += [EdgeInterior(e.id, Fraction(1, 3)), EdgeInterior(e.id, Fraction(2, 3)),
                Vertex(e.v0), Vertex(e.v1)]
    return pts


def test_route_steps_matches_reference_random_trees():
    rng = random.Random(7103)
    merged = 0
    for _ in range(50):
        g = random_tree(rng, rng.randint(1, 25))
        router = TreeRouter(g, g.edge_by_id)
        oracle = ref.Router(g)
        pts = _tree_points(rng, g, 8)
        for p in pts:
            for q in pts:
                got = router.route_steps(p, q)
                want = oracle.route_steps(p, q)
                assert got == want, (p, q)
                _assert_same_path(router.route(p, q), oracle.route(p, q))
                # a partial step at an end that runs to the far vertex
                # comes from cancelling a backtrack
                merged += any(s.a == 1 and 0 < s.b < 1 or 0 < s.a < 1 and s.b == 1
                              for s in (got[:1] + got[-1:]))
    assert merged > 500


def test_route_steps_matches_reference_forests():
    rng = random.Random(7104)
    for _ in range(40):
        g = random_connected_graph(rng)
        forest = subgraph(g, spanning_forest(g))
        router, oracle = TreeRouter(forest, forest.edge_by_id), ref.Router(forest)
        pts = _tree_points(rng, forest, 6)
        for p in pts:
            for q in pts:
                assert router.route_steps(p, q) == oracle.route_steps(p, q)
    split = build_graph(["a", "b"], [])
    for r in (TreeRouter(split, split.edge_by_id), ref.Router(split)):
        with pytest.raises(GraphError, match="different components"):
            r.route_steps(Vertex("a"), Vertex("b"))


def _graph_and_sub_forest(rng):
    """A random multigraph with loops, parallel edges and often several
    components, and a random sub-forest of it: its edges in random order,
    each kept with probability 2/3 when it joins two trees, so the forest
    often has isolated vertices.  Declaration order is shuffled, so the
    router's roots and edge order come from the names."""
    vs = [f"v{i}" for i in range(rng.randint(1, 12))]
    rng.shuffle(vs)
    es = [(f"e{i}", rng.choice(vs), rng.choice(vs))
          for i in range(rng.randint(0, 2 * len(vs)))]
    tree_of = {v: v for v in vs}

    def tree(v):
        while tree_of[v] != v:
            v = tree_of[v]
        return v

    tree_edges = []
    for eid, a, b in rng.sample(es, len(es)):
        a, b = tree(a), tree(b)
        if a != b and rng.random() < 2 / 3:
            tree_of[a] = b
            tree_edges.append(eid)
    return build_graph(vs, es), tree_edges


def _outcome(fn, *args):
    """``fn(*args)``, or the text of the ``GraphError`` it raises."""
    try:
        return fn(*args)
    except GraphError as exc:
        return str(exc)


_CYCLIC = build_graph(["a", "b", "c", "d"],
                      [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "a"),
                       ("e3", "c", "d"), ("e4", "d", "d"), ("e5", "d", "c")])
# tree-edge sets of _CYCLIC that no router may accept: (edges, error)
_NOT_FORESTS = [
    (["e0", "e3", "e4"], "router requires a forest (betti1 = 0)"),  # a loop
    (["e0", "e1", "e3", "e5"], "router requires a forest (betti1 = 0)"),  # a parallel pair
    (["e0", "e1", "e2"], "router requires a forest (betti1 = 0)"),  # a 3-cycle
    (["e0", "zz"], "unknown edge 'zz'"),
    (["e0", "e1", "e3", "zz"], "unknown edge 'zz'"),
]


def _check_router_on_sub_forests(seed, n_graphs):
    """``TreeRouter(g, tree_edges)`` against ``ref.Router`` on a ``subgraph``
    copy of the forest: the same steps, paths and errors on random graphs
    and sub-forests, at every vertex, at points on and off the forest, and
    at points g lacks; then the same rejections of ``_NOT_FORESTS``.
    Counts the pairs that ended in each error, and the forests with an
    isolated vertex."""
    rng = random.Random(seed)
    seen = Counter()
    for _ in range(n_graphs):
        g, tree_edges = _graph_and_sub_forest(rng)
        ends = {v for eid in tree_edges for v in g.edge_by_id[eid][1:]}
        seen["isolated vertex"] += len(g.vertices) > 1 and len(ends) < len(g.vertices)
        router = TreeRouter(g, tree_edges)
        oracle = ref.Router(subgraph(g, tree_edges))
        pts = [Vertex(v) for v in g.vertices] + [Vertex("nowhere"),
                                                 EdgeInterior("zz", Fraction(1, 2))]
        for e in rng.sample(g.edges, min(len(g.edges), 6)):
            pts += [EdgeInterior(e.id, Fraction(1, 3)), random_point(rng, g)]
        for p in pts:
            for q in pts:
                got = _outcome(router.route_steps, p, q)
                assert got == _outcome(oracle.route_steps, p, q), (p, q)
                if isinstance(got, str):
                    seen[got.split(":")[0]] += 1
                    continue
                path = router.route(p, q)
                assert path.graph is g
                _assert_same_path(path, oracle.route(p, q))
    for edges, error in _NOT_FORESTS:
        assert _outcome(TreeRouter, _CYCLIC, edges) == error, edges
        assert _outcome(lambda: ref.Router(subgraph(_CYCLIC, edges))) == error, edges
    return seen


def test_router_on_a_graph_matches_reference_on_sub_forests():
    seen = _check_router_on_sub_forests(7107, 60)
    assert seen.keys() == {"points lie in different components",
                           "point not on the forest", "isolated vertex"}
    assert seen["isolated vertex"] > 10
    assert seen["points lie in different components"] > 100
    assert seen["point not on the forest"] > 100


def test_router_differential_catches_a_skipped_forest_count(monkeypatch):
    _mutant(monkeypatch, TreeRouter, "__init__",
            ("if len(tree_edges) != len(parent) - roots:", "if False:"))
    with pytest.raises(AssertionError):
        _check_router_on_sub_forests(7107, 1)


@pytest.mark.parametrize("cycle_len,n_hairs,n_graphs,n_queries",
                         [(None, None, 120, 25), (40, 360, 1, 400), (160, 1440, 1, 200)])
def test_lifted_answers_match_validated_reference(cycle_len, n_hairs, n_graphs, n_queries):
    rng = random.Random(7105 + (n_hairs or 0))
    for _ in range(n_graphs):
        g = random_cycle_with_hairs(rng, cycle_len or rng.randint(1, 8),
                                    n_hairs if n_hairs is not None else rng.randint(1, 25))
        plan = plan_graph(g)
        assert all(isinstance(r, LiftedRule) for r in plan.rules)
        h, cyc = plan.rules[0].homotopy, plan.rules[0].inner.cycle
        for _ in range(n_queries):
            x, y = random_point(rng, g), random_point(rng, g)
            j, path = execute(plan, x, y)
            _assert_same_path(path, ref.lifted_path(h, cyc, j, x, y))


def test_evacuation_answers_match_validated_reference():
    rng = random.Random(7106)
    checked = 0
    while checked < 80:
        g = random_connected_graph(rng)
        if len(g.edges) - len(g.vertices) + 1 < 2:
            continue
        plan = plan_graph(g)
        evac = plan.rules[1]
        assert isinstance(evac, EdgeEvacuateRule)
        oracle = ref.Router(subgraph(g, evac.router.tree_edges))
        for _ in range(30):
            x, y = random_point(rng, g), random_point(rng, g)
            j, path = execute(plan, x, y)
            if j == 0:
                steps = oracle.route_steps(x, y)
                want = ref.validated(g, steps, x) if steps else ref.constant(g, x)
            else:
                want = ref.evacuate_path(g, evac.tree_edges, oracle, x, y)
            _assert_same_path(path, want)
        checked += 1


# --- lengths against point_dist ------------------------------------------------

def test_tree_answers_are_exactly_point_dist_long():
    rng = random.Random(7201)
    for _ in range(12):
        g = random_tree(rng, rng.randint(1, 30))
        rule = plan_graph(g).rules[0]
        assert isinstance(rule, TreeRule)
        for _ in range(30):
            x, y = random_point(rng, g), random_point(rng, g)
            path = rule.path_for(x, y)
            assert path.length == point_dist(g, path.endpoint0, path.endpoint1) \
                == point_dist(g, x, y)


def test_bare_cycle_geodesics_are_cycle_distance_long():
    rng = random.Random(7202)
    checked = 0
    for n in [1, 2, 3] + [rng.randint(4, 16) for _ in range(8)]:
        g = _random_cycle(rng, n)
        plan = plan_circle(g)
        cyc = plan.rules[0].cycle
        for _ in range(30):
            x, y = random_point(rng, g), random_point(rng, g)
            if plan.stratum_index(x, y) != 1:
                continue
            d = abs(ref.coord(cyc, x) - ref.coord(cyc, y))
            path = plan.rules[1].path_for(x, y)
            assert path.length == min(d, cyc.length - d) == point_dist(g, x, y)
            checked += 1
    assert checked > 200


def _antipode(plan, x):
    """A point y with (x, y) in the rotate stratum of a (lifted) cycle plan."""
    rule = plan.rules[0]
    if isinstance(rule, LiftedRule):
        x, cyc = rule.homotopy.retract(x), rule.inner.cycle
    else:
        cyc = rule.cycle
    return ref.point_at(cyc, ref.coord(cyc, x) + cyc.length / 2)


def test_no_answer_is_shorter_than_point_dist():
    rng = random.Random(7203)
    kinds = set()
    for _ in range(6):
        plans = [plan_graph(random_tree(rng, 20)),
                 plan_graph(random_connected_graph(rng)),
                 plan_graph(random_cycle_with_hairs(rng, rng.randint(1, 8), 10)),
                 plan_circle(_random_cycle(rng, rng.randint(1, 9)))]
        for plan in plans:
            g = plan.graph
            cyclic = not isinstance(plan.rules[0], TreeRule)
            for _ in range(40):
                x = random_point(rng, g)
                y = _antipode(plan, x) if cyclic and rng.random() < 0.3 \
                    else random_point(rng, g)
                j, path = execute(plan, x, y)
                rule = plan.rules[j]
                inner = getattr(rule, "inner", None)
                kinds.add((type(rule).__name__, inner and type(inner).__name__, j))
                assert path.length >= point_dist(g, x, y), (g.edges, x, y, j)
    assert kinds >= {("TreeRule", None, 0), ("EdgeEvacuateRule", None, 1),
                     ("EdgeEvacuateRule", None, 2), ("LiftedRule", "CycleRotateRule", 0),
                     ("LiftedRule", "CycleGeodesicRule", 1), ("CycleRotateRule", None, 0),
                     ("CycleGeodesicRule", None, 1)}


# --- trusted builders -------------------------------------------------------------

def test_trusted_values_equal_public_ones():
    t = Fraction(3, 7)
    for trusted, public in ((PathStep._trusted("e", t, _ONE), PathStep("e", t, 1)),
                            (EdgeInterior._trusted("e", t), EdgeInterior("e", t))):
        assert trusted == public and hash(trusted) == hash(public)
        assert repr(trusted) == repr(public)


def _steps_bytes(build, n=10_000):
    """Bytes held by n steps from ``build``, measured with tracemalloc: the
    smaller of two measurements, after one to warm up."""
    sizes = []
    for _ in range(3):
        gc.collect()
        tracemalloc.start()
        try:
            steps = [build("e", _ZERO, _ONE) for _ in range(n)]
            sizes.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        del steps
    return min(sizes[1:])


def _no_more_memory_than_public(build) -> bool:
    return _steps_bytes(build) <= _steps_bytes(PathStep)


def test_trusted_steps_take_no_more_memory_than_public_ones():
    assert _no_more_memory_than_public(PathStep._trusted)


def test_memory_guard_catches_steps_built_with_a_dict():
    # filling __dict__ in one update is faster, but gives each step a dict
    def with_dict(edge, a, b):
        s = object.__new__(PathStep)
        s.__dict__.update(edge=edge, a=a, b=b)
        return s

    assert with_dict("e", _ZERO, _ONE) == PathStep("e", 0, 1)
    assert not _no_more_memory_than_public(with_dict)
