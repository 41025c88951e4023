"""Differential tests of the path builders against the validated reference
in ``path_reference``.

``CycleCoords.march``, ``TreeRouter.route_steps`` and the rules share
whole-edge steps and build their answers unchecked.  They must give the
same steps, lengths and positions as the reference, which builds every step
afresh and validates every intermediate path.
"""

import random
from fractions import Fraction

import pytest

import path_reference as ref
from gen import (random_connected_graph, random_cycle_with_hairs, random_point,
                 random_tree)
from wildcat.graphs import (EdgeInterior, GraphError, PLPath, TreeRouter, Vertex,
                            build_graph, subgraph, spanning_forest)
from wildcat.planner import CycleCoords, EdgeEvacuateRule, LiftedRule, execute, plan_graph

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


def _distances(rng, length, s0):
    """Signed distances that cross no, one and many whole edges, wrap
    around, and stop on vertices and inside edges."""
    frac = Fraction(rng.randrange(1, 64), 64)
    out = [Fraction(0), frac, length / 2, -length / 2, length, 2 * length + frac,
           1 - (s0 % 1 or 1) + Fraction(1, 128), length - s0 + frac]
    for whole in (1, 2, rng.randrange(length.numerator + 1)):
        out += [Fraction(whole), whole + frac]
    return out + [-d for d in out if d]


def test_march_matches_reference_random_cycles():
    rng = random.Random(7101)
    checked = 0
    for n in [1, 2, 3] + [rng.randint(4, 24) for _ in range(16)]:
        g = _random_cycle(rng, n)
        cyc = CycleCoords(g)
        starts = [Fraction(k) for k in range(n)] + \
                 [Fraction(rng.randrange(1, 64 * n), 64) for _ in range(4)]
        for s0 in starts:
            for dist in _distances(rng, cyc.length, s0):
                got = cyc.march(s0, dist)
                want = ref.march(cyc, s0, dist)
                assert got == want, (n, s0, dist)
                source = cyc.point_at(s0)
                _assert_same_path(PLPath(g, got, source=source),
                                  ref.validated(g, want, source))
                checked += 1
    assert checked > 4000


def test_march_reuses_whole_edge_steps():
    cyc = CycleCoords(_random_cycle(random.Random(7102), 12))
    first = cyc.march(Fraction(1, 3), 30)
    again = cyc.march(Fraction(2, 3), 30)
    # both cross the same 29 whole edges the same way, with the same steps
    assert len(first) == len(again) == 31
    assert all(a is b for a, b in zip(first[1:-1], again[1:-1]))
    assert first[0] != again[0] and first[-1] != again[-1]


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
        router = TreeRouter(g)
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
        router, oracle = TreeRouter(forest), ref.Router(forest)
        pts = _tree_points(rng, forest, 6)
        for p in pts:
            for q in pts:
                assert router.route_steps(p, q) == oracle.route_steps(p, q)
    split = build_graph(["a", "b"], [])
    for r in (TreeRouter(split), ref.Router(split)):
        with pytest.raises(GraphError, match="different components"):
            r.route_steps(Vertex("a"), Vertex("b"))


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
        oracle = ref.Router(evac.router.forest)
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
