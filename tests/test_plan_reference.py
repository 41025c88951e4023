"""``plan_graph`` and ``plan_tree`` against a test-only copy of the plans
with hand-written strata (``plan_reference``): on trees and on graphs with
b1 >= 2 the product plan of the category filtration gives every seeded
query the same stratum, the same piece and the same steps."""

import os
import random
from fractions import Fraction

import pytest

from wildcat import planner
from wildcat.graphs import EdgeInterior, Vertex, betti1, build_graph
from wildcat.planner import plan_graph, plan_tree
from wildcat.spacefile import ParseError, parse_spacefile

import plan_reference as ref
from gen import GRAPH_FIXTURES, random_point, random_tree


def _graph_with_loops_and_parallels(rng, n_vertices, n_extra):
    """A random tree plus ``n_extra`` random edges, then one loop and one
    edge parallel to a tree edge, so b1 = n_extra + 2."""
    vs = [f"v{i}" for i in range(n_vertices)]
    es = [(f"e{i - 1}", vs[rng.randrange(i)], vs[i]) for i in range(1, n_vertices)]
    for _ in range(n_extra):
        es.append((f"e{len(es)}", rng.choice(vs), rng.choice(vs)))
    loop_at = rng.choice(vs)
    _, a, b = rng.choice(es[:n_vertices - 1])
    es += [(f"e{len(es)}", loop_at, loop_at), (f"e{len(es) + 1}", b, a)]
    return build_graph(vs, es)


def _corpus():
    fixdir = os.path.join(os.path.dirname(__file__), "fixtures")
    for name in sorted(os.listdir(fixdir)):
        with open(os.path.join(fixdir, name), encoding="ascii") as fh:
            sf = parse_spacefile(fh.read())
        try:
            yield name, sf.main_graph()
        except ParseError:
            pass  # a wild space, not a graph
    for name, make in GRAPH_FIXTURES.items():
        yield name, make()
    rng = random.Random(3401)
    yield "one-vertex", random_tree(rng, 1)
    for i in range(8):
        yield f"tree{i}", random_tree(rng, rng.randint(2, 30))
        yield f"general{i}", _graph_with_loops_and_parallels(
            rng, rng.randint(2, 20), rng.randint(0, 12))


def _queries(rng, g, n):
    """Every vertex and edge midpoint against a random point, then n random
    pairs."""
    probes = [Vertex(v) for v in g.vertices]
    probes += [EdgeInterior(e.id, Fraction(1, 2)) for e in g.edges]
    for x in probes:
        yield x, random_point(rng, g)
    for _ in range(n):
        yield random_point(rng, g), random_point(rng, g)


def _check_against_reference(corpus, n=150):
    rng = random.Random(34)
    for name, g in corpus:
        pairs = [(plan_graph(g), ref.plan_graph(g))]
        if betti1(g) == 0:
            pairs.append((plan_tree(g), ref.plan_tree(g)))
        for plan, old in pairs:
            assert len(plan.strata) == len(old.strata), name
            for x, y in _queries(rng, g, n):
                j = plan.stratum_index(x, y)
                assert j == old.stratum_index(x, y), (name, x, y)
                rule, old_rule = plan.rules[j], old.rules[j]
                assert rule.piece_id(x, y) == old_rule.piece_id(x, y), (name, x, y)
                assert rule.path_for(x, y).steps == old_rule.path_for(x, y).steps, \
                    (name, x, y)


def test_corpus_covers_trees_and_graphs_with_loops_and_parallels():
    graphs = dict(_corpus())
    assert len(graphs["one-vertex"].vertices) == 1
    assert sum(betti1(g) == 0 for g in graphs.values()) >= 10
    general = [g for g in graphs.values() if betti1(g) >= 2]
    assert len(general) >= 10
    assert any(any(e.v0 == e.v1 for e in g.edges) for g in general)
    assert any(len({frozenset((e.v0, e.v1)) for e in g.edges if e.v0 != e.v1})
               < sum(e.v0 != e.v1 for e in g.edges) for g in general)


def test_product_plan_answers_as_the_reference():
    _check_against_reference(_corpus())


def test_reference_catches_evacuation_to_the_larger_end(monkeypatch):
    # negative control: a non-tree coordinate slid to the end with the
    # larger vertex id must change some answer
    def larger_end(self, p):
        if isinstance(p, EdgeInterior) and p.edge not in self.tree_edges:
            e = self.graph.edge_by_id[p.edge]
            u = max(e.v0, e.v1)
            return (planner._ZERO if u == e.v0 else planner._ONE), Vertex(u)
        return None, p

    monkeypatch.setattr(planner.EdgeEvacuateRule, "_evacuate", larger_end)
    with pytest.raises(AssertionError):
        _check_against_reference(_corpus())
