"""The continuity check of ``verify_plan`` against a test-only copy of the
sampled check it replaces (``continuity_reference``), and a plan whose only
fault is a discontinuous rule."""

import random
import re
from fractions import Fraction

import pytest

from wildcat import graphs, planner
from wildcat.graphs import (EdgeInterior, PathStep, PLPath, TreeRouter, Vertex,
                            build_graph, constant_path)
from wildcat.planner import (MotionPlan, TIME_SAMPLES, _float_samples, _nudge,
                             plan_circle, plan_graph, verify_plan)

import continuity_reference as ref
from gen import (circle_with_hair, cycle_graph, k4, random_cycle_with_hairs,
                 random_tree, theta_graph)

EPSILONS = (Fraction(1, 20), Fraction(1), Fraction(3, 2), Fraction(7, 2))
TIMES = [k / (TIME_SAMPLES - 1) for k in range(TIME_SAMPLES)]


def general_graph(rng, n_vertices, n_edges):
    """A random spanning tree on ``n_vertices`` plus random extra edges
    (loops and parallel edges allowed), ``n_edges`` edges in all."""
    vs = [f"v{i}" for i in range(n_vertices)]
    es = [(f"e{i - 1}", vs[rng.randrange(i)], vs[i]) for i in range(1, n_vertices)]
    while len(es) < n_edges:
        es.append((f"e{len(es)}", rng.choice(vs), rng.choice(vs)))
    return build_graph(vs, es)


def _graphs(rng):
    return (general_graph(rng, 40, 55), random_cycle_with_hairs(rng, 9, 30),
            random_tree(rng, 40))


def _perturbed(p):
    # sampled queries have denominators dividing 4096; nudged ones do not
    return isinstance(p, EdgeInterior) and p.t.denominator > 4096


class _Whisker:
    """Broken rule: on a perturbed query the answer runs back along its last
    step and forward again before it ends.  The answer stays well-formed,
    with exact endpoints, and sampled queries get the inner rule's answer,
    so only the continuity check can tell."""

    def __init__(self, inner):
        self.inner = inner

    def path_for(self, x, y):
        path = self.inner.path_for(x, y)
        steps = path.steps
        if not (_perturbed(x) or _perturbed(y)) or not steps \
                or steps[-1].a == steps[-1].b:
            return path
        last = steps[-1]
        whisker = (PathStep(last.edge, last.b, last.a),
                   PathStep(last.edge, last.a, last.b))
        return PLPath._trusted(path.graph, steps + whisker, path.source)

    def piece_id(self, x, y):
        return self.inner.piece_id(x, y)


def whisker_plan(p):
    return MotionPlan(p.graph, p.strata, tuple(_Whisker(r) for r in p.rules))


def _continuity(report):
    return next(c for c in report.checks if c.name == "continuity")


# --- the sampler --------------------------------------------------------------

def _random_point(rng, g):
    """A vertex, or an edge point on the sampling grid or nudged off it."""
    p = planner._random_point(rng, g)
    if isinstance(p, EdgeInterior) and rng.random() < 0.5:
        p = _nudge(rng, p, Fraction(1, 2000))
    return p


def _sample_paths(rng):
    tree = random_tree(rng, 30)
    router = TreeRouter(tree)
    for _ in range(40):
        yield router.route(_random_point(rng, tree), _random_point(rng, tree))
    for g in (general_graph(rng, 30, 45), random_cycle_with_hairs(rng, 7, 20)):
        p = plan_graph(g)
        for _ in range(60):
            x, y = _random_point(rng, g), _random_point(rng, g)
            yield p.rules[p.stratum_index(x, y)].path_for(x, y)
    cycle = cycle_graph(rng.randint(3, 9))
    rotate, geodesic = plan_circle(cycle).rules
    for _ in range(30):
        x, y = _random_point(rng, cycle), _random_point(rng, cycle)
        yield rotate.path_for(x, y)
        yield geodesic.path_for(x, y)
    e = tree.edges[0]
    yield constant_path(tree, EdgeInterior(e.id, Fraction(1, 3)))
    yield constant_path(tree, Vertex(e.v0))
    # whole-edge steps whose parameters are not the shared 0 and 1
    yield PLPath(tree, [(e.id, 0, 1), (e.id, 1, Fraction(1, 7))])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_samples_match_reference(seed):
    rng = random.Random(seed)
    kinds = set()
    for path in _sample_paths(rng):
        partial = sum(not (s.a in (0, 1) and s.b in (0, 1)) for s in path.steps)
        kinds.add(min(partial, 2) if path.steps else "none")
        times = sorted([0.0, 1.0] + [rng.random() for _ in range(rng.randint(0, 6))])
        for ts in (TIMES, times):
            assert _float_samples(path, ts) == ref.float_samples(path, ts), path.steps
    assert kinds == {"none", 0, 1, 2}


# --- the check ----------------------------------------------------------------

@pytest.mark.parametrize("eps", EPSILONS, ids=str)
def test_continuity_matches_reference(eps):
    rng = random.Random(7)
    for g in _graphs(rng):
        p = plan_graph(g)
        for plan in (p, whisker_plan(p)):
            for seed in (0, 1):
                report = verify_plan(plan, g, samples=120, eps=eps, seed=seed)
                expected = ref.continuity_check(plan, g, 120, planner.DEFAULT_DELTA,
                                                eps, seed=seed)
                assert _continuity(report) == expected


@pytest.mark.parametrize("eps", [Fraction(1, 20), Fraction(3, 2)], ids=str)
def test_continuity_alone_catches_a_whisker(eps):
    rng = random.Random(3)
    for g in _graphs(rng):
        plan = whisker_plan(plan_graph(g))
        report = verify_plan(plan, g, samples=300, eps=eps)
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == ["continuity"], report.checks
        check = _continuity(report)
        assert re.fullmatch(r"\(.*\) vs \(.*\): sup \d+\.\d{4}", check.witness)
        assert float(check.witness.rsplit(" ", 1)[1]) > eps
        assert check == ref.continuity_check(plan, g, 300, planner.DEFAULT_DELTA, eps)


def test_verify_builds_the_distance_table_only_for_a_witness(monkeypatch):
    def refuse(g):
        raise AssertionError("distance table built")

    monkeypatch.setattr(planner, "vertex_distances", refuse)
    for g in (k4(), circle_with_hair(), theta_graph()):
        assert verify_plan(plan_graph(g), g, samples=2000).passed
    g = general_graph(random.Random(1600), 1600, 2399)
    assert verify_plan(plan_graph(g), g, samples=200).passed

    built = []

    def count(g):
        built.append(g)
        return graphs.vertex_distances(g)

    monkeypatch.setattr(planner, "vertex_distances", count)
    g = general_graph(random.Random(5), 40, 55)
    report = verify_plan(whisker_plan(plan_graph(g)), g, samples=300)
    assert not _continuity(report).passed
    assert built == [g]


def test_an_edge_named_v_is_not_read_as_a_vertex():
    # an edge id may be any identifier, so a vertex sample is not tagged by
    # a string: under the tag "v", samples on this edge read as vertices and
    # verify raised KeyError
    g = build_graph(["a", "b"], [("v", "a", "b"), ("e1", "a", "b"), ("e2", "a", "b")])
    report = verify_plan(plan_graph(g), g, samples=300)
    assert report.passed, report.checks
    assert _float_samples(PLPath(g, [("v", 0, Fraction(1, 2))]), [0.0, 1.0]) \
        == [("v", 0.0), ("v", 0.5)]
