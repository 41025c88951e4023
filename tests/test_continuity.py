"""The continuity check of ``verify_plan`` against a test-only copy of the
float-sampled check it replaces (``continuity_reference``), the exact walk
bound that decides most pairs before any sampling, and plans whose only
fault is a discontinuous rule."""

import os
import random
import re
from fractions import Fraction

import pytest

from wildcat import graphs, planner
from wildcat.graphs import (EdgeInterior, PathStep, PLPath, TreeRouter, Vertex,
                            build_graph, constant_path, point_dist)
from wildcat.planner import (MotionPlan, _nudger, _point_sampler, _sampled_sup,
                             _walk_bound, plan_circle, plan_graph, verify_plan)
from wildcat.spacefile import parse_spacefile

import continuity_reference as ref
from path_reference import coord, point_at
from gen import (circle_with_hair, cycle_graph, k4, random_cycle_with_hairs,
                 random_tree, theta_graph)

FIXDIR = os.path.join(os.path.dirname(__file__), "fixtures")
EPSILONS = (Fraction(1, 20), Fraction(1), Fraction(3, 2), Fraction(7, 2))


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


class _Parallel:
    """Broken rule: on a perturbed query the answer takes its first whole
    middle step on a parallel edge.  The answer stays well-formed, with the
    same step count and exact endpoints, so only sampling can tell."""

    def __init__(self, inner):
        self.inner = inner

    def path_for(self, x, y):
        path = self.inner.path_for(x, y)
        if not (_perturbed(x) or _perturbed(y)):
            return path
        g = path.graph
        steps = list(path.steps)
        for i in range(1, len(steps) - 1):
            st = steps[i]
            if {st.a, st.b} != {0, 1}:
                continue
            e = g.edge_by_id[st.edge]
            twin = next((f for f in g.edges if f.id != e.id
                         and {f.v0, f.v1} == {e.v0, e.v1}), None)
            if twin is not None:
                a, b = (st.a, st.b) if twin.v0 == e.v0 else (st.b, st.a)
                steps[i] = PathStep(twin.id, a, b)
                return PLPath._trusted(g, steps, path.source)
        return path

    def piece_id(self, x, y):
        return self.inner.piece_id(x, y)


def parallel_plan(p):
    return MotionPlan(p.graph, p.strata, tuple(_Parallel(r) for r in p.rules))


def doubled_path(n):
    """A path of ``n`` edges, each with a parallel twin."""
    vs = [f"v{i}" for i in range(n + 1)]
    es = [(f"{k}{i}", vs[i], vs[i + 1]) for i in range(n) for k in "ab"]
    return build_graph(vs, es)


def _continuity(report):
    return next(c for c in report.checks if c.name == "continuity")


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


def test_verify_never_builds_the_distance_table(monkeypatch):
    def refuse(g):
        raise AssertionError("distance table built")

    monkeypatch.setattr(graphs, "vertex_distances", refuse)
    monkeypatch.setattr(planner, "vertex_distances", refuse)
    for g in (k4(), circle_with_hair(), theta_graph()):
        assert verify_plan(plan_graph(g), g, samples=2000).passed
    g = general_graph(random.Random(1600), 1600, 2399)
    assert verify_plan(plan_graph(g), g, samples=200).passed
    report = verify_plan(whisker_plan(plan_graph(g)), g, samples=200)
    assert not _continuity(report).passed
    g = general_graph(random.Random(5), 40, 55)
    report = verify_plan(whisker_plan(plan_graph(g)), g, samples=300)
    assert not _continuity(report).passed


def test_an_edge_named_v_is_not_read_as_a_vertex():
    # an edge id may be any identifier, so a vertex sample is not tagged by
    # a string: under the tag "v", samples on this edge read as vertices and
    # verify raised KeyError
    g = build_graph(["a", "b"], [("v", "a", "b"), ("e1", "a", "b"), ("e2", "a", "b")])
    report = verify_plan(plan_graph(g), g, samples=300)
    assert report.passed, report.checks


def test_continuity_alone_catches_a_parallel_step():
    g = doubled_path(8)
    plan = parallel_plan(plan_graph(g))
    for eps in (Fraction(1, 20), Fraction(1, 2)):
        report = verify_plan(plan, g, samples=300, eps=eps)
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == ["continuity"], report.checks
        assert _continuity(report) == ref.continuity_check(
            plan, g, 300, planner.DEFAULT_DELTA, eps)
    # the twin of a whole step is within distance 1 of it everywhere
    assert verify_plan(plan, g, samples=300, eps=Fraction(1)).passed


def test_real_plans_are_decided_without_sampling(monkeypatch):
    # a count guard: on real plans the exact walk bound decides every
    # compared pair, and only the broken plans reach the sampler
    def refuse(g, path1, path2, eps):
        raise AssertionError("continuity sampled")

    monkeypatch.setattr(planner, "_sampled_sup", refuse)
    rng = random.Random(11)
    for g in (k4(), circle_with_hair(), theta_graph(), general_graph(rng, 40, 55),
              random_cycle_with_hairs(rng, 9, 30), random_tree(rng, 40)):
        report = verify_plan(plan_graph(g), g, samples=2000)
        assert report.passed, report.checks
        assert not _continuity(report).detail.startswith("0 ")

    sampled = []

    def count(g, path1, path2, eps):
        sampled.append(path1)
        return _sampled_sup(g, path1, path2, eps)

    monkeypatch.setattr(planner, "_sampled_sup", count)
    for g, plan in ((general_graph(rng, 40, 55), whisker_plan),
                    (doubled_path(8), parallel_plan)):
        assert not _continuity(verify_plan(plan(plan_graph(g)), g, samples=300)).passed
        assert sampled
        sampled.clear()


# --- the walk bound -----------------------------------------------------------

def _random_point(rng, g):
    """A vertex, or an edge point on the sampling grid or nudged off it."""
    p = _point_sampler(rng, g)()
    if isinstance(p, EdgeInterior) and rng.random() < 0.5:
        p = _nudger(rng, Fraction(1, 2000))(p)
    return p


def _antipode(rule, x):
    """The partner of x in the stratum of a (lifted) rotate rule."""
    lifted = hasattr(rule, "homotopy")
    cycle = rule.inner.cycle if lifted else rule.cycle
    s = coord(cycle, rule.homotopy.retract(x) if lifted else x)
    return point_at(cycle, s + cycle.length / 2)


def _answer_pairs(rng):
    """(path, path) answer pairs of one rule to a query and to its nudge,
    from tree, evacuate, lifted and bare rotate/geodesic and constant
    rules, nudged by up to 1/2000 and by up to 1/3; then, from the first
    40 answers of two or more steps, the pairs of ``_meeting_pairs``."""
    tree = random_tree(rng, 20)
    general = plan_graph(general_graph(rng, 20, 30))
    lifted = plan_graph(random_cycle_with_hairs(rng, 6, 10))
    cycle = plan_circle(cycle_graph(rng.randint(3, 7)))
    rules = [(tree, TreeRouter(tree, tree.edge_by_id).route, None),
             (general.graph, general.rules[1].path_for, None)]
    for p in (lifted, cycle):
        rotate, geodesic = p.rules
        rules += [(p.graph, rotate.path_for, rotate), (p.graph, geodesic.path_for, None)]
    walks = []
    for g, path_for, rotate in rules:
        for shift in (Fraction(1, 2000), Fraction(1, 3)):
            nudge = _nudger(rng, shift)
            for _ in range(12):
                x, y = _random_point(rng, g), _random_point(rng, g)
                x2, y2 = nudge(x), nudge(y)
                if rotate is not None:
                    y, y2 = _antipode(rotate, x), _antipode(rotate, x2)
                answer = path_for(x, y)
                yield g, answer, path_for(x2, y2)
                yield g, constant_path(g, x), constant_path(g, x2)
                if len(answer.steps) >= 2:
                    walks.append(answer)
    for path in walks[:40]:
        yield from _meeting_pairs(rng, path)


def _meeting_pairs(rng, path):
    """Two pairs from a path of two or more steps.  First, the path with
    its first step split at an interior point m of it, against the same
    with the first step starting at a random point on a random side of m:
    the two first steps meet at m, an interior parameter, in one direction
    or in opposite ones.  Then the same for its last step, split at m and
    ending on a random side of it."""
    g, steps = path.graph, list(path.steps)

    def part():
        return Fraction(rng.randint(1, 16), 16)

    def split(step, m):
        return [PathStep(step.edge, step.a, m), PathStep(step.edge, m, step.b)]

    first = steps[0]
    m = first.a + (first.b - first.a) * (part() - Fraction(1, 32))
    a = first.a + (m - first.a) * (1 - part()) if rng.random() < 0.5 \
        else m + (first.b - m) * part()
    rest = split(first, m)[1:] + steps[1:]
    yield g, PLPath(g, split(first, m) + steps[1:]), PLPath(g, [(first.edge, a, m)] + rest)
    last = steps[-1]
    m = last.a + (last.b - last.a) * (part() - Fraction(1, 32))
    b = m + (last.b - m) * part() if rng.random() < 0.5 \
        else m - (m - last.a) * part()
    head = steps[:-1] + split(last, m)[:1]
    yield g, PLPath(g, steps[:-1] + split(last, m)), PLPath(g, head + [(last.edge, m, b)])


def _one_walk(path1, path2):
    """Whether the steps show one shared walk, as ``_walk_bound`` states it:
    as many steps, first steps on one edge, and for two or more steps
    first steps with one end, last steps on one edge with one start, and
    equal middle steps; the steps' directions do not matter."""
    s1, s2 = path1.steps, path2.steps
    if len(s1) != len(s2) or not s1 or s1[0].edge != s2[0].edge:
        return False
    if len(s1) == 1:
        return True
    (f1, l1), (f2, l2) = (s1[0], s1[-1]), (s2[0], s2[-1])
    return (f1.b == f2.b and l1.edge == l2.edge and l1.a == l2.a
            and s1[1:-1] == s2[1:-1])


def _opposite(path1, path2):
    """Whether two paths of two or more steps have first steps meeting at
    one interior parameter from opposite sides, or last steps leaving one
    interior parameter to opposite sides."""
    (f1, *_, l1), (f2, *_, l2) = path1.steps, path2.steps
    return ((f1.b == f2.b and 0 < f1.b < 1 and (f1.a < f1.b) != (f2.a < f2.b))
            or (l1.a == l2.a and 0 < l1.a < 1 and (l1.a < l1.b) != (l2.a < l2.b)))


def _breakpoints(path):
    cum = path._arclengths()
    return [c / cum[-1] for c in cum] if cum[-1] else []


def _bound(path1, path2):
    """``_walk_bound`` as a Fraction, or None; the bound must come as an
    integer pair (num, den) with den > 0."""
    b = _walk_bound(path1, path2, path1.steps[1:-1] == path2.steps[1:-1])
    if b is None:
        return None
    num, den = b
    assert type(num) is int and type(den) is int and den > 0, b
    return Fraction(num, den)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_walk_bound_is_sound(seed):
    # the meeting pairs put first (or last) steps at one interior parameter
    # in one direction or in opposite ones; both kinds are bounded, and the
    # bound must hold at every breakpoint and on a grid of times
    rng = random.Random(seed)
    bounded = opposite = 0
    for g, p1, p2 in _answer_pairs(rng):
        p1.check()
        p2.check()
        b = _bound(p1, p2)
        # a bound exactly when the steps show one walk
        assert (b is not None) == _one_walk(p1, p2), (p1.steps, p2.steps)
        if b is None:
            continue
        bounded += 1
        if len(p1.steps) >= 2:
            opposite += _opposite(p1, p2)
        ts = set(_breakpoints(p1) + _breakpoints(p2))
        ts.update(Fraction(k, 256) for k in range(257))
        for t in sorted(ts):
            assert point_dist(g, p1.at(t), p2.at(t)) <= b, (p1.steps, p2.steps, t)
    assert bounded > 100 and opposite > 10


def test_walk_bound_needs_one_shared_walk():
    g = doubled_path(3)
    half = Fraction(1, 2)

    def path(*steps):
        return PLPath(g, steps)

    base = path(("a0", half, 1), ("a1", 0, 1), ("a2", 0, half))
    near = path(("a0", Fraction(1, 3), 1), ("a1", 0, 1), ("a2", 0, Fraction(2, 3)))
    assert _bound(base, near) == Fraction(1, 6)
    assert _bound(base, base) == 0
    # one step each on one edge, in either direction
    assert _bound(path(("a0", 0, half)), path(("a0", Fraction(3, 4), 0))) \
        == Fraction(3, 4)
    assert _bound(path(("a0", 0, half)), path(("b0", 0, half))) is None
    for other in (
            path(("a0", half, 1), ("a1", 0, half)),                 # step count
            path(("b0", half, 1), ("a1", 0, 1), ("a2", 0, half)),   # first edge
            path(("a0", half, 1), ("a1", 0, 1), ("b2", 0, half)),   # last edge
            path(("a0", half, 1), ("b1", 0, 1), ("a2", 0, half))):  # middle
        assert _bound(base, other) is None
        assert _bound(other, base) is None
    # first steps share edge and end but not direction: the two starts are
    # 1/2 apart; last steps share edge and start but not direction
    up = path(("a1", Fraction(1, 4), half), ("a1", half, 1), ("a2", 0, half))
    down = path(("a1", Fraction(3, 4), half), ("a1", half, 1), ("a2", 0, half))
    assert _bound(up, down) == half
    fwd = path(("a0", half, 1), ("a1", 0, half), ("a1", half, Fraction(3, 4)))
    back = path(("a0", half, 1), ("a1", 0, half), ("a1", half, Fraction(1, 4)))
    assert _bound(fwd, back) == half
    # two constant paths at vertices have no steps
    assert _bound(constant_path(g, Vertex("v0")), constant_path(g, Vertex("v0"))) is None


def test_walk_bound_holds_across_a_shared_interior_end():
    # the first steps end at one interior point of a1, held as two equal
    # Fractions, from either side; the same for last steps that start
    # there.  The bound is the larger gap at the two ends whatever the
    # directions, and it holds at every time, the meeting time included
    g = doubled_path(3)

    def path(*steps):
        return PLPath(g, steps).check()

    mid, mid2 = Fraction(1, 2), Fraction(2, 4)
    assert mid2 is not mid
    up = path(("a1", Fraction(1, 4), mid), ("a1", mid, 1), ("a2", 0, mid))
    up2 = path(("a1", Fraction(1, 3), mid2), ("a1", mid2, 1), ("a2", 0, mid2))
    down = path(("a1", Fraction(3, 4), mid2), ("a1", mid2, 1), ("a2", 0, mid2))
    fwd = path(("a0", mid, 1), ("a1", 0, mid), ("a1", mid, Fraction(3, 4)))
    fwd2 = path(("a0", mid2, 1), ("a1", 0, mid2), ("a1", mid2, Fraction(2, 3)))
    back = path(("a0", mid2, 1), ("a1", 0, mid2), ("a1", mid2, Fraction(1, 4)))
    for p1, p2, bound in ((up, up2, Fraction(1, 12)), (up, down, mid),
                          (fwd, fwd2, Fraction(1, 12)), (fwd, back, mid)):
        assert _bound(p1, p2) == _bound(p2, p1) == bound
        ts = set(_breakpoints(p1) + _breakpoints(p2))
        ts.update(Fraction(k, 64) for k in range(65))
        assert max(point_dist(g, p1.at(t), p2.at(t)) for t in ts) <= bound


# --- draws and nudges ---------------------------------------------------------

def test_random_point_matches_reference():
    # one sampler per seed, as verify_plan draws; on point.space, one vertex
    # and no edge, every draw is 1 bit, drawn again while it is 1
    with open(os.path.join(FIXDIR, "point.space"), encoding="ascii") as fh:
        point = parse_spacefile(fh.read()).main_graph()
    assert len(point.vertices) == 1 and not point.edges
    for g in (general_graph(random.Random(5), 30, 45), point):
        for seed in range(5):
            r1, r2 = random.Random(seed), random.Random(seed)
            sample = _point_sampler(r1, g)
            drawn = [sample() for _ in range(400)]
            assert drawn == [ref.random_point(r2, g) for _ in range(400)]
            assert r1.getstate() == r2.getstate()
            # one shared Vertex per vertex, one shared parameter per k
            assert len({id(p) for p in drawn if isinstance(p, Vertex)}) \
                == len({p for p in drawn if isinstance(p, Vertex)})
            assert len({id(p.t) for p in drawn if isinstance(p, EdgeInterior)}) \
                == len({p.t for p in drawn if isinstance(p, EdgeInterior)})


def test_nudge_matches_reference():
    grid = 1 << 22
    on_grid = [Fraction(k, 4096) for k in (1, 7, 2048, 4095)] \
        + [Fraction(1, grid), Fraction(grid - 1, grid)]
    off_grid = [Fraction(1, 3), Fraction(2, 3), Fraction(1, 4097), Fraction(4096, 4097),
                Fraction(1, 1 << 23), Fraction((1 << 23) - 1, 1 << 23), Fraction(12345, 1 << 23)]
    clamped = set()
    # the last shift's draw is wider than 64 bits
    for max_shift in (Fraction(1, 2000), Fraction(1, 3), Fraction(5), Fraction(1, 1 << 30),
                      Fraction(1 << 50)):
        g = grid * max_shift.denominator if max_shift.denominator > grid else grid
        ends = (Fraction(1, g), 1 - Fraction(1, g))
        for t in on_grid + off_grid:
            for seed in range(25):
                r1, r2 = random.Random(seed), random.Random(seed)
                p = EdgeInterior("e", t)
                q = _nudger(r1, max_shift)(p)
                assert q == ref.nudge(r2, p, max_shift), (t, max_shift, seed)
                assert r1.getstate() == r2.getstate()
                if q.t in ends:
                    clamped.add((q.t == ends[0], t in on_grid))
        # one nudger for a whole stream, as verify_plan nudges; a vertex
        # consumes no draw
        r1, r2 = random.Random(7), random.Random(7)
        nudge = _nudger(r1, max_shift)
        points = [Vertex("v")] + [EdgeInterior("e", t) for t in on_grid + off_grid] * 3
        assert [nudge(p) for p in points] == [ref.nudge(r2, p, max_shift) for p in points]
        assert r1.getstate() == r2.getstate()
        r1 = random.Random(0)
        assert _nudger(r1, max_shift)(Vertex("v")) == Vertex("v")
        assert r1.getstate() == random.Random(0).getstate()
    assert clamped == {(True, True), (False, True), (True, False), (False, False)}


# --- eps beyond every distance ------------------------------------------------

def test_eps_beyond_any_float_gives_the_verdict_of_a_large_eps():
    huge = Fraction(10) ** 400
    for g in (k4(), circle_with_hair()):
        p = plan_graph(g)
        assert verify_plan(p, g, samples=200, eps=huge).passed
        # every point distance is below V + E, so even a broken rule passes
        for plan in (whisker_plan(p), parallel_plan(p)):
            report = verify_plan(plan, g, samples=200, eps=huge)
            big = verify_plan(plan, g, samples=200, eps=Fraction(10 ** 6))
            assert _continuity(report).passed and _continuity(big).passed
            assert _continuity(report).detail.split(" ", 1)[0] \
                == _continuity(big).detail.split(" ", 1)[0]
