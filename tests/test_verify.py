"""The whole report of ``verify_plan`` against a test-only copy of the
verifier that checked every answer in full and compared endpoint objects
(``verify_reference``), negative controls for the two ways the verifier
reads less of an answer (end keys from the path check, and only the ends
of a nudged answer that keeps its partner's middle steps), and a guard on
what its sampled loops build and read."""

import os
import random
from fractions import Fraction

import pytest

from wildcat import graphs
from wildcat.graphs import (EdgeInterior, MultiGraph, PathStep, PLPath, Vertex,
                            build_graph)
from wildcat.planner import (MotionPlan, corrupt_plan_swap_endpoints, plan_graph,
                             verify_plan)
from wildcat.spacefile import ParseError, parse_spacefile

import verify_reference as ref
from gen import random_connected_graph, random_cycle_with_hairs, random_tree
from test_continuity import _perturbed, doubled_path, parallel_plan, whisker_plan

FIXDIR = os.path.join(os.path.dirname(__file__), "fixtures")


def _fixture_graphs():
    for name in sorted(os.listdir(FIXDIR)):
        with open(os.path.join(FIXDIR, name), encoding="ascii") as fh:
            sf = parse_spacefile(fh.read())
        try:
            yield sf.main_graph()
        except ParseError:
            pass  # a wild space, not a graph


def _corpus(rng):
    graphs_ = list(_fixture_graphs())
    for _ in range(3):
        graphs_.append(random_connected_graph(rng))
        graphs_.append(random_cycle_with_hairs(rng, rng.randint(1, 6), rng.randint(1, 8)))
        graphs_.append(random_tree(rng, rng.randint(1, 15)))
    graphs_.append(doubled_path(5))
    for g in graphs_:
        p = plan_graph(g)
        for plan in (p, corrupt_plan_swap_endpoints(p), whisker_plan(p), parallel_plan(p)):
            yield g, plan


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def _same_report(plan, g, **kw):
    report = verify_plan(plan, g, **kw)
    assert report == ref.verify(plan, g, **kw)
    return report


# --- the whole report -------------------------------------------------------

@pytest.mark.parametrize("seed", range(5))
def test_report_matches_reference(seed):
    verdicts = set()
    for g, plan in _corpus(random.Random(seed)):
        report = _same_report(plan, g, samples=60, seed=seed)
        verdicts.update((c.name, c.passed) for c in report.checks)
    # the corpus reaches both verdicts of the section and continuity checks
    assert {("section", False), ("section", True),
            ("continuity", False), ("continuity", True)} <= verdicts


# --- negative controls --------------------------------------------------------

class _EndFault:
    """Broken rule: on a perturbed query an answer of three or more steps
    keeps its middle steps, so the check reads only its ends, but gets one
    fault there: a degenerate first step, a last step that does not start
    where the one before it ends, or a wrong declared source.  The control
    ``middle`` breaks the junction into the third step of five or more
    instead, so the answer must be read in full."""

    def __init__(self, inner, fault, faulted):
        self.inner = inner
        self.fault = fault
        self.faulted = faulted

    def path_for(self, x, y):
        path = self.inner.path_for(x, y)
        steps = list(path.steps)
        if not (_perturbed(x) or _perturbed(y)) or len(steps) < 3 \
                or (self.fault == "middle" and len(steps) < 5):
            return path
        first, last = steps[0], steps[-1]
        source = path.source
        if self.fault == "first":
            steps[0] = PathStep(first.edge, first.a, first.a)
        elif self.fault == "junction":
            # no answer point sits at 1/3, so the last step starts off the
            # end of the step before it
            steps[-1] = PathStep(last.edge, Fraction(1, 3), last.b)
        elif self.fault == "middle":
            steps[2] = PathStep(steps[2].edge, Fraction(1, 3), steps[2].b)
        else:
            source = EdgeInterior(first.edge, Fraction(1, 3))
        self.faulted.append(steps[1:-1] == list(path.steps[1:-1]))
        return PLPath._trusted(path.graph, steps, source)

    def piece_id(self, x, y):
        return self.inner.piece_id(x, y)


@pytest.mark.parametrize("fault,detail", [
    ("first", "degenerate step inside a multi-step path"),
    ("junction", "discontinuous consecutive steps"),
    ("source", "declared source does not match the first step"),
    ("middle", "discontinuous consecutive steps")])
def test_a_fault_at_the_ends_of_a_nudged_answer_is_found(fault, detail):
    rng = random.Random(24)
    g = random_connected_graph(rng, max_vertices=8, max_edges=12)
    while len(g.edges) - len(g.vertices) < 2:
        g = random_connected_graph(rng, max_vertices=8, max_edges=12)
    for g in (g, random_cycle_with_hairs(rng, 5, 12), random_tree(rng, 30)):
        faulted = []
        p = plan_graph(g)
        plan = MotionPlan(g, p.strata, tuple(_EndFault(r, fault, faulted) for r in p.rules))
        report = _same_report(plan, g, samples=200)
        assert faulted and all(kept == (fault != "middle") for kept in faulted)
        wellformed = _check(report, "path-wellformed")
        assert not wellformed.passed
        assert wellformed.detail == f"malformed answer path: {detail}"
        assert [c.name for c in report.checks if not c.passed] == ["path-wellformed"]


class _Overshoot:
    """Broken rule: an answer that ends inside an edge ends 1/4096 further
    along it."""

    def __init__(self, inner):
        self.inner = inner

    def path_for(self, x, y):
        path = self.inner.path_for(x, y)
        steps = list(path.steps)
        if not isinstance(y, EdgeInterior) or not steps \
                or y.t + Fraction(1, 4096) >= 1 or steps[-1].a == y.t + Fraction(1, 4096):
            return path
        last = steps[-1]
        steps[-1] = PathStep(last.edge, last.a, y.t + Fraction(1, 4096))
        return PLPath._trusted(path.graph, steps, path.source)

    def piece_id(self, x, y):
        return self.inner.piece_id(x, y)


def test_an_answer_ending_next_to_the_query_fails_section():
    rng = random.Random(4096)
    for g in (random_connected_graph(rng), random_cycle_with_hairs(rng, 4, 6),
              random_tree(rng, 12)):
        p = plan_graph(g)
        plan = MotionPlan(g, p.strata, tuple(_Overshoot(r) for r in p.rules))
        report = _same_report(plan, g, samples=200)
        assert [c.name for c in report.checks if not c.passed] == ["section"]


class _SwapVertexV:
    """Broken rule on the path graph a - v - b whose first edge is also
    named ``v``: a query ending inside edge ``v`` is answered by the path to
    vertex ``v``, and one ending at vertex ``v`` by the path to the middle
    of edge ``v``; every other query gets the inner rule's answer."""

    def __init__(self, inner):
        self.inner = inner

    def path_for(self, x, y):
        if isinstance(y, EdgeInterior) and y.edge == "v":
            y = Vertex("v")
        elif y == Vertex("v"):
            y = EdgeInterior("v", Fraction(1, 2))
        return self.inner.path_for(x, y)

    def piece_id(self, x, y):
        return self.inner.piece_id(x, y)


def test_vertex_v_is_not_a_point_inside_edge_v():
    g = build_graph(["a", "v", "b"], [("v", "a", "v"), ("w", "v", "b")])
    assert PLPath(g, [PathStep("v", 0, 1)])._end_keys() == ("a", "v")
    assert PLPath(g, [PathStep("v", 0, Fraction(1, 2))])._end_keys() \
        == ("a", ("v", Fraction(1, 2)))
    p = plan_graph(g)
    assert _same_report(p, g, samples=300).passed
    plan = MotionPlan(g, p.strata, tuple(_SwapVertexV(r) for r in p.rules))
    section = _check(_same_report(plan, g, samples=300), "section")
    assert not section.passed
    assert section.witness.endswith("; vertex v)") or "; edge v " in section.witness


# --- what the sampled loops build and read -------------------------------------

def test_sampled_loops_build_no_endpoints_and_read_each_answer_once(monkeypatch):
    points = []
    loops = []
    checked = []
    point, step_keys, end_keys = MultiGraph.point, graphs._step_keys, PLPath._end_keys

    def counting_point(self, edge_id, t):
        points.append(edge_id)
        return point(self, edge_id, t)

    def counting_step_keys(edge_by_id, steps, multi):
        loops.append(steps)
        return step_keys(edge_by_id, steps, multi)

    def counting_end_keys(self, partner=None, same_middle=None):
        checked.append((self, partner))
        return end_keys(self, partner, same_middle)

    monkeypatch.setattr(MultiGraph, "point", counting_point)
    monkeypatch.setattr(graphs, "_step_keys", counting_step_keys)
    monkeypatch.setattr(PLPath, "_end_keys", counting_end_keys)
    rng = random.Random(500)
    g = random_connected_graph(rng, max_vertices=60, max_edges=80)
    while len(g.edges) - len(g.vertices) < 2:
        g = random_connected_graph(rng, max_vertices=60, max_edges=80)
    report = verify_plan(plan_graph(g), g, samples=500)
    assert report.passed, report.checks
    assert points == []
    # answers to sampled queries, each checked once: rules build their
    # constant answers unchecked too
    sampled = [path for path, partner in checked if partner is None]
    nudged = [(path, partner) for path, partner in checked if partner is not None]
    shared = [path for path, partner in nudged
              if len(path.steps) > 2 and path.steps[1:-1] == partner.steps[1:-1]]
    assert len(sampled) == 500 and len(shared) > 100
    # one full step loop per sampled answer and per nudged answer that
    # does not keep its partner's middle steps; none for those that do
    whole = [steps for steps in loops if len(steps) > 2]
    for path in sampled:
        if len(path.steps) > 1:
            assert sum(steps is path.steps for steps in loops) == 1
    for path in shared:
        assert not any(steps is path.steps for steps in loops)
    assert len(whole) == sum(len(path.steps) > 2 for path, _ in checked) - len(shared)
