"""The whole report of ``verify_plan`` against a test-only copy of the
verifier that checked every answer in full, compared endpoint objects and
rechecked coverage and nesting on its sampled queries
(``verify_reference``), that recheck as a differential test of the exact
decision, negative controls for the two ways the verifier reads less of
an answer (end keys from the path check, and only the ends of a nudged
answer that keeps its partner's middle steps), a guard on what its
sampled loops build and read, and a plan whose nudged query lies outside
every stratum, which the reference fails on."""

import dataclasses
import os
import random
from fractions import Fraction

import pytest

from wildcat import graphs, planner, regions
from wildcat.graphs import (EdgeInterior, MultiGraph, PathStep, PLPath, Vertex,
                            betti1, build_graph, deforest, spanning_forest)
from wildcat.planner import (CycleCoords, CycleRotateRule, MotionPlan,
                             corrupt_plan_swap_endpoints, lift_plan, plan_graph,
                             verify_plan)
from wildcat.regions import Box, CellUnion, Region, Shift, whole_graph_cells
from wildcat.spacefile import ParseError, parse_spacefile

import verify_reference as ref
from gen import k4, random_connected_graph, random_cycle_with_hairs, random_tree
from test_cli import _bench_module
from test_continuity import _perturbed, doubled_path, parallel_plan, whisker_plan
from test_lift import _mutant
from test_planner import _drop_top, _swap_first_two

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


# what the two cell checks say when they pass: both are decided exactly
_EXACT = {"coverage-cells": "every pair of G x G in the top stratum, decided exactly",
          "nesting-cells": "stratum membership monotone on all of G x G, decided exactly"}


def _as_today(report):
    """A reference report as the verifier gives it: without the sampled
    ``nesting-samples`` recheck, and with the two passing cell checks
    worded as decided exactly."""
    checks = tuple(dataclasses.replace(c, detail=_EXACT[c.name])
                   if c.passed and c.name in _EXACT else c
                   for c in report.checks if c.name != "nesting-samples")
    return dataclasses.replace(report, checks=checks)


def _same_report(plan, g, **kw):
    report = verify_plan(plan, g, **kw)
    assert report == _as_today(ref.verify(plan, g, **kw))
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


# --- the sampled coverage and nesting recheck ----------------------------------

def _shift_below(g):
    """The plan of ``g``, a graph with one cycle, under a stratum (x, x + 1/8)
    that the anti-diagonal stratum above it does not hold; no two sampled
    points are likely to lie exactly 1/8 apart round the cycle."""
    core, h = deforest(g)
    cyc = CycleCoords(core)
    eighth = lift_plan(MotionPlan(core, (Region(Shift(cyc, Fraction(1, 8))),),
                                  (CycleRotateRule(core, cyc),)), h)
    plan = plan_graph(g)
    return MotionPlan(g, eighth.strata + plan.strata, eighth.rules + plan.rules)


def _filtration_corpus():
    """Every graph fixture and small shapes of the benchmark's generators,
    each with its plan intact, without its top stratum, with its first two
    strata swapped and, on one cycle, under a shifted diagonal."""
    bench_gen = _bench_module("gen")
    graphs_ = list(_fixture_graphs())
    rng = random.Random(26)
    for _ in range(2):
        for vs, es in (bench_gen.general_graph(rng, 8, 12), bench_gen.lifted_graph(rng, 5, 5),
                       bench_gen.tree_graph(rng, 8)):
            graphs_.append(build_graph(vs, es))
    for g in graphs_:
        plan = plan_graph(g)
        yield g, plan
        if len(plan.strata) > 1:
            yield g, _drop_top(plan)
            yield g, _swap_first_two(plan)
        if betti1(g) == 1:
            yield g, _shift_below(g)


def _cells_fail_wherever_samples_fail(corpus):
    """The number of plans whose sampled recheck fails; on each of them
    ``coverage-cells`` or ``nesting-cells`` fails too, and every report
    equals the reference's but for the recheck."""
    failing = 0
    for g, plan in corpus:
        expected = ref.verify(plan, g, samples=300)
        report = verify_plan(plan, g, samples=300)
        assert report == _as_today(expected)
        if not _check(expected, "nesting-samples").passed:
            failing += 1
            assert not (_check(report, "coverage-cells").passed
                        and _check(report, "nesting-cells").passed), g.vertices
    return failing


def test_cell_checks_fail_wherever_sampled_nesting_fails():
    # the corpus reaches failing samples, so the test cannot pass vacuously
    assert _cells_fail_wherever_samples_fail(_filtration_corpus()) >= 10


def test_sampled_nesting_catches_a_decision_that_passes_non_nested_strata(monkeypatch):
    # negative control: an exact decision that never reports a nesting failure
    verdict = regions._Filtration.verdict

    def no_nest(self, mask):
        found = verdict(self, mask)
        return None if found == regions._NEST else found

    monkeypatch.setattr(regions._Filtration, "verdict", no_nest)
    with pytest.raises(AssertionError):
        _cells_fail_wherever_samples_fail(_filtration_corpus())


def test_a_nudged_query_outside_every_stratum_is_skipped():
    # without its top stratum the plan of c3 holds one sampled query, whose
    # nudged query lies in no stratum: a change of stratum, so skipped, and
    # coverage-cells reports the gap (the reference raises PlanError here)
    with open(os.path.join(FIXDIR, "c3.space"), encoding="ascii") as fh:
        g = parse_spacefile(fh.read()).main_graph()
    report = verify_plan(_drop_top(plan_graph(g)), g, samples=1000, seed=1)
    assert not _check(report, "coverage-cells").passed
    assert _check(report, "continuity").detail.startswith(
        "0 perturbed pairs within delta=1/1000 stayed within eps=1/20 (1 skipped")


def _whole_under_tree(g):
    """The plan of ``g`` with its strata swapped for G x G under T x T, T the
    closed edges of the spanning forest: the evacuate rule on G x G, the
    tree rule on T x T.  Every pair off T x T lies in the lower stratum
    alone."""
    plan = plan_graph(g)
    whole = whole_graph_cells(g)
    tree = CellUnion(g, g.vertices, spanning_forest(g))
    return MotionPlan(g, (Region(Box(whole, whole)), Region(Box(tree, tree))),
                      (plan.rules[-1], plan.rules[0]))


def test_the_top_stratum_is_rechecked_until_coverage_passes(monkeypatch):
    # once coverage-cells passes, the top stratum holds every pair of G x G,
    # and the section loop no longer tests it for pairs of a lower stratum;
    # with two strata swapped nesting fails while coverage passes, and the
    # report is still the reference's
    g = k4()
    swapped = _same_report(_swap_first_two(plan_graph(g)), g, samples=300)
    assert _check(swapped, "coverage-cells").passed
    assert not _check(swapped, "nesting-cells").passed
    # under T x T a pair of the lower stratum can miss the top one, which
    # the exact decision counts as a coverage failure, not a nesting one:
    # the recheck stays, and the report is the reference's
    rng = random.Random(39)
    cases = [(g, _whole_under_tree(g))
             for g in (k4(), random_connected_graph(rng, max_vertices=12, max_edges=20))]
    reports = []
    for g, plan in cases:
        report = _same_report(plan, g, samples=300)
        assert not _check(report, "coverage-cells").passed
        assert _check(report, "nesting-cells").passed
        reports.append(report)
    # negative control: a verifier that never rechecks answers those pairs
    _mutant(monkeypatch, planner, "verify_plan", (
        "recheck = p.strata[top] if cover_witness is not None else None",
        "recheck = None"))
    for (g, plan), report in zip(cases, reports):
        assert planner.verify_plan(plan, g, samples=300) != report


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
