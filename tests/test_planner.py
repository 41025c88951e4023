import importlib
import os
import random
import sys
import time
from fractions import Fraction

import pytest

from wildcat.graphs import (CollapseHomotopy, GraphError, MultiGraph, Vertex,
                            EdgeInterior, PathStep, PLPath, betti1, build_graph,
                            deforest, spanning_forest, tc_graph)
from wildcat.planner import (PlanError, CycleCoords, plan_tree, plan_circle,
                             plan_graph, lift_plan, execute, cat_filtration,
                             product_cat_filtration,
                             corrupt_plan_swap_endpoints, verify_plan,
                             MotionPlan, CycleRotateRule, _fmt_pair, _nudger)
from wildcat import regions
from wildcat.regions import (Region, Box, Shift, CellUnion,
                             filtration_witnesses)
from wildcat.spacefile import ParseError, parse_spacefile

from path_reference import coord, point_at
from test_cli import _bench_module
from gen import (point_graph, path_graph, cycle_graph, loop_graph,
                 figure_eight, circle_with_hair, theta_graph, k4,
                 random_connected_graph, random_point, random_tree,
                 random_cycle_with_hairs, GRAPH_FIXTURES)


# --- plan_tree ----------------------------------------------------------------

def test_plan_tree_single_vertex():
    plan = plan_tree(point_graph())
    assert len(plan.strata) == 1
    j, path = execute(plan, Vertex("a"), Vertex("a"))
    assert j == 0 and path.length == 0


def test_plan_tree_path_query():
    plan = plan_tree(path_graph(3))
    j, path = execute(plan, Vertex("v0"), Vertex("v2"))
    assert j == 0
    assert [s.edge for s in path.steps] == ["e0", "e1"]


def test_plan_tree_diagonal_constant():
    plan = plan_tree(path_graph(3))
    p = EdgeInterior("e1", Fraction(2, 5))
    j, path = execute(plan, p, p)
    assert path.length == 0 and path.at(Fraction(1, 2)) == p


def test_plan_tree_rejects_cycles():
    with pytest.raises(PlanError):
        plan_tree(cycle_graph(3))


# --- plan_circle ---------------------------------------------------------------

def test_plan_circle_antipodal_rotation():
    plan = plan_circle(cycle_graph(4))
    j, path = execute(plan, Vertex("v0"), Vertex("v2"))
    assert j == 0
    assert path.length == 2
    assert path.at(Fraction(1, 2)) == Vertex("v1")  # quarter turn at half time


def test_plan_circle_diagonal_constant():
    plan = plan_circle(cycle_graph(4))
    p = EdgeInterior("e3", Fraction(1, 3))
    j, path = execute(plan, p, p)
    assert j == 1 and path.length == 0


def test_plan_circle_geodesic_quarter():
    plan = plan_circle(cycle_graph(4))
    j, path = execute(plan, Vertex("v0"), Vertex("v1"))
    assert j == 1
    assert path.length == 1
    assert path.at(Fraction(1, 2)) == EdgeInterior("e0", Fraction(1, 2))


def test_plan_circle_geodesic_takes_shorter_arc():
    plan = plan_circle(cycle_graph(4))
    j, path = execute(plan, Vertex("v0"), Vertex("v3"))
    assert path.length == 1
    assert path.steps[0].edge == "e3"  # backward, not the long way round


def test_plan_circle_on_loop():
    plan = plan_circle(loop_graph())
    x = EdgeInterior("l", Fraction(1, 4))
    y = EdgeInterior("l", Fraction(3, 4))
    j, path = execute(plan, x, y)
    assert j == 0 and path.length == Fraction(1, 2)
    assert path.at(0) == x and path.at(1) == y


def test_plan_circle_rejects_non_cycles():
    with pytest.raises(PlanError):
        plan_circle(path_graph(3))
    with pytest.raises(PlanError):
        plan_circle(figure_eight())


def test_circle_plan_lengths_and_midpoints_exact():
    # the rotate rule moves forward half the perimeter (midpoint a quarter
    # turn along); the geodesic rule's length is min(d, L - d), exactly
    rng = random.Random(61)
    parallel = build_graph(["a", "b"], [("e0", "a", "b"), ("e1", "a", "b")])
    for g in (loop_graph(), parallel, cycle_graph(3), cycle_graph(5)):
        plan = plan_graph(g)
        cyc = plan.rules[0].cycle
        L = cyc.length
        for _ in range(60):
            x, y = random_point(rng, g), random_point(rng, g)
            j, path = execute(plan, x, y)
            d = (coord(cyc, y) - coord(cyc, x)) % L
            if j == 0:
                assert d == L / 2
                assert path.length == L / 2
                assert path.at(Fraction(1, 2)) == point_at(cyc, coord(cyc, x) + L / 4)
            else:
                assert path.length == min(d, L - d)


# --- plan_graph ----------------------------------------------------------------

def test_plan_graph_strata_counts():
    assert len(plan_graph(path_graph(4)).strata) == 1
    assert len(plan_graph(circle_with_hair()).strata) == 2
    assert len(plan_graph(figure_eight()).strata) == 3
    assert len(plan_graph(k4()).strata) == 3


def test_plan_graph_hair_routes_through_slides():
    g = circle_with_hair()
    plan = plan_graph(g)
    x = Vertex("tip")
    y = EdgeInterior("h0", Fraction(1, 2))
    j, path = execute(plan, x, y)
    assert j == 1
    assert path.at(0) == x and path.at(1) == y
    # slides via the retraction to vertex a and back up the hair
    assert path.length == Fraction(3, 2)


def test_plan_graph_figure_eight_double_evacuation():
    plan = plan_graph(figure_eight())
    x = EdgeInterior("l0", Fraction(1, 3))
    y = EdgeInterior("l1", Fraction(1, 2))
    j, path = execute(plan, x, y)
    assert j == 2
    assert path.at(0) == x and path.at(1) == y
    assert path.length == Fraction(1, 3) + Fraction(1, 2)


def test_plan_graph_single_coordinate_off_tree():
    plan = plan_graph(figure_eight())
    x = EdgeInterior("l0", Fraction(1, 3))
    j, path = execute(plan, x, Vertex("a"))
    assert j == 1
    assert path.at(1) == Vertex("a")


def test_plan_graph_builds_no_graph_besides_its_input(monkeypatch):
    # the product plan routes along its spanning tree on g itself: no graph
    # is built, by either constructor, and the one union-find runs on g
    bench_gen = _bench_module("gen")
    built, components = [], []
    init, trusted, find = MultiGraph.__init__, MultiGraph._trusted.__func__, \
        MultiGraph._components

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    def counting_trusted(cls, *args):
        built.append(cls)
        return trusted(cls, *args)

    def counting_components(self):
        components.append(self)
        find(self)

    for vs, es in (bench_gen.general_graph(random.Random(3), 400, 600),
                   bench_gen.tree_graph(random.Random(3), 300)):
        g = build_graph(vs, es)
        monkeypatch.setattr(MultiGraph, "__init__", counting_init)
        monkeypatch.setattr(MultiGraph, "_trusted", classmethod(counting_trusted))
        monkeypatch.setattr(MultiGraph, "_components", counting_components)
        plan = plan_graph(g)
        monkeypatch.undo()
        assert len(plan.strata) == (3 if len(es) == 600 else 1)
        assert built == []
        assert len(components) == 1 and components.pop() is g


def test_plan_graph_exact_endpoints_random():
    rng = random.Random(29)
    for _ in range(40):
        g = random_connected_graph(rng)
        plan = plan_graph(g)
        assert len(plan.strata) == tc_graph(g) + 1
        for _ in range(10):
            x, y = random_point(rng, g), random_point(rng, g)
            j, path = execute(plan, x, y)
            assert path.at(0) == x and path.at(1) == y


def test_stratum_assignment_matches_independent_predicate():
    # independent reading of the strata: count off-tree coordinates for
    # multi-cycle graphs, antipodality for single-cycle graphs
    from wildcat.graphs import EdgeInterior as EI
    rng = random.Random(97)
    for _ in range(40):
        g = random_connected_graph(rng)
        b = betti1(g)
        plan = plan_graph(g)
        if b >= 2:
            tree = set(spanning_forest(g))
            for _ in range(25):
                x, y = random_point(rng, g), random_point(rng, g)
                off = sum(1 for p in (x, y)
                          if isinstance(p, EI) and p.edge not in tree)
                expected = 0 if off == 0 else (1 if off == 1 else 2)
                assert plan.stratum_index(x, y) == expected
        elif b == 1:
            core, h = deforest(g)
            cyc = CycleCoords(core)
            for _ in range(25):
                x, y = random_point(rng, g), random_point(rng, g)
                d = (coord(cyc, h.retract(y)) - coord(cyc, h.retract(x)))
                antipodal = d % cyc.length == cyc.length / 2
                assert plan.stratum_index(x, y) == (0 if antipodal else 1)


# --- lift_plan -----------------------------------------------------------------

def test_lift_identity_returns_plan():
    g = cycle_graph(3)
    plan = plan_circle(g)
    core, h = deforest(g)
    assert lift_plan(plan, h) is plan


def test_lift_core_queries_match_core_plan():
    g = circle_with_hair()
    core, h = deforest(g)
    core_plan = plan_circle(core)
    lifted = lift_plan(core_plan, h)
    x, y = Vertex("a"), Vertex("c")
    j1, p_core = execute(core_plan, x, y)
    j2, p_lift = execute(lifted, x, y)
    assert j1 == j2
    assert p_core.steps == p_lift.steps  # empty slides on the core


def test_lift_mismatched_core_rejected():
    g = circle_with_hair()
    _, h = deforest(g)
    with pytest.raises(PlanError):
        lift_plan(plan_circle(cycle_graph(4)), h)


# --- product filtration ----------------------------------------------------------

def test_product_of_trivial_filtrations():
    f = cat_filtration(path_graph(3))
    prod = product_cat_filtration(f, f)
    assert prod.length == 0
    assert len(prod.levels) == 1


def test_malformed_filtration_rejected():
    from wildcat.planner import GraphFiltration
    g = cycle_graph(3)
    open_only = CellUnion(g, edges=["e0"])
    with pytest.raises(PlanError, match="closed"):
        GraphFiltration(g, (open_only,))
    small = CellUnion(g, ["v0"])
    tiny = CellUnion(g, ["v1"])
    with pytest.raises(PlanError, match="nested"):
        GraphFiltration(g, (small, tiny))


def _one_edge_levels(*levels):
    """A filtration of the edge e from a to b, each level given by its
    ``CellUnion`` arguments."""
    from wildcat.planner import GraphFiltration
    g = build_graph(["a", "b"], [("e", "a", "b")])
    return GraphFiltration(g, tuple(CellUnion(g, *args) for args in levels))


def test_filtration_rejects_a_gap_between_probe_points():
    # lo, mid and hi of the level-0 arc all lie in level 1; (2/5, 9/20) does not
    with pytest.raises(PlanError, match="nested"):
        _one_edge_levels(((), (), [("e", 0, 1)]),
                         ((), (), [("e", 0, Fraction(2, 5)), ("e", Fraction(9, 20), 1)]))


def test_filtration_accepts_arcs_that_cover_the_cell():
    f = _one_edge_levels((["a", "b"], ["e"]),
                         ((), (), [("e", Fraction(9, 20), 1),
                                   ("e", 0, Fraction(2, 5)),
                                   ("e", Fraction(1, 4), Fraction(9, 20))]))
    assert f.level_index(EdgeInterior("e", Fraction(21, 50))) == 0


def test_product_circle_filtrations_three_levels():
    f = cat_filtration(cycle_graph(4))
    prod = product_cat_filtration(f, f)
    assert prod.length == 2  # witnesses cat(X x X) <= 2 cat(X)
    assert len(prod.levels) == 3
    assert all(region.is_closed() for region in prod.levels)


def test_product_difference_indices_are_sums():
    rng = random.Random(31)
    g = cycle_graph(4)
    f = cat_filtration(g)
    prod = product_cat_filtration(f, f)
    for _ in range(200):
        x, y = random_point(rng, g), random_point(rng, g)
        assert prod.level_index(x, y) == \
            prod.first.level_index(x) + prod.second.level_index(y)


def test_product_levels_nested_pointwise():
    rng = random.Random(37)
    for _ in range(10):
        g = random_connected_graph(rng)
        f = cat_filtration(g)
        prod = product_cat_filtration(f, f)
        assert prod.length == 2 * (len(f.levels) - 1)
        for _ in range(50):
            x, y = random_point(rng, g), random_point(rng, g)
            k = prod.level_index(x, y)
            assert all(prod.levels[m].contains(x, y)
                       for m in range(k, len(prod.levels)))


# --- verify_plan ------------------------------------------------------------------

def test_verify_k4_passes():
    g = k4()
    report = verify_plan(plan_graph(g), g, samples=2000, continuity_samples=400)
    assert report.passed, [c for c in report.checks if not c.passed]
    assert report.strata_count == 3 == report.expected_strata


def test_nudge_moves_below_the_default_grid():
    # delta/2 = 1/(2*10^7) is finer than the 2^-22 grid continuity steps on
    rng = random.Random(11)
    p = EdgeInterior("e0", Fraction(1, 3))
    shift = Fraction(1, 2 * 10 ** 7)
    moved = 0
    nudge = _nudger(rng, shift)
    for _ in range(1000):
        q = nudge(p)
        assert isinstance(q, EdgeInterior) and q.edge == "e0"
        assert abs(q.t - p.t) <= shift
        moved += q != p
    assert moved >= 990


def test_verify_reports_strata_count_line():
    g = path_graph(3)
    report = verify_plan(plan_graph(g), g, samples=200)
    names = [c.name for c in report.checks]
    assert "strata-count" in names
    assert report.strata_count == tc_graph(g) + 1 == 1


def test_verify_catches_corrupted_plan():
    g = k4()
    bad = corrupt_plan_swap_endpoints(plan_graph(g))
    report = verify_plan(bad, g, samples=500, continuity_samples=0)
    checks = {c.name: c for c in report.checks}
    assert not checks["section"].passed
    assert checks["section"].witness is not None
    # a reversed answer is a well-formed path from the wrong source
    assert checks["path-wellformed"].passed
    assert checks["path-wellformed"].witness is None


class _DropMiddleStep:
    """Broken rule: the answer loses one middle step but keeps its exact
    endpoints, built unchecked like every rule's answer."""

    def __init__(self, inner):
        self.inner = inner

    def path_for(self, x, y):
        path = self.inner.path_for(x, y)
        steps = path.steps
        if len(steps) < 3:
            return path
        mid = len(steps) // 2
        return PLPath._trusted(path.graph, steps[:mid] + steps[mid + 1:], path.source)

    def piece_id(self, x, y):
        return self.inner.piece_id(x, y)


def _drop_middle_steps(plan):
    return MotionPlan(plan.graph, plan.strata, tuple(_DropMiddleStep(r) for r in plan.rules))


def test_path_wellformed_fails_when_a_step_is_dropped():
    for g in (cycle_graph(8), k4(), random_cycle_with_hairs(random.Random(3), 8, 20)):
        report = verify_plan(_drop_middle_steps(plan_graph(g)), g, samples=300)
        checks = {c.name: c for c in report.checks}
        wellformed = checks["path-wellformed"]
        assert not wellformed.passed and not report.passed
        assert wellformed.witness.startswith("(") and "discontinuous" in wellformed.detail
        # the broken answers keep exact endpoints: only this check sees them
        assert checks["section"].passed
        intact = verify_plan(plan_graph(g), g, samples=300)
        assert next(c for c in intact.checks if c.name == "path-wellformed").passed


def test_execute_rejects_a_malformed_answer():
    g = cycle_graph(8)
    x, y = Vertex("v0"), Vertex("v4")
    plan = _drop_middle_steps(plan_graph(g))
    j = plan.stratum_index(x, y)
    broken = plan.rules[j].path_for(x, y)
    assert len(broken.steps) == 3
    assert broken.endpoint0 == x and broken.endpoint1 == y
    with pytest.raises(GraphError, match="discontinuous"):
        execute(plan, x, y)
    assert len(execute(plan_graph(g), x, y)[1].steps) == 4


def _lifted_step_counts(monkeypatch):
    """A long query on a cycle with hairs, repeated with nearby points, and
    the steps built for it, counted at both ``PathStep`` constructors
    (public and trusted): ``(steps built by a new plan, its answer's step
    count, steps built by the plan that answered the first query, whether
    both answers are equal)``."""
    rng = random.Random(4160)
    g = random_cycle_with_hairs(rng, 160, 1440)
    hairs = [e.id for e in g.edges if e.id.startswith("h")]
    plan = plan_graph(g)
    slide = deforest(g)[1].slide
    # a long answer: two hair points, each sliding over at least two whole
    # hair edges, their answer crossing many cycle edges
    x, y, path = None, None, None
    while path is None or len(path.steps) < 60 \
            or min(len(slide(x).steps), len(slide(y).steps)) < 3:
        x = EdgeInterior(rng.choice(hairs), Fraction(1, 3))
        y = EdgeInterior(rng.choice(hairs), Fraction(2, 3))
        path = execute(plan, x, y)[1]
    x2 = EdgeInterior(x.edge, Fraction(3, 7))
    y2 = EdgeInterior(y.edge, Fraction(5, 7))
    built = [0]
    checked, trusted = PathStep.__post_init__, PathStep._trusted

    def counting_checked(step):
        built[0] += 1
        checked(step)

    def counting_trusted(cls, edge, a, b):
        built[0] += 1
        return trusted(edge, a, b)

    monkeypatch.setattr(PathStep, "__post_init__", counting_checked)
    monkeypatch.setattr(PathStep, "_trusted", classmethod(counting_trusted))
    fresh = execute(plan_graph(g), x2, y2)[1]
    first = built[0]
    built[0] = 0
    again = execute(plan, x2, y2)[1]
    return first, len(fresh.steps), built[0], again.steps == fresh.steps


def test_repeated_lifted_queries_share_whole_edge_steps(monkeypatch):
    first, n_steps, again, same = _lifted_step_counts(monkeypatch)
    assert first >= n_steps >= 60         # a new plan makes every step
    assert again <= 4                     # only its partial end steps
    assert same


def test_step_count_guard_catches_slides_built_fresh(monkeypatch):
    # a slide that builds its whole-edge steps anew on every call
    walk = CollapseHomotopy._walk

    def fresh_walk(self, p, back):
        self._whole = {}
        return walk(self, p, back)

    monkeypatch.setattr(CollapseHomotopy, "_walk", fresh_walk)
    first, n_steps, again, same = _lifted_step_counts(monkeypatch)
    assert first >= n_steps and same
    assert again > 4


def _cycle_whole_steps(monkeypatch):
    """Whole-edge steps built by two rounds of the same ``plan_circle``
    answers on one plan, rotate and geodesic, from vertices and from edge
    points, in either direction: ``(built in round one, built in round
    two, whether the rounds' answers are equal)``."""
    rng = random.Random(4161)
    g = cycle_graph(40)
    plan = plan_circle(g)
    antipodes = [(Vertex(f"v{i}"), Vertex(f"v{(i + 20) % 40}")) for i in range(40)]
    queries = antipodes + [(random_point(rng, g), random_point(rng, g)) for _ in range(200)]
    built = [0]
    trusted = PathStep._trusted

    def counting_trusted(cls, edge, a, b):
        built[0] += a != b and {a, b} == {0, 1}
        return trusted(edge, a, b)

    monkeypatch.setattr(PathStep, "_trusted", classmethod(counting_trusted))
    counts, answers = [], []
    for _ in range(2):
        built[0] = 0
        answers.append([(j, path.steps) for j, path in
                        (execute(plan, x, y) for x, y in queries)])
        counts.append(built[0])
    # both rules answer
    assert {j for j, _ in answers[0]} == {0, 1}
    return counts[0], counts[1], answers[0] == answers[1]


def test_repeated_cycle_answers_make_no_whole_step(monkeypatch):
    first, again, same = _cycle_whole_steps(monkeypatch)
    assert first == 2 * 40                # one table per direction
    assert again == 0
    assert same


def test_cycle_step_guard_catches_tables_built_fresh(monkeypatch):
    # a walk that builds its step tables anew on every call
    walk = CycleCoords.walk

    def fresh_walk(self, x, y, forward):
        self._whole = [None, None]
        return walk(self, x, y, forward)

    monkeypatch.setattr(CycleCoords, "walk", fresh_walk)
    first, again, same = _cycle_whole_steps(monkeypatch)
    assert same
    assert again > 0


def _benchmark_patch_targets():
    """The (owner, attribute) pairs the benchmark's traced runs patch, each
    checked to exist, from ``bench/workloads.layer_patches`` with a tracer
    that only records them."""
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
    names = ("gen", "oracles", "spans", "workloads")
    saved = {n: sys.modules.pop(n) for n in names if n in sys.modules}
    sys.path.insert(0, bench)
    patched = []
    try:
        workloads = importlib.import_module("workloads")

        class Tracer:
            def patch(self, owner, attr, name, count=None):
                assert hasattr(owner, attr), (owner, attr)
                patched.append((owner, attr))

        workloads.layer_patches(Tracer())
    finally:
        sys.path.remove(bench)
        for n in names:
            sys.modules.pop(n, None)
        sys.modules.update(saved)
    return patched


def test_benchmark_patch_targets_exist():
    # the benchmark's traced runs patch these names; a renamed method fails here
    patched = [attr for _, attr in _benchmark_patch_targets()]
    for attr in ("route_steps", "slide", "path_for", "stratum_index", "deforest",
                 "vertex_distances"):
        assert attr in patched


def test_verify_hair_and_theta():
    for g in (circle_with_hair(), theta_graph()):
        report = verify_plan(plan_graph(g), g, samples=1500, continuity_samples=300)
        assert report.passed, [c for c in report.checks if not c.passed]


def test_verify_is_deterministic():
    g = theta_graph()
    r1 = verify_plan(plan_graph(g), g, samples=300, seed=5)
    r2 = verify_plan(plan_graph(g), g, samples=300, seed=5)
    assert r1 == r2


def test_continuity_invariant_ten_thousand_samples():
    # documented default tolerances, full 10^4 continuity comparisons
    g = k4()
    report = verify_plan(plan_graph(g), g, samples=10_000)
    continuity = next(c for c in report.checks if c.name == "continuity")
    assert continuity.passed, continuity
    assert report.passed


def test_continuity_invariant_lifted_plan():
    g = circle_with_hair()
    report = verify_plan(plan_graph(g), g, samples=10_000)
    assert report.passed, [c for c in report.checks if not c.passed]


# --- coverage-cells / nesting-cells --------------------------------------------------

def _cell_checks(plan, g):
    report = verify_plan(plan, g, samples=0)
    checks = {c.name: c for c in report.checks}
    return checks["coverage-cells"], checks["nesting-cells"]


def _drop_top(plan):
    return MotionPlan(plan.graph, plan.strata[:-1], plan.rules[:-1])


def _swap_first_two(plan):
    return MotionPlan(plan.graph, plan.strata[1::-1] + plan.strata[2:],
                      plan.rules[1::-1] + plan.rules[2:])


def test_coverage_cells_fails_without_top_stratum():
    g = k4()
    cover, nest = _cell_checks(_drop_top(plan_graph(g)), g)
    assert not cover.passed
    assert cover.witness == "(edge e3 1/2; edge e3 1/2)"
    assert nest.passed and nest.witness is None


def test_nesting_cells_fails_with_swapped_strata():
    g = k4()
    cover, nest = _cell_checks(_swap_first_two(plan_graph(g)), g)
    assert cover.passed and cover.witness is None
    assert not nest.passed
    assert nest.witness == "(vertex a; edge e3 1/2)"


def _cell_probes(g):
    probes = [Vertex(v) for v in g.vertices]
    for e in g.edges:
        probes.extend(EdgeInterior(e.id, Fraction(k, 4)) for k in (1, 2, 3))
    return probes


def _all_pairs_cell_witnesses(plan, g):
    """Reference: first coverage and nesting witnesses over all probe pairs."""
    probes = _cell_probes(g)
    cover = nest = None
    for x in probes:
        for y in probes:
            member = [f.contains(x, y) for f in plan.strata]
            if not member[-1]:
                cover = cover or _fmt_pair(x, y)
                continue
            first = member.index(True)
            if not all(member[first:]):
                nest = nest or _fmt_pair(x, y)
    return cover, nest


def _differential_graphs():
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
    rng = random.Random(2026)
    for i in range(12):
        yield f"general{i}", random_connected_graph(rng)
        yield f"hairy{i}", random_cycle_with_hairs(rng, rng.randint(1, 6),
                                                   rng.randint(1, 6))
        yield f"tree{i}", random_tree(rng, rng.randint(1, 12))


def _check_cells_against_reference(graphs):
    for name, g in graphs:
        plan = plan_graph(g)
        variants = [("intact", plan)]
        if len(plan.strata) > 1:
            variants += [("drop-top", _drop_top(plan)),
                         ("swap-01", _swap_first_two(plan))]
        for label, variant in variants:
            cover, nest = _cell_checks(variant, g)
            expected = _all_pairs_cell_witnesses(variant, g)
            assert (cover.passed, nest.passed) == \
                tuple(w is None for w in expected), (name, label)
            assert (expected == (None, None)) == (label == "intact"), (name, label)
            wc, wn = filtration_witnesses(variant.strata, g)
            assert (cover.witness, nest.witness) == \
                (wc and _fmt_pair(*wc), wn and _fmt_pair(*wn)), (name, label)
            if wc is not None:
                assert not variant.strata[-1].contains(*wc), (name, label)
            if wn is not None:
                member = [f.contains(*wn) for f in variant.strata]
                assert member[-1] and not all(member[member.index(True):]), \
                    (name, label)


def test_cell_checks_match_all_pairs_reference():
    # intact plans pass; both broken variants fail on every multi-stratum plan,
    # as the probe reference says, each at a pair that really fails that way
    _check_cells_against_reference(_differential_graphs())


def test_cell_reference_rejects_a_wrong_witness(monkeypatch):
    # negative control: a witness that does not fail must fail the test
    monkeypatch.setattr(regions._Filtration, "_off_diagonal",
                        lambda self, a, b, v: (self.rep[0], self.rep[0]))
    with pytest.raises(AssertionError):
        _check_cells_against_reference(_differential_graphs())


# The probe loop above passes the next two plans: each fails only between
# probes, where the exact check finds it.

def test_gap_between_probes_fails_coverage():
    g = path_graph(2)
    gappy = CellUnion(g, arcs=[("e0", 0, Fraction(3, 10)), ("e0", Fraction(2, 5), 1)])
    plan = MotionPlan(g, (Region(Box(gappy, gappy)),), plan_tree(g).rules)
    assert _all_pairs_cell_witnesses(plan, g) == (None, None)
    cover, nest = _cell_checks(plan, g)
    assert not cover.passed
    assert cover.witness == "(vertex v0; edge e0 7/20)"
    assert nest.passed


def test_shift_between_probe_offsets_fails_nesting():
    # a stratum (x, x + 1/8) below the anti-diagonal, which does not hold it;
    # probe coordinates are multiples of 1/4, so no probe pair is 1/8 apart
    for g, witness in ((cycle_graph(4), "(vertex v0; edge e0 1/8)"),
                       (circle_with_hair(), "(vertex a; edge c0 1/8)")):
        core, h = deforest(g)
        cyc = CycleCoords(core)
        eighth = lift_plan(MotionPlan(core, (Region(Shift(cyc, Fraction(1, 8))),),
                                      (CycleRotateRule(core, cyc),)), h)
        plan = plan_graph(g)
        broken = MotionPlan(g, eighth.strata + plan.strata, eighth.rules + plan.rules)
        assert _all_pairs_cell_witnesses(broken, g) == (None, None)
        cover, nest = _cell_checks(broken, g)
        assert cover.passed
        assert not nest.passed
        assert nest.witness == witness


def test_cell_checks_scale_to_long_cycles():
    g = cycle_graph(400)
    plan = plan_graph(g)
    start = time.perf_counter()
    report = verify_plan(plan, g, samples=0)
    assert time.perf_counter() - start < 1
    assert report.passed
