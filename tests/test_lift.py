"""Differential tests of deforestation and lifted plans against the
ordered-scan reference in ``graph_reference``.

The stack-driven ``deforest`` must reach the same core, its homotopy's
``collapses`` must replay the same edges in the same order, and the
pointer-walk ``slide`` and ``retract`` must take the same steps and reach the
same point, as the reference that re-sorts the leaves before every collapse
and scans every collapse on every slide.  ``deforest`` builds its homotopy
and core unchecked, from the tables its peel fills; both must equal what the
checking constructors build from the same records, and four source mutants
(a flipped direction bit in the peel, a tree peel that holds no vertex back,
a replay that takes the largest free vertex first, a retraction one hop
short) are the negative controls.  The lifted plan's answers are compared
with answers assembled from the reference slides and the circle plan on the
core, and a cost guard counts what ``wildcat plan``'s path builds.
"""

import inspect
import random
import textwrap

import pytest

import graph_reference as ref
import path_reference
from gen import (GRAPH_FIXTURES, random_connected_graph, random_cycle_with_hairs,
                 random_point, random_tree)
from wildcat import cli, graphs, planner
from wildcat.graphs import (Collapse, CollapseHomotopy, EdgeInterior, MultiGraph,
                            PLPath, Vertex, build_graph)
from wildcat.planner import execute, plan_circle, plan_graph


def _sample_points(rng, g, n_edge_points):
    """Every vertex, and ``n_edge_points`` random points inside edges."""
    pts = [Vertex(v) for v in g.vertices]
    while g.edges and n_edge_points:
        p = random_point(rng, g)
        if isinstance(p, EdgeInterior):
            pts.append(p)
            n_edge_points -= 1
    return pts


def _assert_deforest_matches(rng, g, n_edge_points=20):
    core, h = graphs.deforest(g)
    ref_core, ref_collapses = ref.deforest_collapses(g)
    assert core == ref_core
    assert h.collapses == ref_collapses
    # the unchecked tables equal those the checking constructors build
    checked = CollapseHomotopy(g, core, h.collapses)
    assert h._down == checked._down
    assert h._kept_of == checked._kept_of
    built = MultiGraph(core.vertices, core.edges)
    assert core.n_components == built.n_components == 1
    assert core.component_of == built.component_of
    for p in _sample_points(rng, g, n_edge_points):
        got = h.slide(p)
        want = ref.slide(g, ref_collapses, p)
        assert got.steps == want.steps == checked.slide(p).steps
        assert got.source == want.source == p
        assert h.retract(p) == checked.retract(p) == want.endpoint1


def _reference_answer(g, circle, collapses, x, y):
    sx = ref.slide(g, collapses, x)
    sy = ref.slide(g, collapses, y)
    rx, ry = sx.endpoint1, sy.endpoint1
    j = circle.stratum_index(rx, ry)
    core = circle.rules[j].path_for(rx, ry)
    mid = PLPath(g, core.steps, source=core.source)
    return j, path_reference.concat(g, x, (sx, mid, path_reference.reverse(sy)))


def _assert_lifted_answers_match(rng, g, n_queries):
    core, h = graphs.deforest(g)
    plan = plan_graph(g)
    circle = plan_circle(core)
    for _ in range(n_queries):
        x, y = random_point(rng, g), random_point(rng, g)
        j, path = execute(plan, x, y)
        want_j, want = _reference_answer(g, circle, h.collapses, x, y)
        assert j == want_j
        assert path.steps == want.steps
        assert path.source == want.source == x
        assert path.endpoint1 == y


# trees, loops, parallel edges, a cycle with parallel hairs, and graphs with
# no free edge, whose homotopy is the identity
_SHAPES = dict(
    {name: make() for name, make in GRAPH_FIXTURES.items()},
    loop=build_graph(["a"], [("l", "a", "a")]),
    loop_with_hairs=build_graph(
        ["a", "b", "c", "d"],
        [("l", "a", "a"), ("h0", "b", "a"), ("h1", "b", "c"), ("h2", "d", "b")]),
    parallel_with_hairs=build_graph(
        ["x", "a", "b", "t"],
        [("p1", "a", "b"), ("p0", "b", "a"), ("h", "t", "b"), ("k", "x", "t"),
         ("m", "a", "t")]),
    parallel_pair=build_graph(["a", "b"], [("e1", "a", "b"), ("e0", "b", "a")]),
    star=build_graph(["c", "z", "y", "x"],
                     [("e2", "c", "x"), ("e1", "y", "c"), ("e0", "c", "z")]))


@pytest.mark.parametrize("name", sorted(_SHAPES))
def test_deforest_matches_reference_small_shapes(name):
    g = _SHAPES[name]
    _assert_deforest_matches(random.Random(5100), g)
    if name in ("figure_eight", "theta", "k4", "c3", "loop", "parallel_pair"):
        assert graphs.deforest(g)[1].collapses == ()


def _mutant(monkeypatch, owner, name, *edits):
    """Replace ``owner.name`` by a copy of its source with each ``(old,
    new)`` edit made, run in a copy of its module's namespace."""
    fn = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(fn))
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = dict(fn.__globals__)
    exec(compile(source, f"<mutant of {name}>", "exec"), namespace)
    monkeypatch.setattr(owner, name, namespace[name])


def _hairy(rng):
    return random_cycle_with_hairs(rng, 3, 12)


def _tree(rng):
    return random_tree(rng, rng.randint(1, 40))


# mutant -> (the graphs it is run on, owner, name, *edits)
_HOMOTOPY_MUTANTS = {
    "flipped-direction-bit": (
        _hairy, graphs, "deforest",
        ("down[v] = (eid, forward, kept)", "down[v] = (eid, not forward, kept)")),
    # without its check that the image is a core vertex, so that only the
    # comparison with the reference can see the wrong image
    "retract-one-hop-short": (
        _hairy, CollapseHomotopy, "_image",
        ("while w in down:", "while w in down and down[w][2] in down:"),
        ("if w not in self.core.degree:", "if False:")),
    # still a valid collapse order, so only the reference order can see it
    "collapses-largest-free-first": (
        _hairy, graphs, "_collapse_order",
        ("v = heapq.heappop(free)", "v = max(free)\n        free.remove(v)")),
    # a tree then peels onto whichever vertex the stack leaves last
    "tree-peel-holds-nothing-back": (
        _tree, graphs, "deforest",
        ("degree[max(degree)] += 2", "pass")),
}


@pytest.mark.parametrize("mutant", sorted(_HOMOTOPY_MUTANTS))
def test_deforest_differential_catches_mutant(monkeypatch, mutant):
    make, *patch = _HOMOTOPY_MUTANTS[mutant]
    _mutant(monkeypatch, *patch)
    rng = random.Random(5108)
    with pytest.raises(AssertionError):
        for _ in range(50):
            _assert_deforest_matches(rng, make(rng))


def test_deforest_matches_reference_random_connected():
    rng = random.Random(5101)
    for _ in range(400):
        _assert_deforest_matches(rng, random_connected_graph(rng))


def test_deforest_matches_reference_random_trees():
    rng = random.Random(5102)
    for _ in range(200):
        _assert_deforest_matches(rng, random_tree(rng, rng.randint(1, 40)))


def test_deforest_matches_reference_cycles_with_hairs():
    rng = random.Random(5103)
    for _ in range(200):
        g = random_cycle_with_hairs(rng, rng.randint(1, 6), rng.randint(0, 30))
        _assert_deforest_matches(rng, g)


@pytest.mark.parametrize("cycle_len,n_hairs", [(40, 360), (160, 1440)])
def test_deforest_matches_reference_benchmark_sizes(cycle_len, n_hairs):
    rng = random.Random(5104 + n_hairs)
    g = random_cycle_with_hairs(rng, cycle_len, n_hairs)
    _assert_deforest_matches(rng, g, n_edge_points=200)


def test_lifted_answers_match_reference_random():
    rng = random.Random(5105)
    for _ in range(150):
        g = random_cycle_with_hairs(rng, rng.randint(1, 6), rng.randint(0, 20))
        _assert_lifted_answers_match(rng, g, 20)


def test_lifted_answers_match_reference_random_connected():
    rng = random.Random(5106)
    checked = 0
    while checked < 60:
        g = random_connected_graph(rng)
        if len(g.edges) - len(g.vertices) + 1 != 1:
            continue
        _assert_lifted_answers_match(rng, g, 20)
        checked += 1


@pytest.mark.parametrize("cycle_len,n_hairs", [(40, 360), (160, 1440)])
def test_lifted_answers_match_reference_benchmark_sizes(cycle_len, n_hairs):
    rng = random.Random(5107 + n_hairs)
    g = random_cycle_with_hairs(rng, cycle_len, n_hairs)
    _assert_lifted_answers_match(rng, g, 100)


# --- cost of ``wildcat plan`` -------------------------------------------------

def _plan_cost(monkeypatch):
    """``plan_graph`` and one ``execute`` on a 160-cycle with 1440 hairs, the
    benchmark's ``wildcat plan`` graph: the ``Collapse`` records, checked
    homotopies and checked graphs they build, and the homotopy's
    ``collapses`` read afterwards, with the reference collapses."""
    rng = random.Random(5109)
    g = random_cycle_with_hairs(rng, 160, 1440)
    x, y = random_point(rng, g), random_point(rng, g)
    counts = {"Collapse": 0, "CollapseHomotopy": 0, "MultiGraph": 0}
    for cls in (Collapse, CollapseHomotopy, MultiGraph):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__):
            counts[_name] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    plan = plan_graph(g)
    execute(plan, x, y)
    built = dict(counts)
    return built, plan.rules[0].homotopy.collapses, ref.deforest_collapses(g)[1]


def test_lifted_plan_builds_no_collapse_records_and_no_checked_tables(monkeypatch):
    built, collapses, want = _plan_cost(monkeypatch)
    assert built == {"Collapse": 0, "CollapseHomotopy": 0, "MultiGraph": 0}
    assert collapses == want and len(want) == 1440


def test_plan_cost_guard_catches_a_lift_that_reads_the_records(monkeypatch):
    lift_plan = planner.lift_plan

    def reading(p, h):
        h.collapses
        return lift_plan(p, h)

    monkeypatch.setattr(planner, "lift_plan", reading)
    built, collapses, want = _plan_cost(monkeypatch)
    assert built["Collapse"] == 1440
    assert collapses == want


def test_lifted_plan_runs_no_union_find_over_its_graph():
    # E = V: the plan reads connectivity from the peeled core, the cycle
    g = random_cycle_with_hairs(random.Random(5110), 160, 1440)
    plan_graph(g)
    assert g._component_of is None and g._n_components is None


# --- disconnected inputs keep their errors ------------------------------------

def _two_triangles():
    return build_graph(["a", "b", "c", "x", "y", "z"],
                       [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "a"),
                        ("f0", "x", "y"), ("f1", "y", "z"), ("f2", "z", "x")])


# E = V with two components (two triangles; a tree and a figure eight),
# E < V with a hair tip as the largest vertex (held back though it lies on
# no tree), and a forest of three trees
_DISCONNECTED = {
    "two_triangles": _two_triangles(),
    "tree_and_figure_eight": build_graph(
        ["a", "b", "c", "p", "q"],
        [("l0", "a", "a"), ("l1", "a", "a"), ("t0", "p", "b"), ("t1", "b", "c"),
         ("t2", "c", "q")]),
    "hairy_triangle_and_point": build_graph(
        ["a", "b", "c", "z", "m"],
        [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "a"), ("h", "a", "z")]),
    "three_trees": build_graph(["a", "b", "c", "d", "e"],
                               [("e0", "a", "b"), ("e1", "d", "c")]),
}


@pytest.mark.parametrize("name", sorted(_DISCONNECTED))
def test_disconnected_graph_errors(name):
    g = _DISCONNECTED[name]
    with pytest.raises(graphs.GraphError) as exc:
        graphs.deforest(g)
    assert str(exc.value) == (f"deforest requires a connected graph "
                              f"({g.n_components} components)")
    with pytest.raises(planner.PlanError) as exc:
        plan_graph(g)
    assert str(exc.value) == "plan_graph requires a connected graph"


def test_disconnected_one_cycle_per_component_plan_cli(tmp_path, capsys):
    g = _two_triangles()
    assert g.n_components == 2
    path = tmp_path / "two.space"
    path.write_text(
        "graph two\n" + "".join(f"vertex {v}\n" for v in g.vertices)
        + "".join(f"edge {e.id} {e.v0} {e.v1}\n" for e in g.edges)
        + "endgraph\nmain two\n")
    code = cli.main(["plan", str(path), "--from", "vertex a", "--to", "vertex x"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: plan_graph requires a connected graph\n"
