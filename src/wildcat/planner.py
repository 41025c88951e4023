"""Stratified motion plans on connected graphs, and their verification.

A motion plan is an ordered closed filtration of G x G together with one
computable path rule per filtration difference.  Plans built here always
have exactly tc_graph(G) + 1 strata.  A graph with one cycle gets the
rotate/geodesic pair on that cycle, lifted through deforestation when the
graph has hairs.  Every other graph gets the product plan of its category
filtration F: the strata are the levels H_k = union of F_i x F_j over
i + j = k (Farber's product filtration, so TC <= 2 cat), the tree rule on
H_0 and the evacuate rule on each later difference.  Rules build their
answers from shared whole-edge steps and unchecked: a cycle answer walks
integer slots of ``CycleCoords``, and a lifted answer joins the slide, core
and reverse-slide step lists into one path.  ``verify_plan`` checks
closedness, nesting, coverage, the exact section property, continuity
(bounded exactly where two answers share one walk, sampled exactly at 32
times otherwise) and the well-formedness of every answer path, reading
each answer once: the section compares the end keys the path check
returns, and a perturbed answer that keeps its partner's middle steps is
checked at its ends.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

# vertex_distances is not called here; the benchmark's tracer patches it by this name
from .graphs import (GraphError, MultiGraph, Vertex, EdgeInterior, GraphPoint,
                     PLPath, PathStep, CollapseHomotopy, TreeRouter, betti1,
                     spanning_forest, deforest, tc_graph, point_dist,
                     vertex_distances, _ONE, _ZERO, _constant_path, _point_key)
from .regions import (Region, Box, Shift, RetractPreimage, CellUnion,
                      whole_graph_cells, filtration_witnesses)

__all__ = [
    "PlanError",
    "CycleCoords",
    "TreeRule",
    "CycleRotateRule",
    "CycleGeodesicRule",
    "EdgeEvacuateRule",
    "LiftedRule",
    "MotionPlan",
    "plan_tree",
    "plan_circle",
    "plan_graph",
    "lift_plan",
    "execute",
    "GraphFiltration",
    "cat_filtration",
    "ProductFiltration",
    "product_cat_filtration",
    "corrupt_plan_swap_endpoints",
    "CheckResult",
    "VerifyReport",
    "verify_plan",
    "DEFAULT_DELTA",
    "DEFAULT_EPS",
    "TIME_SAMPLES",
]

DEFAULT_DELTA = Fraction(1, 1000)
DEFAULT_EPS = Fraction(1, 20)
TIME_SAMPLES = 32
# a sampled edge point's parameter is k / _SAMPLE_DENOM, 0 < k < _SAMPLE_DENOM
_SAMPLE_DENOM = 4096


class PlanError(ValueError):
    """Invalid plan construction or query."""


class CycleCoords:
    """Arclength coordinates on a graph that is a single cycle.

    The cycle is oriented deterministically: the walk starts at the smallest
    vertex id along its smallest incident edge id.  Points correspond to
    arclengths modulo the total length (= number of edges).  Slot k is the
    k-th edge of that walk, from the vertex at position k to the next; a
    point's slot and its arclength come out as integers (``int_coord``,
    ``gap``, ``int_point``), and ``walk`` builds the steps between two
    points from the slots, with no Fraction arithmetic.
    """

    __slots__ = ("graph", "length", "steps", "_edge_slot", "_vertex_at",
                 "_vertex_slot", "_whole")

    def __init__(self, g: MultiGraph):
        if g.n_components != 1 or betti1(g) != 1:
            raise PlanError("not a single cycle")
        if any(d != 2 for d in g.degree.values()):
            raise PlanError("not a single cycle (free or branching vertex)")
        start = min(g.vertices)
        steps = []
        used = set()
        vertex_at = {}
        incident = g.incident
        cur = start
        while len(used) < len(g.edges):
            vertex_at[len(steps)] = cur
            eid = min(e for e in incident[cur] if e not in used)
            e = g.edge_by_id[eid]
            forward = e.v0 == cur
            steps.append((e, forward))
            used.add(eid)
            cur = e.v1 if forward else e.v0
        if cur != start:
            raise PlanError("not a single cycle")
        self.graph = g
        self.length = Fraction(len(steps))
        self.steps = tuple(steps)
        self._edge_slot = {e.id: (i, fwd) for i, (e, fwd) in enumerate(steps)}
        self._vertex_at = vertex_at
        self._vertex_slot = {v: (i, 1) for i, v in vertex_at.items()}
        # the whole-edge step tables against and along the cycle
        self._whole = [None, None]

    def int_coord(self, p: GraphPoint):
        """Arclength of a point as integers ``(numerator, denominator)``, the
        denominator that of the point's edge parameter, or None if the point
        misses the cycle."""
        if isinstance(p, Vertex):
            return self._vertex_slot.get(p.v)
        slot = self._edge_slot.get(p.edge)
        if slot is None:
            return None
        i, fwd = slot
        a, b = p.t.numerator, p.t.denominator
        return i * b + (a if fwd else b - a), b

    def gap(self, x: GraphPoint, y: GraphPoint):
        """(c(y) - c(x)) mod n as integers ``(numerator, denominator)``, the
        denominator the product of the points' denominators, or None if a
        point misses the cycle."""
        cx = self.int_coord(x)
        cy = self.int_coord(y)
        if cx is None or cy is None:
            return None
        (nx, dx), (ny, dy) = cx, cy
        den = dx * dy
        return (ny * dx - nx * dy) % (len(self.steps) * den), den

    def int_point(self, num: int, den: int) -> GraphPoint:
        """The point at arclength num / den, taken modulo the length."""
        k, r = divmod(num % (len(self.steps) * den), den)
        if not r:
            return Vertex(self._vertex_at[k])
        e, fwd = self.steps[k]
        return EdgeInterior._trusted(e.id, Fraction(r if fwd else den - r, den))

    def walk(self, x: GraphPoint, y: GraphPoint, forward: bool):
        """Parametric steps from x to y along the cycle, in its direction
        when ``forward`` and against it otherwise; x != y, both on the cycle.

        Only the first and the last step can cover part of an edge: each
        runs between its point's own parameter and an edge end.  The
        whole-edge steps between them are one slice of the walk
        direction's table (``_whole_steps``).  The slots are integers and
        no Fraction is built.
        """
        n = len(self.steps)
        steps = []
        if isinstance(x, Vertex):
            p = self._vertex_slot[x.v][0]
        else:
            k, fwd = self._edge_slot[x.edge]
            # whether the walk runs along the edge from v0 to v1
            rising = fwd == forward
            if isinstance(y, EdgeInterior) and y.edge == x.edge \
                    and (y.t > x.t) == rising:
                return [PathStep._trusted(x.edge, x.t, y.t)]
            steps.append(PathStep._trusted(x.edge, x.t, _ONE if rising else _ZERO))
            p = k + 1 if forward else k
        # p is the vertex position the walk is at; q the one it must reach
        if isinstance(y, Vertex):
            q = self._vertex_slot[y.v][0]
            last = None
        else:
            m, fwd = self._edge_slot[y.edge]
            last = PathStep._trusted(y.edge, _ZERO if fwd == forward else _ONE, y.t)
            q = m if forward else m + 1
        table = self._whole[forward] or self._whole_steps(forward)
        # against the cycle, table slot i is cycle slot n - 1 - i, so the
        # walk leaving vertex position p starts at table slot -p mod n
        start = p % n if forward else -p % n
        steps += table[start:start + ((q - p) if forward else (p - q)) % n]
        if last is not None:
            steps.append(last)
        return steps

    def _whole_steps(self, forward: bool) -> list:
        """The steps across each whole cycle edge in a walk's order, along
        the cycle when ``forward`` and against it otherwise, from vertex
        position 0 and twice round, so that every walk takes its whole
        steps as one slice.  Made on first use and then shared."""
        ring = self.steps if forward else self.steps[::-1]
        table = [PathStep._trusted(e.id, _ZERO, _ONE) if fwd == forward
                 else PathStep._trusted(e.id, _ONE, _ZERO) for e, fwd in ring]
        table += table
        self._whole[forward] = table
        return table


class TreeRule:
    """Route through the reduced path of a forest: a product plan's H_0 rule."""

    def __init__(self, router: TreeRouter):
        self.router = router

    def path_for(self, x: GraphPoint, y: GraphPoint) -> PLPath:
        return self.router.route(x, y)

    def piece_id(self, x, y):
        return 0


class CycleRotateRule:
    """Rotate forward by half the cycle perimeter (anti-diagonal stratum)."""

    def __init__(self, g: MultiGraph, cycle: CycleCoords):
        self.graph = g
        self.cycle = cycle

    def path_for(self, x: GraphPoint, y: GraphPoint) -> PLPath:
        cycle = self.cycle
        c = cycle.int_coord(x)
        if c is None:
            raise PlanError("query point misses the cycle")
        num, den = c
        antipode = cycle.int_point(2 * num + len(cycle.steps) * den, 2 * den)
        return PLPath._trusted(self.graph, cycle.walk(x, antipode, True), x)

    def piece_id(self, x, y):
        return 0


class CycleGeodesicRule:
    """Follow the unique shorter arc between two non-antipodal cycle points."""

    def __init__(self, g: MultiGraph, cycle: CycleCoords):
        self.graph = g
        self.cycle = cycle

    def _arc(self, x, y):
        """``(num, den, fwd)``: the gap from x to y is num / den, and fwd
        whether it is under half the cycle."""
        gap = self.cycle.gap(x, y)
        if gap is None:
            raise PlanError("query point misses the cycle")
        num, den = gap
        return num, den, 2 * num < len(self.cycle.steps) * den

    def path_for(self, x: GraphPoint, y: GraphPoint) -> PLPath:
        num, _, fwd = self._arc(x, y)
        if num == 0:
            return _constant_path(self.graph, x)
        return PLPath._trusted(self.graph, self.cycle.walk(x, y, fwd), x)

    def piece_id(self, x, y):
        return "fwd" if self._arc(x, y)[2] else "bwd"


class EdgeEvacuateRule:
    """Slide off-tree coordinates to their designated endpoints, then route.

    The evacuation endpoint of a non-tree edge is the endpoint with the
    smaller vertex id (the unique endpoint for a loop); within each open
    edge the slide is affine, so the rule is continuous on every separated
    piece of its stratum difference.  Graph and tree edges are the router's.
    """

    def __init__(self, router: TreeRouter):
        self.router = router
        self.graph = router.graph
        self.tree_edges = router.tree_edges

    def _evacuate(self, p: GraphPoint):
        """(parameter of the evacuation endpoint on p's edge, that endpoint),
        or (None, p) for a point that stays."""
        if isinstance(p, EdgeInterior) and p.edge not in self.tree_edges:
            e = self.graph.edge_by_id[p.edge]
            u = min(e.v0, e.v1)
            return (_ZERO if u == e.v0 else _ONE), Vertex(u)
        return None, p

    def path_for(self, x: GraphPoint, y: GraphPoint) -> PLPath:
        ux, x2 = self._evacuate(x)
        uy, y2 = self._evacuate(y)
        steps = self.router.route_steps(x2, y2)
        if ux is not None:
            steps.insert(0, PathStep._trusted(x.edge, x.t, ux))
        if uy is not None:
            steps.append(PathStep._trusted(y.edge, uy, y.t))
        if not steps:
            return _constant_path(self.graph, x)
        return PLPath._trusted(self.graph, steps, x)

    def piece_id(self, x, y):
        cx = x.edge if isinstance(x, EdgeInterior) and x.edge not in self.tree_edges else "T"
        cy = y.edge if isinstance(y, EdgeInterior) and y.edge not in self.tree_edges else "T"
        return (cx, cy)


class LiftedRule:
    """Conjugate a core rule by the slide paths of a collapse homotopy."""

    def __init__(self, homotopy: CollapseHomotopy, inner):
        self.homotopy = homotopy
        self.inner = inner
        self.graph = homotopy.graph

    def path_for(self, x: GraphPoint, y: GraphPoint) -> PLPath:
        steps, rx = self.homotopy._walk(x, False)
        back, ry = self.homotopy._walk(y, True)
        # the core path lives on the core graph, whose edges are edges of
        # the whole graph; a constant one adds no step
        core = self.inner.path_for(rx, ry).steps
        if len(core) != 1 or core[0].a != core[0].b:
            steps += core
        steps += back
        if not steps:
            return _constant_path(self.graph, x)
        return PLPath._trusted(self.graph, steps, x)

    def piece_id(self, x, y):
        return self.inner.piece_id(self.homotopy.retract(x),
                                   self.homotopy.retract(y))


@dataclass(frozen=True)
class MotionPlan:
    """Ordered closed filtration of G x G with one path rule per difference."""

    graph: MultiGraph
    strata: tuple
    rules: tuple

    def __post_init__(self):
        if len(self.strata) != len(self.rules):
            raise PlanError("one rule per stratum difference is required")
        if not self.strata:
            raise PlanError("a plan needs at least one stratum")

    def stratum_index(self, x: GraphPoint, y: GraphPoint) -> int:
        for j, region in enumerate(self.strata):
            if region.contains(x, y):
                return j
        raise PlanError("pair not covered by the top stratum")


def plan_tree(t: MultiGraph) -> MotionPlan:
    """Single-stratum plan on a tree: ``plan_graph``'s product plan."""
    if t.n_components != 1:
        raise PlanError("plan_tree requires a connected graph")
    if betti1(t) != 0:
        raise PlanError("plan_tree requires a tree (input has a cycle)")
    return plan_graph(t)


def plan_circle(c: MultiGraph) -> MotionPlan:
    """Two-stratum plan on a cycle: rotate on the anti-diagonal, else the
    shorter arc."""
    cyc = CycleCoords(c)
    everything = whole_graph_cells(c)
    f0 = Region(Shift(cyc, cyc.length / 2))
    f1 = Region(Box(everything, everything))
    return MotionPlan(c, (f0, f1),
                      (CycleRotateRule(c, cyc), CycleGeodesicRule(c, cyc)))


def lift_plan(p: MotionPlan, h: CollapseHomotopy) -> MotionPlan:
    """Lift a plan on the core of a collapse homotopy to the whole graph.

    Strata become preimages under r x r; rules slide both query points to
    the core, run the core rule, and slide back.  The identity homotopy
    returns the plan unchanged.
    """
    if not h._kept_of and h.graph == p.graph:
        return p
    if h.core != p.graph:
        raise PlanError("homotopy core does not match the plan's graph")
    strata = tuple(Region(RetractPreimage(h, f)) for f in p.strata)
    rules = tuple(LiftedRule(h, r) for r in p.rules)
    return MotionPlan(h.graph, strata, rules)


def plan_graph(g: MultiGraph) -> MotionPlan:
    """Stratified plan with exactly tc_graph(g) + 1 strata.

    A graph with one cycle is deforested onto its cycle and the circle plan
    is lifted back.  Such a graph is sent to ``deforest`` when E = V, with
    no union-find over g: there b1 equals the number of components, so g
    has one cycle exactly when it is connected, and ``deforest`` decides
    that on its core.  Any other connected graph gets the product plan of
    F = ``cat_filtration(g)``: the strata are ``product_cat_filtration(F,
    F).levels`` (G x G for a tree; T x T, G x T union T x G, G x G for the
    spanning tree T = F_0 otherwise), ``TreeRule`` on H_0 and
    ``EdgeEvacuateRule`` on every later difference, both routing along
    T's edges on g by one ``TreeRouter(g, T's edges)``, which copies
    nothing and decides by counting T's edges that T is a forest.
    """
    if len(g.edges) == len(g.vertices):
        try:
            core, h = deforest(g)
        except GraphError:
            raise PlanError("plan_graph requires a connected graph") from None
        return lift_plan(plan_circle(core), h)
    if g.n_components != 1:
        raise PlanError("plan_graph requires a connected graph")
    f = cat_filtration(g)
    # F_0 is the vertices and the closed edges of the tree
    router = TreeRouter(g, f.levels[0]._edges)
    evac = EdgeEvacuateRule(router)
    strata = product_cat_filtration(f, f).levels
    return MotionPlan(g, strata, (TreeRule(router),) + (evac,) * (len(strata) - 1))


def execute(p: MotionPlan, x: GraphPoint, x2: GraphPoint):
    """Run a plan on a query pair.

    Returns ``(j, path)`` where j indexes the smallest stratum difference
    containing the pair and the path connects x to x2 with exact endpoints.
    The rule builds its answer unchecked; the answer is checked here, once
    (``PLPath.check``), and a malformed one raises ``GraphError``.
    """
    if not (p.graph.contains_point(x) and p.graph.contains_point(x2)):
        raise PlanError("query points must lie on the plan's graph")
    j = p.stratum_index(x, x2)
    return j, p.rules[j].path_for(x, x2).check()


@dataclass(frozen=True)
class GraphFiltration:
    """Nested closed cell unions of one graph, largest level last."""

    graph: MultiGraph
    levels: tuple

    def __post_init__(self):
        if not self.levels:
            raise PlanError("a filtration needs at least one level")
        for lv in self.levels:
            if not isinstance(lv, CellUnion) or lv.graph is not self.graph:
                raise PlanError("filtration levels must be cell unions of the graph")
            if not lv.is_closed():
                raise PlanError("filtration levels must be closed")
        for a, b in zip(self.levels, self.levels[1:]):
            if not a.within(b):
                raise PlanError("filtration levels must be nested")

    def level_index(self, p: GraphPoint) -> int:
        for i, lv in enumerate(self.levels):
            if lv.contains(p):
                return i
        raise PlanError("point not covered by the top level")

    @property
    def length(self) -> int:
        return len(self.levels) - 1


def cat_filtration(g: MultiGraph) -> GraphFiltration:
    """Canonical category filtration of a connected graph.

    A tree is a single level; otherwise the vertices and closed edges of
    ``spanning_forest(g)``, then the whole graph (the open non-tree edges
    forming the categorical difference).  ``plan_graph`` plans on its square.
    """
    if g.n_components != 1:
        raise PlanError("cat_filtration requires a connected graph")
    everything = whole_graph_cells(g)
    if betti1(g) == 0:
        return GraphFiltration(g, (everything,))
    tree_cells = CellUnion(g, g.vertices, spanning_forest(g))
    return GraphFiltration(g, (tree_cells, everything))


@dataclass(frozen=True)
class ProductFiltration:
    """Filtration H_k of X x Y built from filtrations of the factors:
    H_k is the union of F_i x G_j over i + j = k."""

    first: GraphFiltration
    second: GraphFiltration
    levels: tuple

    @property
    def length(self) -> int:
        return len(self.levels) - 1

    def level_index(self, x: GraphPoint, y: GraphPoint) -> int:
        for k, region in enumerate(self.levels):
            if region.contains(x, y):
                return k
        raise PlanError("pair not covered by the top level")


def product_cat_filtration(f: GraphFiltration, g: GraphFiltration) -> ProductFiltration:
    """Product filtration of length len(f) + len(g).

    Level k is the union of boxes F_i x G_j with i + j = k, in increasing i;
    the difference at level k is the separated union of the factor
    differences with i + j = k.  ``plan_graph`` takes its strata from here.
    """
    n, m = len(f.levels) - 1, len(g.levels) - 1
    levels = []
    for k in range(n + m + 1):
        boxes = [Box(f.levels[i], g.levels[k - i])
                 for i in range(max(0, k - m), min(n, k) + 1)]
        levels.append(Region(*boxes))
    return ProductFiltration(f, g, tuple(levels))


class _SwappedRule:
    """Deliberately broken rule answering queries with reversed endpoints."""

    def __init__(self, inner):
        self.inner = inner

    def path_for(self, x, y):
        return self.inner.path_for(y, x)

    def piece_id(self, x, y):
        return self.inner.piece_id(y, x)


def corrupt_plan_swap_endpoints(p: MotionPlan) -> MotionPlan:
    """Negative-control fixture: same strata, every rule answers reversed."""
    return MotionPlan(p.graph, p.strata, tuple(_SwappedRule(r) for r in p.rules))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    witness: str = None


@dataclass(frozen=True)
class VerifyReport:
    strata_count: int
    expected_strata: int
    samples: int
    continuity_samples: int
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _fmt_point(p: GraphPoint) -> str:
    if isinstance(p, Vertex):
        return f"vertex {p.v}"
    return f"edge {p.edge} {p.t}"


def _fmt_pair(x, y) -> str:
    return f"({_fmt_point(x)}; {_fmt_point(y)})"


def _walk_bound(path1: PLPath, path2: PLPath, same_middle: bool):
    """An exact bound on the distance between ``path1.at(t)`` and
    ``path2.at(t)`` over every t in [0,1], as an integer pair (num, den)
    with den > 0, or None when the steps show none.

    Both paths must be well-formed, and ``same_middle`` is whether their
    middle steps are equal.  The bound is max(|a1 - a2|, |b1 - b2|) for
    first steps starting at a_i and last steps ending at b_i.  One step
    each on one edge: the points are affine in t along it.  n >= 2 steps
    each, equal middle steps W, first steps ending at one point c of one
    edge and last steps starting at one point s of one edge, in either
    direction: path i runs d_i = |a_i - c|, then W, then e_i = |b_i - s|,
    L_i in all at uniform speed, so it is at W-position p_i(t) = t L_i - d_i.
    On first steps on opposite sides
    of c the distance is at most d1 + d2 - t (L1 + L2) <= |a1 - a2|; on last
    steps on opposite sides of s, at most their overshoots past s, which
    sum to <= e1 + e2 = |b1 - b2|.  Otherwise it is at most the walk gap
    |p1(t) - p2(t)|, affine in t: |d1 - d2| <= |a1 - a2| at t = 0 and
    |e1 - e2| <= |b1 - b2| at t = 1.
    """
    steps1, steps2 = path1.steps, path2.steps
    n = len(steps1)
    if n != len(steps2) or n == 0:
        return None
    f1, f2 = steps1[0], steps2[0]
    if f1.edge != f2.edge:
        return None
    l1, l2 = steps1[-1], steps2[-1]
    if n > 1:
        # shared parameters (_ZERO, _ONE, a query's own t) are told equal by
        # identity before any Fraction is compared
        end = f1.b
        start = l1.a
        if (f2.b is not end and f2.b != end
                or l1.edge != l2.edge or (l2.a is not start and l2.a != start)
                or not same_middle):
            return None
    # |a1 - a2| and |b1 - b2| as integer pairs; the larger is the bound
    p1, q1 = f1.a.as_integer_ratio()
    p2, q2 = f2.a.as_integer_ratio()
    an, ad = abs(p1 * q2 - p2 * q1), q1 * q2
    p1, q1 = l1.b.as_integer_ratio()
    p2, q2 = l2.b.as_integer_ratio()
    bn, bd = abs(p1 * q2 - p2 * q1), q1 * q2
    return (an, ad) if an * bd >= bn * ad else (bn, bd)


def _sampled_sup(g: MultiGraph, path1: PLPath, path2: PLPath, eps: Fraction):
    """The largest exact distance between ``path1.at(t)`` and ``path2.at(t)``
    over the ``TIME_SAMPLES`` times k / (TIME_SAMPLES - 1), when it exceeds
    eps; None when it does not."""
    times = (Fraction(k, TIME_SAMPLES - 1) for k in range(TIME_SAMPLES))
    sup = max(point_dist(g, path1.at(t), path2.at(t)) for t in times)
    return sup if sup > eps else None


def _point_sampler(rng, g: MultiGraph):
    """A seeded query-point sampler on g: one draw picks a vertex or an
    edge, uniformly over the vertices and edges of g, and an edge takes a
    second, its parameter k / _SAMPLE_DENOM for a uniform k in 1 ..
    _SAMPLE_DENOM - 1.  Each draw from range(n) follows the rejection rule
    of ``Random.randrange(n)``: draw ``n.bit_length()`` bits from
    ``rng.getrandbits``, again while the draw is >= n, so the sampler
    consumes and returns what ``randrange`` would; both bit widths are
    computed once.  One ``Vertex`` per vertex and one parameter per k are
    shared, each made on first draw."""
    getrandbits = rng.getrandbits
    vertices = g.vertices
    edge_ids = [e.id for e in g.edges]
    n_v = len(vertices)
    n = n_v + len(edge_ids)
    n_bits = n.bit_length()
    m = _SAMPLE_DENOM - 1
    m_bits = m.bit_length()
    points = [None] * n_v
    params = [None] * m

    def sample() -> GraphPoint:
        k = getrandbits(n_bits)
        while k >= n:
            k = getrandbits(n_bits)
        if k < n_v:
            p = points[k]
            if p is None:
                p = points[k] = Vertex(vertices[k])
            return p
        r = getrandbits(m_bits)
        while r >= m:
            r = getrandbits(m_bits)
        t = params[r]
        if t is None:
            t = params[r] = Fraction(1 + r, _SAMPLE_DENOM)
        return EdgeInterior._trusted(edge_ids[k - n_v], t)

    return sample


def _nudger(rng, max_shift: Fraction):
    """A nudger: it moves a point along its edge by j / grid, for one
    uniform draw j in [-span, span], span / grid = max_shift, and clamps it
    to [1/grid, 1 - 1/grid], so a nudged point stays inside its edge.  The
    grid is 2^22, times max_shift's denominator when that is larger; grid,
    span and the draw's bit width are computed once.  A vertex is returned
    as it is and consumes no draw; an edge point consumes one, by the
    rejection rule of ``Random.randrange(-span, span + 1)``: draw the bit
    width of 2 * span + 1 from ``rng.getrandbits``, again while the draw is
    >= 2 * span + 1, and subtract span."""
    getrandbits = rng.getrandbits
    grid = 1 << 22
    shift_num, shift_den = max_shift.as_integer_ratio()
    if shift_den > grid:
        # on the 2^-22 grid every shift below max_shift would round to 0
        grid *= shift_den
    span = shift_num * (grid // shift_den)
    n = 2 * span + 1
    n_bits = n.bit_length()

    def nudge(p: GraphPoint) -> GraphPoint:
        if isinstance(p, Vertex):
            return p
        j = getrandbits(n_bits)
        while j >= n:
            j = getrandbits(n_bits)
        j -= span
        # shift by j/grid and clamp to [1/grid, 1 - 1/grid] in ints over the
        # common denominator: grid itself for every sampled point, whose
        # denominator divides it
        num, tden = p.t.as_integer_ratio()
        den = lcm(grid, tden) if grid % tden else grid
        step = den // grid
        k = num * (den // tden) + j * step
        return EdgeInterior._trusted(p.edge,
                                     Fraction(max(step, min(den - step, k)), den))

    return nudge


def verify_plan(p: MotionPlan, g: MultiGraph, samples: int = 1000,
                delta: Fraction = DEFAULT_DELTA, eps: Fraction = DEFAULT_EPS,
                seed: int = 0, continuity_samples: int = None) -> VerifyReport:
    """Check a motion plan against its contracts.

    (a) every stratum is closed (read from the region descriptors);
    (b) strata are nested and cover G x G, decided exactly on all of G x G
        once (``filtration_witnesses``), with no sampling: box strata on
        pairs of pieces of G cut at every sub-arc end, shifted diagonals by
        one walk round their cycle.  A failure is reported at the
        decision's own witness: a failing pair of pieces wholly on a
        shifted diagonal, else a point of the first failing pair of box
        classes off every diagonal, else the first failing stretch of the
        diagonal walk.  Later checks skip queries outside the top stratum,
        which, once coverage has passed, holds every pair;
    (c) the section property holds exactly on ``samples`` seeded random
        queries: the keys of an answer's two ends, which its path check
        reads anyway (a vertex's name, or an edge and an exact rational
        parameter), equal those of the query's points.  The queries come
        from one point sampler per call, with the draws of ``randrange``;
    (d) continuity: for perturbed query pairs in the same stratum difference
        and the same separated piece at path-metric distance < delta, the
        uniform distance between the two answer paths is <= eps; one nudger
        per call perturbs the queries, with the draws of ``randrange``.  A
        pair is decided exactly when the two answers walk one shared walk
        (equal middle steps, first steps on one edge ending at one point c, last
        steps on one edge starting at one point s, in either direction):
        for starts a_i and ends b_i the distance is at most
        max(|a1 - a2|, |b1 - b2|) at every t, since points on opposite sides
        of c are within their two distances to c, which sum to at most
        |a1 - a2|, likewise past s, and otherwise the gap along the walk is
        affine in t (``_walk_bound``).  The bound is held as an integer pair
        and compared with eps in integers.
        A pair this bound does not decide is sampled at 32 times, with
        exact positions (``PLPath.at``) and exact distances
        (``point_dist``); the first failing pair is the witness, its sup
        printed to 4 places.  Later pairs are still built, checked and
        counted, but not bounded or sampled;
    (e) path-wellformed: every answer the rules give, to the sampled
        queries and to the perturbed ones, passes ``PLPath.check``.  Rules
        build their answers unchecked, so this is where a plan's paths are
        validated; a malformed answer is left out of the section and
        continuity checks, and its query pair is the witness.  An answer to
        a perturbed query whose middle steps equal those of the answer to
        its sampled query, already checked, is checked at its ends: its
        first two steps, its last two and its source, in the full check's
        order, so a fault gives the same witness and detail.

    One pass over the drawn queries runs (c)-(e): each of the first
    ``continuity_samples`` well-formed answers is nudged and bounded at once,
    then both answers are dropped, so memory beyond the queries is one pair.
    A malformed sampled answer is the witness ahead of a perturbed one.

    The report is deterministic for fixed inputs and seed.
    """
    if continuity_samples is None:
        continuity_samples = samples
    rng = random.Random(seed)
    checks = []

    closed_bad = [j for j, f in enumerate(p.strata) if not f.is_closed()]
    checks.append(CheckResult(
        "closedness", not closed_bad,
        "every stratum closed by descriptor" if not closed_bad
        else f"non-closed strata: {closed_bad}"))

    cover_witness, nest_witness = (
        w and _fmt_pair(*w) for w in filtration_witnesses(p.strata, g))
    checks.append(CheckResult(
        "coverage-cells", cover_witness is None,
        "every pair of G x G in the top stratum, decided exactly"
        if cover_witness is None else "cell pair escapes the top stratum",
        cover_witness))
    checks.append(CheckResult(
        "nesting-cells", nest_witness is None,
        "stratum membership monotone on all of G x G, decided exactly"
        if nest_witness is None else "nesting violated",
        nest_witness))

    # malformed and nudged_malformed: (query pair, reason) of the first of each
    section_witness = cont_witness = malformed = nudged_malformed = None
    answers = nudged = compared = skipped = 0
    sample = _point_sampler(rng, g)
    queries = [(sample(), sample()) for _ in range(samples)]
    nudge = _nudger(rng, delta / 2)
    eps_num, eps_den = eps.numerator, eps.denominator
    top = len(p.strata) - 1
    # once coverage-cells has passed, the top stratum holds every pair
    recheck = p.strata[top] if cover_witness is not None else None
    for x, y in queries:
        try:
            j = p.stratum_index(x, y)
        except PlanError:
            continue  # outside every stratum: coverage-cells fails
        if j < top and recheck is not None and not recheck.contains(x, y):
            continue  # outside the top stratum too: coverage-cells fails
        rule = p.rules[j]
        path1 = rule.path_for(x, y)
        answers += 1
        try:
            start, end = path1._end_keys()
        except GraphError as exc:
            malformed = malformed or (_fmt_pair(x, y), str(exc))
            continue
        if section_witness is None and (start != _point_key(x)
                                        or end != _point_key(y)):
            section_witness = _fmt_pair(x, y)
        if nudged >= continuity_samples:
            continue
        nudged += 1
        x2 = nudge(x)
        y2 = nudge(y)
        if isinstance(x, Vertex) and isinstance(y, Vertex):
            skipped += 1
            continue
        try:
            j2 = p.stratum_index(x2, y2)
        except PlanError:
            j2 = None  # outside every stratum: a change of stratum
        if j != j2 or rule.piece_id(x, y) != rule.piece_id(x2, y2):
            skipped += 1
            continue
        path2 = rule.path_for(x2, y2)
        answers += 1
        # whether path2 keeps path1's middle steps, compared once for the
        # path check, which then reads only path2's ends, and the walk bound
        same_middle = path2.steps[1:-1] == path1.steps[1:-1]
        try:
            path2._end_keys(path1, same_middle)
        except GraphError as exc:
            nudged_malformed = nudged_malformed or (_fmt_pair(x2, y2), str(exc))
            continue
        compared += 1
        if cont_witness is not None:
            continue
        # an exact walk bound <= eps holds at every t in [0,1], so at every
        # sampled time too: skipping the samples changes no verdict or count
        bound = _walk_bound(path1, path2, same_middle)
        if bound is not None and bound[0] * eps_den <= eps_num * bound[1]:
            continue
        sup = _sampled_sup(g, path1, path2, eps)
        if sup is not None:
            # a Fraction takes no ".4f" before Python 3.12: the float only prints
            cont_witness = f"{_fmt_pair(x, y)} vs {_fmt_pair(x2, y2)}: sup {float(sup):.4f}"
    checks.append(CheckResult(
        "section", section_witness is None,
        f"exact endpoints on {samples} sampled queries"
        if section_witness is None else "path endpoints differ from the query",
        section_witness))
    checks.append(CheckResult(
        "continuity", cont_witness is None,
        f"{compared} perturbed pairs within delta={delta} stayed within "
        f"eps={eps} ({skipped} skipped: different difference/piece or "
        "vertex-vertex)" if cont_witness is None
        else "paths of nearby queries diverge",
        cont_witness))
    malformed = malformed or nudged_malformed
    checks.append(CheckResult(
        "path-wellformed", malformed is None,
        f"all {answers} answer paths well-formed" if malformed is None
        else f"malformed answer path: {malformed[1]}",
        malformed and malformed[0]))

    expected = tc_graph(g) + 1
    checks.append(CheckResult(
        "strata-count", len(p.strata) == expected,
        f"strata count {len(p.strata)} = tc_graph + 1 = {expected}"
        if len(p.strata) == expected
        else f"strata count {len(p.strata)} != tc_graph + 1 = {expected}"))

    return VerifyReport(len(p.strata), expected, samples,
                        continuity_samples, tuple(checks))
