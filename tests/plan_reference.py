"""Reference copy of ``plan_tree`` and ``plan_graph`` with their strata
written out by hand, kept for differential tests only.

A tree gets the one stratum G x G and the reduced tree path.  A graph with
b1 >= 2 gets T x T, then G x T union T x G, then G x G for the spanning
tree T of ``spanning_forest``, with the tree rule on the first and the
evacuate rule on the other two.  Both rules are copied here.  They route
with ``path_reference.Router`` over their own ``subgraph`` copy of the
forest and build every answer with ``path_reference.validated``, so the
copy shares no router code with ``wildcat.graphs.TreeRouter``, and a change
to the rules of ``wildcat.planner`` shows as a difference.  A graph with
one cycle gets ``wildcat.planner``'s lifted circle plan, which this copy
does not repeat.
"""

from path_reference import Router, constant, validated
from wildcat.graphs import (EdgeInterior, PathStep, Vertex, betti1, deforest,
                            spanning_forest, subgraph)
from wildcat.planner import MotionPlan, PlanError, lift_plan, plan_circle
from wildcat.regions import Box, CellUnion, Region, whole_graph_cells


class TreeRule:
    def __init__(self, g, router):
        self.graph = g
        self.router = router

    def path_for(self, x, y):
        steps = self.router.route_steps(x, y)
        if not steps:
            return constant(self.graph, x)
        return validated(self.graph, steps, x)

    def piece_id(self, x, y):
        return 0


class EdgeEvacuateRule:
    """Slide each coordinate on a non-tree edge to that edge's end with the
    smaller vertex id, then route through the tree."""

    def __init__(self, g, tree_edges, router):
        self.graph = g
        self.tree_edges = frozenset(tree_edges)
        self.router = router

    def _off_tree(self, p):
        return isinstance(p, EdgeInterior) and p.edge not in self.tree_edges

    def _evacuate(self, p):
        e = self.graph.edge_by_id[p.edge]
        u = min(e.v0, e.v1)
        return (0 if u == e.v0 else 1), Vertex(u)

    def path_for(self, x, y):
        x2, y2 = x, y
        head, tail = [], []
        if self._off_tree(x):
            end, x2 = self._evacuate(x)
            head.append(PathStep(x.edge, x.t, end))
        if self._off_tree(y):
            end, y2 = self._evacuate(y)
            tail.append(PathStep(y.edge, end, y.t))
        steps = head + list(self.router.route_steps(x2, y2)) + tail
        if not steps:
            return constant(self.graph, x)
        return validated(self.graph, steps, x)

    def piece_id(self, x, y):
        return (x.edge if self._off_tree(x) else "T",
                y.edge if self._off_tree(y) else "T")


def plan_tree(t):
    if t.n_components != 1:
        raise PlanError("plan_tree requires a connected graph")
    if betti1(t) != 0:
        raise PlanError("plan_tree requires a tree (input has a cycle)")
    everything = whole_graph_cells(t)
    return MotionPlan(t, (Region(Box(everything, everything)),),
                      (TreeRule(t, Router(t)),))


def plan_graph(g):
    if g.n_components != 1:
        raise PlanError("plan_graph requires a connected graph")
    b = betti1(g)
    if b == 0:
        return plan_tree(g)
    if b == 1:
        core, h = deforest(g)
        return lift_plan(plan_circle(core), h)
    tree_edges = spanning_forest(g)
    router = Router(subgraph(g, tree_edges))
    tree_cells = CellUnion(g, g.vertices, tree_edges)
    everything = whole_graph_cells(g)
    f0 = Region(Box(tree_cells, tree_cells))
    f1 = Region(Box(everything, tree_cells), Box(tree_cells, everything))
    f2 = Region(Box(everything, everything))
    evac = EdgeEvacuateRule(g, tree_edges, router)
    return MotionPlan(g, (f0, f1, f2), (TreeRule(g, router), evac, evac))
