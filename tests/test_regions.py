import random
from fractions import Fraction

import pytest

from wildcat.graphs import Vertex, EdgeInterior, GraphError
from wildcat.regions import (VertexCell, ClosedEdgeCell, OpenEdgeCell,
                             SubArcCell, CellUnion, whole_graph_cells, Box,
                             Shift, Region)
from wildcat.planner import CycleCoords

from gen import path_graph, cycle_graph, loop_graph, theta_graph


def test_cell_membership():
    g = path_graph(3)
    u = CellUnion(g, [ClosedEdgeCell("e0")])
    assert u.contains(Vertex("v0"))
    assert u.contains(Vertex("v1"))
    assert u.contains(EdgeInterior("e0", Fraction(1, 3)))
    assert not u.contains(EdgeInterior("e1", Fraction(1, 3)))
    assert not u.contains(Vertex("v2"))


def test_open_edge_cell():
    g = path_graph(2)
    u = CellUnion(g, [OpenEdgeCell("e0")])
    assert u.contains(EdgeInterior("e0", Fraction(1, 2)))
    assert not u.contains(Vertex("v0"))
    assert not u.is_closed()
    with_ends = CellUnion(g, [OpenEdgeCell("e0"), VertexCell("v0"), VertexCell("v1")])
    assert with_ends.is_closed()


def test_subarc_cell():
    g = path_graph(2)
    u = CellUnion(g, [SubArcCell("e0", Fraction(0), Fraction(1, 2))])
    assert u.contains(Vertex("v0"))  # lo = 0 includes the endpoint
    assert u.contains(EdgeInterior("e0", Fraction(1, 2)))
    assert not u.contains(EdgeInterior("e0", Fraction(3, 4)))
    assert not u.contains(Vertex("v1"))
    assert u.is_closed()
    with pytest.raises(GraphError):
        SubArcCell("e0", Fraction(3, 4), Fraction(1, 4))


def _random_cell(rng, g):
    k = rng.randrange(4)
    if k == 0:
        return VertexCell(rng.choice(g.vertices))
    e = rng.choice(g.edges).id
    if k == 1:
        return ClosedEdgeCell(e)
    if k == 2:
        return OpenEdgeCell(e)
    lo, hi = sorted(Fraction(rng.randint(0, 8), 8) for _ in range(2))
    return SubArcCell(e, lo, hi)


def _cell_grid(g, cell):
    """Points of a cell at parameters k/16: with every arc end a multiple of
    1/8, membership in a union is constant between consecutive grid points,
    so the grid decides whether the cell lies in the union."""
    if isinstance(cell, VertexCell):
        return [Vertex(cell.v)]
    lo, hi, ends = Fraction(0), Fraction(1), True
    if isinstance(cell, SubArcCell):
        lo, hi = cell.lo, cell.hi
    elif isinstance(cell, OpenEdgeCell):
        ends = False
    return [g.point(cell.edge, Fraction(k, 16)) for k in range(17)
            if lo <= Fraction(k, 16) <= hi and (ends or 0 < k < 16)]


def test_contains_cell_matches_a_fine_grid():
    rng = random.Random(41)
    g = theta_graph()
    for _ in range(2000):
        union = CellUnion(g, [_random_cell(rng, g) for _ in range(rng.randint(1, 5))])
        cell = _random_cell(rng, g)
        assert union.contains_cell(cell) == all(
            union.contains(p) for p in _cell_grid(g, cell))


def test_contains_cell_needs_the_closure_of_an_open_edge():
    g = path_graph(2)
    u = CellUnion(g, [SubArcCell("e0", Fraction(1, 100), 1), VertexCell("v0")])
    assert not u.contains_cell(OpenEdgeCell("e0"))
    assert u.contains_cell(SubArcCell("e0", Fraction(1, 100), Fraction(1, 2)))
    assert u.contains_cell(SubArcCell("e0", 0, 0))
    assert not u.contains_cell(SubArcCell("e0", 0, Fraction(1, 100)))


def test_box_region():
    g = path_graph(2)
    everything = whole_graph_cells(g)
    v0 = CellUnion(g, [VertexCell("v0")])
    region = Region(Box(v0, everything))
    assert region.contains(Vertex("v0"), EdgeInterior("e0", Fraction(1, 2)))
    assert not region.contains(Vertex("v1"), Vertex("v0"))
    assert region.is_closed()


def test_shift_region_is_antidiagonal():
    g = cycle_graph(4)
    cyc = CycleCoords(g)
    anti = Region(Shift(cyc, cyc.length / 2))
    assert anti.contains(Vertex("v0"), Vertex("v2"))
    assert anti.contains(Vertex("v2"), Vertex("v0"))
    assert anti.contains(EdgeInterior("e0", Fraction(1, 4)),
                         EdgeInterior("e2", Fraction(1, 4)))
    assert not anti.contains(Vertex("v0"), Vertex("v1"))
    assert anti.is_closed()


def test_shift_on_loop():
    g = loop_graph()
    cyc = CycleCoords(g)
    anti = Shift(cyc, Fraction(1, 2))
    assert anti.contains(EdgeInterior("l", Fraction(1, 4)),
                         EdgeInterior("l", Fraction(3, 4)))
    assert not anti.contains(EdgeInterior("l", Fraction(1, 4)),
                             EdgeInterior("l", Fraction(1, 2)))


def test_region_key_separates_both_box_factors_and_cycle_coordinates():
    g = cycle_graph(4)
    first = CellUnion(g, [VertexCell("v0"), SubArcCell("e0", Fraction(0), Fraction(1, 2))])
    box = Box(first, CellUnion(g, [ClosedEdgeCell("e2")]))
    region = Region(box, Shift(CycleCoords(g), 1))
    assert region.key(EdgeInterior("e0", Fraction(1, 4))) == ((True, False), Fraction(1, 4))
    points = [Vertex(v) for v in g.vertices]
    points += [EdgeInterior(e.id, Fraction(k, 4)) for e in g.edges for k in (1, 2, 3)]
    # on a bare cycle every point has its own Shift coordinate, hence its own class
    assert len({region.key(p) for p in points}) == len(points)
    first_of = {}
    reps = [first_of.setdefault(box.key(p), p) for p in points]
    for x, rx in zip(points, reps):
        for y, ry in zip(points, reps):
            assert box.contains(x, y) == box.contains(rx, ry)
