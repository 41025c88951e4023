import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from wildcat import regions
from wildcat.graphs import Vertex, EdgeInterior, GraphError, build_graph, deforest
from wildcat.regions import (CellUnion, whole_graph_cells, Box, Shift,
                             RetractPreimage, Region, filtration_witnesses)
from wildcat.planner import (CycleCoords, CycleGeodesicRule, LiftedRule,
                             GraphFiltration, PlanError)

import path_reference
import regions_reference
from gen import (path_graph, cycle_graph, loop_graph, theta_graph,
                 random_connected_graph, random_cycle_with_hairs)
from test_lift import _mutant


def test_cell_membership():
    g = path_graph(3)
    u = CellUnion(g, ["v0", "v1"], ["e0"])
    assert u.contains(Vertex("v0"))
    assert u.contains(Vertex("v1"))
    assert u.contains(EdgeInterior("e0", Fraction(1, 3)))
    assert not u.contains(EdgeInterior("e1", Fraction(1, 3)))
    assert not u.contains(Vertex("v2"))


def test_open_edge_cell():
    g = path_graph(2)
    u = CellUnion(g, edges=["e0"])
    assert u.contains(EdgeInterior("e0", Fraction(1, 2)))
    assert not u.contains(Vertex("v0"))
    assert not u.is_closed()
    with_ends = CellUnion(g, ["v0", "v1"], ["e0"])
    assert with_ends.is_closed()


def test_subarc_cell():
    g = path_graph(2)
    u = CellUnion(g, arcs=[("e0", Fraction(0), Fraction(1, 2))])
    assert u.contains(Vertex("v0"))  # lo = 0 includes the endpoint
    assert u.contains(EdgeInterior("e0", Fraction(1, 2)))
    assert not u.contains(EdgeInterior("e0", Fraction(3, 4)))
    assert not u.contains(Vertex("v1"))
    assert u.is_closed()
    with pytest.raises(GraphError, match=r"sub-arc of edge 'e0' .* got 3/4\.\.1/4"):
        CellUnion(g, arcs=[("e0", Fraction(3, 4), Fraction(1, 4))])
    with pytest.raises(GraphError, match=r"sub-arc of edge 'e1' .* got -1/2\.\.1"):
        CellUnion(g, arcs=[("e1", Fraction(-1, 2), 1)])


_FIRST_UNKNOWN = """\
from gen import path_graph
from wildcat.regions import CellUnion
from wildcat.graphs import GraphError
print(next(iter(frozenset(["x", "y"]))))
for kind, names in (("vertices", ["v0", "x", "y"]), ("edges", ["e0", "x", "y"]),
                    ("arcs", [("e0", 0, 1), ("x", 0, 1), ("y", 0, 1)])):
    try:
        CellUnion(path_graph(2), **{kind: names})
    except GraphError as exc:
        print(exc)
"""


def test_unknown_names_are_reported_in_the_order_given():
    # "x" and "y" iterate as a set in opposite orders under these two hash
    # seeds, so an error read off the set would differ between them
    here = os.path.dirname(os.path.abspath(__file__))
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([os.path.join(here, os.pardir, "src"), here]))
        proc = subprocess.run([sys.executable, "-c", _FIRST_UNKNOWN], env=env,
                              capture_output=True, text=True, check=True)
        runs.append(proc.stdout.splitlines())
    assert {run[0] for run in runs} == {"x", "y"}
    for run in runs:
        assert run[1:] == ["unknown vertex 'x' in cell", "unknown edge 'x' in cell",
                           "unknown edge 'x' in cell"]


def _random_cell(rng, g, d=8):
    """``("vertex", v)``, ``("closed", e)``, ``("open", e)`` or ``("arc", e,
    lo, hi)`` with both ends multiples of 1/d."""
    k = rng.randrange(4)
    if k == 0:
        return ("vertex", rng.choice(g.vertices))
    e = rng.choice(g.edges).id
    if k == 1:
        return ("closed", e)
    if k == 2:
        return ("open", e)
    lo, hi = sorted(Fraction(rng.randint(0, d), d) for _ in range(2))
    return ("arc", e, lo, hi)


def _union(g, cells):
    """The cells as one ``CellUnion``: a closed edge is its interior and
    both ends."""
    vertices, edges, arcs = [], [], []
    for kind, name, *arc in cells:
        if kind == "vertex":
            vertices.append(name)
        elif kind == "arc":
            arcs.append((name, *arc))
        else:
            edges.append(name)
            if kind == "closed":
                e = g.edge_by_id[name]
                vertices += [e.v0, e.v1]
    return CellUnion(g, vertices, edges, arcs)


def _reference_union(g, cells):
    """The same cells as the reference's list of cell objects."""
    make = {"vertex": regions_reference.VertexCell, "closed": regions_reference.ClosedEdgeCell,
            "open": regions_reference.OpenEdgeCell, "arc": regions_reference.SubArcCell}
    return regions_reference.CellUnion(g, [make[kind](*args) for kind, *args in cells])


def _closed_cells(g, cells):
    """The cells and the ends of each open edge."""
    ends = [("vertex", v) for kind, name, *_ in cells if kind == "open"
            for v in g.edge_by_id[name][1:]]
    return list(cells) + ends


def _closed(g, cells):
    """A closed cell union: the cells, and the ends of each open edge."""
    return _union(g, _closed_cells(g, cells))


def _nested(g, *levels):
    """Whether ``GraphFiltration`` accepts the levels as nested."""
    try:
        GraphFiltration(g, levels)
    except PlanError as exc:
        assert "nested" in str(exc)
        return False
    return True


def test_filtration_nesting_matches_a_fine_grid():
    # every arc end is a multiple of 1/8, so membership in a union is
    # constant between consecutive points k/16, and the grid decides nesting
    rng = random.Random(41)
    g = theta_graph()
    grid = _grid(g, 16)
    for _ in range(2000):
        union = _closed(g, [_random_cell(rng, g) for _ in range(rng.randint(1, 5))])
        cell = _closed(g, [_random_cell(rng, g)])
        assert _nested(g, cell, union) == all(
            union.contains(p) for p in grid if cell.contains(p))


def test_filtration_nesting_needs_the_closure_of_an_open_edge():
    g = path_graph(2)
    u = CellUnion(g, ["v0"], arcs=[("e0", Fraction(1, 100), 1)])
    assert not _nested(g, _closed(g, [("open", "e0")]), u)
    assert _nested(g, CellUnion(g, arcs=[("e0", Fraction(1, 100), Fraction(1, 2))]), u)
    assert _nested(g, CellUnion(g, arcs=[("e0", 0, 0)]), u)
    assert not _nested(g, CellUnion(g, arcs=[("e0", 0, Fraction(1, 100))]), u)


def _random_levels(rng, g):
    """Cells of two levels a and b on g, arc ends multiples of 1/d.  b often
    takes a's cells with some edges swapped for their [0, 1] arcs, which
    hold the same points but not the edge's interior by name; a and b get
    [0, 0] and [1, 1] arcs too."""
    d = rng.choice((2, 3, 4, 8))
    a = [_random_cell(rng, g, d) for _ in range(rng.randint(1, 4))]
    b = [_random_cell(rng, g, d) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.7:
        b += [("arc", c[1], 0, 1) if c[0] != "vertex" and rng.random() < 0.5 else c
              for c in a]
    for cells in (a, b):
        if rng.random() < 0.3:
            t = rng.choice((0, 1))
            cells.append(("arc", rng.choice(g.edges).id, t, t))
    if rng.random() < 0.5:
        a, b = _closed_cells(g, a), _closed_cells(g, b)
    return a, b


def _check_levels_against_reference(cases=1500):
    """Each union and the nesting verdict agree with the reference: the same
    membership on a 1/16 grid and at every sub-arc end, the same closedness
    and cuts, and the same verdict from ``CellUnion.within`` and, for
    closed levels, from ``GraphFiltration``."""
    rng = random.Random(3601)
    for _ in range(cases):
        g = random_connected_graph(rng, max_vertices=5, max_edges=8)
        if not g.edges:
            continue
        cells = _random_levels(rng, g)
        new = [_union(g, c) for c in cells]
        ref = [_reference_union(g, c) for c in cells]
        points = _grid(g, 16) + [EdgeInterior(e, t) for u in ref for e, t in u.cuts()]
        for u, r in zip(new, ref):
            assert [u.contains(p) for p in points] == [r.contains(p) for p in points]
            assert u.is_closed() == r.is_closed()
            assert u.cuts() == r.cuts()
        verdict = regions_reference.nested(g, *ref)
        assert new[0].within(new[1]) == verdict, cells
        if all(r.is_closed() for r in ref):
            assert _nested(g, *new) == verdict, cells


def test_cell_unions_match_the_reference():
    _check_levels_against_reference()


def test_reference_check_catches_an_edge_settled_by_its_name(monkeypatch):
    # a [0, 1] arc holds the whole edge without naming it among the edges
    _mutant(monkeypatch, CellUnion, "_edge_within",
            ("bounds = [_ZERO, *ts, _ONE]",
             "if not ts:\n        return e in other._edges\n    bounds = [_ZERO, *ts, _ONE]"))
    with pytest.raises(AssertionError):
        _check_levels_against_reference()


def _check_is_closed_against_the_edge_scan(cases=1500):
    """``is_closed`` equals the reference's scan of every edge whose
    interior the union holds, on random unions with and without sub-arcs
    that often hold every vertex of the graph; returns how many did."""
    rng = random.Random(3701)
    holding_all = 0
    for _ in range(cases):
        g = random_connected_graph(rng, max_vertices=5, max_edges=8)
        if not g.edges:
            continue
        cells = [_random_cell(rng, g, rng.choice((2, 3, 4, 8)))
                 for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.5:
            cells = [c for c in cells if c[0] != "arc"]
        if rng.random() < 0.7:
            # every vertex, or all but one
            skip = rng.choice((None, rng.choice(g.vertices)))
            cells += [("vertex", v) for v in g.vertices if v != skip]
        u = _union(g, cells)
        holding_all += all(u.contains(Vertex(v)) for v in g.vertices)
        assert u.is_closed() == _reference_union(g, cells).is_closed(), cells
    return holding_all


def test_is_closed_matches_the_edge_scan():
    assert _check_is_closed_against_the_edge_scan() > 300


def test_edge_scan_check_catches_a_closed_answer_one_vertex_short(monkeypatch):
    _mutant(monkeypatch, CellUnion, "is_closed",
            ("if len(vs) == len(self.graph.degree):",
             "if len(vs) + 1 >= len(self.graph.degree):"))
    with pytest.raises(AssertionError):
        _check_is_closed_against_the_edge_scan()


def _rejected_midpoints():
    """The interval points ``regions.cut_pieces`` builds, unchecked, that
    the checking constructor rejects, over random cut sets of random graphs:
    up to four cuts an edge, with repeats, each some k/d with 0 < k < d."""
    rng = random.Random(2027)
    rejected = []
    for _ in range(300):
        g = random_connected_graph(rng)
        cuts = []
        for e in g.edges:
            for _ in range(rng.randint(0, 4)):
                d = rng.randint(2, 12)
                cuts.append((e.id, Fraction(rng.randint(1, d - 1), d)))
        rep, span = regions.cut_pieces(g, cuts)[:2]
        for p, piece in zip(rep, span):
            if piece is None:
                continue
            try:
                assert EdgeInterior(p.edge, p.t) == p
            except GraphError:
                rejected.append((p, piece))
    return rejected


def test_cut_piece_midpoints_pass_the_checking_constructor():
    # every midpoint of 0 <= lo < t <= 1 lies strictly inside its edge
    assert _rejected_midpoints() == []


def test_midpoint_check_catches_an_unhalved_midpoint(monkeypatch):
    _mutant(monkeypatch, regions, "cut_pieces", ("(lo + t) / 2", "(lo + t)"))
    assert _rejected_midpoints()


def test_box_region():
    g = path_graph(2)
    everything = whole_graph_cells(g)
    v0 = CellUnion(g, ["v0"])
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


# --- integer cycle coordinates -------------------------------------------------

def _fraction_shift_contains(shift, x, y):
    """``Shift.contains`` as it was, in Fraction arithmetic."""
    sx = path_reference.coord(shift.cycle, x)
    sy = path_reference.coord(shift.cycle, y)
    if sx is None or sy is None:
        return False
    return (sy - sx - shift.offset) % shift.cycle.length == 0


def _fraction_piece_id(cycle, x, y):
    """``CycleGeodesicRule.piece_id`` as it was, in Fraction arithmetic."""
    d = (path_reference.coord(cycle, y) - path_reference.coord(cycle, x)) % cycle.length
    return "fwd" if d < cycle.length / 2 else "bwd"


def _cycle_point(rng, g):
    k = rng.randrange(len(g.vertices) + 2 * len(g.edges))
    if k < len(g.vertices):
        return Vertex(g.vertices[k])
    d = rng.choice((2, 3, 5, 8, 12, 64, 4096))
    return EdgeInterior(rng.choice(g.edges).id, Fraction(rng.randrange(1, d), d))


def _reversed_cycle():
    """A 3-cycle whose walk crosses e1 from v1 to v0."""
    return build_graph(["a", "b", "c"], [("e0", "a", "b"), ("e1", "c", "b"),
                                         ("e2", "c", "a")])


def test_integer_cycle_coordinates_match_fractions():
    rng = random.Random(1105)
    cases = [(g, g, None) for g in (loop_graph(), cycle_graph(2), cycle_graph(3),
                                   _reversed_cycle(), cycle_graph(4), cycle_graph(7))]
    for _ in range(4):
        g = random_cycle_with_hairs(rng, rng.randint(1, 6), rng.randint(1, 5))
        core, h = deforest(g)
        cases.append((g, core, h))
    for g, core, h in cases:
        cyc = CycleCoords(core)
        L = cyc.length
        offsets = {Fraction(k, d) for d in (1, 2, 3, 8) for k in range(-d, 2 * d * int(L) + 2)}
        offsets |= {-L, L, L + Fraction(1, 8), 2 * L + Fraction(2, 3), -L / 2}
        rule = CycleGeodesicRule(core, cyc)
        lifted = rule if h is None else LiftedRule(h, rule)
        for o in sorted(offsets):
            shift = Shift(cyc, o)
            region = Region(shift) if h is None else Region(RetractPreimage(h, Region(shift)))
            for _ in range(12):
                x = _cycle_point(rng, g)
                rx = x if h is None else h.retract(x)
                sx = path_reference.coord(cyc, rx)
                c = cyc.int_coord(rx)
                assert (None if c is None else Fraction(*c)) == sx
                if rng.random() < 0.5 and sx is not None:
                    y = path_reference.point_at(cyc, sx + o)  # on the diagonal
                else:
                    y = _cycle_point(rng, g)
                ry = y if h is None else h.retract(y)
                assert region.contains(x, y) == _fraction_shift_contains(shift, rx, ry), \
                    (o, x, y)
                if sx is not None and path_reference.coord(cyc, ry) is not None:
                    assert lifted.piece_id(x, y) == _fraction_piece_id(cyc, rx, ry), (x, y)
    # off the cycle a Shift holds nothing
    g = random_cycle_with_hairs(random.Random(3), 3, 2)
    shift = Shift(CycleCoords(deforest(g)[0]), 0)
    assert not shift.contains(EdgeInterior("h0", Fraction(1, 2)), Vertex("c0"))


# --- exact coverage and nesting --------------------------------------------------

def _grid(g, n=32):
    """Every vertex and the points k/32 of every edge.  With every cut and
    offset a multiple of 1/8, every part of G x G on which membership is
    constant holds a pair of grid points, and a part not wholly on a
    diagonal holds one off every diagonal."""
    return [Vertex(v) for v in g.vertices] + [
        EdgeInterior(e.id, Fraction(k, n)) for e in g.edges for k in range(1, n)]


def _grid_failures(strata, points):
    cover = nest = False
    for x in points:
        for y in points:
            member = [f.contains(x, y) for f in strata]
            if not member[-1]:
                cover = True
            elif not all(member[member.index(True):]):
                nest = True
            if cover and nest:
                return cover, nest
    return cover, nest


def _random_strata(rng, g, core, h, cyc):
    """Two to four regions of boxes (sub-arcs at eighths, on G or pulled back
    from the core) and shifted diagonals (offsets at eighths, pulled back)."""
    def lift(q):
        return q if h is None else RetractPreimage(h, Region(q))

    def primitive():
        k = rng.randrange(5)
        if k < 2:
            return lift(Shift(cyc, Fraction(rng.choice((-1, 0, 1, 2, 3, 4, 9, 12)), 8)
                              + rng.choice((0, cyc.length / 2))))
        if k == 2:
            return lift(Box(whole_graph_cells(core), whole_graph_cells(core)))
        on = rng.choice((g, core))
        first = _union(on, [_random_cell(rng, on) for _ in range(rng.randint(1, 4))])
        second = _union(on, [_random_cell(rng, on) for _ in range(rng.randint(1, 4))])
        return Box(first, second) if on is g else lift(Box(first, second))

    if rng.random() < 0.5:
        # a diagonal below a box it may leave, on open stretches or whole
        # pairs of collapsed pieces
        strata = [Region(lift(Shift(cyc, Fraction(rng.randrange(-4, 12), 8)))),
                  Region(primitive() if rng.random() < 0.25 else Box(*(_union(
                      g, [_random_cell(rng, g) for _ in range(rng.randint(2, 5))])
                      for _ in range(2))))]
    else:
        strata = []
        for _ in range(rng.randint(2, 3)):
            prims = [primitive() for _ in range(rng.randint(1, 2))]
            if strata and rng.random() < 0.6:
                prims += strata[-1].primitives
            strata.append(Region(*prims))
    if rng.random() < 0.5:
        strata.append(Region(Box(whole_graph_cells(g), whole_graph_cells(g))))
    return strata


def _monotone(member):
    return member[-1] and all(member[member.index(True):])


def test_filtration_witnesses_match_a_dense_grid():
    rng = random.Random(1111)
    graphs = [loop_graph(), _reversed_cycle(),
              build_graph(["a", "t"], [("l", "a", "a"), ("h", "a", "t")]),
              build_graph(["a", "b", "t"], [("e0", "a", "b"), ("e1", "a", "b"),
                                            ("h", "b", "t")])]
    seen = set()
    for g in graphs:
        core, h = deforest(g)
        cyc = CycleCoords(core)
        points = _grid(g)
        for _ in range(12):
            strata = _random_strata(rng, g, core, h if h.collapses else None, cyc)
            cover, nest = filtration_witnesses(strata, g)
            assert (cover is not None, nest is not None) == _grid_failures(strata, points)
            if cover is not None:
                assert not strata[-1].contains(*cover)
            if nest is not None:
                member = [f.contains(*nest) for f in strata]
                assert member[-1] and not _monotone(member)
            seen.add((cover is None, nest is None))
    # plans that pass, and plans that fail each way only
    assert {(True, True), (False, True), (True, False)} <= seen


def test_diagonal_leaves_a_stratum_on_an_open_stretch_only():
    # the diagonal passes a gap (1/8, 1/4) of e0 that the middle stratum,
    # made of closed arcs, leaves open; no probe lies in the gap
    g = cycle_graph(3)
    everything = whole_graph_cells(g)
    gappy = CellUnion(g, g.vertices, ["e1", "e2"],
                      [("e0", 0, Fraction(1, 8)), ("e0", Fraction(1, 4), 1)])
    strata = [Region(Shift(CycleCoords(g), 0)), Region(Box(gappy, gappy)),
              Region(Box(everything, everything))]
    cover, nest = filtration_witnesses(strata, g)
    assert cover is None
    assert nest == (EdgeInterior("e0", Fraction(3, 16)), EdgeInterior("e0", Fraction(3, 16)))


def test_collapsed_pieces_meet_the_diagonal_on_whole_pieces():
    # the hair's pieces retract to a, so (hair, l 1/2) lies in the
    # anti-diagonal's preimage; the middle stratum holds every pair but those
    g = build_graph(["a", "t"], [("l", "a", "a"), ("h", "a", "t")])
    core, h = deforest(g)
    loop = CellUnion(g, ["a"], ["l"])
    vertices = CellUnion(g, ["a", "t"])
    everything = whole_graph_cells(g)
    anti = Region(RetractPreimage(h, Region(Shift(CycleCoords(core), Fraction(1, 2)))))
    strata = [anti, Region(Box(loop, everything), Box(everything, vertices)),
              Region(Box(everything, everything))]
    assert filtration_witnesses(strata, g) == (
        None, (Vertex("t"), EdgeInterior("l", Fraction(1, 2))))


def test_diagonal_covers_the_vertex_pairs_boxes_miss():
    # the boxes miss exactly the pairs of vertices; the diagonal holds (a, a),
    # the only such pair on a loop, but not (v0, v1) on a 2-cycle
    for g, cover in ((loop_graph(), None), (cycle_graph(2), (Vertex("v0"), Vertex("v1")))):
        everything = whole_graph_cells(g)
        edges = CellUnion(g, edges=[e.id for e in g.edges])
        top = Region(Shift(CycleCoords(g), 0), Box(everything, edges), Box(edges, everything))
        assert filtration_witnesses([top], g) == (cover, None)


def test_shifts_on_two_cycles_are_not_decided():
    g = cycle_graph(3)
    other = CycleCoords(cycle_graph(4))
    strata = [Region(Shift(CycleCoords(g), 0)), Region(Shift(other, 0))]
    with pytest.raises(GraphError, match="more than one cycle"):
        filtration_witnesses(strata, g)
