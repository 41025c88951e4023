import random
from fractions import Fraction

import pytest

from wildcat.graphs import Vertex, EdgeInterior, betti1, build_graph, tc_graph
from wildcat.wild import (INF, ExprError, UnstableExpressionError,
                          InfiniteRankError, Node, SelfWild, ZeroDimWild,
                          Attachment, SeqFamily, Subcomplex, graph_expr,
                          is_connected_expr, contains_scc, contains_atom,
                          is_w_stable, wild_set, wild_tower, wrk, profile,
                          cat, tc, cat_certificate, tc_certificate, truncate)

from wildcat.spacefile import parse_spacefile

from gen import (point_graph, path_graph, cycle_graph, loop_graph,
                 figure_eight, random_stable_expr, seq_nesting_depth,
                 chain_space_text)


def earring():
    base = point_graph()
    pattern = graph_expr(cycle_graph(3))
    return Node(base, (), (SeqFamily(Subcomplex.of(base, ["a"]),
                                     pattern, Vertex("v0")),))


def wild_circle():
    base = cycle_graph(3)
    pattern = graph_expr(loop_graph())
    return Node(base, (), (SeqFamily(Subcomplex.whole(base),
                                     pattern, Vertex("a")),))


def nested_rank3():
    inner = wild_circle()
    base = point_graph()
    # anchor must lie in w(inner) = the base circle of the inner expression
    return Node(base, (), (SeqFamily(Subcomplex.of(base, ["a"]),
                                     inner, Vertex("v0")),))


def wedge_two_wild():
    base = figure_eight()
    pattern = graph_expr(cycle_graph(3))
    return Node(base, (), (SeqFamily(Subcomplex.whole(base),
                                     pattern, Vertex("v0")),))


def hairy_earring():
    """Earring with a spare simply-connected arm: wild set is {v0}, not {v1}."""
    base = path_graph(2)
    pattern = graph_expr(cycle_graph(3))
    return Node(base, (), (SeqFamily(Subcomplex.of(base, ["v0"]),
                                     pattern, Vertex("v0")),))


# --- structure / validation ---------------------------------------------------

def test_node_validates_attach_points():
    base = point_graph()
    with pytest.raises(ExprError, match="not on the base"):
        Node(base, (Attachment(Vertex("zz"), graph_expr(point_graph()),
                               Vertex("a")),), ())


def test_node_validates_anchor():
    base = point_graph()
    child = graph_expr(cycle_graph(3))
    with pytest.raises(ExprError, match="anchor"):
        Node(base, (Attachment(Vertex("a"), child, Vertex("missing")),), ())


def test_subcomplex_normalizes_to_closure():
    g = cycle_graph(3)
    sc = Subcomplex.of(g, [], ["e0"])
    assert sc.vertices == ("v0", "v1")
    assert sc.contains_point(Vertex("v1"))
    assert sc.contains_point(EdgeInterior("e0", Fraction(1, 2)))
    assert not sc.contains_point(Vertex("v2"))


def _family_on(cells):
    tri = build_graph(["a", "b", "c"], [("f0", "a", "b"), ("f1", "b", "c"),
                                        ("f2", "c", "a")])
    loop = graph_expr(build_graph(["o"], [("l", "o", "o")]))
    return Node(tri, (), (SeqFamily(cells, loop, Vertex("o")),))


def test_node_rejects_an_empty_subcomplex():
    with pytest.raises(ExprError, match="empty subcomplex"):
        _family_on(Subcomplex((), ()))


def test_node_rejects_an_edge_without_its_endpoints():
    with pytest.raises(ExprError, match="without its endpoints"):
        _family_on(Subcomplex((), ("f0",)))


def test_node_rejects_an_unsorted_subcomplex():
    with pytest.raises(ExprError, match="not sorted"):
        _family_on(Subcomplex(("c", "b", "a"), ("f2", "f1", "f0")))


def test_node_rejects_a_repeated_cell():
    with pytest.raises(ExprError, match="repeats a cell"):
        _family_on(Subcomplex(("a", "a", "b"), ("f0",)))


def test_node_rejects_a_subcomplex_cell_off_the_base():
    with pytest.raises(ExprError, match="not in the base"):
        _family_on(Subcomplex(("a", "z"), ()))


def test_connectivity_of_expressions():
    assert is_connected_expr(earring())
    assert is_connected_expr(SelfWild())
    two = build_graph(["a", "b"], [])
    assert not is_connected_expr(graph_expr(two))


# --- contains_scc ---------------------------------------------------------------

def test_contains_scc_forest_false():
    assert not contains_scc(graph_expr(path_graph(4)))


def test_contains_scc_earring_true():
    assert contains_scc(earring())


def test_contains_scc_dendrite_like_false():
    base = path_graph(2)
    pattern = graph_expr(path_graph(3))
    e = Node(base, (), (SeqFamily(Subcomplex.whole(base), pattern, Vertex("v0")),))
    assert not contains_scc(e)
    assert wrk(e) == 1 and cat(e) == 0 and tc(e) == 0


# --- is_w_stable -----------------------------------------------------------------

def test_earring_is_stable():
    assert is_w_stable(earring()).stable


def test_anchor_outside_wild_set_is_unstable():
    base = point_graph()
    bad = Node(base, (), (SeqFamily(Subcomplex.of(base, ["a"]),
                                    hairy_earring(), Vertex("v1")),))
    report = is_w_stable(bad)
    assert not report.stable
    assert "seq family 0" in report.diagnostic
    assert "anchor" in report.diagnostic


def test_anchor_inside_wild_set_is_stable():
    base = point_graph()
    good = Node(base, (), (SeqFamily(Subcomplex.of(base, ["a"]),
                                     hairy_earring(), Vertex("v0")),))
    assert is_w_stable(good).stable
    # copies glue at their wild point, so the wild set collapses to {a}
    assert wrk(good) == 2


def test_zero_dim_atom_diagnostic():
    report = is_w_stable(ZeroDimWild())
    assert not report.stable
    assert "zero-dimensional" in report.diagnostic


def test_self_wild_vacuously_stable():
    assert is_w_stable(SelfWild()).stable


def test_nested_zero_dim_is_unstable():
    base = point_graph()
    e = Node(base, (Attachment(Vertex("a"), ZeroDimWild(), Vertex("x")),), ())
    with pytest.raises(UnstableExpressionError):
        wrk(e)


# --- wild_set ---------------------------------------------------------------------

def test_wild_set_of_graph_is_empty():
    assert wild_set(graph_expr(figure_eight())) == ()


def test_wild_set_of_earring_is_basepoint():
    pieces = wild_set(earring())
    assert len(pieces) == 1
    piece = pieces[0]
    assert piece.base.vertices == ("a",) and not piece.base.edges
    assert not piece.seq and not piece.fin


def test_wild_set_of_wild_circle_is_base_circle():
    pieces = wild_set(wild_circle())
    assert len(pieces) == 1
    piece = pieces[0]
    assert set(piece.base.edge_by_id) == {"e0", "e1", "e2"}
    assert not piece.seq
    assert betti1(piece.base) == 1


def test_wild_set_nested_carries_family_down():
    pieces = wild_set(nested_rank3())
    assert len(pieces) == 1
    piece = pieces[0]
    assert len(piece.seq) == 1
    assert betti1(piece.seq[0].pattern.base) == 1  # an earring-like level


def test_wild_set_merges_overlapping_families():
    base = cycle_graph(3)
    circle = graph_expr(loop_graph())
    e = Node(base, (), (
        SeqFamily(Subcomplex.of(base, [], ["e0"]), circle, Vertex("a")),
        SeqFamily(Subcomplex.of(base, [], ["e1"]), circle, Vertex("a")),
    ))
    pieces = wild_set(e)
    assert len(pieces) == 1  # e0 and e1 share vertex v1
    assert set(pieces[0].base.edge_by_id) == {"e0", "e1"}


def test_wild_set_separate_components():
    base = path_graph(3)
    circle = graph_expr(loop_graph())
    e = Node(base, (), (
        SeqFamily(Subcomplex.of(base, ["v0"]), circle, Vertex("a")),
        SeqFamily(Subcomplex.of(base, ["v2"]), circle, Vertex("a")),
    ))
    pieces = wild_set(e)
    assert len(pieces) == 2


def test_wild_set_fin_children_are_separate_pieces():
    base = point_graph()
    e = Node(base, (Attachment(Vertex("a"), earring(), Vertex("a")),), ())
    pieces = wild_set(e)
    assert len(pieces) == 1  # the earring's basepoint
    assert wrk(e) == 2


def test_wild_set_zero_dim_rejected():
    with pytest.raises(ExprError):
        wild_set(ZeroDimWild())


# --- wrk --------------------------------------------------------------------------

def test_wrk_examples():
    assert wrk(graph_expr(cycle_graph(3))) == 1
    assert wrk(earring()) == 2
    assert wrk(nested_rank3()) == 3
    assert wrk(ZeroDimWild()) == 2
    assert wrk(SelfWild()) is INF


def test_wrk_nested_selfwild_infinite():
    base = point_graph()
    e = Node(base, (), (SeqFamily(Subcomplex.of(base, ["a"]),
                                  SelfWild(), Vertex("x")),))
    assert is_w_stable(e).stable
    assert wrk(e) is INF
    assert cat(e) is INF and tc(e) is INF


# --- cat / tc ----------------------------------------------------------------------

def test_golden_values():
    assert (wrk(earring()), cat(earring()), tc(earring())) == (2, 1, 2)
    wc = wild_circle()
    assert (wrk(wc), cat(wc), tc(wc)) == (2, 2, 3)
    n3 = nested_rank3()
    assert (wrk(n3), cat(n3), tc(n3)) == (3, 2, 4)
    w2 = wedge_two_wild()
    assert (wrk(w2), cat(w2), tc(w2)) == (2, 2, 4)
    assert cat(SelfWild()) is INF and tc(SelfWild()) is INF
    assert (wrk(ZeroDimWild()), cat(ZeroDimWild()), tc(ZeroDimWild())) == (2, 1, 2)


def test_graph_expressions_match_graph_formulas():
    for g in (point_graph(), path_graph(4), cycle_graph(5), figure_eight()):
        e = graph_expr(g)
        from wildcat.graphs import cat_graph
        assert cat(e) == cat_graph(g)
        assert tc(e) == tc_graph(g)


def test_profile_tower_shape():
    e = nested_rank3()
    prof = profile(e)
    assert prof.wrk == 3
    assert len(prof.tower) == 3
    assert prof.tower[-1].b1 == 0 == prof.top_b1
    assert prof.scc_class == "none"
    assert prof.tower[0].b1 is INF  # infinitely many circles at level 0
    # the tower carries the symbolic pieces themselves
    assert prof.tower[0].pieces == (e,)
    assert prof.tower[1].pieces == wild_set(e)
    assert all(lv.count == len(lv.pieces) >= 1 for lv in prof.tower)


def test_profile_zero_dim():
    prof = profile(ZeroDimWild())
    assert prof.wrk == 2 and prof.top_b1 == 0 and not prof.stable
    assert len(prof.tower) == 2


def test_cat_requires_connected():
    two = build_graph(["a", "b"], [])
    with pytest.raises(ExprError, match="connected"):
        cat(graph_expr(two))


# --- rank-formula properties ---------------------------------------------------------

def test_rank_formula_shape_random():
    rng = random.Random(41)
    for _ in range(80):
        e = random_stable_expr(rng, rng.randint(0, 3))
        prof = profile(e)
        n = prof.wrk
        c, t = cat(e), tc(e)
        if prof.top_b1 == 0:
            assert (c, t) == (n - 1, 2 * n - 2)
        elif prof.top_b1 == 1:
            assert (c, t) == (n, 2 * n - 1)
        else:
            assert (c, t) == (n, 2 * n)
        if c >= 1:
            assert c <= t <= 2 * c
        assert (t == 0) == (c == 0)
        assert len(prof.tower) == n


def test_cat_zero_iff_no_cycle_anywhere():
    # contractible expressions are exactly the dendrite-like ones
    rng = random.Random(67)
    for _ in range(60):
        e = random_stable_expr(rng, rng.randint(0, 3))
        assert (cat(e) == 0) == (not contains_scc(e))
        assert (tc(e) == 0) == (not contains_scc(e))


def test_graph_invariants_survive_deforestation():
    from wildcat.graphs import cat_graph, deforest
    from gen import random_connected_graph
    rng = random.Random(71)
    for _ in range(40):
        g = random_connected_graph(rng)
        core, _ = deforest(g)
        assert cat_graph(core) == cat_graph(g)
        assert tc_graph(core) == tc_graph(g)


def test_tower_termination_bound():
    rng = random.Random(43)
    for _ in range(200):
        e = random_stable_expr(rng, rng.randint(0, 4))
        assert wrk(e) <= seq_nesting_depth(e) + 1


def test_normalization_invariance():
    rng = random.Random(47)
    removed = 0
    for _ in range(80):
        e = random_stable_expr(rng, rng.randint(1, 3))
        if not isinstance(e, Node) or not e.fin:
            continue
        keep = tuple(a for a in e.fin if contains_scc(a.child))
        if len(keep) == len(e.fin):
            continue
        trimmed = Node(e.base, keep, e.seq)
        assert wrk(trimmed) == wrk(e)
        assert cat(trimmed) == cat(e)
        assert tc(trimmed) == tc(e)
        removed += 1
    assert removed > 0


# --- certificates -----------------------------------------------------------------------

def test_cat_certificate_circle():
    c = cat_certificate(graph_expr(cycle_graph(4)))
    assert c.length == 1
    assert [lv.reason for lv in c.levels] == ["spanning-tree-pieces",
                                              "graph-minus-tree-pieces"]


def test_cat_certificate_earring():
    c = cat_certificate(earring())
    assert c.length == 1
    assert [lv.reason for lv in c.levels] == ["dendrite-pieces",
                                              "contractible-pieces"]


def test_cat_certificate_wild_circle_three_levels():
    c = cat_certificate(wild_circle())
    assert c.length == 2
    assert len(c.levels) == 3


def test_tc_certificate_figure_eight_k_labels():
    c = tc_certificate(graph_expr(figure_eight()))
    assert c.length == 2
    assert [lv.reason for lv in c.levels] == ["spanning-tree-pieces",
                                              "graph-minus-tree-pieces",
                                              "product-box"]
    assert c.levels[0].description.startswith("K0: products T x T")


def test_tc_certificate_circle_antidiagonal():
    c = tc_certificate(graph_expr(cycle_graph(3)))
    assert c.length == 1
    assert c.levels[0].reason == "circle-antidiagonal"
    assert len(c.levels) == 2


def test_tc_certificate_earring_three_strata():
    c = tc_certificate(earring())
    assert c.length == 2
    assert len(c.levels) == 3
    assert c.levels[0].reason == "dendrite-pieces"


def test_certificate_lengths_match_formulas_random():
    rng = random.Random(53)
    for _ in range(40):
        e = random_stable_expr(rng, rng.randint(0, 3))
        assert cat_certificate(e).length == cat(e)
        assert tc_certificate(e).length == tc(e)
        assert len(cat_certificate(e).levels) == cat(e) + 1
        assert len(tc_certificate(e).levels) == tc(e) + 1


def test_certificates_reject_infinite_rank():
    with pytest.raises(InfiniteRankError):
        cat_certificate(SelfWild())
    with pytest.raises(InfiniteRankError):
        tc_certificate(SelfWild())


# --- truncate ----------------------------------------------------------------------------

def test_truncate_earring_wedge():
    g = truncate(earring(), 3)
    assert betti1(g) == 3
    assert g.n_components == 1


def test_truncate_identity_on_graphs():
    g = figure_eight()
    assert truncate(graph_expr(g), 5) == g


def test_truncate_depth_zero_keeps_skeleton():
    e = wild_circle()
    g = truncate(e, 0)
    assert g == e.base


def test_truncate_nested_depth_two():
    g = truncate(nested_rank3(), 2)
    assert betti1(g) == 6  # two copies, each one circle plus two attached
    assert g.n_components == 1


def test_truncate_attaches_along_edges():
    base = path_graph(2)
    e = Node(base, (), (SeqFamily(Subcomplex.of(base, [], ["e0"]),
                                  graph_expr(loop_graph()), Vertex("a")),))
    g = truncate(e, 2)
    assert betti1(g) == 2
    assert g.n_components == 1


def test_truncate_midedge_anchor():
    base = point_graph()
    pattern = graph_expr(cycle_graph(3))
    e = Node(base, (), (SeqFamily(Subcomplex.of(base, ["a"]), pattern,
                                  EdgeInterior("e1", Fraction(1, 2))),))
    # anchor mid-edge: stability holds (w(pattern) empty), gluing subdivides
    g = truncate(e, 2)
    assert betti1(g) == 2
    # the anchor's edge is cut nowhere else: one cut vertex, glued to the host
    ids = {ed.id for ed in g.edges}
    assert {"s0c0_e1_s0", "s0c0_e1_s1", "s0c1_e1_s0", "s0c1_e1_s1"} <= ids
    assert "s0c0_e1_p1" not in g.vertices and "e1" not in ids


# An anchor on an edge that the pattern's own attachments also cut: its
# parameter joins that edge's cuts, and _p/_s numbering runs over the union.
ANCHOR_ON_CUT_EDGE = {
    "shared-parameter": ("(node (base pt) (seqfam (v) (node (base tri) (seqfam "
                         "(a b c f0 f1 f2) (graph loop) (vertex o))) (edge f0 1/2)))",
                         13, 32),
    "own-parameter": ("(node (base tri) (attach (vertex a) (node (base tri) (attach "
                      "(edge f0 1/2) (graph loop) (vertex o))) (edge f0 1/3)))",
                      7, 9),
}


@pytest.mark.parametrize("case", sorted(ANCHOR_ON_CUT_EDGE))
def test_truncate_anchor_on_an_edge_the_pattern_cuts(case):
    text, n_vertices, n_edges = ANCHOR_ON_CUT_EDGE[case]
    e = parse_spacefile(chain_space_text(text)).main_expr()
    g = truncate(e, 4)
    assert (len(g.vertices), len(g.edges)) == (n_vertices, n_edges)
    assert g.n_components == 1


def test_truncate_anchor_cut_and_attachment_cut_share_an_edge():
    e = parse_spacefile(chain_space_text(ANCHOR_ON_CUT_EDGE["own-parameter"][0])).main_expr()
    g = truncate(e, 4)
    # f0 of the child is cut at 1/3 (its anchor, glued to a) and 1/2 (the loop)
    assert g.vertices == ("a", "b", "c", "a0_a", "a0_b", "a0_c", "a0_f0_p2")
    assert [(ed.id, ed.v0, ed.v1) for ed in g.edges[3:]] == [
        ("a0_f0_s0", "a0_a", "a"), ("a0_f0_s1", "a", "a0_f0_p2"),
        ("a0_f0_s2", "a0_f0_p2", "a0_b"), ("a0_f1", "a0_b", "a0_c"),
        ("a0_f2", "a0_c", "a0_a"), ("a0_a0_l", "a0_f0_p2", "a0_f0_p2")]


def test_truncate_rejects_atoms():
    with pytest.raises(ExprError, match="atom"):
        truncate(SelfWild(), 2)
    base = point_graph()
    e = Node(base, (Attachment(Vertex("a"), ZeroDimWild(), Vertex("x")),), ())
    with pytest.raises(ExprError, match="atom"):
        truncate(e, 1)


def test_truncate_consistency_random():
    rng = random.Random(59)
    for _ in range(30):
        e = random_stable_expr(rng, rng.randint(0, 2))
        t_e = tc(e)
        prev_b1 = -1
        for depth in (1, 2, 4):
            g = truncate(e, depth)
            b = betti1(g)
            assert b >= prev_b1
            prev_b1 = b
            if t_e >= 2:
                assert tc_graph(g) <= t_e
