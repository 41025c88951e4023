"""The iterative ``truncate`` against the recursive reference.

``wild_reference.truncate`` expands every subexpression into its own graph
and glues it in.  The one-pass walk must give the same vertex and edge
tuples, or the same error, on the random stable corpora of acceptance
criteria 5 and 7, on the fixtures, on a rank-growing chain and on random
expressions whose identifiers are chosen to collide once prefixed.  Two
departures are allowed:

* the reference fails with ``KeyError`` when an anchor lies on an edge that
  the pattern's own attachments also cut; the walk truncates these;
* a duplicate-identifier ``GraphError`` may name another identifier, since
  the walk validates the whole graph once instead of level by level.

Every successful truncation is also checked against a size count that
knows nothing of names, ``_size``, and against ``wild.truncation_size``,
which counts the same without recursion and without enumerating cuts.  Against ``wild_reference.walk_truncate``, the
template walk with a name per copy and an anchor check per copy, no
departure is allowed: the same vertex and edge lists, or the same error
text.
"""

import glob
import os
import random
from fractions import Fraction

import wild_reference as ref
from wildcat import graphs, wild
from wildcat.graphs import GraphError, Vertex, EdgeInterior, build_graph
from wildcat.spacefile import parse_spacefile
from wildcat.wild import Node, Attachment, SeqFamily, Subcomplex, graph_expr

from gen import (attach_chain_text, path_graph, rank_chain_text,
                 seq_chain_text)
from test_analysis import _corpus_5150, _corpus_707, _random_corpus


def _outcome(fn, e, depth):
    try:
        g = fn(e, depth)
    except (ValueError, KeyError) as exc:
        return ("raises", type(exc), str(exc))
    return ("ok", g.vertices, g.edges)


def _size(e, depth, anchor=None):
    """(vertices, edges) of the truncation: each distinct cut point adds a
    vertex and an edge, and gluing at the anchor removes one vertex."""
    points = [att.at for att in e.fin] + [anchor]
    cuts = {(p.edge, p.t) for p in points if isinstance(p, EdgeInterior)}
    v = len(e.base.vertices) - (anchor is not None)
    es = len(e.base.edges)
    for att in e.fin:
        cv, ce = _size(att.child, depth, att.anchor)
        v, es = v + cv, es + ce
    for fam in e.seq:
        cells = list(fam.subcomplex.vertices) + [None] * len(fam.subcomplex.edges)
        for eid, ref_index in zip(fam.subcomplex.edges, range(len(fam.subcomplex.vertices), len(cells))):
            m = sum(1 for c in range(depth) if c % len(cells) == ref_index)
            cuts.update((eid, Fraction(j, m + 1)) for j in range(1, m + 1))
        cv, ce = _size(fam.pattern, depth, fam.anchor)
        v, es = v + depth * cv, es + depth * ce
    return v + len(cuts), es + len(cuts)


def _duplicate(outcome):
    return (outcome[0] == "raises" and outcome[1] is GraphError
            and outcome[2].startswith("duplicate identifier"))


def _check(e, depths):
    """Compare with the reference; returns the kinds of agreement seen."""
    kinds = []
    for depth in depths:
        got = _outcome(wild.truncate, e, depth)
        want = _outcome(ref.truncate, e, depth)
        if got[0] == "ok":
            size = (len(got[1]), len(got[2]))
            assert size == _size(e, depth) == wild.truncation_size(e, depth)
        if want[:2] == ("raises", KeyError):
            # where names also collide, the walk goes on to find that
            assert got[0] == "ok" or _duplicate(got), got
            kinds.append("anchor-on-cut-edge")
        elif _duplicate(got) and _duplicate(want):
            kinds.append("same-duplicate" if got == want else "other-duplicate")
        else:
            assert got == want
            kinds.append(got[0])
    return kinds


def test_matches_reference_on_criterion_5_corpus():
    for e in _corpus_5150():
        assert set(_check(e, (0, 1, 2, 3))) == {"ok"}


def test_matches_reference_on_criterion_7_corpus():
    for e in _corpus_707():
        assert set(_check(e, (0, 1, 2, 4))) == {"ok"}


def test_matches_reference_on_fixtures():
    fixtures = glob.glob(os.path.join(os.path.dirname(__file__), "fixtures",
                                      "*.space"))
    assert fixtures
    for path in fixtures:
        with open(path, encoding="ascii") as fh:
            _check(parse_spacefile(fh.read()).main_expr(), (0, 1, 2, 3, 4))


def test_matches_reference_on_rank_chain():
    e = parse_spacefile(rank_chain_text(3)).main_expr()
    assert _check(e, (5,)) == ["ok"]


def test_matches_reference_at_benchmark_scale():
    # nested3 at depth 20, and a three-level triangle chain at depth 12,
    # where each edge holds two copies of a pattern whose expansion is
    # shared, so _p/_s numbering runs over reused templates
    with open(os.path.join(os.path.dirname(__file__), "fixtures", "nested3.space"),
              encoding="ascii") as fh:
        assert _check(parse_spacefile(fh.read()).main_expr(), (20,)) == ["ok"]
    text = ("graph pt\nvertex v\nendgraph\n"
            "graph tri\nvertex q1\nvertex q2\nvertex q3\n"
            "edge f0 q1 q2\nedge f1 q2 q3\nedge f2 q3 q1\nendgraph\n"
            "graph loop\nvertex o\nedge l o o\nendgraph\n")
    inner, anchor = "(graph loop)", "(vertex o)"
    for a in ("q2", "q3", "q1"):
        inner = f"(node (base tri) (seqfam (q1 q2 q3 f0 f1 f2) {inner} {anchor}))"
        anchor = f"(vertex {a})"
    text += f"expr chain (node (base pt) (seqfam (v) {inner} {anchor}))\nmain chain\n"
    e = parse_spacefile(text).main_expr()
    assert _check(e, (12,)) == ["ok"]
    assert _size(e, 12)[1] > 30000


def test_one_node_under_two_anchors():
    # the same Node is a fin child glued at a vertex and a seq pattern glued
    # at an edge point; the edge anchor cuts f0, the vertex anchor does not,
    # so the two need their own expansions
    tri = build_graph(["a", "b", "c"], [("f0", "a", "b"), ("f1", "b", "c"),
                                        ("f2", "c", "a")])
    loop = graph_expr(build_graph(["o"], [("l", "o", "o")]))
    pattern = Node(tri, (), (SeqFamily(Subcomplex.of(tri, ["b"]), loop, Vertex("o")),))
    root = Node(tri, (Attachment(Vertex("a"), pattern, Vertex("c")),),
                (SeqFamily(Subcomplex.whole(tri), pattern,
                           EdgeInterior("f0", Fraction(1, 3))),))
    assert _check(root, (0, 1, 2, 5, 7)) == ["ok"] * 5


def test_matches_reference_on_unstable_and_atom_corpus():
    kinds = set()
    for e in _random_corpus(9001, 200, 3):
        kinds.update(_check(e, (0, 2)))
    assert {"ok", "raises", "anchor-on-cut-edge"} <= kinds


# --- identifiers that collide once prefixed ---------------------------------

# prefixes are a<i>_ and s<i>c<c>_, cut vertices <edge>_p<k>, segments
# <edge>_s<k>: names built from those pieces can meet names made by the
# expansion, at the same level or deeper
_VERTEX_POOL = ["v", "w", "a0_v", "a0_w", "a1_v", "s0c0_v", "s0c1_w",
                "e_p1", "e_p2", "f_p1", "a0_e_p1", "s0c0_e_p1"]
_EDGE_POOL = ["e", "f", "a0_e", "a0_f", "s0c0_e", "s0c0_f", "e_s0", "e_s1",
              "f_s1", "a0_e_s0"]
_PARAMS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4)]


def _colliding_graph(rng):
    vs = rng.sample(_VERTEX_POOL, rng.randint(1, 3))
    es = [(eid, rng.choice(vs), rng.choice(vs))
          for eid in rng.sample(_EDGE_POOL, rng.randint(0, 3))]
    return build_graph(vs, es)


def _colliding_point(rng, g):
    if g.edges and rng.random() < 0.4:
        return EdgeInterior(rng.choice(g.edges).id, rng.choice(_PARAMS))
    return Vertex(rng.choice(g.vertices))


def _colliding_expr(rng, depth):
    base = _colliding_graph(rng)
    if depth == 0 or rng.random() < 0.25:
        return graph_expr(base)
    fin = []
    for _ in range(rng.randint(0, 2)):
        child = _colliding_expr(rng, depth - 1)
        fin.append(Attachment(_colliding_point(rng, base), child,
                              _colliding_point(rng, child.base)))
    seq = []
    for _ in range(rng.randint(0, 2)):
        pattern = _colliding_expr(rng, depth - 1)
        mode = rng.randrange(3)
        if mode == 0 or not base.edges:
            sc = Subcomplex.of(base, [rng.choice(base.vertices)], [])
        elif mode == 1:
            sc = Subcomplex.of(base, [], [rng.choice(base.edges).id])
        else:
            sc = Subcomplex.whole(base)
        seq.append(SeqFamily(sc, pattern, _colliding_point(rng, pattern.base)))
    return Node(base, tuple(fin), tuple(seq))


def test_matches_reference_on_colliding_identifiers():
    rng = random.Random(4242)
    kinds = []
    for _ in range(2000):
        kinds += _check(_colliding_expr(rng, rng.randint(0, 3)), (rng.randint(0, 4),))
    counts = {k: kinds.count(k) for k in set(kinds)}
    # the corpus reaches every outcome, not just the easy ones
    assert counts["ok"] >= 1000, counts
    assert counts["same-duplicate"] >= 100, counts
    assert counts["anchor-on-cut-edge"] >= 20, counts


# --- against the per-copy template walk --------------------------------------

# ``wild_reference.walk_truncate`` is the template walk before copies shared
# their name strings and before the anchor check ran once per template.  The
# two must agree exactly: the same vertex and edge lists, or the same error
# with the same text, so the same first duplicate identifier.

def _exact(fn, e, depth):
    try:
        g = fn(e, depth)
    except ValueError as exc:
        return ("raises", type(exc), str(exc))
    return ("ok", g.vertices, g.edges)


def _same_as_walk(e, depths):
    """The outcomes, each equal to the old walk's; "anchor" where only the
    old walk's anchor check rejects the expansion."""
    kinds = []
    for depth in depths:
        want = _exact(ref.walk_truncate, e, depth)
        assert _exact(wild.truncate, e, depth) == want, (depth, want)
        if want[0] == "ok" or want[1] is not GraphError:
            kinds.append(want[0])
            continue
        try:
            build_graph(*ref._walk_expand(e, depth)[:2])
        except GraphError:
            kinds.append("raises")
        else:
            kinds.append("anchor")
    return kinds


def _two_anchor_exprs():
    """One pattern glued first at a vertex, then at a point of its edge
    ``e``, once as a second attachment and once as a family's copies.  The
    cut vertex the second anchor would write, ``e_p1``, is also a vertex of
    the pattern's base, so only the second (node, anchor) template fails
    the anchor check."""
    pattern = Node(build_graph(["v", "w", "e_p1"], [("e", "v", "w"), ("f", "w", "e_p1")]))
    base = build_graph(["p", "q"], [("s", "p", "q")])
    mid = EdgeInterior("e", Fraction(1, 2))
    yield Node(base, (Attachment(Vertex("p"), pattern, Vertex("v")),
                      Attachment(Vertex("q"), pattern, mid)))
    yield Node(base, (Attachment(Vertex("p"), pattern, Vertex("v")),),
               (SeqFamily(Subcomplex.whole(base), pattern, mid),))


def test_matches_walk_on_criterion_corpora():
    for e in _corpus_5150():
        assert set(_same_as_walk(e, (0, 1, 2, 3))) == {"ok"}
    for e in _corpus_707():
        assert set(_same_as_walk(e, (0, 1, 2, 4))) == {"ok"}


def test_matches_walk_on_fixtures():
    fixtures = glob.glob(os.path.join(os.path.dirname(__file__), "fixtures",
                                      "*.space"))
    assert len(fixtures) == 21
    for path in fixtures:
        with open(path, encoding="ascii") as fh:
            _same_as_walk(parse_spacefile(fh.read()).main_expr(), (0, 1, 2, 3, 4))


def test_matches_walk_on_colliding_identifiers():
    rng = random.Random(4242)
    kinds = []
    for _ in range(2000):
        kinds += _same_as_walk(_colliding_expr(rng, rng.randint(0, 3)),
                               (rng.randint(0, 4),))
    counts = {k: kinds.count(k) for k in set(kinds)}
    assert counts["ok"] >= 1000, counts
    assert counts["anchor"] >= 20, counts


def test_matches_walk_on_one_node_under_two_anchors():
    for e in _two_anchor_exprs():
        assert _same_as_walk(e, (1, 2, 3)) == ["anchor"] * 3


# --- cost --------------------------------------------------------------------

def test_truncate_builds_one_graph(monkeypatch):
    e = parse_spacefile(rank_chain_text(3)).main_expr()
    count = [0]
    original = graphs.MultiGraph.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(graphs.MultiGraph, "__init__", counting)
    for depth in (0, 1, 4):
        count[0] = 0
        g = wild.truncate(e, depth)
        assert count[0] == 1, (depth, count[0])
    assert len(g.edges) > 500


def test_templates_do_not_grow_with_depth(monkeypatch):
    # one expansion per (node, anchor) pair: the point, three triangles and
    # the loop, however many copies each family makes
    e = parse_spacefile(rank_chain_text(3)).main_expr()
    count = [0]
    original = wild._template

    def counting(*args):
        count[0] += 1
        return original(*args)

    monkeypatch.setattr(wild, "_template", counting)
    counts = []
    for depth in (4, 12):
        count[0] = 0
        wild.truncate(e, depth)
        counts.append(count[0])
    assert counts == [5, 5]


def test_equal_patterns_share_one_template(monkeypatch):
    # two distinct but equal loop patterns glued at the same anchor are one
    # (node, anchor) pair: the root and one loop, not two
    base = build_graph(["p", "q"], [("s", "p", "q")])
    one, two = (graph_expr(build_graph(["o"], [("l", "o", "o")]))
                for _ in range(2))
    assert one is not two and one == two
    e = Node(base, (), (SeqFamily(Subcomplex.of(base, ["p"]), one, Vertex("o")),
                        SeqFamily(Subcomplex.of(base, ["q"]), two, Vertex("o"))))
    count = [0]
    original = wild._template

    def counting(*args):
        count[0] += 1
        return original(*args)

    monkeypatch.setattr(wild, "_template", counting)
    assert wild.truncate(e, 3) == ref.truncate(e, 3)
    assert count[0] == 2


def test_anchor_records_do_not_grow_with_depth():
    # the anchor check runs once per anchored (node, anchor) template, so at
    # most the chain's five; the per-copy walk keeps one per copy
    e = parse_spacefile(rank_chain_text(3)).main_expr()
    for depth in (4, 12):
        assert len(wild._expand(e, depth)[2]) <= 5
    assert len(ref._walk_expand(e, 4)[2]) > 5


def _shares_names(g):
    names = {id(v) for v in g.vertices}
    return all(id(v0) in names and id(v1) in names for _, v0, v1 in g.edges)


def test_edges_share_the_vertex_name_strings():
    # a copy names its vertices once and its edges point at those strings;
    # the per-copy walk concatenates every endpoint again
    e = parse_spacefile(rank_chain_text(3)).main_expr()
    assert _shares_names(wild.truncate(e, 4))
    assert not _shares_names(ref.walk_truncate(e, 4))


# --- the size count ----------------------------------------------------------

def test_truncation_size_matches_output_on_corpora_and_fixtures():
    fixtures = glob.glob(os.path.join(os.path.dirname(__file__), "fixtures",
                                      "*.space"))
    exprs = _corpus_5150() + _corpus_707()
    for path in fixtures:
        with open(path, encoding="ascii") as fh:
            exprs.append(parse_spacefile(fh.read()).main_expr())
    atoms = 0
    for e in exprs:
        for depth in range(5):
            want = _exact(wild.truncate, e, depth)
            if want[0] == "raises":
                # the atom fixtures: the count refuses them the same way
                assert _exact(wild.truncation_size, e, depth) == want
                atoms += 1
                continue
            size = (len(want[1]), len(want[2]))
            assert wild.truncation_size(e, depth) == size == _size(e, depth)
    assert atoms == 10


def _shared_edge_expr():
    """Two families put copies on edge e0 at j/(m + 1) for different m, and
    two attachments cut it at 1/2 and 1/3, so many cuts coincide."""
    base = path_graph(3)
    loop = graph_expr(build_graph(["o"], [("l", "o", "o")]))
    fin = tuple(Attachment(EdgeInterior("e0", t), loop, Vertex("o"))
                for t in (Fraction(1, 2), Fraction(1, 3)))
    return Node(base, fin, (
        SeqFamily(Subcomplex.of(base, [], ["e0"]), loop, Vertex("o")),
        SeqFamily(Subcomplex.whole(base), loop, Vertex("o"))))


def test_truncation_size_counts_shared_cuts_once():
    e = _shared_edge_expr()
    for depth in range(40):
        g = wild.truncate(e, depth)
        assert wild.truncation_size(e, depth) == (len(g.vertices), len(g.edges))
        assert _size(e, depth) == (len(g.vertices), len(g.edges))


def test_truncation_size_does_not_enumerate_copies():
    # a family on the edge of a 2-vertex path puts a copy at each of its
    # three cells in turn: 10^9 on the edge, cutting it 10^9 times
    base = path_graph(2)
    loop = graph_expr(build_graph(["o"], [("l", "o", "o")]))
    e = Node(base, (), (SeqFamily(Subcomplex.of(base, [], ["e0"]), loop,
                                  Vertex("o")),))
    depth = 3 * 10 ** 9
    assert wild.truncation_size(e, depth) == (2 + 10 ** 9, 1 + 10 ** 9 + depth)


def test_truncation_size_on_deep_chains():
    # 1500 nested attachments or families, walked with an explicit stack;
    # at depth 1 each of the 1500 triangles adds two vertices and three
    # edges, as the truncate CLI tests find
    for text in (attach_chain_text(1500), seq_chain_text(1500),
                 rank_chain_text(1500)):
        e = parse_spacefile(text).main_expr()
        assert wild.truncation_size(e, 1) == (3001, 4501)
    # two copies per family: the rank chain's size doubles per level
    n_vertices, n_edges = wild.truncation_size(e, 2)
    assert 2 ** 1500 < n_edges < 2 ** 1504
