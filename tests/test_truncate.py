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
which counts the same without recursion and without enumerating cuts;
``wild_reference.truncation_size``, the explicit-stack walk memoised by
(node, anchor) that it replaced, must give the same counts or errors on
the fixtures, all three random corpora and a rank-growing chain at depths
0 to 5 and 10^9.
``wild.truncation_betti1`` must give ``graphs.betti1`` of the output; three
mutants of it are negative controls (a family's copies counted once, the
finite attachments left out, the base's own cycles left out).  Against
``wild_reference.walk_truncate``, the template walk with a name per copy
and an anchor check per copy, no departure is allowed: the same vertex and
edge lists, or the same error text.

When every template proves its names, ``truncation_records`` returns the
expansion's records without checking names, and ``truncate`` builds its
graph from them unchecked (``MultiGraph._trusted``).  A corpus of local
names that start with copy tokens (``a0_x``, ``s0c1_v``, ...), at the
root, in an ancestor, in a sibling and as an anchor, must take the checking
path and still match the walk; the benchmark's chain must check no name.
Four mutants are the negative controls: a token test that misses
``s<i>c<c>_``, a template check without the anchor's name, the unchecked
path taken for an unproven template, and a run of leaf copies written in
reverse.

``wildcat truncate`` writes its text straight from the expansion's chunks
and builds no graph and, when the names are proven, no record.  On the
fixtures, both criterion corpora, the token corpus and a 1500-deep chain it
must write what it wrote when it printed, with ``print_spacefile``, the
graph that the checking constructor built from ``ref.records_expand``, the
walk that filled two lists: the same exit code, stdout, stderr, ``-o`` file
and ``--dot`` file.  Two writer mutants are the negative controls: a run of
leaf copies that leaves its hosts unsubstituted, and the edge lines of the
first two chunks swapped.
"""

import glob
import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

import wild_reference as ref
from wildcat import cli, graphs, wild
from wildcat.graphs import GraphError, MultiGraph, Vertex, EdgeInterior, build_graph
from wildcat.spacefile import SpaceFile, parse_spacefile, print_spacefile
from wildcat.wild import Node, Attachment, SeqFamily, Subcomplex, graph_expr

from gen import (attach_chain_text, path_graph, rank_chain_text,
                 seq_chain_text)
from test_analysis import _corpus_5150, _corpus_707, _random_corpus
from test_lift import _mutant as _lift_mutant
from test_tower_summary import _mutant


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


def _benchmark_chain():
    """A three-level triangle chain of the benchmark's shape: each level
    puts its copies of the next round the triangle's cells, and the last
    level puts copies of a loop."""
    text = ("graph pt\nvertex v\nendgraph\n"
            "graph tri\nvertex q1\nvertex q2\nvertex q3\n"
            "edge f0 q1 q2\nedge f1 q2 q3\nedge f2 q3 q1\nendgraph\n"
            "graph loop\nvertex o\nedge l o o\nendgraph\n")
    inner, anchor = "(graph loop)", "(vertex o)"
    for a in ("q2", "q3", "q1"):
        inner = f"(node (base tri) (seqfam (q1 q2 q3 f0 f1 f2) {inner} {anchor}))"
        anchor = f"(vertex {a})"
    text += f"expr chain (node (base pt) (seqfam (v) {inner} {anchor}))\nmain chain\n"
    return parse_spacefile(text).main_expr()


def test_matches_reference_at_benchmark_scale():
    # nested3 at depth 20, and the benchmark's chain at depth 12, where
    # each edge holds two copies of a pattern whose expansion is shared, so
    # _p/_s numbering runs over reused templates
    with open(os.path.join(os.path.dirname(__file__), "fixtures", "nested3.space"),
              encoding="ascii") as fh:
        assert _check(parse_spacefile(fh.read()).main_expr(), (20,)) == ["ok"]
    e = _benchmark_chain()
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


# --- names proven on the templates -------------------------------------------

# local names that start with a copy token.  Beside them every base has
# vertices v and x and an edge e from v to x, so some meet names that a
# copy writes: a0_x the x of attachment a0, s0c1_v the v of family copy 1,
# s0c0_a0_x the x of that copy's own attachment.
_TOKEN_NAMES = ("a0_x", "s0c1_v", "s12c3_e", "a1_p1", "a0_e_p1", "s0c0_a0_x")
_TOKEN_PLACES = ("root", "ancestor", "sibling", "anchor")


def _token_graph(name=None, kind=None):
    vs, es = ["v", "x"], [("e", "v", "x")]
    if kind == "vertex":
        vs.append(name)
        es.append(("g", "x", name))
    elif kind == "edge":
        es.append((name, "v", "x"))
    return build_graph(vs, es)


def _token_expr(name, kind, place):
    """A root with two leaf attachments, a0 at v and a1 at the middle of e,
    and a family round all its cells whose pattern has a leaf attachment
    a0 of its own.  ``name`` is a vertex or an edge of the root's base, of
    the pattern's base (an ancestor of its attachment), of the root's a0
    (a sibling of the family's copies), or the point the pattern is
    glued at."""
    def base(*places):
        return _token_graph(name, kind) if place in places else _token_graph()

    leaf = graph_expr(_token_graph())
    pattern = Node(base("ancestor", "anchor"), (Attachment(Vertex("x"), leaf, Vertex("v")),))
    anchor = Vertex("x")
    if place == "anchor":
        anchor = Vertex(name) if kind == "vertex" else EdgeInterior(name, Fraction(1, 2))
    root = base("root")
    return Node(root, (Attachment(Vertex("v"), graph_expr(base("sibling")), Vertex("v")),
                       Attachment(EdgeInterior("e", Fraction(1, 2)), leaf, Vertex("x"))),
                (SeqFamily(Subcomplex.whole(root), pattern, anchor),))


def _token_corpus():
    """(expression, depth) pairs: each token name as a vertex and as an edge
    at each place, at depths that reach every template."""
    return [(_token_expr(name, kind, place), depth)
            for name in _TOKEN_NAMES for kind in ("vertex", "edge")
            for place in _TOKEN_PLACES for depth in (1, 2, 4)]


def _count_name_checks(monkeypatch):
    """Count calls of the one name checker, through both modules that
    call it."""
    count = [0]
    original = graphs._check_names

    def counting(vs, es):
        count[0] += 1
        return original(vs, es)

    for module in (graphs, wild):
        monkeypatch.setattr(module, "_check_names", counting)
    return count


def test_token_corpus_takes_the_checked_build(monkeypatch):
    corpus = _token_corpus()
    count = _count_name_checks(monkeypatch)
    kinds = []
    for e, depth in corpus:
        assert wild._expand(e, depth)[2] is False
        count[0] = 0
        try:
            wild.truncate(e, depth)
        except GraphError:
            pass
        assert count[0] >= 1
        kinds += _same_as_walk(e, (depth,))
    counts = {k: kinds.count(k) for k in set(kinds)}
    # a clean build, a duplicate the build finds and one only the anchor
    # check finds
    assert counts["ok"] >= 100 and counts["raises"] >= 10 and counts["anchor"] >= 3, counts


def test_benchmark_chain_checks_no_name(monkeypatch):
    e = _benchmark_chain()
    count = _count_name_checks(monkeypatch)
    g = wild.truncate(e, 12)
    assert count[0] == 0
    assert len(g.edges) > 30000


PROOF_MUTANTS = {
    "token-test-misses-family-copies": (
        '_COPY_TOKEN = re.compile(r"a\\d+_|s\\d+c\\d+_")\n',
        '_COPY_TOKEN = re.compile(r"a\\d+_")\n'),
    "anchor-name-not-checked": ("        names.append(record[0])\n",
                                "        pass\n"),
    "trusted-although-flagged": ("    if proven:\n", "    if True:\n"),
    "leaf-run-in-reverse": (
        "        for (_, _, suffix, at), (tvs, tes, _, _) in reversed(list(group)):\n",
        "        for (_, _, suffix, at), (tvs, tes, _, _) in group:\n"),
}


@pytest.mark.parametrize("mutant", sorted(PROOF_MUTANTS))
def test_name_proof_negative_control(monkeypatch, mutant):
    module = _mutant(monkeypatch, *PROOF_MUTANTS[mutant])
    cases = _token_corpus() + [(e, 2) for e in _two_anchor_exprs()]
    cases.append((_benchmark_chain(), 4))
    assert any(_exact(module.truncate, e, depth) != _exact(ref.walk_truncate, e, depth)
               for e, depth in cases)


# --- cost --------------------------------------------------------------------

def test_truncate_builds_one_graph(monkeypatch):
    # the checked constructor and ``_trusted`` both build their tables
    # through ``_tables``, once per graph; the chain takes the trusted
    # build, the token-named chain the checked one
    e = parse_spacefile(rank_chain_text(3)).main_expr()
    tokened = parse_spacefile(rank_chain_text(3).replace(" o", " a0_o")).main_expr()
    count = [0]
    original = graphs.MultiGraph._tables

    def counting(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(graphs.MultiGraph, "_tables", counting)
    # at depth 0 the loop, the only template with a token name, is not reached
    for expr, proven, depths in ((e, True, (0, 1, 4)), (tokened, False, (1, 4))):
        for depth in depths:
            count[0] = 0
            g = wild.truncate(expr, depth)
            assert count[0] == 1, (depth, count[0])
            assert wild._expand(expr, depth)[2] is proven
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
        assert len(wild._expand(e, depth)[1]) <= 5
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

def _corpora_and_fixtures():
    fixtures = glob.glob(os.path.join(os.path.dirname(__file__), "fixtures",
                                      "*.space"))
    exprs = _corpus_5150() + _corpus_707()
    for path in fixtures:
        with open(path, encoding="ascii") as fh:
            exprs.append(parse_spacefile(fh.read()).main_expr())
    return exprs


def test_truncation_size_matches_output_on_corpora_and_fixtures():
    atoms = 0
    for e in _corpora_and_fixtures():
        for depth in range(5):
            want = _exact(wild.truncate, e, depth)
            if want[0] == "raises":
                # the atom fixtures: the counts refuse them the same way
                assert _exact(wild.truncation_size, e, depth) == want
                assert _exact(wild.truncation_betti1, e, depth) == want
                atoms += 1
                continue
            size = (len(want[1]), len(want[2]))
            assert wild.truncation_size(e, depth) == size == _size(e, depth)
            b1 = graphs.betti1(build_graph(want[1], want[2]))
            assert wild.truncation_betti1(e, depth) == b1
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
        assert wild.truncation_betti1(e, depth) == graphs.betti1(g)


def test_truncation_size_does_not_enumerate_copies():
    # a family on the edge of a 2-vertex path puts a copy at each of its
    # three cells in turn: 10^9 on the edge, cutting it 10^9 times
    base = path_graph(2)
    loop = graph_expr(build_graph(["o"], [("l", "o", "o")]))
    e = Node(base, (), (SeqFamily(Subcomplex.of(base, [], ["e0"]), loop,
                                  Vertex("o")),))
    depth = 3 * 10 ** 9
    assert wild.truncation_size(e, depth) == (2 + 10 ** 9, 1 + 10 ** 9 + depth)
    # a tree with one loop per copy
    assert wild.truncation_betti1(e, depth) == depth


def _size_outcome(fn, e, depth):
    try:
        return ("ok", fn(e, depth))
    except ValueError as exc:
        return ("raises", type(exc), str(exc))


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4, 5, 10 ** 9])
def test_truncation_size_matches_the_stack_walk(depth):
    # one pass over the analysis memo, each child's cuts added at its
    # anchor, counts what the walk memoised by (node, anchor) counted, and
    # refuses the atom expressions the same way
    exprs = (_corpora_and_fixtures() + _random_corpus(9001, 400, 4)
             + [parse_spacefile(rank_chain_text(40)).main_expr()])
    outcomes = [_size_outcome(wild.truncation_size, e, depth) for e in exprs]
    assert outcomes == [_size_outcome(ref.truncation_size, e, depth) for e in exprs]
    refused = sum(1 for got in outcomes if got[0] == "raises")
    assert 50 <= refused < len(exprs) - 250


def test_truncation_size_on_deep_chains():
    # 1500 nested attachments or families, counted in one pass over the
    # memo; at depth 1 each of the 1500 triangles adds two vertices and
    # three edges, as the truncate CLI tests find
    for text in (attach_chain_text(1500), seq_chain_text(1500),
                 rank_chain_text(1500)):
        e = parse_spacefile(text).main_expr()
        assert wild.truncation_size(e, 1) == (3001, 4501)
        # connected, so b1 = E - V + 1
        assert wild.truncation_betti1(e, 1) == 1501
    # two copies per family: the rank chain's size doubles per level
    n_vertices, n_edges = wild.truncation_size(e, 2)
    assert 2 ** 1500 < n_edges < 2 ** 1504
    assert wild.truncation_betti1(e, 2) == n_edges - n_vertices + 1


BETTI1_MUTANTS = {
    "seq-copies-counted-once": (
        "                    + depth * sum(b1[fam.pattern] for fam in node.seq))\n",
        "                    + sum(b1[fam.pattern] for fam in node.seq))\n"),
    "fin-children-dropped": (
        "                    + sum(b1[att.child] for att in node.fin)\n",
        "                    + 0\n"),
    "base-left-out": ("        b1[node] = (betti1(node.base)\n",
                      "        b1[node] = (0\n"),
}


@pytest.mark.parametrize("mutant", sorted(BETTI1_MUTANTS))
def test_truncation_betti1_negative_control(monkeypatch, mutant):
    module = _mutant(monkeypatch, *BETTI1_MUTANTS[mutant])

    def differs(e, depth):
        try:
            g = wild.truncate(e, depth)
        except ValueError:
            return False
        return module.truncation_betti1(e, depth) != graphs.betti1(g)

    assert any(differs(e, depth) for e in _corpora_and_fixtures()
               for depth in range(3))


class _CountingMemo(dict):
    """An analysis memo that counts the entries its iterators yield, forwards
    or backwards."""

    reached = 0

    def __iter__(self):
        for x in dict.__iter__(self):
            self.reached += 1
            yield x

    def __reversed__(self):
        for x in dict.__reversed__(self):
            self.reached += 1
            yield x


def _counts_around_the_tower(module, depth=3):
    """Both counts of a 20-deep rank chain at ``depth``, with the memo
    entries the two passes read, asked of one analysis before and after
    ``wild_tower`` adds the wild pieces to its memo; and the memo's size
    at each point."""
    a = module.analyze(parse_spacefile(rank_chain_text(20)).main_expr())
    out = []
    for ask_tower in (False, True):
        if ask_tower:
            module.wild_tower(a)
        a._memo = memo = _CountingMemo(a._memo)
        out.append((module.truncation_size(a, depth), module.truncation_betti1(a, depth),
                    memo.reached, len(memo)))
    return out


def test_truncation_counts_walk_only_the_truncation():
    before, after = _counts_around_the_tower(wild)
    assert (before[3], after[3]) == (22, 63)
    assert before[:3] == after[:3] and before[2] == 2 * 22


def test_truncation_count_guard_catches_a_walk_of_the_whole_memo(monkeypatch):
    module = _mutant(monkeypatch, "        if x is a.expr:\n", "        if False:\n")
    before, after = _counts_around_the_tower(module)
    assert before[:2] == after[:2] and after[2] > before[2]


def _profile_around_the_tower(module):
    """The profile of a 20-deep rank chain, with the memo entries its pass
    reads, asked of a fresh analysis and of one that has answered
    ``wild_tower``; and the memo's size at each point."""
    out = []
    for ask_tower in (False, True):
        a = module.analyze(parse_spacefile(rank_chain_text(20)).main_expr())
        if ask_tower:
            module.wild_tower(a)
        a._memo = memo = _CountingMemo(a._memo)
        out.append((a.profile(), memo.reached, len(memo)))
    return out


def test_profile_reads_only_the_expressions_memo_entries():
    before, after = _profile_around_the_tower(wild)
    assert (before[2], after[2]) == (22, 63)
    assert before[:2] == after[:2] and before[1] == 22


def test_profile_guard_catches_a_walk_of_the_whole_memo(monkeypatch):
    module = _mutant(monkeypatch, "for x in reversed(list(_subexpressions(self))):",
                     "for x in reversed(memo):")
    before, after = _profile_around_the_tower(module)
    assert before[0] == after[0] and after[1] > before[1]


# --- the command's text against the graph the command used to print --------

def _graph_truncate(e, depth):
    """``truncate`` before ``truncation_records``: the expansion that filled
    two lists, built by the checking constructor, then the two anchor checks
    run on the graph."""
    vs, es, anchors, proven = ref.records_expand(wild._require_truncatable(e, depth), depth)
    if proven:
        return MultiGraph._trusted(vs, es)
    g = build_graph(vs, es)
    for vname, eid, v0, e0, v1, e1 in anchors:
        if vname in g.degree and vname in vs[v0:v1]:
            raise GraphError(f"duplicate identifier {vname!r}")
        if eid in g.edge_by_id and any(ed[0] == eid for ed in es[e0:e1]):
            raise GraphError(f"duplicate identifier {eid!r}")
    return g


def _one_chunk(g):
    """The chunks that write graph ``g``: one, with its names, and its edges
    with endpoints indexing them."""
    names = list(g.vertices)
    index = {v: k for k, v in enumerate(names)}
    return [wild.Chunk(names, names, "", [(i, index[v0], index[v1]) for i, v0, v1 in g.edges])]


def _print_records(name, chunks):
    """What the command printed before it wrote from the chunks."""
    return print_spacefile(SpaceFile({name: wild.chunk_records(chunks)}, {}, name))


def _route_through_the_graph(monkeypatch):
    """Make the command print, with ``print_spacefile``, the graph that the
    checking constructor builds from ``ref.records_expand``."""
    monkeypatch.setattr(cli, "truncation_chunks", lambda e, depth: _one_chunk(_graph_truncate(e, depth)))
    monkeypatch.setattr(cli, "print_chunks", _print_records)


def _command_outputs(path, depth, out_dir):
    """Exit code, stdout and stderr of ``wildcat truncate`` and of the same
    call with ``-o`` and ``--dot``, and the two files it writes."""
    calls = []
    for extra in ((), ("-o", "o.space", "--dot", "o.dot")):
        argv = ["truncate", str(path), "--depth", str(depth)]
        argv += [str(out_dir / a) if a.startswith("o.") else a for a in extra]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            calls.append((cli.main(argv), out.getvalue(), err.getvalue()))
    files = []
    for name in ("o.space", "o.dot"):
        f = out_dir / name
        files.append(f.read_text(encoding="ascii") if f.exists() else None)
        if f.exists():
            f.unlink()
    return calls, files


def _command_cases(tmp_path):
    """(space file, depth) pairs: the fixtures at depths 0-4, the criterion
    5 and 7 corpora, the token-collision corpus and a 1500-deep chain."""
    cases = [(path, depth) for path in sorted(glob.glob(os.path.join(
        os.path.dirname(__file__), "fixtures", "*.space"))) for depth in range(5)]
    exprs = [(e, 3) for e in _corpus_5150()] + [(e, 4) for e in _corpus_707()]
    exprs += _token_corpus()
    for i, (e, depth) in enumerate(exprs):
        path = tmp_path / f"e{i}.space"
        path.write_text(print_spacefile(SpaceFile({}, {"main": e}, "main")),
                        encoding="ascii")
        cases.append((path, depth))
    path = tmp_path / "chain.space"
    path.write_text(attach_chain_text(1500), encoding="ascii")
    cases.append((path, 1))
    return cases


def test_command_prints_what_the_graph_printed(monkeypatch, tmp_path):
    # the command used to build ``truncate``'s graph and print it; it must
    # write the same bytes and exit the same way from the chunks alone
    cases = _command_cases(tmp_path)
    new = [_command_outputs(path, depth, tmp_path) for path, depth in cases]
    with monkeypatch.context() as m:
        _route_through_the_graph(m)
        old = [_command_outputs(path, depth, tmp_path) for path, depth in cases]
    for case, got, want in zip(cases, new, old):
        assert got == want, case
    errors = [calls[0][2] for calls, _ in new if calls[0][0] == 2]
    # the two atom fixtures at each depth, and the token names the name and
    # anchor checks reject
    assert sum("opaque atoms" in err for err in errors) == 10
    assert sum("duplicate identifier" in err for err in errors) >= 10
    assert new[-1][0][0][2] == "truncated at depth 1: 3001 vertices, 4501 edges, betti1 1501\n"


WRITER_MUTANTS = {
    # a run of leaf copies writes a placeholder where its copies' hosts,
    # names of the parent copy, belong
    "host-unsubstituted-in-leaf-run": (
        wild, "_expand", "(names, host + names, prefix, run_es)",
        "(names, [None] * len(host) + names, prefix, run_es)"),
    "edge-lines-of-two-chunks-swapped": (
        cli, "print_chunks", "for _, look, prefix, tes in chunks for",
        "for _, look, prefix, tes in chunks[1::-1] + chunks[2:] for"),
}


@pytest.mark.parametrize("mutant", sorted(WRITER_MUTANTS))
def test_command_differential_catches_writer_mutant(monkeypatch, tmp_path, mutant):
    owner, name, old, new = WRITER_MUTANTS[mutant]
    cases = _command_cases(tmp_path)
    with monkeypatch.context() as m:
        _route_through_the_graph(m)
        want = [_command_outputs(path, depth, tmp_path) for path, depth in cases]
    _lift_mutant(monkeypatch, owner, name, (old, new))
    assert any(_command_outputs(path, depth, tmp_path) != outputs
               for (path, depth), outputs in zip(cases, want))
