"""The memoised wild-set analysis against the recursive reference.

``wild_reference`` is the plain structural recursion the analysis replaced.
Every reader must agree with it exactly, results and errors alike, on the
random stable corpora of acceptance criteria 5 and 7, on random expressions
that are often unstable or carry atoms, and on the fixtures.  The pass
sets a stability verdict on every subexpression, and each must equal the
one ``analysis_reference`` gives that subexpression on its own; a verdict
that checks every child before any family is the negative control.  Counting
tests pin the cost: a rank-growing chain, with one anchor or a random
anchor per level, builds no graph beyond the parser's, and the memo holds
a linear number of entries.

Expressions are hash-consed, so ``==`` is checked against the reference's
tree walk on the same corpora and their single-field mutations, and copies,
pickles and released nodes against the intern table.
"""

import copy
import gc
import glob
import io
import os
import pickle
import random
from contextlib import redirect_stderr
from fractions import Fraction

import pytest

import analysis_reference
import wild_reference as ref
from wildcat import graphs, wild
from wildcat.cli import main
from wildcat.graphs import Vertex, EdgeInterior, build_graph
from wildcat.spacefile import parse_spacefile
from wildcat.wild import (Node, SelfWild, ZeroDimWild, Attachment, SeqFamily,
                          Subcomplex, StabilityReport, graph_expr, analyze)

from gen import (small_connected_graph, random_stable_expr, rank_chain_text,
                 random_anchor_chain_text, path_graph, point_graph, cycle_graph)

READERS = ("is_w_stable", "contains_scc", "contains_atom", "is_connected_expr",
           "wild_set", "wild_tower", "wrk", "profile", "cat", "tc",
           "cat_certificate", "tc_certificate")


def _outcome(fn, e):
    try:
        return ("ok", fn(e))
    except ValueError as exc:
        return ("raises", type(exc), str(exc))


def _assert_same(e):
    for name in READERS:
        got = _outcome(getattr(wild, name), e)
        want = _outcome(getattr(ref, name), e)
        assert got == want, (name, got, want)
    # one shared analysis answers every reader the same way
    a = analyze(e)
    for name in READERS:
        assert _outcome(getattr(wild, name), a) == _outcome(getattr(ref, name), e), name


def _corpus_5150():
    rng = random.Random(5150)
    return [random_stable_expr(rng, rng.randint(0, 4)) for _ in range(200)]


def _corpus_707():
    rng = random.Random(707)
    return [random_stable_expr(rng, rng.randint(0, 2)) for _ in range(50)]


def random_expr(rng, depth, tags):
    """Any valid expression: anchors chosen blindly, so many are unstable,
    and atoms appear as children and patterns."""
    roll = rng.random()
    if roll < 0.06:
        return SelfWild()
    if roll < 0.1:
        return ZeroDimWild()
    tag = f"g{next(tags)}_"
    base = small_connected_graph(rng, tag)
    if depth == 0 or roll < 0.3:
        return graph_expr(base)
    fin = []
    if rng.random() < 0.35:
        child = random_expr(rng, depth - 1, tags)
        fin.append(Attachment(Vertex(rng.choice(base.vertices)), child,
                              _anchor(rng, child)))
    seq = []
    for _ in range(rng.randint(0 if fin else 1, 2)):
        pattern = random_expr(rng, depth - 1, tags)
        mode = rng.randrange(3)
        if mode == 0 or not base.edges:
            sc = Subcomplex.of(base, [rng.choice(base.vertices)], [])
        elif mode == 1:
            sc = Subcomplex.of(base, [], [rng.choice(base.edges).id])
        else:
            sc = Subcomplex.whole(base)
        seq.append(SeqFamily(sc, pattern, _anchor(rng, pattern)))
    return Node(base, tuple(fin), tuple(seq))


def _anchor(rng, child):
    if not isinstance(child, Node):
        return Vertex("x")
    g = child.base
    if g.edges and rng.random() < 0.25:
        return EdgeInterior(rng.choice(g.edges).id, Fraction(1, 2))
    return Vertex(rng.choice(g.vertices))


def _random_corpus(seed, count, depth):
    rng = random.Random(seed)
    tags = iter(range(10 ** 6))
    return [random_expr(rng, rng.randint(0, depth), tags) for _ in range(count)]


def test_matches_reference_on_criterion_5_corpus():
    for e in _corpus_5150():
        _assert_same(e)


def test_matches_reference_on_criterion_7_corpus():
    for e in _corpus_707():
        _assert_same(e)


def test_matches_reference_on_unstable_and_atom_corpus():
    corpus = _random_corpus(9001, 400, 4)
    for e in corpus:
        _assert_same(e)
    unstable = sum(1 for e in corpus if not ref.is_w_stable(e))
    atoms = sum(1 for e in corpus if ref.contains_atom(e))
    # the corpus reaches every kind of failure, not just the easy ones
    reasons = " ".join(ref.is_w_stable(e).diagnostic for e in corpus
                       if not ref.is_w_stable(e))
    assert unstable >= 50 and atoms >= 50
    for phrase in ("not path-connected", "inside a finite attachment",
                   "does not lie in wild set level", "zero-dimensional"):
        assert phrase in reasons, phrase


def test_matches_reference_on_fixtures():
    fixtures = glob.glob(os.path.join(os.path.dirname(__file__), "fixtures",
                                      "*.space"))
    assert fixtures
    for path in fixtures:
        with open(path, encoding="ascii") as fh:
            _assert_same(parse_spacefile(fh.read()).main_expr())


def _earring_of(pattern, anchor):
    base = point_graph()
    return Node(base, (), (SeqFamily(Subcomplex.of(base, ["a"]), pattern, anchor),))


def test_self_wild_fixpoint_ends_the_stability_walk():
    # the wild set of a point carrying self-wild copies is itself again, so
    # the walk over the pattern's tower stops where a level repeats
    inner = _earring_of(SelfWild(), Vertex("x"))
    e = _earring_of(inner, Vertex("a"))
    assert wild.is_w_stable(e).stable
    _assert_same(e)
    # an anchor off the repeating level is caught at level 1
    base = path_graph(2)
    two = Node(base, (), (SeqFamily(Subcomplex.of(base, ["v0"]), SelfWild(),
                                    Vertex("x")),))
    bad = _earring_of(two, Vertex("v1"))
    assert "level 1" in wild.is_w_stable(bad).diagnostic
    _assert_same(bad)


def test_anchor_leaving_the_third_wild_level_is_unstable():
    # P is a path carrying wild circles along all of it and, at v0, circles
    # of wild circles: its wild levels are the path, the path again, then
    # only v0.  The walk has to go three levels down to see v1 drop out.
    wild_circle = Node(cycle_graph(3), (), (SeqFamily(
        Subcomplex.whole(cycle_graph(3)), graph_expr(build_graph(["o"], [("l", "o", "o")])),
        Vertex("o")),))
    deep = Node(cycle_graph(3), (), (SeqFamily(Subcomplex.whole(cycle_graph(3)),
                                               wild_circle, Vertex("v0")),))
    path = path_graph(2)
    p = Node(path, (), (SeqFamily(Subcomplex.whole(path), wild_circle, Vertex("v0")),
                        SeqFamily(Subcomplex.of(path, ["v0"]), deep, Vertex("v0"))))
    assert wild.is_w_stable(_earring_of(p, Vertex("v0"))).stable
    bad = _earring_of(p, Vertex("v1"))
    assert wild.is_w_stable(bad).diagnostic == (
        "seq family 0: anchor Vertex(v='v1') does not lie in wild set level 3 "
        "of the pattern")
    _assert_same(bad)


def test_stability_reports_the_first_failure_only():
    # both attachments are unstable: the first one in order is reported
    base = point_graph()
    hair = Node(path_graph(2), (), (SeqFamily(Subcomplex.of(path_graph(2), ["v0"]),
                                             graph_expr(cycle_graph(3)),
                                             Vertex("v0")),))
    off = Node(point_graph(), (), (SeqFamily(Subcomplex.of(point_graph(), ["a"]),
                                             hair, Vertex("v1")),))
    e = Node(base, (Attachment(Vertex("a"), ZeroDimWild(), Vertex("x")),
                    Attachment(Vertex("a"), off, Vertex("a"))), ())
    assert wild.is_w_stable(e).diagnostic == (
        "attachment 0: handled by the zero-dimensional special case")
    _assert_same(e)


def _family_fails_before_unstable_pattern():
    """Family 0's pattern is stable but its wild set misses the anchor;
    family 1's pattern is unstable itself."""
    base = point_graph()
    hair = Node(path_graph(2), (), (SeqFamily(Subcomplex.of(path_graph(2), ["v0"]),
                                             graph_expr(cycle_graph(3)),
                                             Vertex("v0")),))
    off = _earring_of(hair, Vertex("v1"))
    at_a = Subcomplex.of(base, ["a"])
    return Node(base, (), (SeqFamily(at_a, hair, Vertex("v1")),
                           SeqFamily(at_a, off, Vertex("a"))))


def test_a_failing_family_is_reported_before_a_later_unstable_pattern():
    e = _family_fails_before_unstable_pattern()
    assert wild.is_w_stable(e).diagnostic == (
        "seq family 0: anchor Vertex(v='v1') does not lie in wild set level 1 "
        "of the pattern")
    _assert_same(e)


def _stability_corpus():
    fixtures = sorted(glob.glob(os.path.join(os.path.dirname(__file__),
                                             "fixtures", "*.space")))
    exprs = []
    for path in fixtures:
        with open(path, encoding="ascii") as fh:
            exprs.append(parse_spacefile(fh.read()).main_expr())
    exprs += _corpus_5150() + _corpus_707() + _random_corpus(9001, 400, 4)
    exprs += [parse_spacefile(rank_chain_text(d)).main_expr() for d in (1, 2, 6)]
    return exprs + [_family_fails_before_unstable_pattern()]


def _assert_every_verdict(exprs):
    for e in exprs:
        for x, f in analyze(e)._memo.items():
            assert f.stability == analysis_reference.analyze(x).stability, x


def test_every_subexpression_gets_the_reference_verdict():
    # the pass sets a verdict on every memo entry, not only the top one
    _assert_every_verdict(_stability_corpus())


def _children_before_families(self, x):
    """A mutant verdict: every child's stability before any family's."""
    memo = self._memo
    kids = [(f"attachment {i}", att.child) for i, att in enumerate(x.fin)]
    kids += [(f"seq family {i}", fam.pattern) for i, fam in enumerate(x.seq)]
    for label, child in kids:
        sub = memo[child].stability
        if not sub:
            return StabilityReport(False, f"{label}: {sub.diagnostic}")
    for i, fam in enumerate(x.seq):
        report = self._family_report(i, fam)
        if report is not None:
            return report
    return StabilityReport(True)


def test_checking_every_child_before_the_families_fails(monkeypatch):
    # negative control for the per-subexpression verdicts
    monkeypatch.setattr(wild.Analysis, "_node_stability", _children_before_families)
    with pytest.raises(AssertionError):
        _assert_every_verdict(_stability_corpus())


def test_shared_subexpressions_are_analysed_once():
    shared = _earring_of(graph_expr(cycle_graph(3)), Vertex("v0"))
    base = build_graph(["p", "q"], [("s", "p", "q")])
    e = Node(base, (), (SeqFamily(Subcomplex.of(base, ["p"]), shared, Vertex("a")),
                        SeqFamily(Subcomplex.of(base, ["q"]), shared, Vertex("a"))))
    a = analyze(e)
    assert analyze(a) is a
    assert a.pieces(shared) is a.pieces(shared)
    _assert_same(e)


def _count_builds(monkeypatch, argv):
    count = [0]
    original = graphs.MultiGraph.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(graphs.MultiGraph, "__init__", counting)
    with redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    monkeypatch.setattr(graphs.MultiGraph, "__init__", original)
    return count[0]


def _graphs_built(tmp_path, monkeypatch, capsys, text, depth):
    path = tmp_path / "chain.space"
    path.write_text(text, encoding="ascii")
    info = _count_builds(monkeypatch, ["info", str(path)])
    certify = _count_builds(monkeypatch, ["certify", str(path)])
    out = capsys.readouterr().out.splitlines()
    for line in out:
        assert line.startswith(f'{{"wrk":{depth + 2},"cat":{depth + 1},'
                               f'"tc":{2 * depth + 2},')
    return info, certify


@pytest.mark.parametrize("depth", [20, 80])
def test_rank_chain_builds_linearly_many_graphs(tmp_path, monkeypatch, capsys,
                                               depth):
    info, certify = _graphs_built(tmp_path, monkeypatch, capsys,
                                  rank_chain_text(depth), depth)
    # at depth 20 the recursive analysis built 9936 graphs for info and
    # 23180 for certify, the identity-keyed memo 234 and the hash-consed
    # one 63; the tower summaries build none, so only the parser's pt, tri
    # and loop are left
    assert info == certify == 3


@pytest.mark.parametrize("depth", [20, 80])
def test_random_anchor_chain_builds_only_the_parsers_graphs(tmp_path, monkeypatch,
                                                            capsys, depth):
    # each level anchors its copies at its own vertex, so no tower piece
    # equals a pattern; the hash-consed memo built 433 graphs at depth 30
    text = random_anchor_chain_text(random.Random(depth), depth)
    info, certify = _graphs_built(tmp_path, monkeypatch, capsys, text, depth)
    assert info == certify == 3


@pytest.mark.parametrize("depth", [20, 160, 640])
def test_rank_chain_memo_is_linear(depth):
    # the summaries build no piece, so the memo holds one entry per
    # distinct subexpression: the d + 2 nodes and the loop
    a = analyze(parse_spacefile(rank_chain_text(depth)).main_expr())
    wild.cat_certificate(a)
    wild.tc_certificate(a)
    assert a.profile().wrk == depth + 2
    assert len(a._memo) <= 3 * depth + 3


@pytest.mark.parametrize("depth", [1, 2, 6])
def test_rank_chain_invariants(depth):
    e = parse_spacefile(rank_chain_text(depth)).main_expr()
    assert (wild.wrk(e), wild.cat(e), wild.tc(e)) == (depth + 2, depth + 1,
                                                      2 * depth + 2)
    _assert_same(e)


# --- hash-consing -------------------------------------------------------------

def _rebuilt(x):
    """An equal copy of x that shares no graph, point, subcomplex or node
    with it."""
    if not isinstance(x, Node):
        return type(x)()
    base = build_graph(list(x.base.vertices), [tuple(e) for e in x.base.edges])
    return Node(base,
                tuple(Attachment(_point(a.at), _rebuilt(a.child), _point(a.anchor))
                      for a in x.fin),
                tuple(SeqFamily(Subcomplex(tuple(s.subcomplex.vertices),
                                           tuple(s.subcomplex.edges)),
                                _rebuilt(s.pattern), _point(s.anchor))
                      for s in x.seq))


def _point(p):
    return Vertex(p.v) if isinstance(p, Vertex) else EdgeInterior(p.edge, p.t)


def _other_anchor(child, anchor):
    if not isinstance(child, Node):
        return Vertex("y" if anchor == Vertex("x") else "x")
    g = child.base
    if isinstance(anchor, Vertex) and g.edges:
        return EdgeInterior(g.edges[0].id, Fraction(1, 3))
    return next((Vertex(v) for v in g.vertices if Vertex(v) != anchor), None)


def _variants(x):
    """Single-field mutations of node x, by kind: each a tuple of nodes that
    differ from x, and from each other, in that field only."""
    base, fin, seq = x.base, x.fin, x.seq
    out = {"rebuilt": (_rebuilt(x),)}
    if fin:
        a = fin[0]
        other = _other_anchor(a.child, a.anchor)
        if other is not None:
            out["anchor"] = (Node(base, (Attachment(a.at, a.child, other),)
                                  + fin[1:], seq),)
        at = next((Vertex(v) for v in base.vertices if Vertex(v) != a.at), None)
        if at is not None:
            out["at"] = (Node(base, (Attachment(at, a.child, a.anchor),)
                              + fin[1:], seq),)
        b = Attachment(at or a.at, graph_expr(point_graph()), Vertex("a"))
        out["fin order"] = (Node(base, (a, b) + fin[1:], seq),
                            Node(base, (b, a) + fin[1:], seq))
    if seq:
        f = seq[0]
        other = _other_anchor(f.pattern, f.anchor)
        if other is not None:
            out["anchor"] = out.get("anchor", ()) + (
                Node(base, fin, (SeqFamily(f.subcomplex, f.pattern, other),)
                     + seq[1:]),)
        sc = Subcomplex.whole(base)
        if sc == f.subcomplex:
            sc = Subcomplex.of(base, [base.vertices[0]])
        out["subcomplex"] = (Node(base, fin, (SeqFamily(sc, f.pattern, f.anchor),)
                                  + seq[1:]),)
        out["atom"] = tuple(Node(base, fin, (SeqFamily(f.subcomplex, atom(),
                                                       Vertex("x")),) + seq[1:])
                            for atom in (SelfWild, ZeroDimWild))
        if len(seq) > 1:
            out["seq order"] = (Node(base, fin, seq[::-1]),)
    return out


def _with_node(root, path, new):
    """root with the subexpression at path (("fin"|"seq", index) steps)
    replaced by new, every node above it rebuilt."""
    if not path:
        return new
    (kind, i), rest = path[0], path[1:]
    fin, seq = list(root.fin), list(root.seq)
    if kind == "fin":
        a = fin[i]
        fin[i] = Attachment(a.at, _with_node(a.child, rest, new), a.anchor)
    else:
        f = seq[i]
        seq[i] = SeqFamily(f.subcomplex, _with_node(f.pattern, rest, new), f.anchor)
    return Node(root.base, tuple(fin), tuple(seq))


def _node_paths(e):
    stack = [(e, ())]
    while stack:
        x, path = stack.pop()
        if isinstance(x, Node):
            yield x, path
            stack.extend((a.child, path + (("fin", i),)) for i, a in enumerate(x.fin))
            stack.extend((f.pattern, path + (("seq", i),)) for i, f in enumerate(x.seq))


def _assert_eq_agrees(x, y):
    want = ref.node_eq(x, y)
    assert (x == y) == want and (y == x) == want, (x, y)
    if want:
        assert hash(x) == hash(y)


@pytest.mark.parametrize("corpus", [_corpus_5150, _corpus_707])
def test_equality_matches_reference(corpus):
    exprs = corpus()
    for x in exprs:
        for y in exprs:
            _assert_eq_agrees(x, y)
    seen = {}
    for e in exprs:
        for node, path in _node_paths(e):
            for kind, nodes in _variants(node).items():
                group = [e] + [_with_node(e, path, n) for n in nodes]
                for x in group:
                    for y in group:
                        _assert_eq_agrees(x, y)
                # a mutation gives a different expression; a rebuild does not
                verdicts = {ref.node_eq(e, v) for v in group[1:]}
                seen.setdefault(kind, set()).update(verdicts)
    assert seen["rebuilt"] == {True}
    for kind in ("anchor", "at", "fin order", "subcomplex", "atom", "seq order"):
        assert False in seen[kind], kind


def test_copies_and_pickles_are_equal():
    exprs = _corpus_707()[:20] + [parse_spacefile(rank_chain_text(6)).main_expr()]
    for e in exprs:
        for twin in (copy.copy(e), copy.deepcopy(e),
                     pickle.loads(pickle.dumps(e))):
            assert twin == e and hash(twin) == hash(e)


def _tri_chain(depth):
    tri = cycle_graph(3)
    e, anchor = graph_expr(build_graph(["o"], [("l", "o", "o")])), Vertex("o")
    for _ in range(depth):
        e = Node(tri, (), (SeqFamily(Subcomplex.whole(tri), e, anchor),))
        anchor = Vertex(tri.vertices[0])
    return e


def test_dropped_nodes_leave_the_intern_table():
    # the intern table holds its tokens weakly and a token refers to no
    # node, so releasing a chain releases its entries without a collection
    gc.collect()
    gc.disable()
    try:
        before = len(wild._SHAPES)
        e = _tri_chain(50)
        assert len(wild._SHAPES) >= before + 50
        del e
        assert len(wild._SHAPES) == before
    finally:
        gc.enable()
