"""Run-length tower summaries against the piece-by-piece analysis.

``analysis_reference`` is the memoised analysis that built every tower
level as pieces and walked each family's pattern tower level by level.
The summaries must give the same rank, category and complexity, the same
piece count and Betti number on every level, the same stability verdict
with the same diagnostic, and the same certificates, results and errors
alike.  The corpora are those of acceptance criteria 5 and 7, random
expressions that are often unstable or carry atoms, more random stable
expressions, the fixtures, rank-growing chains with one anchor and with a
random anchor per level, and random expressions whose patterns fail
stability at deeper levels.

``wild_set`` and ``wild_tower``, which build pieces from the union-find of
the summaries, must give the reference's pieces on every stable expression
of the same corpora, compared as hash-consed expressions.  The deeper-level
corpus puts families on random, often disconnected, sets of cells, so a
family's meet with U_1 often splits across components.

Five mutants of ``wildcat.wild`` are the negative controls, and each must
disagree with the reference somewhere: an anchor check that reads only the
first level, family heights off by one, finite attachments' pieces left
out of the level counts, U_1's components numbered in union-find order
instead of by smallest vertex, and every meet filed under the first
component.

Counting tests pin the cost: the summaries hold one run per family on
both chains up to depth 2000, and on a staircase of attachments whose
tower counts all differ.
"""

import functools
import glob
import inspect
import io
import math
import os
import random
import sys
import types
from contextlib import redirect_stderr
from fractions import Fraction

import pytest

import analysis_reference as ref
from wildcat import cli, wild
from wildcat.cli import main
from wildcat.graphs import Vertex, EdgeInterior
from wildcat.spacefile import SpaceFile, parse_spacefile
from wildcat.wild import (Node, SelfWild, Attachment, SeqFamily, Subcomplex,
                          graph_expr, analyze)

from gen import (small_connected_graph, random_stable_expr, rank_chain_text,
                 random_anchor_chain_text, cycle_graph, loop_graph,
                 point_graph)
from test_analysis import _corpus_5150, _corpus_707, _random_corpus

READERS = ("is_w_stable", "profile", "wrk", "cat", "tc", "cat_certificate",
           "tc_certificate")


def _outcome(fn, e):
    try:
        return ("ok", fn(e))
    except ValueError as exc:
        return ("raises", type(exc), str(exc))


# --- a corpus whose patterns fail at deeper levels ----------------------------

def _cells(g):
    return ([Vertex(v) for v in g.vertices]
            + [EdgeInterior(e.id, Fraction(1, 2)) for e in g.edges])


def _deepest_anchor(pattern):
    """A vertex of the deepest wild level, by the reference, when every
    level is one piece on the pattern's own base; else None."""
    if not isinstance(pattern, Node):
        return None
    a = ref.Analysis(pattern)
    if a.selfwild or not a.stability:
        return None
    last, (own, foreign) = None, a._split(pattern)
    while own:
        if len(own) > 1 or foreign:
            return None
        last = own[0]
        own, foreign = a._split(last)
    return None if last is None or foreign else Vertex(min(last.base.vertices))


def _level_expr(rng, depth, tags):
    """Up to three families per node, each on a random set of base cells
    (so often a disconnected subcomplex), some with self-wild patterns;
    an anchor in the deepest wild level of the pattern, or any cell of its
    base, so stability often fails at level 2 or 3."""
    tag = f"g{next(tags)}_"
    base = small_connected_graph(rng, tag)
    if depth == 0 or rng.random() < 0.2:
        return graph_expr(base)
    fin = []
    if rng.random() < 0.25:
        child = _level_expr(rng, depth - 1, tags)
        fin.append(Attachment(Vertex(rng.choice(base.vertices)), child,
                              Vertex(min(child.base.vertices))))
    seq = []
    cells = list(base.vertices) + [e.id for e in base.edges]
    for _ in range(rng.randint(1, 3)):
        pick = rng.sample(cells, rng.randint(1, len(cells)))
        sc = Subcomplex.of(base, [c for c in pick if c in base.degree],
                           [c for c in pick if c in base.edge_by_id])
        if rng.random() < 0.05:
            seq.append(SeqFamily(sc, SelfWild(), Vertex("x")))
            continue
        pattern = _level_expr(rng, depth - 1, tags)
        anchor = _deepest_anchor(pattern) if rng.random() < 0.6 else None
        seq.append(SeqFamily(sc, pattern, anchor or rng.choice(_cells(pattern.base))))
    return Node(base, tuple(fin), tuple(seq))


def _level_corpus():
    rng = random.Random(31)
    tags = iter(range(10 ** 6))
    return [_level_expr(rng, rng.randint(1, 4), tags) for _ in range(400)]


def _random_stable_corpus():
    rng = random.Random(1234)
    return [random_stable_expr(rng, rng.randint(0, 5)) for _ in range(200)]


def _fixtures():
    exprs = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(__file__),
                                              "fixtures", "*.space"))):
        with open(path, encoding="ascii") as fh:
            exprs.append(parse_spacefile(fh.read()).main_expr())
    return exprs


def _rank_chains():
    return [parse_spacefile(rank_chain_text(d)).main_expr()
            for d in (1, 2, 3, 6, 20, 60)]


def _random_anchor_chains():
    exprs = []
    for seed in range(8):
        rng = random.Random(seed)
        exprs += [parse_spacefile(random_anchor_chain_text(rng, d)).main_expr()
                  for d in (1, 5, 20, 60)]
    return exprs


def _shared_subexpressions():
    """Expressions whose nodes are reached along many attachment paths:
    a leaf attached twice to each of several nested points, so level
    counts double per level of nesting, and the staircases below."""
    pt = point_graph()
    exprs = []
    for leaf in (_staircase(1), _staircase(2)):
        e = leaf
        for _ in range(6):
            at = Attachment(Vertex("a"), e, Vertex(e.base.vertices[0]))
            e = Node(pt, (at, at))
            exprs.append(e)
    return exprs + [_staircase(n) for n in range(1, 7)]


CORPORA = {
    "criterion-5": _corpus_5150,
    "criterion-7": _corpus_707,
    "unstable-and-atoms": lambda: _random_corpus(9001, 400, 4),
    "random-stable": _random_stable_corpus,
    "fixtures": _fixtures,
    "rank-chains": _rank_chains,
    "random-anchor-chains": _random_anchor_chains,
    "deeper-levels": _level_corpus,
    "shared-subexpressions": _shared_subexpressions,
}


@functools.cache
def _reference(name):
    """The corpus with the reference's outcome of every reader, all read
    from one reference analysis per expression, and on a stable expression
    its pieces and, when its rank is finite, its tower: the reference's
    ``tower`` has no self-wild guard, and a self-wild piece is its own wild
    set, so the walk would not end."""
    outcomes = []
    for e in CORPORA[name]():
        a = ref.analyze(e)
        want = {r: _outcome(getattr(ref, r), a) for r in READERS}
        if a.stability:
            want["wild_set"] = ("ok", a.pieces())
            if a.profile().wrk is not math.inf:
                want["wild_tower"] = ("ok", a.tower())
        outcomes.append((e, want))
    return outcomes


def _mismatches(module, name):
    """(reader, got, want) wherever ``module`` disagrees with the reference,
    asked one reader at a time and through one shared analysis."""
    found = []
    for e, want in _reference(name):
        a = module.analyze(e)
        for r in READERS:
            for got in (_outcome(getattr(module, r), e),
                        _outcome(getattr(module, r), a)):
                if got != want[r]:
                    found.append((r, got, want[r]))
    return found


def _piece_mismatches(module, name):
    """(reader, got, want) wherever ``module``'s pieces or tower differ
    from the reference's, both read through one analysis."""
    found = []
    for e, want in _reference(name):
        a = module.analyze(e)
        for r in ("wild_set", "wild_tower"):
            if r in want:
                got = _outcome(getattr(module, r), a)
                if got != want[r]:
                    found.append((r, got, want[r]))
    return found


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_summaries_match_reference(name):
    assert _mismatches(wild, name) == []


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_pieces_match_reference(name):
    assert _piece_mismatches(wild, name) == []


def test_deeper_level_corpus_splits_meets():
    """Some stable expression has a family whose subcomplex meets two of
    its own pieces, the components of U_1: there a meet can be filed
    under the wrong piece."""
    def splits(e):
        a = ref.Analysis(e)
        own, _ = a._split(e)
        return any(a._memo[fam.pattern].scc
                   and sum(not set(fam.subcomplex.vertices).isdisjoint(
                       p.base.vertices) for p in own) > 1
                   for fam in e.seq)
    assert any(splits(e) for e, want in _reference("deeper-levels")
               if "wild_set" in want)


def test_deeper_level_corpus_reaches_every_failure():
    reasons = [want["is_w_stable"][1].diagnostic
               for _, want in _reference("deeper-levels")
               if not want["is_w_stable"][1]]
    text = "\n".join(reasons)
    for phrase in ("level 2 of the pattern is not path-connected",
                   "does not lie in wild set level 2 of the pattern\n",
                   "does not lie in wild set level 3 of the pattern\n",
                   "inside a finite attachment"):
        assert phrase in text + "\n", phrase
    stable_selfwild = [e for e, want in _reference("deeper-levels")
                       if want["wrk"] == ("ok", math.inf)]
    assert stable_selfwild


# --- negative controls ----------------------------------------------------------

MUTANTS = {
    "anchor-first-level-only": ("            if reach < last:\n",
                                "            if reach < 1:\n"),
    "height-off-by-one": ("            f.height = f.rank - (f.top == 0)\n",
                          "            f.height = f.rank - (f.top == 0) + 1\n"),
    "fin-counts-not-added": (
        "                    paths[att.child] = paths.get(att.child, 0) + m\n",
        "                    pass\n"),
    "components-in-union-find-order": ("        for v in sorted(root):\n",
                                       "        for v in root:\n"),
    "meet-under-first-component": (
        "                    comps[r][2].append(SeqFamily(meet, inner[0], fam.anchor))\n",
        "                    comps[next(iter(comps))][2].append("
        "SeqFamily(meet, inner[0], fam.anchor))\n"),
}


def _mutant(monkeypatch, old, new):
    """``wildcat.wild`` with one line replaced: its own analysis and
    readers, over the real module's expression and result classes."""
    source = inspect.getsource(wild)
    assert source.count(old) == 1, old
    module = types.ModuleType("wildcat._mutant")
    module.__package__ = "wildcat"
    # dataclasses look their defining module up while it executes
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(source.replace(old, new), wild.__file__, "exec"), module.__dict__)
    for key, value in vars(wild).items():
        if isinstance(value, type) and key not in ("Analysis", "_Facts"):
            setattr(module, key, value)
    return module


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_negative_control_disagrees_with_reference(monkeypatch, mutant):
    module = _mutant(monkeypatch, *MUTANTS[mutant])
    assert any(_mismatches(module, name) or _piece_mismatches(module, name)
               for name in sorted(CORPORA))


# --- cost ------------------------------------------------------------------------

def _runs(a):
    return sum(len(f.runs) for f in a._memo.values())


CHAINS = {
    "rank": rank_chain_text,
    "random-anchor": lambda d: random_anchor_chain_text(random.Random(d), d),
}


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_summary_runs_are_linear(chain):
    # one run per family: the point's and each triangle's
    for depth in (20, 200, 2000):
        a = analyze(parse_spacefile(CHAINS[chain](depth)).main_expr())
        wild.cat_certificate(a)
        wild.tc_certificate(a)
        assert a.profile().wrk == depth + 2
        assert _runs(a) == depth + 1
        assert len(a._memo) == depth + 2


def _staircase(n):
    """n + 1 triangles, each attached to the one before; the j-th also
    carries, at a vertex, the rank-growing chain of j nested families
    ending in loops.  The chains share their tails, so there are 2n + 2
    distinct nodes, and level k >= 1 of the tower has n + 1 - k pieces,
    one from each chain at least k deep."""
    tri = cycle_graph(3)
    whole = Subcomplex.whole(tri)
    chain, anchor = graph_expr(loop_graph()), Vertex("a")
    stair = Node(tri, (Attachment(Vertex("v2"), chain, anchor),))
    for _ in range(n):
        chain = Node(tri, (), (SeqFamily(whole, chain, anchor),))
        anchor = Vertex("v0")
        stair = Node(tri, (Attachment(Vertex("v0"), stair, Vertex("v1")),
                           Attachment(Vertex("v2"), chain, anchor)))
    return stair


def test_attachment_paths_multiply_level_counts():
    # the reference agrees on both (see the shared-subexpressions corpus)
    assert [lv.count for lv in wild.profile(_staircase(6)).tower] == [
        1, 6, 5, 4, 3, 2, 1]
    doubled = _shared_subexpressions()[5]
    assert [lv.count for lv in wild.profile(doubled).tower] == [1, 64]


def test_staircase_runs_stay_near_linear(monkeypatch, capsys):
    n = 1000
    e = _staircase(n)
    a = analyze(e)
    assert len(a._memo) == 2 * n + 2
    monkeypatch.setattr(cli, "_load", lambda path: SpaceFile({}, {"s": e}, "s"))
    with redirect_stderr(io.StringIO()):
        assert main(["info", "staircase"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f'{{"wrk":{n + 1},"cat":{n + 1},"tc":{2 * n + 1},')
    # one run per chain node: n, against a bound of n log2 n
    assert _runs(a) == n <= n * math.log2(n)
    assert [lv.count for lv in a.profile().tower] == [1] + list(range(n, 0, -1))
