"""Symbolic calculus of w-stable one-dimensional Peano continua.

Spaces are described by a small grammar: a finite base multigraph, finitely
many attached child spaces, and null-sequence families that attach shrinking
copies of a pattern space along a subcomplex of the base (each copy glued at
a designated anchor point of the pattern).  Two opaque atoms cover the
remaining behaviour: a self-wild subspace (Sierpinski-carpet-like, every
point wild) and a space whose wild set is non-empty, zero-dimensional and
contained in a dendrite.

One memoised post-order pass (``Analysis``) computes iterated wild sets,
the wildness rank, the category and topological complexity formulas and
filtration certificates; ``truncate`` builds finite graph approximations
for cross-checks, ``truncation_records`` lists their checked names and
records without building a graph, ``truncation_text`` writes them as the
text ``wildcat truncate`` prints, and ``truncation_size`` and
``truncation_betti1`` count them without expanding them.  Copy sizes and
attachment density are abstract: only the closure subcomplex of an
attachment sequence matters for the wild set, so no metric data is
stored.
"""

import math
import re
import weakref
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate

from .graphs import (Edge, MultiGraph, GraphRecords, Vertex, EdgeInterior,
                     GraphPoint, GraphError, _check_names, _find, _new_tuple,
                     _point_key, subgraph, betti1)
# not called here: kept because bench/workloads.py patches ``wild.build_graph``
from .graphs import build_graph  # noqa: F401

__all__ = [
    "INF",
    "ExprError",
    "UnstableExpressionError",
    "InfiniteRankError",
    "Subcomplex",
    "SeqFamily",
    "Attachment",
    "Node",
    "SelfWild",
    "ZeroDimWild",
    "SpaceExpr",
    "graph_expr",
    "is_connected_expr",
    "contains_scc",
    "contains_atom",
    "Analysis",
    "analyze",
    "StabilityReport",
    "is_w_stable",
    "wild_set",
    "wild_tower",
    "wrk",
    "TowerLevel",
    "WildProfile",
    "profile",
    "cat",
    "tc",
    "CERT_REASONS",
    "CertificateLevel",
    "Certificate",
    "cat_certificate",
    "tc_certificate",
    "truncate",
    "truncation_records",
    "truncation_text",
    "truncation_size",
    "truncation_betti1",
]

INF = math.inf


class ExprError(ValueError):
    """Malformed space expression or an unsupported operation on one."""


class UnstableExpressionError(ExprError):
    """The expression fails the w-stability check; carries the diagnostic."""


class InfiniteRankError(ExprError):
    """An operation that needs finite wildness rank met an infinite one."""


@dataclass(frozen=True)
class Subcomplex:
    """Closed subcomplex of a base graph: vertices and edges, normalized so
    that the vertex list always contains every listed edge's endpoints."""

    vertices: tuple
    edges: tuple

    @classmethod
    def of(cls, g: MultiGraph, vertices=(), edges=()):
        vs = set(vertices)
        es = set(edges)
        for v in vs:
            if v not in g.degree:
                raise ExprError(f"subcomplex vertex {v!r} not in the base")
        for eid in es:
            e = g.edge_by_id.get(eid)
            if e is None:
                raise ExprError(f"subcomplex edge {eid!r} not in the base")
            vs.add(e.v0)
            vs.add(e.v1)
        if not vs:
            raise ExprError("empty subcomplex")
        return cls(tuple(sorted(vs)), tuple(sorted(es)))

    @classmethod
    def whole(cls, g: MultiGraph):
        return cls.of(g, g.vertices, [e.id for e in g.edges])

    def contains_point(self, p: GraphPoint) -> bool:
        if isinstance(p, Vertex):
            return p.v in self.vertices
        return p.edge in self.edges


@dataclass(frozen=True)
class Attachment:
    """Finite attachment: glue a child space to the base, anchor-to-point."""

    at: GraphPoint
    child: "SpaceExpr"
    anchor: GraphPoint


@dataclass(frozen=True)
class SeqFamily:
    """Null-sequence family: shrinking copies of a pattern space attached at
    a sequence of points dense in the subcomplex (exactly at the points when
    the subcomplex is a finite vertex set), each copy glued at its anchor."""

    subcomplex: Subcomplex
    pattern: "SpaceExpr"
    anchor: GraphPoint


@dataclass(frozen=True)
class SelfWild:
    """Opaque subspace equal to its own wild set (every point is wild)."""


@dataclass(frozen=True)
class ZeroDimWild:
    """Opaque space with a non-empty zero-dimensional wild set contained in
    a dendrite."""


class _Shape:
    """The structural identity of a node: one token per distinct structure,
    alive while some node of that structure is.  It refers to nothing, so
    the table entry goes as soon as the last such node does."""

    __slots__ = ("__weakref__",)


# structural key -> _Shape; the key holds child shapes, never a Node
_SHAPES = weakref.WeakValueDictionary()


@dataclass(frozen=True, eq=False)
class Node:
    """A base graph with finite attachments and null-sequence families.

    Nodes are hash-consed: each is given its structural identity when it is
    built, from its base, each attachment's point, child identity and
    anchor, and each family's subcomplex, pattern identity and anchor (an
    atom is its own identity).  Children exist before their parents, so
    the key is a flat tuple and no tree walk is needed.  ``==`` is identity
    of the shape token and ``hash`` its ``id``, both O(1) at any nesting
    depth; every expression memo keys by the node itself and so by its
    structure.  Copies and pickles go back through the constructor, so they
    share the original's token.
    """

    base: MultiGraph
    fin: tuple = ()
    seq: tuple = ()

    def __eq__(self, other):
        if not isinstance(other, Node):
            return NotImplemented
        return self._shape is other._shape

    def __hash__(self):
        return id(self._shape)

    def __reduce__(self):
        return Node, (self.base, self.fin, self.seq)

    def __post_init__(self):
        object.__setattr__(self, "fin", tuple(self.fin))
        object.__setattr__(self, "seq", tuple(self.seq))
        for att in self.fin:
            if not isinstance(att, Attachment):
                raise ExprError("fin entries must be Attachments")
            if not self.base.contains_point(att.at):
                raise ExprError(f"attachment point {att.at} not on the base")
            _check_anchor(att.child, att.anchor)
        for fam in self.seq:
            if not isinstance(fam, SeqFamily):
                raise ExprError("seq entries must be SeqFamilies")
            # the family's cells must be Subcomplex.of's normal form, which
            # raises on an empty subcomplex or a cell off the base
            sc = fam.subcomplex
            if Subcomplex.of(self.base, sc.vertices, sc.edges) != sc:
                raise ExprError(f"{sc} is not sorted, repeats a cell or lists "
                                "an edge without its endpoints")
            _check_anchor(fam.pattern, fam.anchor)
        key = (self.base.vertices, self.base.edges,
               tuple((a.at, _shape(a.child), a.anchor) for a in self.fin),
               tuple((s.subcomplex, _shape(s.pattern), s.anchor)
                     for s in self.seq))
        shape = _SHAPES.get(key)
        if shape is None:
            shape = _SHAPES[key] = _Shape()
        object.__setattr__(self, "_shape", shape)


def _shape(x):
    return x._shape if isinstance(x, Node) else x


def _check_anchor(child, anchor):
    # anchors of atom children are kept verbatim but cannot be validated
    if isinstance(child, Node):
        if not child.base.contains_point(anchor):
            raise ExprError(f"anchor {anchor} not on the child's base")
    elif not isinstance(child, (SelfWild, ZeroDimWild)):
        raise ExprError(f"not a space expression: {child!r}")


SpaceExpr = Node | SelfWild | ZeroDimWild


def graph_expr(g: MultiGraph) -> Node:
    """A finite graph viewed as a space expression."""
    return Node(g, (), ())


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    diagnostic: str = None

    def __bool__(self):
        return self.stable


@dataclass(frozen=True)
class TowerLevel:
    """One non-empty iterated wild set, a finite disjoint union of pieces:
    the piece count and the total first Betti number.  ``wild_tower``
    builds the pieces themselves."""

    count: int
    b1: object  # int, or INF


@dataclass(frozen=True)
class WildProfile:
    """The wild tower of an expression: one level per non-empty iterated
    wild set, the rank, the total Betti number of the deepest level, and
    the resulting simple-closed-curve class (none / one / many)."""

    tower: tuple
    wrk: object  # int, or INF
    top_b1: object
    scc_class: str
    stable: bool


class _Facts:
    """What an analysis knows about one expression structure.  The
    structural facts, the tower summary and the stability verdict are set
    when it is first reached; ``pieces`` stays None until asked for,
    because wild pieces are only defined on stable parts.

    The summary describes the wild tower of a stable node through the
    height h_f of each family f: how many iterated wild sets of its
    pattern, the pattern itself included, contain a cycle.  The own pieces
    of wild level k >= 1 are the components of U_k, the union of the
    subcomplexes of the families with h_f >= k; the other pieces of level
    k are the level-k pieces of the finite attachments.

    - ``runs``: one ``(last, count, b1)`` per distinct h_f >= 1, deepest
      first: U_k is the same for every k from the next run's ``last`` + 1
      up to ``last``, with ``count`` components and first Betti number
      ``b1``.
    - ``rank``: the number of non-empty levels; ``top``: the first Betti
      number of the deepest; ``height``: h of the expression as a pattern.
    - ``count1``: the number of level-1 pieces, own and foreign.
    """

    __slots__ = ("atom", "selfwild", "scc", "connected", "b1", "runs",
                 "rank", "top", "height", "count1", "pieces", "stability")


class Analysis:
    """Everything the calculus derives from one space expression, computed
    once per subexpression.

    One post-order walk gives the facts of every subexpression from those
    of its children: atoms, self-wild subspaces, simple closed curves,
    connectedness, the total first Betti number, a run-length summary of
    the wild tower (see ``_Facts``) and the w-stability verdict.  A node's
    own level-k pieces change only where one of its families' heights runs
    out, so its summary holds one run per distinct height, from one
    union-find pass over its subcomplexes.  The stability verdict reads
    the children's verdicts and the patterns' summaries, and ``profile``,
    ``cat``, ``tc`` and both certificates read only the summaries: they
    build no piece and no graph.  Wild-set pieces are built on demand for
    ``wild_set`` and ``wild_tower``, whose output is that large: a node's
    own pieces are the components of the forest that the same union-find
    pass leaves for U_1, each built with one ``subgraph`` call.

    Facts are keyed by the expression itself, that is by its hash-consed
    structure (see ``Node``), so a subexpression shared by several parents
    is analysed once.  On a rank-growing chain of depth d the memo holds
    d + 2 entries and the summaries d + 1 runs, wherever each level
    anchors its copies.  Every walk uses an explicit stack, so nesting
    depth is bounded by memory, not by the interpreter's recursion limit.
    Nothing outlives the analysis: a caller with several questions about
    one expression builds one with ``analyze`` and passes it to each
    reader.
    """

    def __init__(self, e: SpaceExpr):
        if not isinstance(e, (Node, SelfWild, ZeroDimWild)):
            raise ExprError(f"not a space expression: {e!r}")
        self.expr = e
        self._memo = {}    # expression -> _Facts
        self._profile = None
        self._top = self._facts(e)

    @property
    def connected(self) -> bool:
        return self._top.connected

    @property
    def scc(self) -> bool:
        return self._top.scc

    @property
    def atom(self) -> bool:
        return self._top.atom

    @property
    def selfwild(self) -> bool:
        return self._top.selfwild

    @property
    def stability(self) -> StabilityReport:
        return self._top.stability

    def require_stable(self):
        st = self.stability
        if not st:
            raise UnstableExpressionError(st.diagnostic)

    def pieces(self, x=None) -> tuple:
        """Wild-set pieces of x (default: the expression): pieces on its own
        base first, then pieces inside finite attachments.  Stability of x
        is assumed, not checked."""
        own, foreign = self._split(self.expr if x is None else x)
        return own + foreign

    def profile(self) -> WildProfile:
        if self._profile is None:
            self._profile = self._build_profile()
        return self._profile

    def _build_profile(self) -> WildProfile:
        e = self.expr
        if isinstance(e, ZeroDimWild):
            tower = (TowerLevel(1, INF), TowerLevel(1, 0))
            return WildProfile(tower, 2, 0, "none", False)
        self.require_stable()
        if self.selfwild:
            return WildProfile((TowerLevel(1, INF),), INF, INF, "many", True)
        top = self._top.top
        # every level above the deepest holds a piece with a non-empty wild
        # set, so a family whose pattern still has a cycle
        counts = self._level_counts()
        tower = tuple(TowerLevel(c, INF) for c in counts[:-1])
        tower += (TowerLevel(counts[-1], top),)
        if top == 0:
            scc = "none"
        elif top == 1:
            scc = "one"
        else:
            scc = "many"
        return WildProfile(tower, len(tower), top, scc, True)

    def _level_counts(self) -> list:
        """Pieces per level of the stable, self-wild-free expression.  Level
        k >= 1 sums the own level-k pieces of every node reached through
        finite attachments, once per attachment path to it, so each node's
        runs are read once and no summary is merged into another."""
        memo = self._memo
        paths = {self.expr: 1}
        # each entry follows its children, so backwards parents come first
        for x in reversed(list(_subexpressions(self))):
            m = paths.get(x)
            if m:
                for att in x.fin:
                    paths[att.child] = paths.get(att.child, 0) + m
        # a run's count holds on every level up to its last, on top of the
        # deeper runs' counts
        ends = defaultdict(int)
        for x, m in paths.items():
            deeper = 0
            for last, count, _ in memo[x].runs:
                ends[last] += m * (count - deeper)
                deeper = count
        counts = []
        total = 0
        for k in range(self._top.rank - 1, 0, -1):
            total += ends[k]
            counts.append(total)
        counts.append(1)
        return counts[::-1]

    # --- structural facts and summaries -------------------------------------

    def _facts(self, e) -> _Facts:
        """Facts of e, reaching every subexpression below it first."""
        memo = self._memo
        stack = [e]
        while stack:
            x = stack[-1]
            if x in memo:
                stack.pop()
                continue
            if isinstance(x, Node):
                todo = [a.child for a in x.fin if a.child not in memo]
                todo.extend(s.pattern for s in x.seq if s.pattern not in memo)
                if todo:
                    stack.extend(todo)
                    continue
            stack.pop()
            memo[x] = self._local(x)
        return memo[e]

    def _local(self, x) -> _Facts:
        """Facts, tower summary and stability of x from those of its
        children."""
        f = _Facts()
        f.pieces = None
        f.runs = ()
        if isinstance(x, Node):
            memo = self._memo
            fin = [memo[a.child] for a in x.fin]
            seq = [memo[s.pattern] for s in x.seq]
            kids = fin + seq
            b = betti1(x.base)
            f.atom = any(k.atom for k in kids)
            f.selfwild = any(k.selfwild for k in kids)
            f.scc = b > 0 or any(k.scc for k in kids)
            f.connected = (x.base.n_components == 1
                           and all(k.connected for k in kids))
            # infinitely many copies of a cycle once a family pattern has one
            if any(k.b1 is INF for k in fin) or any(k.scc for k in seq):
                f.b1 = INF
            else:
                f.b1 = b + sum(k.b1 for k in fin)
            f.runs = _own_runs(x, [k.height for k in seq])
            own = f.runs[0][0] if f.runs else 0
            f.rank = 1 + max([own] + [k.rank - 1 for k in fin])
            if f.rank == 1:
                f.top = f.b1
            else:
                # the deepest level: own pieces if a run reaches it, and the
                # deepest pieces of the attachments as deep as x
                f.top = ((f.runs[0][2] if own == f.rank - 1 else 0)
                         + sum(k.top for k in fin if k.rank == f.rank))
            f.count1 = ((f.runs[-1][1] if f.runs else 0)
                        + sum(k.count1 for k in fin))
            f.stability = self._node_stability(x)
        elif isinstance(x, SelfWild):
            f.atom = f.scc = f.connected = f.selfwild = True
            f.b1 = f.rank = f.top = INF
            f.count1 = 1
            f.pieces = ((x,), ())
            f.stability = StabilityReport(True)
        else:
            f.atom = f.scc = f.connected = True
            f.selfwild = False
            f.b1 = INF
            f.rank, f.top, f.count1 = 2, 0, 1
            f.stability = StabilityReport(
                False, "handled by the zero-dimensional special case")
        if f.selfwild:
            f.height = INF
        elif not f.scc:
            f.height = 0
        else:
            # every level above the deepest has a cycle; the deepest has
            # one when its Betti number is positive
            f.height = f.rank - (f.top == 0)
        return f

    # --- wild-set pieces ----------------------------------------------------

    def _split(self, e):
        """(own, foreign) pieces of the wild set of e: pieces living on
        subcomplexes of e's own base, and pieces living inside finite
        attachments (a different identifier space)."""
        memo = self._memo
        stack = [e]
        while stack:
            x = stack[-1]
            f = self._facts(x)
            if f.pieces is None:
                if isinstance(x, ZeroDimWild):
                    raise ExprError("the zero-dimensional atom has no "
                                    "symbolic wild set")
                sources = [a.child for a in x.fin]
                sources.extend(s.pattern for s in x.seq
                               if memo[s.pattern].scc)
                todo = [c for c in sources if memo[c].pieces is None]
                if todo:
                    stack.extend(todo)
                    continue
                f.pieces = self._node_pieces(x)
            stack.pop()
        return memo[e].pieces

    def _node_pieces(self, e: "Node"):
        """Per family: a simply connected pattern contributes nothing; a
        pattern with a cycle makes its subcomplex wild and carries its own
        first wild piece down as a new family.  Contributions merge along
        the components of U_1, the union of their subcomplexes.  The
        contributing families are those of height at least 1, so U_1 is
        the forest that ``_own_runs`` leaves.  Its components are numbered
        by smallest vertex; every family cell is filed under its root, and
        a family's cells under one root are its meet with that component."""
        memo = self._memo
        root = {}
        _own_runs(e, [memo[fam.pattern].height for fam in e.seq], root)
        comps = {}                    # root -> (vertices, edge ids, families)
        for v in sorted(root):
            comps.setdefault(_find(root, v), ([], [], []))[0].append(v)
        edge_by_id = e.base.edge_by_id
        for fam in e.seq:
            pf = memo[fam.pattern]
            if not pf.scc:
                continue
            own, foreign = pf.pieces
            inner = own + foreign
            meets = defaultdict(lambda: ([], []))
            for v in fam.subcomplex.vertices:
                meets[_find(root, v)][0].append(v)
            for eid in fam.subcomplex.edges:
                meets[_find(root, edge_by_id[eid].v0)][1].append(eid)
            for r, (vs, es) in meets.items():
                comps[r][1].extend(es)
                if inner:
                    meet = Subcomplex(tuple(vs), tuple(es))
                    comps[r][2].append(SeqFamily(meet, inner[0], fam.anchor))
        own = tuple(Node(subgraph(e.base, es, vs), (), tuple(fams))
                    for vs, es, fams in comps.values())
        foreign = []
        for att in e.fin:
            child_own, child_foreign = memo[att.child].pieces
            foreign.extend(child_own)
            foreign.extend(child_foreign)
        return own, tuple(foreign)

    # --- w-stability --------------------------------------------------------

    def _node_stability(self, x: "Node") -> StabilityReport:
        """W-stability of x from its children's verdicts, already in the
        memo.  Children are decided in order, each family's pattern before
        the family itself, and the first failure decides."""
        memo = self._memo
        for i, att in enumerate(x.fin):
            sub = memo[att.child].stability
            if not sub:
                return StabilityReport(False, f"attachment {i}: {sub.diagnostic}")
        for i, fam in enumerate(x.seq):
            sub = memo[fam.pattern].stability
            if not sub:
                return StabilityReport(False, f"seq family {i}: {sub.diagnostic}")
            report = self._family_report(i, fam)
            if report is not None:
                return report
        return StabilityReport(True)

    def _family_report(self, i, fam: SeqFamily):
        """Failure of family i, or None.  A family whose pattern has a
        non-empty wild set is admissible only when every non-empty iterated
        wild set of the pattern is one connected piece containing the
        anchor: otherwise copies of it accumulate on the subcomplex without
        touching it, and copies of deeper wild sets have to reach the
        subcomplex through the gluing point too.

        Read from the pattern's summary, in O(its runs and families): only
        level 1 can hold pieces of finite attachments, deeper levels have
        the piece count of their run, and the anchor lies in U_k while k is
        at most the largest height of a family whose subcomplex holds it.
        A self-wild pattern's levels end in a run of unbounded length; the
        self-wild atom is its own wild set."""
        memo = self._memo
        pattern = fam.pattern
        p = memo[pattern]
        if not p.scc or isinstance(pattern, SelfWild):
            return None

        def split(level, count):
            return StabilityReport(
                False, f"seq family {i}: wild set level {level} of the "
                       f"pattern is not path-connected ({count} pieces)")

        def outside(level, where=""):
            return StabilityReport(
                False, f"seq family {i}: anchor {fam.anchor} does not lie "
                       f"in wild set level {level} of the pattern{where}")

        own1 = p.runs[-1][1] if p.runs else 0
        if p.count1 > 1:
            return split(1, p.count1)
        if p.count1 > own1:
            # the anchor is a point of the pattern's base; it cannot
            # certify a wild set sitting inside a finite attachment
            return outside(1, " (it sits inside a finite attachment)")
        reach = max((memo[g.pattern].height for g in pattern.seq
                     if g.subcomplex.contains_point(fam.anchor)), default=0)
        level = 1
        for last, count, _ in reversed(p.runs):
            if count > 1:
                return split(level, count)
            if reach < last:
                return outside(reach + 1)
            level = last + 1
        return None


def _own_runs(node: Node, heights, root=None) -> tuple:
    """The runs of a node's own pieces, given its families' heights: the
    families go into one union-find over base cells in decreasing height,
    and after the last family of each height the union is U_k for every
    level k up to that height.  The forest is left in ``root`` when one is
    given: each vertex of U_1 maps towards the root of its component."""
    active = sorted(((h, i) for i, h in enumerate(heights) if h), reverse=True)
    root = {} if root is None else root
    edges = set()
    comps = 0
    runs = []
    for n, (h, i) in enumerate(active):
        sc = node.seq[i].subcomplex
        for v in sc.vertices:
            if v not in root:
                root[v] = v
                comps += 1
        for eid in sc.edges:
            if eid not in edges:
                edges.add(eid)
                ed = node.base.edge_by_id[eid]
                a, b = _find(root, ed.v0), _find(root, ed.v1)
                if a != b:
                    root[a] = b
                    comps -= 1
        if n + 1 == len(active) or active[n + 1][0] != h:
            runs.append((h, comps, len(edges) - len(root) + comps))
    return tuple(runs)


def analyze(e) -> Analysis:
    """The analysis of a space expression.  Every reader below accepts an
    expression or its analysis; pass the analysis to share one pass."""
    return e if isinstance(e, Analysis) else Analysis(e)


def is_connected_expr(e) -> bool:
    return analyze(e).connected


def contains_scc(e) -> bool:
    """Whether the space contains a simple closed curve (equivalently, for
    one-dimensional spaces, is not simply connected)."""
    return analyze(e).scc


def contains_atom(e) -> bool:
    return analyze(e).atom


def is_w_stable(e) -> StabilityReport:
    """Decide w-stability of an expression.

    A family whose pattern has a non-empty wild set is admissible only when
    that wild set is path-connected and contains the family's anchor;
    otherwise copies of the pattern's wild set accumulate on the subcomplex
    without touching it and local path-connectedness of the wild set fails.
    The zero-dimensional atom reports unstable with a pointer to its special
    case; the self-wild atom is vacuously stable (its rank is infinite).
    """
    return analyze(e).stability


def wild_set(e):
    """Wild set of a stable expression, as a finite disjoint union of pieces.

    Per family: a simply connected pattern contributes nothing; a pattern
    with a cycle but empty wild set makes the whole subcomplex wild; a
    pattern with a non-empty wild set additionally carries its own wild set
    down as a new family.  Contributions over the same base merge along the
    union of their subcomplexes; finite attachments contribute their own
    wild sets as separate pieces.  Finite graphs have empty wild set.
    """
    a = analyze(e)
    if isinstance(a.expr, ZeroDimWild):
        raise ExprError("the zero-dimensional atom has no symbolic wild set")
    a.require_stable()
    return a.pieces()


def wild_tower(e):
    """Non-empty iterated wild sets of a stable, self-wild-free expression."""
    a = analyze(e)
    if isinstance(a.expr, ZeroDimWild):
        raise ExprError("the zero-dimensional atom has no symbolic wild tower")
    a.require_stable()
    if a.selfwild:
        raise InfiniteRankError("self-wild subspaces give an infinite tower")
    levels = []
    level = (a.expr,)
    while level:
        levels.append(level)
        level = tuple(p for piece in level for p in a.pieces(piece))
    return tuple(levels)


def wrk(e):
    """Wildness rank: the smallest n >= 1 with empty n-th iterated wild set.

    Infinite for any expression containing a self-wild subspace (its wild
    set persists inside every iterate); 2 for the zero-dimensional atom.
    """
    return profile(e).wrk


def profile(e) -> WildProfile:
    return analyze(e).profile()


def _require_connected_expr(a: Analysis, op: str):
    if not a.connected:
        raise ExprError(f"{op} requires a path-connected expression")


def cat(e):
    """LS-category from the wild tower: with finite rank n, n - 1 when the
    deepest level carries no cycle and n otherwise; infinite rank gives
    infinity."""
    a = analyze(e)
    _require_connected_expr(a, "cat")
    prof = profile(a)
    if prof.wrk is INF:
        return INF
    return prof.wrk - 1 if prof.top_b1 == 0 else prof.wrk


def tc(e):
    """Topological complexity from the wild tower: with finite rank n the
    value is 2n-2 / 2n-1 / 2n as the deepest level carries no / one / many
    simple closed curves; infinite rank gives infinity."""
    a = analyze(e)
    _require_connected_expr(a, "tc")
    prof = profile(a)
    if prof.wrk is INF:
        return INF
    n = prof.wrk
    if prof.scc_class == "none":
        return 2 * n - 2
    if prof.scc_class == "one":
        return 2 * n - 1
    return 2 * n


CERT_REASONS = frozenset({
    "contractible-pieces",
    "dendrite-pieces",
    "spanning-tree-pieces",
    "graph-minus-tree-pieces",
    "product-box",
    "circle-antidiagonal",
})


@dataclass(frozen=True)
class CertificateLevel:
    reason: str
    description: str

    def __post_init__(self):
        if self.reason not in CERT_REASONS:
            raise ExprError(f"unknown certificate reason {self.reason!r}")


@dataclass(frozen=True)
class Certificate:
    """Machine-readable record of a category or complexity filtration:
    ordered strata (smallest first), each with a reason label, and the
    declared length (= number of strata - 1)."""

    kind: str
    levels: tuple
    length: object

    def __post_init__(self):
        if self.kind not in ("cat", "tc"):
            raise ExprError("certificate kind must be 'cat' or 'tc'")
        if self.length != len(self.levels) - 1:
            raise ExprError("declared length must equal strata count - 1")


def _finite_profile(a: Analysis, op: str) -> WildProfile:
    prof = profile(a)
    if prof.wrk is INF:
        raise InfiniteRankError(f"{op} requires finite wildness rank")
    return prof


def cat_certificate(e) -> Certificate:
    """Category filtration certificate from the wild tower.

    Levels run from the deepest stratum outward.  When the deepest wild
    level has cycles it is refined through spanning trees of its graph
    cores; otherwise it consists of dendrite pieces.  Each later difference
    is a separated union of contractible pieces peeled from the next tower
    level.  The declared length equals cat(e).
    """
    a = analyze(e)
    prof = _finite_profile(a, "cat_certificate")
    n = prof.wrk
    levels = []
    if prof.top_b1 == 0:
        levels.append(CertificateLevel(
            "dendrite-pieces",
            f"wild level {n - 1}: finite disjoint union of dendrite pieces, "
            "categorical in one stratum"))
    else:
        levels.append(CertificateLevel(
            "spanning-tree-pieces",
            f"spanning trees of the graph cores of wild level {n - 1}"))
        levels.append(CertificateLevel(
            "graph-minus-tree-pieces",
            f"wild level {n - 1} minus the spanning trees: separated open "
            "arcs"))
    for j in range(n - 2, -1, -1):
        levels.append(CertificateLevel(
            "contractible-pieces",
            f"attach the separated contractible pieces of wild level {j} "
            f"missing level {j + 1}"))
    return Certificate("cat", tuple(levels), cat(a))


def tc_certificate(e) -> Certificate:
    """Complexity filtration certificate: product strata of the category
    tower with the terminal stratum refined by the simple-closed-curve
    class of the deepest wild level.  The declared length equals tc(e).
    """
    a = analyze(e)
    prof = _finite_profile(a, "tc_certificate")
    n = prof.wrk
    levels = []
    if prof.scc_class == "none":
        levels.append(CertificateLevel(
            "dendrite-pieces",
            f"F_1 x F_1: products of the dendrite pieces of wild level {n - 1}"))
    elif prof.scc_class == "one":
        levels.append(CertificateLevel(
            "circle-antidiagonal",
            f"anti-diagonal of the unique circle core of wild level {n - 1}, "
            "one point pair per remaining component pair"))
        levels.append(CertificateLevel(
            "product-box", "F_1 x F_1 completing the circle plan"))
    else:
        levels.append(CertificateLevel(
            "spanning-tree-pieces",
            f"K0: products T x T of spanning trees of the graph cores of "
            f"wild level {n - 1}"))
        levels.append(CertificateLevel(
            "graph-minus-tree-pieces",
            "K1: G x T united with T x G, evacuating one off-tree coordinate"))
        levels.append(CertificateLevel(
            "product-box", "K2: G x G = F_1 x F_1"))
    for k in range(3, 2 * n + 1):
        levels.append(CertificateLevel(
            "product-box",
            f"H_{k}: union of F_i x F_j over i + j = {k}"))
    return Certificate("tc", tuple(levels), tc(a))


# what a copy's prefix is made of: ``a<i>_`` for the i-th finite attachment
# and ``s<i>c<c>_`` for copy c of family i.  Each ends at its only ``_``, so
# no token is a prefix of another; the pattern also matches tokens the
# expansion never writes (``a01_``), which only makes the check stricter.
_COPY_TOKEN = re.compile(r"a\d+_|s\d+c\d+_")


def _template(node: Node, anchor, depth: int):
    """What every copy of ``node`` glued at ``anchor`` writes, in the node's
    own names: ``(vertices, edges, children, anchor record, proven)``.
    Edges are ``(id, i0, i1)`` and children ``(child, child anchor, prefix
    suffix, attach)``, in stack order; each endpoint and attach point is an
    index into the vertices, with -1 for the host vertex.  The anchor
    record is the anchor's own vertex name and the edge it cuts (or None),
    or None at the root.  ``proven`` says that the vertex names and the
    anchor's own name are distinct, so are the edge ids and the id of the
    edge the anchor cuts, and none of them starts with a copy token (see
    ``truncate``)."""
    children = [(att.child, _point_key(att.anchor), f"a{i}_", _point_key(att.at))
                for i, att in enumerate(node.fin)]
    for i, fam in enumerate(node.seq):
        # copies go round the cells, vertices first; the j-th of the m
        # copies on an edge sits at parameter j / (m + 1)
        cvs, ces = fam.subcomplex.vertices, fam.subcomplex.edges
        n = len(cvs) + len(ces)
        pattern_anchor = _point_key(fam.anchor)
        for c in range(depth):
            k = c % n
            at = (cvs[k] if k < len(cvs) else
                  (ces[k - len(cvs)], Fraction(c // n + 1, (depth - 1 - k) // n + 2)))
            children.append((fam.pattern, pattern_anchor, f"s{i}c{c}_", at))
    cuts = defaultdict(set)
    for at in (anchor, *(child[3] for child in children)):
        if isinstance(at, tuple):
            cuts[at[0]].add(at[1])
    cut_names = {}                            # in edge order
    for ed in node.base.edges:
        if ed.id in cuts:
            cuts[ed.id] = ts = sorted(cuts[ed.id])
            for k, t in enumerate(ts, 1):
                cut_names[(ed.id, t)] = f"{ed.id}_p{k}"

    record = None
    if anchor is not None:
        on_edge = isinstance(anchor, tuple)
        record = (cut_names[anchor] if on_edge else anchor,
                  anchor[0] if on_edge else None)
    vs, slot = [], {anchor: -1}               # point key -> vertex index
    for key in (*node.base.vertices, *cut_names):
        if key != anchor:
            slot[key] = len(vs)
            vs.append(key if isinstance(key, str) else cut_names[key])
    es = []
    for ed in node.base.edges:
        i0, i1 = slot[ed.v0], slot[ed.v1]
        ts = cuts.get(ed.id)
        if not ts:
            es.append((ed.id, i0, i1))
            continue
        for k, t in enumerate(ts):
            cut = slot[(ed.id, t)]
            es.append((f"{ed.id}_s{k}", i0, cut))
            i0 = cut
        es.append((f"{ed.id}_s{len(ts)}", i0, i1))
    kids = [(child, child_anchor, suffix, slot[at])
            for child, child_anchor, suffix, at in reversed(children)]
    names, ids = list(vs), [ed[0] for ed in es]
    if record is not None:
        names.append(record[0])
        if record[1] is not None:
            ids.append(record[1])
    proven = (len(set(names)) == len(names) and len(set(ids)) == len(ids)
              and not any(map(_COPY_TOKEN.match, names + ids)))
    return vs, es, kids, record, proven


# Where a copy's names go in the text of its records: each is the copy's
# prefix followed by a local name of its template, or the copy's host.
_PREFIX, _HOST = object(), object()


def _split(tokens) -> list:
    """``tokens``, literal strings and the slots ``_PREFIX`` and ``_HOST``,
    split at each host slot into segments, and each segment at each prefix
    slot into literal pieces, so that ``host.join([prefix.join(seg) for seg
    in segments])`` fills the slots.  The text is put together by ``join``
    alone, so no name can clash with a placeholder."""
    segments, seg, text = [], [], []
    for tok in tokens:
        if isinstance(tok, str):
            text.append(tok)
            continue
        seg.append("".join(text))
        text = []
        if tok is _HOST:
            segments.append(seg)
            seg = []
    seg.append("".join(text))
    segments.append(seg)
    return segments


class _Template:
    """What every copy of one (node, anchor) pair writes, given the copy's
    prefix and host: the node's own records (``_compile``), or from the
    pair's second copy on the records of its whole subtree
    (``_compile_subtree``).

    ``vertex_text`` and ``edge_text`` are the records as text: the vertex
    lines as the pieces of one segment, since the host is never among them,
    and the edge lines as segments (see ``_split``).  ``n_vertices`` and
    ``n_edges`` count them.  ``records()`` gives them as local vertex names
    and edges ``(id, i0, i1)`` whose endpoints index the names, with -1 for
    the host.  A node's own template holds its records from the start; a
    subtree's are built from its ``parts`` on the first call, so the text
    alone never builds a name per vertex."""

    __slots__ = ("vertex_text", "edge_text", "n_vertices", "n_edges", "parts", "_records")

    def __init__(self, vertex_text, edge_text, n_vertices, n_edges, parts, records):
        self.vertex_text, self.edge_text = vertex_text, edge_text
        self.n_vertices, self.n_edges = n_vertices, n_edges
        self.parts, self._records = parts, records

    def records(self):
        """``(names, edges)``; a subtree's are its parts' records, each
        part's names with its suffix joined on, and each endpoint at the
        part's host the index of the vertex it names, or -1.  Parts that
        are subtrees themselves are built first, from an explicit stack."""
        todo = [self]
        while todo:
            tpl = todo[-1]
            if tpl._records is not None:
                todo.pop()
                continue
            missing = [part for part, _, _, _ in tpl.parts if part._records is None]
            if missing:
                todo += missing
                continue
            todo.pop()
            names, edges = [], []
            for part, suffix, at, _ in tpl.parts:
                part_names, part_edges = part._records
                start = len(names)
                names += [suffix + v for v in part_names]
                edges += [(suffix + i, at if i0 < 0 else start + i0, at if i1 < 0 else start + i1)
                          for i, i0, i1 in part_edges]
            tpl._records = names, edges
        return self._records


def _compile(names, edges) -> _Template:
    """The ``_Template`` of vertices ``names`` and ``edges``.  Its text has
    the line format of ``spacefile.graph_records`` (which this module
    cannot import: ``spacefile`` imports it), ``vertex NAME`` and ``edge ID
    V0 V1``, each line ending in a newline."""
    vertex, edge = [], []
    for v in names:
        vertex += ("vertex ", _PREFIX, v, "\n")
    for i, i0, i1 in edges:
        edge += ("edge ", _PREFIX, i, " ", *((_HOST,) if i0 < 0 else (_PREFIX, names[i0])),
                 " ", *((_HOST,) if i1 < 0 else (_PREFIX, names[i1])), "\n")
    return _Template(_split(vertex)[0], _split(edge), len(names), len(edges), (),
                     (names, edges))


def _print_chunks(chunks) -> str:
    """The text of ``truncation_text``, written straight from the chunks'
    template texts: all the vertex lines, then all the edge lines, each
    chunk's in a few joins of its prefix and host."""
    out = ["graph truncated\n"]
    out += [prefix.join(tpl.vertex_text) for tpl, prefix, _ in chunks]
    for tpl, prefix, host in chunks:
        segs = tpl.edge_text
        out.append(prefix.join(segs[0]) if len(segs) == 1
                   else host.join([prefix.join(seg) for seg in segs]))
    out.append("endgraph\nmain truncated\n")
    return "".join(out)


def _compile_subtree(key, templates: dict) -> _Template:
    """The ``_Template`` of the whole subtree of a copy of ``key``, a (node,
    anchor) pair, in pre-order.  ``templates`` maps each pair below it to
    ``[own template, children, subtree template or None]``; the walk of the
    pair's first copy filled it.

    The parts are found by one walk with an explicit stack, so a 1500-deep
    chain of single copies is no deeper to compile than to walk.  Each part
    is a template with the suffix its copy adds to the subtree's prefix and
    its host: -1 and None for the subtree's own host, or the index and the
    suffixed name of the vertex of its parent copy that it is attached at.
    A pair whose subtree is compiled already is one part, and so is a pair
    with no children; any other part's children follow it."""
    parts, n_vertices = [], 0
    stack = [(key, "", -1, None)]
    while stack:
        key, suffix, at, host = stack.pop()
        own, kids, whole = templates[key]
        tpl = own if whole is None else whole
        parts.append((tpl, suffix, at, host))
        if whole is None:
            names = own.records()[0]
            stack += [((child, anchor), suffix + step, at if k < 0 else n_vertices + k,
                       host if k < 0 else suffix + names[k])
                      for child, anchor, step, k in kids]
        n_vertices += tpl.n_vertices
    return _joined(parts)


def _joined(parts) -> _Template:
    """The ``_Template`` of ``parts``, ``(template, suffix, host index, host
    name)``, written one after another.  A part's text joins the text so
    far: its suffix is joined onto each piece that follows a prefix slot,
    and each host slot becomes a prefix slot followed by the host's name,
    or, where that is None, stays a host slot."""
    vertex, edge = [""], [[""]]
    for tpl, suffix, _, host in parts:
        _join_onto(vertex, tpl.vertex_text, suffix)
        first, *rest = tpl.edge_text
        _join_onto(edge[-1], first, suffix)
        for seg in rest:
            if host is None:
                edge.append([""])
            else:
                edge[-1].append(host)
            _join_onto(edge[-1], seg, suffix)
    return _Template(vertex, edge, sum(part[0].n_vertices for part in parts),
                     sum(part[0].n_edges for part in parts), parts, None)


def _join_onto(pieces: list, more: list, suffix: str):
    """Append the literal pieces ``more`` to ``pieces``, with ``suffix``
    joined onto each piece of ``more`` that follows a prefix slot."""
    pieces[-1] += more[0]
    pieces += [suffix + p for p in more[1:]] if suffix else more[1:]


def _expand(root: Node, depth: int):
    """The truncation as chunks ``(template, prefix, host)``, one per stack
    entry, in declaration order, from one pre-order walk of the expansion
    tree: the records of ``template`` with each local name prefixed by
    ``prefix`` and the host slot holding ``host`` (None at the root).

    A node writes its base vertices, then the vertices cutting its edges
    (edge by edge, parameters ascending), then its edges with each cut edge
    replaced in place by its segments; its ``fin`` attachments follow, then
    its ``seq`` copies, each a whole subtree.  A child's stack entry carries
    its anchor, its prefix and its host vertex, resolved in the parent's
    names; the child writes the host wherever its anchor would appear, in
    its own edges and as the host of its own attachments.  The anchor's
    parameter joins the cuts of its edge, so ``_p``/``_s`` numbering runs
    over the union.

    All of that depends only on the node's structure and its anchor: every
    copy of a ``seq`` pattern is the same ``Node``, glued at the same
    anchor.  So it is worked out once per (node, anchor) pair as a
    ``_template`` in the node's own names, with its text (``_compile``).
    The memo keys by the node, so equal nodes share one template, and by
    the anchor, since one node may be glued at two.  The first copy of a
    pair is walked: its chunk is its own template, the copy's prefix and
    its host, and its children are pushed, each with its host, the copy's
    prefix followed by the local name of the attach point, or the copy's
    own host.  That walk reaches every pair below it, so at the pair's
    second copy its whole subtree is compiled once (``_compile_subtree``),
    and that copy and every later one is one chunk of the subtree template,
    with no entry pushed for its children.  The chunks of a subtree are
    contiguous in pre-order, so the output order is unchanged.  Memory is
    bounded by the distinct (node, anchor) subtrees, each compiled once,
    and the output.

    Also returns, for the first copy of each template with an anchor, the
    anchor's own vertex name, the edge it cuts (or None) and the range of
    chunks its subtree writes; and whether every template proved its names.
    """
    chunks, anchors = [], []
    templates = {}        # (node, anchor) -> [template, kids, subtree template]
    proven = True
    stack = [(root, None, "", None)]
    while stack:
        entry = stack.pop()
        if isinstance(entry, list):           # an anchored subtree ends here
            entry.append(len(chunks))
            continue
        node, anchor, prefix, host = entry
        key = (node, anchor)
        memo = templates.get(key)
        if memo is not None:                  # a later copy: its whole subtree
            tpl = memo[2]
            if tpl is None:
                tpl = memo[2] = _compile_subtree(key, templates)
        else:
            tvs, tes, kids, record, ok = _template(node, anchor, depth)
            tpl = _compile(tvs, tes)
            templates[key] = [tpl, kids, None if kids else tpl]
            proven = proven and ok
            if record is not None:
                vname, eid = record
                anchors.append([prefix + vname,
                                None if eid is None else prefix + eid, len(chunks)])
                stack.append(anchors[-1])
            stack += [(child, child_anchor, prefix + suffix,
                       host if at < 0 else prefix + tvs[at])
                      for child, child_anchor, suffix, at in kids]
        chunks.append((tpl, prefix, host))
    return chunks, anchors, proven


def _chunk_records(chunks) -> GraphRecords:
    """The vertex names and ``Edge`` records that ``chunks`` write, in
    declaration order.  Each edge holds its endpoints' vertex strings: a
    copy's host is among the strings of its parent copy, a walked copy
    whose prefix is its own less the last copy token, which the pre-order
    writes first."""
    vs, rows = [], []
    looks = {}                 # a copy's prefix -> its names, then its host
    for tpl, prefix, host in chunks:
        names, edges = tpl.records()
        look = [prefix + v for v in names]
        vs += look
        if host is not None:
            up = looks[prefix[:prefix.rfind("_", 0, -1) + 1]]
            host = up[up.index(host)]
        look.append(host)                                    # the host at -1
        looks[prefix] = look
        rows.append((prefix, look, edges))
    # what Edge(...) does, less its Python-level __new__
    es = tuple([_new_tuple(Edge, (prefix + i, look[i0], look[i1]))
                for prefix, look, edges in rows for i, i0, i1 in edges])
    return GraphRecords(tuple(vs), es)


def truncate(e: SpaceExpr, depth: int) -> MultiGraph:
    """Finite approximation: replace every null-sequence family by ``depth``
    explicit copies of the recursively truncated pattern, attached at
    deterministic points of the subcomplex (vertices first in id order, then
    evenly spaced rational parameters along edges); finite attachments are
    expanded exactly.  Depth 0 keeps the base skeleton and attachments only.
    The graph is built once, from ``truncation_records``."""
    return MultiGraph._trusted(*truncation_records(e, depth))


def truncation_text(e: SpaceExpr, depth: int) -> str:
    """The text ``wildcat truncate`` prints: ``print_spacefile`` of the file
    whose only definition, and main, is the graph ``truncated`` of
    ``truncation_records(e, depth)``, or the error that raises.  When every
    template proves its names, no record is built."""
    return _print_chunks(_checked_expansion(e, depth)[0])


def truncation_records(e: SpaceExpr, depth: int) -> GraphRecords:
    """The checked vertex names and ``Edge`` records of ``truncate(e,
    depth)``, in declaration order, with no graph built: the expansion is
    iterative, and a bad name raises the ``GraphError`` the checking
    constructor raises."""
    chunks, records = _checked_expansion(e, depth)
    return _chunk_records(chunks) if records is None else records


def _checked_expansion(e, depth):
    """The chunks of ``truncate(e, depth)``, and their records if the name
    check built them, or None.

    Every output name is a copy's prefix, a string of copy tokens (``a<i>_``,
    ``s<i>c<c>_``) naming the path to the copy in the expansion tree,
    followed by a local name of the copy's template.  No token is a prefix
    of another, so when no local name starts with a token the split of a
    name into tokens and local name is unique: equal names are one local
    name of one copy.  So when every template proved its names unique and
    token-free, the output's names are unique, and they are identifiers
    with every endpoint a vertex by construction; the anchor check below
    cannot fire either, as each template proved its anchor's names against
    its own.  The names are then not checked again.  Otherwise the records
    are checked as the constructor checks them, so each error names the
    first bad identifier.
    """
    chunks, anchors, proven = _expand(_require_truncatable(e, depth), depth)
    if proven:
        return chunks, None
    records = _chunk_records(chunks)
    vs, es = records
    ids, names = _check_names(vs, es)
    # An anchor is renamed to its host, so the check never sees its own
    # name, nor the id of the edge it cuts; either must still be unique
    # within the anchor's subtree.  A subtree's names are its prefix plus
    # names fixed by its template, so every copy of a template gets the
    # verdict of its first copy, which the pre-order also reaches first.
    # Its chunks' sizes give its vertex and edge ranges.
    v_at = list(accumulate((tpl.n_vertices for tpl, _, _ in chunks), initial=0))
    e_at = list(accumulate((tpl.n_edges for tpl, _, _ in chunks), initial=0))
    for vname, eid, c0, c1 in anchors:
        if vname in names and vname in vs[v_at[c0]:v_at[c1]]:
            raise GraphError(f"duplicate identifier {vname!r}")
        if eid in ids and any(ed[0] == eid for ed in es[e_at[c0]:e_at[c1]]):
            raise GraphError(f"duplicate identifier {eid!r}")
    return chunks, records


def _require_truncatable(e, depth):
    """The expression of ``e``, an expression or its analysis, once the
    analysis finds no atom in it and ``depth`` is natural."""
    a = analyze(e)
    if a.atom:
        raise ExprError("cannot truncate an expression with opaque atoms")
    if depth < 0:
        raise ExprError("depth must be a natural number")
    return a.expr


def truncation_size(e: SpaceExpr, depth: int):
    """(vertices, edges) of ``truncate(e, depth)``, counted without
    expanding it.  A subtree glued at an anchor has its base's vertices
    less the one glued to the host and all its edges, one more vertex and
    edge per distinct point cutting an edge, each finite attachment's
    subtree once and each family's ``depth`` times.  Only the cuts depend
    on the anchor, so one pass over the subexpressions, each after its
    children, keeps one count per node without its own cuts, and a parent
    adds each child's cuts at the anchor it glues the child at.  The cuts
    are counted in integers, once per (node, anchor), so the cost grows
    with the expression and the square root of ``depth``, never with the
    output."""
    a = analyze(e)
    _require_truncatable(a, depth)
    cuts = cache(lambda node, anchor: _cut_count(node, anchor, depth))
    sizes = {}                    # node -> (vertices, edges) less its cuts
    for node in _subexpressions(a):
        n_v, n_e = len(node.base.vertices), len(node.base.edges)
        kids = [(att.child, att.anchor, 1) for att in node.fin]
        kids.extend((fam.pattern, fam.anchor, depth) for fam in node.seq)
        for child, anchor, copies in kids:
            k_v, k_e = sizes[child]
            cut = cuts(child, anchor)
            n_v += copies * (k_v - 1 + cut)
            n_e += copies * (k_e + cut)
        sizes[node] = (n_v, n_e)
    n_v, n_e = sizes[a.expr]
    cut = cuts(a.expr, None)
    return n_v + cut, n_e + cut


def truncation_betti1(e: SpaceExpr, depth: int) -> int:
    """First Betti number of ``truncate(e, depth)``, counted without
    expanding it.  Every copy is glued to its host at one point, so the
    truncation is a wedge of its nodes' bases, and b1 adds over a wedge;
    cutting an edge at a point keeps b1 too.  So a node has b1 of its base,
    plus each finite attachment's child once and each family's pattern
    ``depth`` times, whatever the anchors.  One pass over the
    subexpressions, each after its children: the cost grows with the
    expression, never with the output.  It does not check identifiers, so
    call it on an expression ``truncate`` accepts."""
    a = analyze(e)
    _require_truncatable(a, depth)
    b1 = {}
    for node in _subexpressions(a):
        b1[node] = (betti1(node.base)
                    + sum(b1[att.child] for att in node.fin)
                    + depth * sum(b1[fam.pattern] for fam in node.seq))
    return b1[a.expr]


def _subexpressions(a: Analysis):
    """``a.expr``'s subexpressions, each after its children: the memo up to
    ``a.expr``, which the first walk adds last, before any wild piece."""
    for x in a._memo:
        yield x
        if x is a.expr:
            return


def _cut_count(node: Node, anchor, depth: int) -> int:
    """Distinct points cutting the node's edges in a truncation: its anchor
    and attach points on edges, and the j / (m + 1), 0 < j <= m, of each
    family putting m copies on an edge (as ``_template`` places them).  A
    reduced p / d is among the j / a exactly when d divides a, and phi(d)
    reduced fractions have denominator d."""
    points = defaultdict(set)
    for p in (anchor, *(att.at for att in node.fin)):
        if isinstance(p, EdgeInterior):
            points[p.edge].add(p.t)
    spans = defaultdict(set)                  # edge -> its copies' m + 1
    for fam in node.seq:
        cvs, ces = fam.subcomplex.vertices, fam.subcomplex.edges
        n = len(cvs) + len(ces)
        for k, eid in enumerate(ces, len(cvs)):
            if k < depth:
                spans[eid].add((depth - 1 - k) // n + 2)
    total = 0
    for eid in points.keys() | spans.keys():
        dens = {d for a in spans.get(eid, ()) for d in _divisors(a)} - {1}
        total += sum(map(_totient, dens))
        total += sum(1 for t in points.get(eid, ()) if t.denominator not in dens)
    return total


def _divisors(n: int) -> set:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return {*small, *(n // d for d in small)}


def _totient(n: int) -> int:
    result, p = n, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result
