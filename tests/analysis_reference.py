"""Reference copy of the memoised wild-set analysis that built every tower
level as pieces, kept for differential tests only.

This is ``wildcat.wild.Analysis`` as it was before the run-length tower
summaries: ``profile`` walks the tower piece by piece (``_split`` and
``_node_pieces`` build one ``Node`` and one ``MultiGraph`` per piece), and
the stability check walks each family's pattern tower level by level
(``_family_report``).  It is quadratic on a rank-growing chain whose levels
anchor at different vertices, but each step follows the definition of a
wild piece, which makes it the oracle for the summaries.  The readers at
the end are the module's readers, bound to this class; like those, each
accepts an expression or its analysis.
"""

from wildcat.wild import (INF, ExprError, UnstableExpressionError,
                          InfiniteRankError, Node, SelfWild, ZeroDimWild,
                          SeqFamily, Subcomplex, StabilityReport, TowerLevel,
                          WildProfile, CertificateLevel, Certificate)
from wildcat.graphs import betti1, subgraph


def _union(a, b):
    """``Subcomplex.union`` as the package defined it."""
    return Subcomplex(tuple(sorted(set(a.vertices) | set(b.vertices))),
                      tuple(sorted(set(a.edges) | set(b.edges))))


def _intersect(a, b):
    """``Subcomplex.intersect`` as the package defined it."""
    return Subcomplex(tuple(sorted(set(a.vertices) & set(b.vertices))),
                      tuple(sorted(set(a.edges) & set(b.edges))))


class _Facts:
    __slots__ = ("atom", "selfwild", "scc", "connected", "b1", "pieces",
                 "stability")


class Analysis:
    """One memoised analysis: structural facts per subexpression, pieces
    and stability on demand."""

    def __init__(self, e):
        if not isinstance(e, (Node, SelfWild, ZeroDimWild)):
            raise ExprError(f"not a space expression: {e!r}")
        self.expr = e
        self._memo = {}
        self._profile = None
        self._top = self._facts(e)

    @property
    def connected(self):
        return self._top.connected

    @property
    def selfwild(self):
        return self._top.selfwild

    @property
    def stability(self):
        return self._stability(self.expr)

    def require_stable(self):
        st = self.stability
        if not st:
            raise UnstableExpressionError(st.diagnostic)

    def pieces(self, x=None):
        own, foreign = self._split(self.expr if x is None else x)
        return own + foreign

    def tower(self):
        levels = []
        level = (self.expr,)
        while level:
            levels.append(level)
            level = tuple(p for piece in level for p in self.pieces(piece))
        return tuple(levels)

    def profile(self):
        if self._profile is None:
            self._profile = self._build_profile()
        return self._profile

    def _build_profile(self):
        e = self.expr
        if isinstance(e, ZeroDimWild):
            tower = (TowerLevel(1, INF), TowerLevel(1, 0))
            return WildProfile(tower, 2, 0, "none", False)
        self.require_stable()
        if self.selfwild:
            return WildProfile((TowerLevel(1, INF),), INF, INF, "many", True)
        levels = self.tower()
        summaries = tuple(TowerLevel(len(lv), self._level_b1(lv))
                          for lv in levels)
        top = summaries[-1].b1
        if top == 0:
            scc = "none"
        elif top == 1:
            scc = "one"
        else:
            scc = "many"
        return WildProfile(summaries, len(levels), top, scc, True)

    def _level_b1(self, level):
        total = 0
        for piece in level:
            b = self._facts(piece).b1
            if b is INF:
                return INF
            total += b
        return total

    # --- structural facts ---------------------------------------------------

    def _facts(self, e):
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

    def _local(self, x):
        f = _Facts()
        f.pieces = f.stability = None
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
            if any(k.b1 is INF for k in fin) or any(k.scc for k in seq):
                f.b1 = INF
            else:
                f.b1 = b + sum(k.b1 for k in fin)
        elif isinstance(x, SelfWild):
            f.atom = f.scc = f.connected = f.selfwild = True
            f.b1 = INF
            f.pieces = ((x,), ())
            f.stability = StabilityReport(True)
        else:
            f.atom = f.scc = f.connected = True
            f.selfwild = False
            f.b1 = INF
            f.stability = StabilityReport(
                False, "handled by the zero-dimensional special case")
        return f

    # --- wild-set pieces ----------------------------------------------------

    def _split(self, e):
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

    def _node_pieces(self, e):
        memo = self._memo
        contributions = []
        for fam in e.seq:
            pf = memo[fam.pattern]
            if not pf.scc:
                continue
            own, foreign = pf.pieces
            inner = own + foreign
            contributions.append((fam, inner[0] if inner else None))
        own = []
        if contributions:
            union = contributions[0][0].subcomplex
            for fam, _ in contributions[1:]:
                union = _union(union, fam.subcomplex)
            ug = subgraph(e.base, union.edges, union.vertices)
            comps = [([], []) for _ in range(ug.n_components)]
            for v in union.vertices:
                comps[ug.component_of[v]][0].append(v)
            for eid in union.edges:
                comps[ug.component_of[ug.edge_by_id[eid].v0]][1].append(eid)
            for vs, es in comps:
                comp = Subcomplex(tuple(vs), tuple(es))
                fams = []
                for fam, wild_pattern in contributions:
                    if wild_pattern is None:
                        continue
                    meet = _intersect(fam.subcomplex, comp)
                    if not meet.vertices:
                        continue
                    fams.append(SeqFamily(meet, wild_pattern, fam.anchor))
                g = (ug if len(comps) == 1
                     else subgraph(e.base, comp.edges, comp.vertices))
                own.append(Node(g, (), tuple(fams)))
        foreign = []
        for att in e.fin:
            child_own, child_foreign = memo[att.child].pieces
            foreign.extend(child_own)
            foreign.extend(child_foreign)
        return tuple(own), tuple(foreign)

    # --- w-stability --------------------------------------------------------

    def _stability(self, e):
        memo = self._memo
        stack = [[e, 0]]
        while stack:
            frame = stack[-1]
            x, i = frame
            f = memo[x]
            if f.stability is not None:
                stack.pop()
                continue
            n_fin = len(x.fin)
            report = pending = None
            while i < n_fin + len(x.seq):
                if i < n_fin:
                    child = x.fin[i].child
                    label = f"attachment {i}"
                else:
                    fam = x.seq[i - n_fin]
                    child = fam.pattern
                    label = f"seq family {i - n_fin}"
                sub = memo[child].stability
                if sub is None:
                    pending = child
                    break
                if not sub:
                    report = StabilityReport(False, f"{label}: {sub.diagnostic}")
                    break
                if i >= n_fin:
                    report = self._family_report(i - n_fin, fam)
                    if report is not None:
                        break
                i += 1
            frame[1] = i
            if pending is not None:
                stack.append([pending, 0])
                continue
            f.stability = StabilityReport(True) if report is None else report
            stack.pop()
        return memo[e].stability

    def _family_report(self, i, fam):
        if not self._facts(fam.pattern).scc:
            return None
        own, foreign = self._split(fam.pattern)
        level = 1
        prev = None
        while own or foreign:
            if len(own) + len(foreign) > 1:
                return StabilityReport(
                    False, f"seq family {i}: wild set level {level} of the "
                           f"pattern is not path-connected "
                           f"({len(own) + len(foreign)} pieces)")
            if foreign:
                return StabilityReport(
                    False, f"seq family {i}: anchor {fam.anchor} does not lie "
                           f"in wild set level {level} of the pattern (it "
                           "sits inside a finite attachment)")
            piece = own[0]
            if not _point_in_piece(fam.anchor, piece):
                return StabilityReport(
                    False, f"seq family {i}: anchor {fam.anchor} does not lie "
                           f"in wild set level {level} of the pattern")
            if isinstance(piece, SelfWild) or piece == prev:
                break
            prev = piece
            own, foreign = self._split(piece)
            level += 1
        return None


def _point_in_piece(p, piece):
    if isinstance(piece, SelfWild):
        return True
    if isinstance(piece, ZeroDimWild):
        return False
    return piece.base.contains_point(p)


# --- the readers, on this analysis ------------------------------------------

def analyze(e):
    return e if isinstance(e, Analysis) else Analysis(e)


def is_w_stable(e):
    return analyze(e).stability


def profile(e):
    return analyze(e).profile()


def wrk(e):
    return profile(e).wrk


def _connected_profile(e, op):
    a = analyze(e)
    if not a.connected:
        raise ExprError(f"{op} requires a path-connected expression")
    return a.profile()


def cat(e):
    prof = _connected_profile(e, "cat")
    if prof.wrk is INF:
        return INF
    return prof.wrk - 1 if prof.top_b1 == 0 else prof.wrk


def tc(e):
    prof = _connected_profile(e, "tc")
    if prof.wrk is INF:
        return INF
    n = prof.wrk
    if prof.scc_class == "none":
        return 2 * n - 2
    if prof.scc_class == "one":
        return 2 * n - 1
    return 2 * n


def _finite_profile(e, op):
    prof = profile(e)
    if prof.wrk is INF:
        raise InfiniteRankError(f"{op} requires finite wildness rank")
    return prof


def cat_certificate(e):
    prof = _finite_profile(e, "cat_certificate")
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
    return Certificate("cat", tuple(levels), cat(e))


def tc_certificate(e):
    prof = _finite_profile(e, "tc_certificate")
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
    return Certificate("tc", tuple(levels), tc(e))
