"""Reference copy of the recursive wild-set analysis and truncation, kept
for differential tests only.

This is the straightforward structural recursion that ``wildcat.wild`` once
used: ``node_eq`` walks both trees to compare two expressions, every reader
re-derives stability, wild pieces and the tower from the expression, with
no memo, and ``truncate`` expands each subexpression into
its own validated graph before gluing it in.  It is cubic in nesting depth
and limited by the interpreter's recursion depth, but each function is a
direct transcription of its definition, which makes it the oracle for
``Node.__eq__``, ``wildcat.wild.Analysis`` and ``wildcat.wild.truncate``.

``walk_truncate`` is the iterative template walk as it was before copies
shared their name strings: it names every edge endpoint per copy and checks
every copy's anchor.  It is the oracle for the exact errors of
``wildcat.wild.truncate``, which the recursive ``truncate`` does not match.

``truncation_size`` is the size count as it was before it read the
analysis memo: its own explicit-stack walk, memoised by (node, anchor).
It shares the package's cut count, so it is the oracle for the walk.

``records_expand`` is the template walk as it was before it handed out
chunks: it fills one list of vertex names and one of ``Edge`` records, and
gives each anchor record vertex and edge ranges.  It shares the package's
templates, and keeps its own copy of the runs of leaf copies as they were
before chunks were written from template texts, so it is the oracle for
how the chunks are written.
"""

from collections import Counter, defaultdict
from itertools import groupby
from fractions import Fraction

from wildcat.graphs import (Edge, EdgeInterior, GraphError, Vertex, betti1,
                            build_graph, subgraph)
from wildcat import wild
from wildcat.wild import (INF, ExprError, UnstableExpressionError,
                          InfiniteRankError, Node, SelfWild, ZeroDimWild,
                          SeqFamily, Subcomplex, StabilityReport, TowerLevel,
                          WildProfile, CertificateLevel, Certificate)


def _union(a, b):
    """``Subcomplex.union`` as the package defined it."""
    return Subcomplex(tuple(sorted(set(a.vertices) | set(b.vertices))),
                      tuple(sorted(set(a.edges) | set(b.edges))))


def _intersect(a, b):
    """``Subcomplex.intersect`` as the package defined it."""
    return Subcomplex(tuple(sorted(set(a.vertices) & set(b.vertices))),
                      tuple(sorted(set(a.edges) & set(b.edges))))


def node_eq(x, y):
    """Structural equality of two expressions, by an explicit-stack walk
    over both trees: the base, then each attachment's point, child and
    anchor, then each family's subcomplex, pattern and anchor."""
    stack = [(x, y)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if not isinstance(x, Node):
            continue  # the atoms have no fields
        if (x.base != y.base or len(x.fin) != len(y.fin)
                or len(x.seq) != len(y.seq)):
            return False
        for a, b in zip(x.fin, y.fin):
            if a.at != b.at or a.anchor != b.anchor:
                return False
            stack.append((a.child, b.child))
        for a, b in zip(x.seq, y.seq):
            if a.subcomplex != b.subcomplex or a.anchor != b.anchor:
                return False
            stack.append((a.pattern, b.pattern))
    return True


def is_connected_expr(e):
    if isinstance(e, (SelfWild, ZeroDimWild)):
        return True
    if e.base.n_components != 1:
        return False
    return (all(is_connected_expr(a.child) for a in e.fin)
            and all(is_connected_expr(f.pattern) for f in e.seq))


def contains_scc(e):
    if isinstance(e, (SelfWild, ZeroDimWild)):
        return True
    if betti1(e.base) > 0:
        return True
    return (any(contains_scc(a.child) for a in e.fin)
            or any(contains_scc(f.pattern) for f in e.seq))


def contains_atom(e):
    if isinstance(e, (SelfWild, ZeroDimWild)):
        return True
    return (any(contains_atom(a.child) for a in e.fin)
            or any(contains_atom(f.pattern) for f in e.seq))


def contains_selfwild(e):
    if isinstance(e, SelfWild):
        return True
    if isinstance(e, ZeroDimWild):
        return False
    return (any(contains_selfwild(a.child) for a in e.fin)
            or any(contains_selfwild(f.pattern) for f in e.seq))


def is_w_stable(e):
    if isinstance(e, SelfWild):
        return StabilityReport(True)
    if isinstance(e, ZeroDimWild):
        return StabilityReport(False, "handled by the zero-dimensional special case")
    if not isinstance(e, Node):
        raise ExprError(f"not a space expression: {e!r}")
    for i, att in enumerate(e.fin):
        sub = is_w_stable(att.child)
        if not sub:
            return StabilityReport(False, f"attachment {i}: {sub.diagnostic}")
    for i, fam in enumerate(e.seq):
        sub = is_w_stable(fam.pattern)
        if not sub:
            return StabilityReport(False, f"seq family {i}: {sub.diagnostic}")
        if not contains_scc(fam.pattern):
            continue
        own, foreign = wild_pieces_split(fam.pattern)
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
            if not point_in_piece(fam.anchor, piece):
                return StabilityReport(
                    False, f"seq family {i}: anchor {fam.anchor} does not lie "
                           f"in wild set level {level} of the pattern")
            if isinstance(piece, SelfWild) or piece == prev:
                break
            prev = piece
            own, foreign = wild_pieces_split(piece)
            level += 1
    return StabilityReport(True)


def point_in_piece(p, piece):
    if isinstance(piece, SelfWild):
        return True
    if isinstance(piece, ZeroDimWild):
        return False
    return piece.base.contains_point(p)


def wild_pieces_split(e):
    if isinstance(e, SelfWild):
        return (e,), ()
    contributions = []
    for fam in e.seq:
        if not contains_scc(fam.pattern):
            continue
        inner = wild_pieces(fam.pattern)
        contributions.append((fam, inner[0] if inner else None))
    own = []
    if contributions:
        union = contributions[0][0].subcomplex
        for fam, _ in contributions[1:]:
            union = _union(union, fam.subcomplex)
        for comp in subcomplex_components(union, e.base):
            fams = []
            for fam, wild_pattern in contributions:
                if wild_pattern is None:
                    continue
                meet = _intersect(fam.subcomplex, comp)
                if not meet.vertices:
                    continue
                fams.append(SeqFamily(meet, wild_pattern, fam.anchor))
            g = subgraph(e.base, comp.edges, comp.vertices)
            own.append(Node(g, (), tuple(fams)))
    foreign = []
    for att in e.fin:
        foreign.extend(wild_pieces(att.child))
    return tuple(own), tuple(foreign)


def subcomplex_components(sc, g):
    """Connected components of a subcomplex, in order of their smallest
    vertex id."""
    adj = defaultdict(set)
    for eid in sc.edges:
        e = g.edge_by_id[eid]
        adj[e.v0].add(e.v1)
        adj[e.v1].add(e.v0)
    seen = set()
    comps = []
    for root in sc.vertices:
        if root in seen:
            continue
        comp = {root}
        seen.add(root)
        stack = [root]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comp_edges = tuple(sorted(eid for eid in sc.edges
                                  if g.edge_by_id[eid].v0 in comp))
        comps.append(Subcomplex(tuple(sorted(comp)), comp_edges))
    return tuple(comps)


def wild_pieces(e):
    own, foreign = wild_pieces_split(e)
    return own + foreign


def wild_set(e):
    if isinstance(e, ZeroDimWild):
        raise ExprError("the zero-dimensional atom has no symbolic wild set")
    st = is_w_stable(e)
    if not st:
        raise UnstableExpressionError(st.diagnostic)
    return wild_pieces(e)


def wild_tower(e):
    if isinstance(e, ZeroDimWild):
        raise ExprError("the zero-dimensional atom has no symbolic wild tower")
    st = is_w_stable(e)
    if not st:
        raise UnstableExpressionError(st.diagnostic)
    if contains_selfwild(e):
        raise InfiniteRankError("self-wild subspaces give an infinite tower")
    levels = []
    level = (e,)
    while level:
        levels.append(level)
        level = tuple(p for piece in level for p in wild_pieces(piece))
    return tuple(levels)


def wrk(e):
    if isinstance(e, ZeroDimWild):
        return 2
    st = is_w_stable(e)
    if not st:
        raise UnstableExpressionError(st.diagnostic)
    if contains_selfwild(e):
        return INF
    return len(wild_tower(e))


def expr_b1(e):
    if isinstance(e, (SelfWild, ZeroDimWild)):
        return INF
    total = betti1(e.base)
    for att in e.fin:
        b = expr_b1(att.child)
        if b is INF:
            return INF
        total += b
    for fam in e.seq:
        if contains_scc(fam.pattern):
            return INF
    return total


def level_b1(level):
    total = 0
    for piece in level:
        b = expr_b1(piece)
        if b is INF:
            return INF
        total += b
    return total


def profile(e):
    if isinstance(e, ZeroDimWild):
        tower = (TowerLevel(1, INF), TowerLevel(1, 0))
        return WildProfile(tower, 2, 0, "none", False)
    st = is_w_stable(e)
    if not st:
        raise UnstableExpressionError(st.diagnostic)
    if isinstance(e, SelfWild) or contains_selfwild(e):
        return WildProfile((TowerLevel(1, INF),), INF, INF, "many", True)
    levels = wild_tower(e)
    summaries = tuple(TowerLevel(len(lv), level_b1(lv)) for lv in levels)
    top = summaries[-1].b1
    if top == 0:
        scc = "none"
    elif top == 1:
        scc = "one"
    else:
        scc = "many"
    return WildProfile(summaries, len(levels), top, scc, True)


def require_connected_expr(e, op):
    if not is_connected_expr(e):
        raise ExprError(f"{op} requires a path-connected expression")


def cat(e):
    require_connected_expr(e, "cat")
    prof = profile(e)
    if prof.wrk is INF:
        return INF
    return prof.wrk - 1 if prof.top_b1 == 0 else prof.wrk


def tc(e):
    require_connected_expr(e, "tc")
    prof = profile(e)
    if prof.wrk is INF:
        return INF
    n = prof.wrk
    if prof.scc_class == "none":
        return 2 * n - 2
    if prof.scc_class == "one":
        return 2 * n - 1
    return 2 * n


def finite_profile(e, op):
    prof = profile(e)
    if prof.wrk is INF:
        raise InfiniteRankError(f"{op} requires finite wildness rank")
    return prof


def cat_certificate(e):
    prof = finite_profile(e, "cat_certificate")
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
    prof = finite_profile(e, "tc_certificate")
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


def _rename_graph(g, prefix):
    if not prefix:
        return g
    return build_graph([prefix + v for v in g.vertices],
                       [(prefix + e.id, prefix + e.v0, prefix + e.v1)
                        for e in g.edges])


def _rename_point(p, prefix):
    if not prefix:
        return p
    if isinstance(p, Vertex):
        return Vertex(prefix + p.v)
    return EdgeInterior(prefix + p.edge, p.t)


def _subdivide(g, cuts):
    vs = list(g.vertices)
    es = []
    locate = {}
    for e in g.edges:
        ts = cuts.get(e.id)
        if not ts:
            es.append(e)
            continue
        prev = e.v0
        for k, t in enumerate(sorted(set(ts)), 1):
            nv = f"{e.id}_p{k}"
            vs.append(nv)
            locate[(e.id, t)] = nv
            es.append(Edge(f"{e.id}_s{k - 1}", prev, nv))
            prev = nv
        es.append(Edge(f"{e.id}_s{len(set(ts))}", prev, e.v1))
    return build_graph(vs, es), locate


def _expand(e, depth, prefix):
    base = _rename_graph(e.base, prefix)
    attach = []
    for i, att in enumerate(e.fin):
        sub_prefix = f"{prefix}a{i}_"
        sub = _expand(att.child, depth, sub_prefix)
        attach.append((_rename_point(att.at, prefix), sub,
                       _rename_point(att.anchor, sub_prefix)))
    for i, fam in enumerate(e.seq):
        cells = ([("v", v) for v in fam.subcomplex.vertices]
                 + [("e", eid) for eid in fam.subcomplex.edges])
        assigned = [cells[c % len(cells)] for c in range(depth)]
        edge_total = Counter(ref for ref in assigned if ref[0] == "e")
        edge_seen = Counter()
        for c, ref in enumerate(assigned):
            sub_prefix = f"{prefix}s{i}c{c}_"
            sub = _expand(fam.pattern, depth, sub_prefix)
            anchor = _rename_point(fam.anchor, sub_prefix)
            if ref[0] == "v":
                host = Vertex(prefix + ref[1])
            else:
                edge_seen[ref] += 1
                j, m = edge_seen[ref], edge_total[ref]
                host = EdgeInterior(prefix + ref[1], Fraction(j, m + 1))
            attach.append((host, sub, anchor))
    cuts = defaultdict(list)
    for host, _, _ in attach:
        if isinstance(host, EdgeInterior):
            cuts[host.edge].append(host.t)
    base, locate = _subdivide(base, cuts)
    vs = list(base.vertices)
    es = list(base.edges)
    for host, sub, anchor in attach:
        host_v = host.v if isinstance(host, Vertex) else locate[(host.edge, host.t)]
        if isinstance(anchor, EdgeInterior):
            sub, sub_locate = _subdivide(sub, {anchor.edge: [anchor.t]})
            anchor_v = sub_locate[(anchor.edge, anchor.t)]
        else:
            anchor_v = anchor.v
        vs.extend(v for v in sub.vertices if v != anchor_v)
        rename = lambda v: host_v if v == anchor_v else v
        es.extend(Edge(ed.id, rename(ed.v0), rename(ed.v1)) for ed in sub.edges)
    return build_graph(vs, es)


def truncate(e, depth):
    """The recursive truncation.  An anchor on an edge that the pattern's
    own attachments also cut ends in a ``KeyError`` here."""
    if contains_atom(e):
        raise ExprError("cannot truncate an expression with opaque atoms")
    if depth < 0:
        raise ExprError("depth must be a natural number")
    return _expand(e, depth, "")


# --- the template walk with per-copy names ---------------------------------
#
# Templates hold names, every copy concatenates each edge's endpoints again,
# and every copy of an anchored template pushes its own anchor record.

def _walk_key(p):
    return p.v if isinstance(p, Vertex) else (p.edge, p.t)


def _walk_template(node, anchor, depth):
    children = [(att.child, _walk_key(att.anchor), f"a{i}_", _walk_key(att.at))
                for i, att in enumerate(node.fin)]
    for i, fam in enumerate(node.seq):
        cvs, ces = fam.subcomplex.vertices, fam.subcomplex.edges
        n = len(cvs) + len(ces)
        pattern_anchor = _walk_key(fam.anchor)
        for c in range(depth):
            k = c % n
            at = (cvs[k] if k < len(cvs) else
                  (ces[k - len(cvs)], Fraction(c // n + 1, (depth - 1 - k) // n + 2)))
            children.append((fam.pattern, pattern_anchor, f"s{i}c{c}_", at))
    cuts = defaultdict(set)
    for at in (anchor, *(child[3] for child in children)):
        if isinstance(at, tuple):
            cuts[at[0]].add(at[1])
    cut_names = {}
    for ed in node.base.edges:
        if ed.id in cuts:
            cuts[ed.id] = ts = sorted(cuts[ed.id])
            for k, t in enumerate(ts, 1):
                cut_names[(ed.id, t)] = f"{ed.id}_p{k}"

    def name(key):
        if key == anchor:
            return None
        return key if isinstance(key, str) else cut_names[key]

    record = None
    if anchor is not None:
        on_edge = isinstance(anchor, tuple)
        record = (cut_names[anchor] if on_edge else anchor,
                  anchor[0] if on_edge else None)
    vs = [v for v in node.base.vertices if v != anchor]
    vs.extend(v for key, v in cut_names.items() if key != anchor)
    es = []
    for ed in node.base.edges:
        v0, v1 = name(ed.v0), name(ed.v1)
        ts = cuts.get(ed.id)
        if not ts:
            es.append((ed.id, v0, v1))
            continue
        for k, t in enumerate(ts):
            cut = name((ed.id, t))
            es.append((f"{ed.id}_s{k}", v0, cut))
            v0 = cut
        es.append((f"{ed.id}_s{len(ts)}", v0, v1))
    kids = [(child, child_anchor, suffix, name(at))
            for child, child_anchor, suffix, at in reversed(children)]
    return vs, es, kids, record


def _walk_expand(root, depth):
    vs, es, anchors = [], [], []
    templates = {}
    stack = [(root, None, "", None)]
    while stack:
        entry = stack.pop()
        if isinstance(entry, list):
            entry.extend((len(vs), len(es)))
            continue
        node, anchor, prefix, host = entry
        key = (node, anchor)
        tpl = templates.get(key)
        if tpl is None:
            tpl = templates[key] = _walk_template(node, anchor, depth)
        tvs, tes, kids, record = tpl
        if record is not None:
            vname, eid = record
            anchors.append([prefix + vname, None if eid is None else prefix + eid,
                            len(vs), len(es)])
            stack.append(anchors[-1])
        vs.extend([prefix + v for v in tvs])
        es.extend([(prefix + i, host if v0 is None else prefix + v0,
                    host if v1 is None else prefix + v1) for i, v0, v1 in tes])
        stack.extend([(child, child_anchor, prefix + suffix,
                       host if at is None else prefix + at)
                      for child, child_anchor, suffix, at in kids])
    return vs, es, anchors


def walk_truncate(e, depth):
    """The template walk with a name per copy and an anchor check per copy."""
    if contains_atom(e):
        raise ExprError("cannot truncate an expression with opaque atoms")
    if depth < 0:
        raise ExprError("depth must be a natural number")
    vs, es, anchors = _walk_expand(e, depth)
    g = build_graph(vs, es)
    for vname, eid, v0, e0, v1, e1 in anchors:
        if vname in g.degree and vname in vs[v0:v1]:
            raise GraphError(f"duplicate identifier {vname!r}")
        if eid in g.edge_by_id and any(ed[0] == eid for ed in es[e0:e1]):
            raise GraphError(f"duplicate identifier {eid!r}")
    return g


def truncation_size(e, depth):
    """(vertices, edges) of ``truncate(e, depth)`` from one explicit-stack
    walk memoised by (node, anchor)."""
    e = wild._require_truncatable(e, depth)
    sizes = {}
    stack = [(e, None)]
    while stack:
        key = stack[-1]
        if key in sizes:
            stack.pop()
            continue
        node, anchor = key
        kids = [(att.child, att.anchor) for att in node.fin]
        kids.extend((fam.pattern, fam.anchor) for fam in node.seq)
        todo = [kid for kid in kids if kid not in sizes]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        cuts = wild._cut_count(node, anchor, depth)
        n_v = len(node.base.vertices) - (anchor is not None) + cuts
        n_e = len(node.base.edges) + cuts
        for i, kid in enumerate(kids):
            copies = 1 if i < len(node.fin) else depth
            n_v += copies * sizes[kid][0]
            n_e += copies * sizes[kid][1]
        sizes[key] = (n_v, n_e)
    return sizes[(e, None)]


# --- the template walk that filled two lists --------------------------------

def leaf_runs(kids, n_names, templates):
    """``kids`` with each run of consecutive leaf copies folded into one
    entry ``(None, (vertices, edges), None, None)``, or None while some
    child's template is not built; its endpoints index the parent copy's
    ``n_names`` names and its host, then the run's vertices."""
    tpls = [templates.get(kid[:2]) for kid in kids]
    if None in tpls:
        return None
    out = []
    for leaf, group in groupby(zip(kids, tpls), key=lambda pair: not pair[1][2]):
        if not leaf:
            out.extend(kid for kid, _ in group)
            continue
        run_vs, run_es = [], []
        for (_, _, suffix, at), (tvs, tes, _, _) in reversed(list(group)):
            host = at % (n_names + 1)
            start = n_names + 1 + len(run_vs)
            run_vs += [suffix + v for v in tvs]
            run_es += [(suffix + i, host if i0 < 0 else start + i0,
                        host if i1 < 0 else start + i1) for i, i0, i1 in tes]
        out.append((None, (run_vs, run_es), None, None))
    return out


def records_expand(root, depth):
    """Vertex names, ``Edge`` records, anchor records ``[name, edge id, v0,
    e0, v1, e1]`` and the proven flag of the truncation, from the package's
    templates and ``leaf_runs``."""
    vs, es, anchors = [], [], []
    templates = {}
    proven = True
    stack = [(root, None, "", None)]
    while stack:
        entry = stack.pop()
        if isinstance(entry, list):
            entry.extend((len(vs), len(es)))
            continue
        node, anchor, prefix, host = entry
        if node is None:
            run_vs, run_es = anchor
            names = [prefix + v for v in run_vs]
            vs.extend(names)
            names = host + names
            es.extend([Edge(prefix + i, names[i0], names[i1]) for i, i0, i1 in run_es])
            continue
        key = (node, anchor)
        tpl = templates.get(key)
        if tpl is None:
            tvs, tes, kids, record, ok = wild._template(node, anchor, depth)
            tpl = templates[key] = [tvs, tes, kids, False]
            proven = proven and ok
            if record is not None:
                vname, eid = record
                anchors.append([prefix + vname, None if eid is None else prefix + eid,
                                len(vs), len(es)])
                stack.append(anchors[-1])
        tvs, tes, kids, compiled = tpl
        if kids and not compiled:
            runs = leaf_runs(kids, len(tvs), templates)
            if runs is not None:
                kids = tpl[2] = runs
                tpl[3] = True
        names = [prefix + v for v in tvs]
        vs.extend(names)
        names.append(host)
        es.extend([Edge(prefix + i, names[i0], names[i1]) for i, i0, i1 in tes])
        stack.extend([(child, child_anchor, prefix + suffix, names[at])
                      if child is not None else (None, child_anchor, prefix, names)
                      for child, child_anchor, suffix, at in kids])
    return vs, es, anchors, proven
