"""Reference copy of ``verify_plan`` and ``PLPath.check`` as they were
before the sampled loops read each answer once, kept for differential
tests only.

``check`` validates every step of a path, with Fraction comparisons, and
compares a declared source with the endpoint object it builds; ``verify``
runs it on every sampled and every nudged answer and compares endpoint
objects (``endpoints``, built through a copy of ``MultiGraph.point``) with
the query.  ``walk_bound`` is the continuity bound with ``!=`` alone.  The
seeded queries and nudges are the frozen ``randrange`` copies in
``continuity_reference``; the sampler, the formatting and the exact
coverage decision are read from ``wildcat``, which leaves them unchanged,
so the report must equal the verifier's check by check.
"""

import random
from fractions import Fraction

from wildcat.graphs import EdgeInterior, GraphError, Vertex, tc_graph
from wildcat.planner import CheckResult, VerifyReport, _fmt_pair, _sampled_sup
from wildcat.regions import filtration_witnesses

from continuity_reference import nudge, random_point


def point(g, edge_id, t):
    e = g.edge_by_id.get(edge_id)
    if e is None:
        raise GraphError(f"unknown edge {edge_id!r}")
    if not isinstance(t, Fraction):
        t = Fraction(t)
    if t == 0:
        return Vertex(e.v0)
    if t == 1:
        return Vertex(e.v1)
    return EdgeInterior(edge_id, t)


def endpoints(path):
    steps = path.steps
    if not steps:
        return path.source, path.source
    return (point(path.graph, steps[0].edge, steps[0].a),
            point(path.graph, steps[-1].edge, steps[-1].b))


def check(path):
    steps = path.steps
    graph = path.graph
    source = path.source
    if not steps:
        if source is None:
            raise GraphError("a path with no steps needs a source point")
        if not graph.contains_point(source):
            raise GraphError("source point not on the graph")
        return path
    multi = len(steps) > 1
    edge_by_id = graph.edge_by_id
    prev = None
    for s in steps:
        e = edge_by_id.get(s.edge)
        if e is None:
            raise GraphError(f"unknown edge {s.edge!r} in path")
        a, b = s.a, s.b
        if multi and a == b:
            raise GraphError("degenerate step inside a multi-step path")
        start = e.v0 if a == 0 else (e.v1 if a == 1 else (s.edge, a))
        end = e.v0 if b == 0 else (e.v1 if b == 1 else (s.edge, b))
        if prev is not None and start != prev:
            raise GraphError("discontinuous consecutive steps")
        prev = end
    if source is not None and source != endpoints(path)[0]:
        raise GraphError("declared source does not match the first step")
    return path


def malformed(path):
    try:
        check(path)
    except GraphError as exc:
        return str(exc)
    return None


def rises(step):
    return step.a < step.b


def walk_bound(path1, path2):
    steps1, steps2 = path1.steps, path2.steps
    n = len(steps1)
    if n != len(steps2) or n == 0:
        return None
    f1, f2 = steps1[0], steps2[0]
    if f1.edge != f2.edge:
        return None
    l1, l2 = steps1[-1], steps2[-1]
    if n > 1 and (f1.b != f2.b or rises(f1) != rises(f2)
                  or l1.edge != l2.edge or l1.a != l2.a
                  or rises(l1) != rises(l2)
                  or steps1[1:-1] != steps2[1:-1]):
        return None
    return max(abs(f1.a - f2.a), abs(l1.b - l2.b))


def verify(p, g, samples=1000, delta=Fraction(1, 1000), eps=Fraction(1, 20),
           seed=0, continuity_samples=None):
    """The report ``verify_plan`` gave for the same arguments."""
    if continuity_samples is None:
        continuity_samples = samples
    rng = random.Random(seed)
    checks = []

    closed_bad = [j for j, f in enumerate(p.strata) if not f.is_closed()]
    checks.append(CheckResult(
        "closedness", not closed_bad,
        "every stratum closed by descriptor" if not closed_bad
        else f"non-closed strata: {closed_bad}"))

    cover_witness, nest_witness = (
        w and _fmt_pair(*w) for w in filtration_witnesses(p.strata, g))
    n_probes = len(g.vertices) + 3 * len(g.edges)
    checks.append(CheckResult(
        "coverage-cells", cover_witness is None,
        f"all ({n_probes} x {n_probes}) cell representatives covered"
        if cover_witness is None else "cell pair escapes the top stratum",
        cover_witness))
    checks.append(CheckResult(
        "nesting-cells", nest_witness is None,
        "stratum membership monotone on cell representatives"
        if nest_witness is None else "nesting violated",
        nest_witness))

    section_witness = None
    nest_sample_witness = None
    bad = None
    answers = 0
    queries = [(random_point(rng, g), random_point(rng, g)) for _ in range(samples)]
    answered = []
    for x, y in queries:
        member = [f.contains(x, y) for f in p.strata]
        if not member[-1]:
            nest_sample_witness = nest_sample_witness or _fmt_pair(x, y)
            continue
        j = member.index(True)
        if not all(member[j:]):
            nest_sample_witness = nest_sample_witness or _fmt_pair(x, y)
        path = p.rules[j].path_for(x, y)
        answers += 1
        reason = malformed(path)
        if reason is not None:
            bad = bad or (_fmt_pair(x, y), reason)
            continue
        if len(answered) < continuity_samples:
            answered.append((x, y, j, path))
        ends = endpoints(path)
        if ends[0] != x or ends[1] != y:
            section_witness = section_witness or _fmt_pair(x, y)
    checks.append(CheckResult(
        "nesting-samples", nest_sample_witness is None,
        f"{samples} sampled pairs covered and monotone"
        if nest_sample_witness is None else "sampled nesting/coverage violated",
        nest_sample_witness))
    checks.append(CheckResult(
        "section", section_witness is None,
        f"exact endpoints on {samples} sampled queries"
        if section_witness is None else "path endpoints differ from the query",
        section_witness))

    half = delta / 2
    cont_witness = None
    compared = 0
    skipped = 0
    for x, y, j1, path1 in answered:
        x2 = nudge(rng, x, half)
        y2 = nudge(rng, y, half)
        if isinstance(x, Vertex) and isinstance(y, Vertex):
            skipped += 1
            continue
        j2 = p.stratum_index(x2, y2)
        if j1 != j2:
            skipped += 1
            continue
        rule = p.rules[j1]
        if rule.piece_id(x, y) != rule.piece_id(x2, y2):
            skipped += 1
            continue
        path2 = rule.path_for(x2, y2)
        answers += 1
        reason = malformed(path2)
        if reason is not None:
            bad = bad or (_fmt_pair(x2, y2), reason)
            continue
        compared += 1
        if cont_witness is not None:
            continue
        bound = walk_bound(path1, path2)
        if bound is not None and bound <= eps:
            continue
        sup = _sampled_sup(g, path1, path2, eps)
        if sup is not None:
            cont_witness = f"{_fmt_pair(x, y)} vs {_fmt_pair(x2, y2)}: sup {float(sup):.4f}"
    checks.append(CheckResult(
        "continuity", cont_witness is None,
        f"{compared} perturbed pairs within delta={delta} stayed within "
        f"eps={eps} ({skipped} skipped: different difference/piece or "
        "vertex-vertex)" if cont_witness is None
        else "paths of nearby queries diverge",
        cont_witness))
    checks.append(CheckResult(
        "path-wellformed", bad is None,
        f"all {answers} answer paths well-formed" if bad is None
        else f"malformed answer path: {bad[1]}",
        bad and bad[0]))

    expected = tc_graph(g) + 1
    checks.append(CheckResult(
        "strata-count", len(p.strata) == expected,
        f"strata count {len(p.strata)} = tc_graph + 1 = {expected}"
        if len(p.strata) == expected
        else f"strata count {len(p.strata)} != tc_graph + 1 = {expected}"))
    return VerifyReport(len(p.strata), expected, samples, continuity_samples,
                        tuple(checks))
