"""Reference copy of the sampled continuity check of ``verify_plan``, kept
for differential tests only.

``float_samples`` builds each answer's exact ``Fraction`` arclength table
and converts it to floats entry by entry; ``float_dist`` reads the
all-pairs vertex distance table; ``continuity_check`` replays the seeded
queries of ``verify_plan`` and compares every perturbed pair over all 32
time samples on that table; ``random_point`` draws a query point and
``nudge`` perturbs one, both through ``Random.randrange`` as the verifier
once drew them, ``nudge`` with Fraction arithmetic and comparisons, so a
verifier whose draws drift from that stream fails the differential tests.
Its ``CheckResult`` and witness are what the verifier reports, so
``wildcat.planner`` must give the same ones.  One
change from the old code: a vertex sample is tagged None, as in
``wildcat.planner``, where the old tag "v" was also a valid edge id.
"""

import random
from fractions import Fraction

from wildcat.graphs import EdgeInterior, GraphError, PLPath, Vertex, vertex_distances
from wildcat.planner import CheckResult, TIME_SAMPLES, _fmt_pair


def _malformed(path: PLPath):
    """Why ``path`` fails ``PLPath.check``, or None when it passes."""
    try:
        path.check()
    except GraphError as exc:
        return str(exc)
    return None


def random_point(rng, g, denom=4096):
    n_v = len(g.vertices)
    k = rng.randrange(n_v + len(g.edges))
    if k < n_v:
        return Vertex(g.vertices[k])
    e = g.edges[k - n_v]
    return EdgeInterior(e.id, Fraction(rng.randrange(1, denom), denom))


def nudge(rng, p, max_shift):
    if isinstance(p, Vertex):
        return p
    grid = 1 << 22
    if max_shift.denominator > grid:
        # on the 2^-22 grid every shift below max_shift would round to 0
        grid *= max_shift.denominator
    span = max_shift.numerator * (grid // max_shift.denominator)
    j = rng.randrange(-span, span + 1)
    t = p.t + Fraction(j, grid)
    lo = Fraction(1, grid)
    t = max(lo, min(1 - lo, t))
    return EdgeInterior(p.edge, t)


def float_point(p):
    if isinstance(p, Vertex):
        return (None, p.v)
    return (p.edge, float(p.t))


def float_samples(path: PLPath, times):
    """Float positions of a path at the given ascending times in [0,1]."""
    steps = path.steps
    if not steps or path.length == 0:
        pt = float_point(path.endpoint0)
        return [pt] * len(times)
    total = float(path.length)
    bounds = [float(c) for c in path._arclengths()]
    out = []
    i = 0
    last = len(steps) - 1
    for t in times:
        s = t * total
        while i < last and s > bounds[i + 1]:
            i += 1
        st = steps[i]
        a, b = float(st.a), float(st.b)
        local = s - bounds[i]
        pos = a + (local if b > a else -local)
        out.append((st.edge, pos))
    return out


def float_dist(g, dist, fp, fq) -> float:
    if fp == fq:
        return 0.0
    if fp[0] is None:
        ends_p = ((fp[1], 0.0),)
    else:
        e = g.edge_by_id[fp[0]]
        ends_p = ((e.v0, fp[1]), (e.v1, 1.0 - fp[1]))
    if fq[0] is None:
        ends_q = ((fq[1], 0.0),)
    else:
        e = g.edge_by_id[fq[0]]
        ends_q = ((e.v0, fq[1]), (e.v1, 1.0 - fq[1]))
    best = None
    if fp[0] is not None and fq[0] is not None and fp[0] == fq[0]:
        best = abs(fp[1] - fq[1])
    for a, da in ends_p:
        row = dist[a]
        for b, db in ends_q:
            d = row.get(b)
            if d is None:
                continue
            cand = da + d + db
            if best is None or cand < best:
                best = cand
    return best if best is not None else float("inf")


def continuity_check(p, g, samples, delta, eps, seed=0, continuity_samples=None):
    """The ``continuity`` entry ``verify_plan(p, g, samples, delta, eps,
    seed, continuity_samples)`` reports: the same seeded queries and
    nudges, every compared pair sampled in full on the all-pairs table."""
    if continuity_samples is None:
        continuity_samples = samples
    rng = random.Random(seed)
    queries = [(random_point(rng, g), random_point(rng, g)) for _ in range(samples)]
    answered = []
    for x, y in queries:
        member = [f.contains(x, y) for f in p.strata]
        if not member[-1]:
            continue
        j = member.index(True)
        path = p.rules[j].path_for(x, y)
        if _malformed(path) is None and len(answered) < continuity_samples:
            answered.append((x, y, j, path))

    times = [k / (TIME_SAMPLES - 1) for k in range(TIME_SAMPLES)]
    eps_f = float(eps) + 1e-9
    half = delta / 2
    cont_witness = None
    compared = 0
    skipped = 0
    dist = None
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
        if _malformed(path2) is not None:
            continue
        pts1 = float_samples(path1, times)
        pts2 = float_samples(path2, times)
        if dist is None:
            dist = vertex_distances(g)
        sup = 0.0
        for a, b in zip(pts1, pts2):
            d = float_dist(g, dist, a, b)
            if d > sup:
                sup = d
        compared += 1
        if sup > eps_f and cont_witness is None:
            cont_witness = f"{_fmt_pair(x, y)} vs {_fmt_pair(x2, y2)}: sup {sup:.4f}"
    return CheckResult(
        "continuity", cont_witness is None,
        f"{compared} perturbed pairs within delta={delta} stayed within "
        f"eps={eps} ({skipped} skipped: different difference/piece or "
        "vertex-vertex)" if cont_witness is None
        else "paths of nearby queries diverge",
        cont_witness)
