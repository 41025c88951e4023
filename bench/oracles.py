"""Independent oracles for the benchmark's outputs.

Nothing here imports the program under test.  Each oracle returns ``None``
when an output is right and a short reason when it is wrong, so a failure
can be counted and shown.
"""

import json
from collections import defaultdict, deque
from fractions import Fraction


class Graph:
    """Plain adjacency view of ``(vertices, edges)`` with BFS distances."""

    def __init__(self, vertices, edges):
        self.vertices = list(vertices)
        self.edges = {e: (a, b) for e, a, b in edges}
        self.adj = {v: [] for v in self.vertices}
        for e, a, b in edges:
            self.adj[a].append(b)
            self.adj[b].append(a)
        self.is_tree = len(self.edges) == len(self.vertices) - 1
        self._dist = {}

    def bfs(self, src):
        d = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in self.adj[u]:
                if w not in d:
                    d[w] = d[u] + 1
                    queue.append(w)
        return d

    def dist_from(self, src):
        d = self._dist.get(src)
        if d is None:
            d = self._dist[src] = self.bfs(src)
        return d

    def _offsets(self, p):
        if p[0] == "v":
            return ((p[1], Fraction(0)),)
        a, b = self.edges[p[1]]
        return ((a, p[2]), (b, 1 - p[2]))

    def point_dist(self, p, q):
        """Exact path-metric distance, unit edge lengths."""
        return self._point_dist(p, q, self.dist_from)

    def _point_dist(self, p, q, row_of):
        if p == q:
            return Fraction(0)
        best = None
        if p[0] == "e" and q[0] == "e" and p[1] == q[1]:
            best = abs(p[2] - q[2])
        for a, da in self._offsets(p):
            row = row_of(a)
            for b, db in self._offsets(q):
                if b in row:
                    cand = da + row[b] + db
                    if best is None or cand < best:
                        best = cand
        return best

    def distances(self, pairs):
        """``point_dist`` of each pair, with one BFS row in memory at a time
        and none cached: the pairs are grouped by the first point's end
        vertices, and each group is answered from its own row."""
        by_source = defaultdict(list)
        for i, (p, _) in enumerate(pairs):
            for a, _ in self._offsets(p):
                by_source[a].append(i)
        best = [None] * len(pairs)
        for a, uses in by_source.items():
            row = self.bfs(a)
            for i in uses:
                p, q = pairs[i]
                # rows of p's other end vertex are not in hand: answer
                # through this one only and keep the smaller result
                cand = self._point_dist(p, q, lambda v: row if v == a else {})
                if best[i] is None or (cand is not None and cand < best[i]):
                    best[i] = cand
        return best

    def n_components(self):
        seen = set()
        n = 0
        for v in self.vertices:
            if v not in seen:
                n += 1
                seen.update(self.dist_from(v))
        return n

    def canonical(self, edge, t):
        if t == 0:
            return ("v", self.edges[edge][0])
        if t == 1:
            return ("v", self.edges[edge][1])
        return ("e", edge, t)


def check_path(graph, x, y, steps, dist=None):
    """A motion-plan answer: runs exactly from x to y, consecutive steps
    chain, and it is no shorter than the distance (equal on a tree).
    ``steps`` are objects with ``edge``, ``a`` and ``b``; ``dist`` is the
    distance from x to y when it is known already."""
    if not steps:
        return None if x == y and x[0] == "v" else "no steps between distinct points"
    cur = None
    length = Fraction(0)
    for i, s in enumerate(steps):
        if s.edge not in graph.edges:
            return f"step {i} on unknown edge {s.edge}"
        if not (0 <= s.a <= 1 and 0 <= s.b <= 1):
            return f"step {i} parameters outside [0, 1]"
        start = graph.canonical(s.edge, s.a)
        if cur is None:
            if start != x:
                return f"starts at {start}, not at {x}"
        elif start != cur:
            return f"step {i} does not start where step {i - 1} ends"
        cur = graph.canonical(s.edge, s.b)
        length += abs(s.b - s.a)
    if cur != y:
        return f"ends at {cur}, not at {y}"
    d = graph.point_dist(x, y) if dist is None else dist
    if length < d:
        return f"length {length} below the distance {d}"
    if graph.is_tree and length != d:
        return f"tree path length {length} differs from the distance {d}"
    return None


class Step:
    """A path step read from ``plan`` output or built for a control."""

    __slots__ = ("edge", "a", "b")

    def __init__(self, edge, a, b):
        self.edge, self.a, self.b = edge, Fraction(a), Fraction(b)


def check_verify(rc, out, tc):
    if rc != 0:
        return f"exit code {rc}"
    doc = json.loads(out)
    ver = doc["verification"]
    if not ver["passed"] or not all(c["passed"] for c in ver["checks"]):
        return "verification did not pass"
    if doc["tc"] != tc:
        return f"tc {doc['tc']}, expected {tc}"
    if ver["strata"] != tc + 1 or ver["expected_strata"] != tc + 1:
        return f"strata {ver['strata']}, expected {tc + 1}"
    return None


def check_corrupt_verify(rc, out):
    """Negative control: ``verify --corrupt`` must exit 5 with the section
    check failing."""
    if rc != 5:
        return f"exit code {rc}, expected 5"
    checks = {c["name"]: c["passed"] for c in json.loads(out)["verification"]["checks"]}
    return None if checks.get("section") is False else "section check did not fail"


def continuity_counts(out):
    """(compared, skipped) from the continuity check's detail text."""
    for c in json.loads(out)["verification"]["checks"]:
        if c["name"] == "continuity":
            words = c["detail"].split()
            return int(words[0]), int(words[words.index("skipped:") - 1].lstrip("("))
    raise ValueError("no continuity check in the report")


def check_plan(graph, rc, out, x, y):
    if rc != 0:
        return f"exit code {rc}"
    doc = json.loads(out)
    steps = [Step(s["edge"], Fraction(s["from"]), Fraction(s["to"])) for s in doc["path"]]
    return check_path(graph, x, y, steps)


def check_info(rc, out, invariants):
    if rc != 0:
        return f"exit code {rc}"
    doc = json.loads(out)
    wrk, cat, tc = invariants
    got = (doc["wrk"], doc["cat"], doc["tc"], doc["scc_class"], len(doc["tower"]))
    want = (wrk, cat, tc, "none", wrk)
    return None if got == want else f"(wrk, cat, tc, class, levels) {got}, expected {want}"


def check_certify(rc, out, invariants):
    bad = check_info(rc, out, invariants)
    if bad:
        return bad
    certs = json.loads(out)["certificates"]
    for kind, value in (("cat", invariants[1]), ("tc", invariants[2])):
        c = certs[kind]
        if c["length"] != value or len(c["levels"]) != value + 1:
            return (f"{kind} certificate length {c['length']} with "
                    f"{len(c['levels'])} levels, expected {value} and {value + 1}")
    return None


def read_graph_file(text):
    """The one graph of a space file as ``(vertices, edges)``; raises
    ValueError unless it is ``graph NAME``, unique vertex and edge records
    with declared endpoints, ``endgraph`` and ``main NAME``."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3 or lines[0][0] != "graph" or lines[-2] != ["endgraph"] \
            or lines[-1] != ["main", lines[0][1]]:
        raise ValueError("not a single-graph space file")
    vertices, edges, ids = [], [], set()
    declared = set()
    for rec in lines[1:-2]:
        if rec[0] == "vertex" and len(rec) == 2:
            vertices.append(rec[1])
            declared.add(rec[1])
        elif rec[0] == "edge" and len(rec) == 4 and rec[2] in declared and rec[3] in declared:
            edges.append((rec[1], rec[2], rec[3]))
        else:
            raise ValueError(f"bad record {' '.join(rec)!r}")
        if rec[1] in ids:
            raise ValueError(f"duplicate id {rec[1]!r}")
        ids.add(rec[1])
    return vertices, edges


def check_truncate(rc, out, size):
    if rc != 0:
        return f"exit code {rc}"
    try:
        vertices, edges = read_graph_file(out)
    except ValueError as exc:
        return f"output does not read back: {exc}"
    if (len(vertices), len(edges)) != size:
        return f"(V, E) = {(len(vertices), len(edges))}, expected {size}"
    if Graph(vertices, edges).n_components() != 1:
        return "truncation is not connected"
    return None
