"""The three workloads: inputs, one round of operations, and their checks.

A workload is set up once per repetition (``setup``), then runs rounds.  A
round calls the program for a fixed list of operations, timing each one,
and then checks every output against the oracles, outside the timing.  The
same seed gives the same inputs and the same round, so every round of a run
must print the same bytes.

While a run measures, a timer signal times a fixed reference slice of
pure-Python work every 50 ms (``spans.Speed``).  Each operation keeps the
mean slice time over its own interval, so its time can be scaled to the
reference speed: the machine's speed drifts by up to a factor of two under
load from outside, and the ratio of an operation's time to the slices taken
during it stays within a few percent.

``traced`` rounds open a root span per operation; the layer spans come from
the patches that ``layer_patches`` lists.  Probes run after an operation,
under their own root span, and measure what the spans cannot split, such as
the phases inside one ``verify_plan`` call.
"""

import hashlib
import io
import json
import os
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout

import gen
import oracles
from spans import REFERENCE_SLICE_S

from wildcat import cli, graphs, planner, spacefile, wild
from wildcat.graphs import EdgeInterior, PLPath, Vertex, build_graph
from wildcat.planner import execute, plan_graph, verify_plan


def layer_patches(tracer):
    """Patch the names each layer is called through: the CLI's imports, the
    module globals the program calls itself through, and class methods."""
    p = tracer.patch
    p(cli, "parse_spacefile", "spacefile.parse")
    p(cli, "print_spacefile", "spacefile.print", lambda text: {"print_bytes": len(text)})
    for mod in (spacefile, wild):
        p(mod, "build_graph", "graphs.build")
    p(cli, "betti1", "graphs.betti1")
    p(planner, "deforest", "graphs.deforest")
    p(graphs.TreeRouter, "__init__", "graphs.router_build")
    p(planner, "vertex_distances", "graphs.vertex_distances",
      lambda d: {"vertex_distances_entries": sum(len(row) for row in d.values())})
    p(graphs.TreeRouter, "route_steps", "graphs.route")
    p(graphs.CollapseHomotopy, "slide", "graphs.slide")
    p(planner.MotionPlan, "stratum_index", "regions.stratum_index")
    for rule in (planner.TreeRule, planner.CycleRotateRule, planner.CycleGeodesicRule,
                 planner.EdgeEvacuateRule, planner.LiftedRule):
        p(rule, "path_for", "planner.path_for")
    p(cli, "plan_graph", "planner.plan_graph")
    p(cli, "execute", "planner.execute")
    p(cli, "verify_plan", "planner.verify")
    p(wild, "is_w_stable", "wild.is_w_stable")
    for mod in (cli, wild):
        p(mod, "profile", "wild.profile")
        p(mod, "cat", "wild.cat")
        p(mod, "tc", "wild.tc")
    p(cli, "cat_certificate", "wild.cat_certificate")
    p(cli, "tc_certificate", "wild.tc_certificate")
    p(cli, "truncate", "wild.truncate",
      lambda g: {"truncate_vertices": len(g.vertices), "truncate_edges": len(g.edges)})


def run_cli(argv, speed=None):
    """One in-process ``wildcat`` call: (timing, exit code, stdout).  The
    timing is a ``spans.Timed`` when a ``speed`` sampler is given.  An
    exception the CLI lets through counts as exit code 1, with its
    traceback on stderr, so the run goes on and counts the failure."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        timed = speed.timer() if speed else None
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = 1
        if timed:
            timed.done()
    if rc == 1:
        sys.stderr.write(err.getvalue())
    return timed, rc, out.getvalue()


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def to_wildcat(p):
    return Vertex(p[1]) if p[0] == "v" else EdgeInterior(p[1], p[2])


class Op:
    """One timed operation: its kind, wall seconds, the reference slice time
    around it, its stdout digest and the oracle's verdict (None when
    correct)."""

    __slots__ = ("kind", "seconds", "ref", "digest", "error", "span")

    def __init__(self, kind, seconds, ref, digest, error, span=None):
        self.kind, self.seconds, self.ref = kind, seconds, ref
        self.digest, self.error = digest, error
        self.span = span      # the op id of its spans, in a traced round

    @property
    def norm(self):
        """Seconds at the reference speed."""
        return self.seconds * REFERENCE_SLICE_S / self.ref


class Workload:
    name = ""
    kinds = ()
    setup_repeats = 5
    setups_per_round = 1

    def __init__(self, workdir, speed):
        self.workdir = workdir
        self.speed = speed
        self.counts = {}      # per-round work counts known from the inputs

    def write(self, name, text):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        return path

    def cli_op(self, kind, argv, tracer, check):
        span = None
        if tracer is None:
            timed, rc, out = run_cli(argv, self.speed)
        else:
            with tracer.span("cli.main") as root:
                timed, rc, out = run_cli(argv, self.speed)
            span = root[0]
        try:
            error = check(rc, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            error = f"unreadable output: {exc!r}"
        return Op(kind, timed.seconds, timed.ref, sha(out), error, span), out


class VerifyGraph(Workload):
    """``wildcat verify`` on a general graph, a lifted graph and a tree."""

    name = "verify-graph"
    kinds = ("verify_general_s", "verify_lifted_s", "verify_tree_s")
    samples = 2000
    # a 30 s run has two rounds; four set-ups before each
    setup_repeats = 8
    setups_per_round = 4

    def setup(self, rng):
        shapes = (("verify_general_s", gen.general_graph(rng, 200, 300)),
                  ("verify_lifted_s", gen.lifted_graph(rng, 20, 100)),
                  ("verify_tree_s", gen.tree_graph(rng, 300)))
        self.shapes = []
        pairs = contains = 0
        for kind, (vs, es) in shapes:
            tc = gen.expected_tc(vs, es)
            path = self.write(kind + ".space", gen.graph_text(vs, es))
            with open(path, encoding="ascii") as fh:
                text = fh.read()
            self.shapes.append((kind, path, text, tc))
            probes = (len(vs) + 3 * len(es)) ** 2
            pairs += probes
            contains += probes * (tc + 1)
        self.counts = {"coverage_pairs": pairs, "contains_calls": contains}
        controls = (gen.general_graph(rng, 8, 12), gen.lifted_graph(rng, 5, 5),
                    gen.tree_graph(rng, 8))
        self.control_files = [(self.write(f"control{i}.space", gen.graph_text(vs, es)),
                               gen.expected_tc(vs, es))
                              for i, (vs, es) in enumerate(controls)]

    def controls(self):
        """``verify --corrupt`` must fail the section check, and the verify
        oracle must reject that output."""
        bad = []
        for path, tc in self.control_files:
            _, rc, out = run_cli(["verify", path, "--corrupt", "--samples", "200"])
            why = oracles.check_corrupt_verify(rc, out)
            if why:
                bad.append(f"corrupt verify of {os.path.basename(path)}: {why}")
            if oracles.check_verify(rc, out, tc) is None:
                bad.append(f"verify oracle accepted a corrupted plan ({path})")
        return bad

    def round(self, tracer=None, probes=None):
        ops = []
        for kind, path, text, tc in self.shapes:
            op, out = self.cli_op(kind, ["verify", path], tracer,
                                  lambda rc, out, tc=tc: oracles.check_verify(rc, out, tc))
            ops.append(op)
            if probes is not None and op.error is None:
                compared, skipped = oracles.continuity_counts(out)
                probes["continuity_compared"] += compared
                probes["continuity_skipped"] += skipped
                self.phase_probe(tracer, text, probes, op)
        return ops

    def phase_probe(self, tracer, text, probes, op):
        """Split the verify call just traced into its phases: coverage is
        ``verify_plan(samples=0)``, section adds the sampled queries, and
        continuity is the rest of the traced call (distances excluded).
        The probe's times are scaled with its own reference, the traced
        call's with the call's."""
        op_spans = tracer.spans
        root = op_spans[-1]
        full = dist = 0
        for s in op_spans:
            if s[0] == root[0] and s[3] == "planner.verify":
                full = s[5] - s[4]
            elif s[0] == root[0] and s[3] == "graphs.vertex_distances":
                dist = s[5] - s[4]
        tracer.spans = []
        timed = self.speed.timer()
        with tracer.span("probe"):
            g = spacefile.parse_spacefile(text).main_graph()
            plan = plan_graph(g)
            graphs.vertex_distances(g)
            clock = self.speed.clock
            t0 = clock()
            verify_plan(plan, g, samples=0)
            t1 = clock()
            verify_plan(plan, g, samples=self.samples, continuity_samples=0)
            t2 = clock()
        tracer.spans = op_spans
        own = REFERENCE_SLICE_S / timed.done().ref / 1e9
        call = REFERENCE_SLICE_S / op.ref / 1e9
        probes["verify_coverage"] += (t1 - t0) * own
        probes["verify_section"] += ((t2 - t1) - (t1 - t0)) * own
        probes["verify_continuity"] += (full - dist) * call - (t2 - t1) * own


class PlanQueries(Workload):
    """A stream of ``execute`` queries on a general and a lifted plan, and
    one-shot ``wildcat plan`` calls on a larger lifted graph."""

    name = "plan-queries"
    kinds = ("query_general_us", "query_lifted_us", "plan_cli_s")
    # a set-up is short (about 0.1 s scaled) and spreads by 10-15% within a
    # run, so its median needs more samples than the other workloads'
    setup_repeats = 9
    general_queries = 1000
    lifted_queries = 400
    cli_calls = 4
    block = 200           # queries that share one mean reference slice

    def setup(self, rng):
        self.streams = []
        for kind, (vs, es), n in (
                ("query_general_us", gen.general_graph(rng, 400, 600), self.general_queries),
                ("query_lifted_us", gen.lifted_graph(rng, 40, 360), self.lifted_queries)):
            oracle = oracles.Graph(vs, es)
            queries = [(gen.random_point(rng, vs, es), gen.random_point(rng, vs, es))
                       for _ in range(n)]
            # the expected distances, without keeping BFS tables for the
            # run, so peak_rss_mb is mostly the program's own memory
            dists = oracle.distances(queries)
            wq = [(to_wildcat(x), to_wildcat(y)) for x, y in queries]
            g = build_graph(vs, es)
            self.streams.append([kind, g, plan_graph(g), oracle, queries, wq, dists])
        vs, es = gen.lifted_graph(rng, 160, 1440)
        self.big = oracles.Graph(vs, es)
        self.big_path = self.write("plan.space", gen.graph_text(vs, es))
        self.cli_queries = []
        for _ in range(self.cli_calls):
            x, y = gen.random_point(rng, vs, es), gen.random_point(rng, vs, es)
            self.big.point_dist(x, y)
            self.cli_queries.append((x, y))
        stream = self.streams[0]
        i = next(i for i, (x, y) in enumerate(stream[4]) if x != y)
        self.control_query = (stream[1], stream[3], *stream[4][i], stream[5][i], stream[6][i])

    def fresh_plans(self):
        """A new plan per round, so the router's walk cache starts empty and
        every round does the same work."""
        for stream in self.streams:
            stream[2] = plan_graph(stream[1])

    def controls(self):
        """The path oracle accepts a real answer, between distinct points,
        and rejects it reversed and with its last step dropped."""
        g, oracle, x, y, (wx, wy), dist = self.control_query
        steps = execute(plan_graph(g), wx, wy)[1].steps
        bad = []
        if dist != oracle.point_dist(x, y):
            bad.append("grouped distance differs from the direct one")
        if oracles.check_path(oracle, x, y, steps, dist) is not None:
            bad.append("path oracle rejected a real answer")
        reversed_steps = [oracles.Step(s.edge, s.b, s.a) for s in reversed(steps)]
        for label, tampered in (("reversed", reversed_steps), ("truncated", steps[:-1])):
            if oracles.check_path(oracle, x, y, tampered, dist) is None:
                bad.append(f"path oracle accepted a {label} path")
        return bad

    def round(self, tracer=None, probes=None):
        self.fresh_plans()
        speed = self.speed
        ops = []
        for kind, g, plan, oracle, queries, wq, dists in self.streams:
            answers = []
            failures = {}
            lat = []
            refs = []
            roots = []
            clock = speed.clock
            plpath = []
            for i, (x, y) in enumerate(wq):
                if i % self.block == 0:
                    block = speed.timer()
                try:
                    if tracer is None:
                        t0 = clock()
                        answer = execute(plan, x, y)
                        t1 = clock()
                    else:
                        with tracer.span("planner.execute") as root:
                            roots.append(root[0])
                            t0 = clock()
                            answer = execute(plan, x, y)
                            t1 = clock()
                        p0 = clock()
                        PLPath(g, answer[1].steps, source=x)
                        plpath.append((clock() - p0) / 1e3)
                except Exception as exc:
                    # counted as this query's failure; the stream goes on
                    t1 = clock()
                    failures[i] = f"query raised {exc!r}"
                    answer = (None, None)
                lat.append((t1 - t0) / 1e9)
                answers.append(answer)
                if i % self.block == self.block - 1 or i == len(wq) - 1:
                    refs.append(block.done().ref)
                    if probes is not None:
                        probes["plpath_us"].extend(us * REFERENCE_SLICE_S / refs[-1]
                                                   for us in plpath)
                        plpath.clear()
            text = json.dumps([[j, [(s.edge, str(s.a), str(s.b)) for s in path.steps]
                                if path is not None else None] for j, path in answers])
            for i, ((x, y), (j, path), seconds) in enumerate(zip(queries, answers, lat)):
                error = failures.get(i) or oracles.check_path(oracle, x, y, path.steps,
                                                              dists[i])
                ops.append(Op(kind, seconds, refs[i // self.block], None, error,
                              roots[i] if roots else None))
            ops[-1].digest = sha(text)
        for x, y in self.cli_queries:
            argv = ["plan", self.big_path, "--from", gen.point_arg(x), "--to", gen.point_arg(y)]
            op, _ = self.cli_op("plan_cli_s", argv, tracer,
                                lambda rc, out, x=x, y=y: oracles.check_plan(self.big, rc, out, x, y))
            ops.append(op)
        return ops


class WildSpaces(Workload):
    """``info`` and ``certify`` on a deep rank-growing chain, ``truncate`` of
    a shallow chain at a high depth."""

    name = "wild-spaces"
    kinds = ("info_s", "certify_s", "truncate_s")
    chain_depth = 30
    truncate_chain = 3
    truncate_depth = 12
    control_depth = 6

    def setup(self, rng):
        self.chain = self.write("chain.space", gen.chain_text(rng, self.chain_depth))
        self.invariants = gen.chain_invariants(self.chain_depth)
        self.shallow = self.write("shallow.space", gen.chain_text(rng, self.truncate_chain))
        self.size = gen.chain_truncation_size(self.truncate_chain, self.truncate_depth)
        self.control = self.write("control.space", gen.chain_text(rng, self.control_depth))

    def controls(self):
        """Warm up on a smaller chain: the oracles accept its ``certify`` and
        ``truncate`` outputs, and reject them against the values of a deeper
        chain or a larger size."""
        bad = []
        d = self.control_depth
        _, rc, out = run_cli(["certify", self.control])
        if oracles.check_certify(rc, out, gen.chain_invariants(d)) is not None:
            bad.append(f"certify oracle rejected the d = {d} chain")
        if oracles.check_certify(rc, out, gen.chain_invariants(d + 1)) is None:
            bad.append("certify oracle accepted wrong invariants")
        _, rc, out = run_cli(["truncate", self.control, "--depth", "3"])
        size = gen.chain_truncation_size(d, 3)
        if oracles.check_truncate(rc, out, size) is not None:
            bad.append(f"truncate oracle rejected the d = {d} chain at depth 3")
        if oracles.check_truncate(rc, out, (size[0] + 1, size[1] + 1)) is None:
            bad.append("truncate oracle accepted a wrong size")
        return bad

    def round(self, tracer=None, probes=None):
        inv = self.invariants
        ops = []
        for kind, argv, check in (
                ("info_s", ["info", self.chain],
                 lambda rc, out: oracles.check_info(rc, out, inv)),
                ("certify_s", ["certify", self.chain],
                 lambda rc, out: oracles.check_certify(rc, out, inv)),
                ("truncate_s", ["truncate", self.shallow, "--depth", str(self.truncate_depth)],
                 lambda rc, out: oracles.check_truncate(rc, out, self.size))):
            op, out = self.cli_op(kind, argv, tracer, check)
            ops.append(op)
            if probes is not None and kind == "info_s" and op.error is None:
                probes["tower_levels"] += len(json.loads(out)["tower"])
        return ops


WORKLOADS = {w.name: w for w in (VerifyGraph, PlanQueries, WildSpaces)}

