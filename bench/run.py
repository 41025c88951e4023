"""wildcat benchmark.

    python3 bench/run.py --workload verify-graph --seed 1 --seconds 30 --trace 0

Runs one workload in this process, one operation at a time (a closed loop
with one caller), calling the program from outside: ``wildcat.cli.main``
in-process for subcommands, ``wildcat.planner.execute`` for the query
stream.  It sets the workload up several times, runs rounds for about
``--seconds``, checks every output, and prints a summary followed, as its
last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics and the tracing
overhead.  A run record, with the spans of a traced run, is written under
``bench/_out/``.  See ``bench/README.md``.
"""

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import spans
from spans import REFERENCE_SLICE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# per-layer metric -> span name, summed per traced round
SPAN_SECONDS = {
    "spacefile.parse_s": "spacefile.parse",
    "spacefile.print_s": "spacefile.print",
    "graphs.build_s": "graphs.build",
    "graphs.deforest_s": "graphs.deforest",
    "graphs.router_build_s": "graphs.router_build",
    "graphs.vertex_distances_s": "graphs.vertex_distances",
    "planner.plan_graph_s": "planner.plan_graph",
    "wild.is_w_stable_s": "wild.is_w_stable",
    "wild.profile_s": "wild.profile",
    "wild.cat_s": "wild.cat",
    "wild.tc_s": "wild.tc",
    "wild.cat_certificate_s": "wild.cat_certificate",
    "wild.tc_certificate_s": "wild.tc_certificate",
    "wild.truncate_s": "wild.truncate",
}
# per-layer metric -> span name, median microseconds per call
SPAN_MICROS = {
    "graphs.route_us": "graphs.route",
    "graphs.slide_us": "graphs.slide",
    "regions.stratum_index_us": "regions.stratum_index",
    "planner.path_for_us": "planner.path_for",
}
# per-layer metric -> count read at a span boundary, summed per traced round
SPAN_COUNTS = {
    "spacefile.print_bytes": "print_bytes",
    "graphs.vertex_distances_entries": "vertex_distances_entries",
    "wild.truncate_vertices": "truncate_vertices",
    "wild.truncate_edges": "truncate_edges",
}
# per-layer metric -> probe value, summed per traced round
PROBES = {
    "planner.verify_coverage_s": "verify_coverage",
    "planner.verify_section_s": "verify_section",
    "planner.verify_continuity_s": "verify_continuity",
    "planner.continuity_compared": "continuity_compared",
    "planner.continuity_skipped": "continuity_skipped",
    "wild.tower_levels": "tower_levels",
}
INPUT_COUNTS = {
    "regions.coverage_pairs": "coverage_pairs",
    "regions.contains_calls": "contains_calls",
}


END_TO_END = ("setup_s", "peak_rss_mb", "round_norm_s")
# the modules the spans are named after; their self times go to the record
LAYERS = ("spacefile", "graphs", "regions", "planner", "wild", "cli")


def unit_of(name):
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes" if name.endswith("_bytes") else "count"


def load_program():
    """Put the checkout's ``src`` first on the path and import the program;
    refuse to run against anything but the checkout's own sources."""
    src = ROOT / "src"
    if not (src / "wildcat" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {src / 'wildcat'}")
    sys.path[:0] = [str(src), str(BENCH)]
    t0 = time.perf_counter()
    import wildcat
    import workloads
    import_s = time.perf_counter() - t0
    if Path(wildcat.__file__).resolve().parent != (src / "wildcat").resolve():
        sys.exit(f"error: imported wildcat from {wildcat.__file__}, not from {src}")
    return workloads, import_s


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


class Round:
    """What a run keeps of one round: per kind, the scaled seconds of its
    operations (compact, so memory does not grow with the run's length),
    the stdout digests, the failures and, in a traced round, the probes and
    each operation's scale factor by span op id."""

    __slots__ = ("traced", "norms", "digests", "errors", "attempted", "wall_s",
                 "norm_s", "factors", "probes")

    def __init__(self, traced, ops, probes):
        self.traced, self.probes = traced, probes
        self.norms = defaultdict(lambda: array("d"))
        for op in ops:
            self.norms[op.kind].append(op.norm)
        self.digests = [op.digest for op in ops]
        self.errors = [f"{op.kind}: {op.error}" for op in ops if op.error]
        self.attempted = len(ops)
        self.wall_s = sum(op.seconds for op in ops)
        self.norm_s = sum(op.norm for op in ops)
        self.factors = {op.span: REFERENCE_SLICE_S / op.ref for op in ops} if traced else None


def run_rounds(w, seed, seconds, tracer, patch):
    """Set up, then run rounds for about ``seconds``: a round starts only if
    half of the previous round's wall time still fits.  The set-up is
    repeated before each of the first rounds (``setups_per_round`` times,
    for workloads with few rounds), so its median is taken over moments
    spread through the run.  With a tracer, odd rounds are traced
    and at least one round of each kind runs."""
    rounds = []
    setups = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for _ in range(w.setups_per_round if len(setups) < w.setup_repeats else 0):
            timed = w.speed.timer()
            w.setup(random.Random(seed))
            control_failures = w.controls()
            timed.done()
            setups.append(timed.seconds * REFERENCE_SLICE_S / timed.ref)
        traced = tracer is not None and len(rounds) % 2 == 1
        probes = None
        if traced:
            probes = defaultdict(float)
            probes["plpath_us"] = []
            tracer.round = len(rounds)
            patch(tracer)
            tracer.enabled = True
        try:
            ops = w.round(tracer if traced else None, probes)
        finally:
            if traced:
                tracer.enabled = False
                tracer.unpatch()
        rounds.append(Round(traced, ops, probes))
        end = time.perf_counter()
        done = end - start + (end - round_start) / 2 >= seconds
        if done and (tracer is None or len(rounds) >= 2):
            return rounds, setups, control_failures


def end_to_end(w, rounds, setup_times):
    """End-to-end metrics over the untraced rounds, in seconds at the
    reference speed, and the number of samples behind each."""
    plain = [r for r in rounds if not r.traced]
    by_kind = defaultdict(list)
    for r in plain:
        for kind, values in r.norms.items():
            by_kind[kind].extend(values)
    m = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # a typical round: per kind, the median over rounds of the kind's
        # total in a round, so a change to any share of a query stream
        # moves it, not only a change to the stream's median query
        "round_norm_s": sum(statistics.median(sum(r.norms[kind]) for r in plain)
                            for kind in w.kinds),
    }
    samples = {"setup_s": len(setup_times), "round_norm_s": len(plain)}
    for kind in w.kinds:
        values = by_kind[kind]
        if kind.endswith("_us"):
            base = kind[:-3]
            m[base + "_p50_us"] = percentile(values, 0.50) * 1e6
            m[base + "_p99_us"] = percentile(values, 0.99) * 1e6
            samples[base + "_p50_us"] = samples[base + "_p99_us"] = len(values)
        else:
            m[kind] = statistics.median(values)
            samples[kind] = len(values)
    queries = [s for k in w.kinds if k.endswith("_us") for s in by_kind[k]]
    if queries:
        m["queries_per_s"] = len(queries) / sum(queries)
        samples["queries_per_s"] = len(queries)
    return m, samples


def per_layer(w, rounds, tracer):
    """Per-layer metrics over the traced rounds.  Span times are scaled to
    the reference speed with the factor of their operation; the probes come
    scaled from the workload."""
    traced = [(i, r.probes) for i, r in enumerate(rounds) if r.traced]
    factor = {op: f for r in rounds if r.traced for op, f in r.factors.items()}
    scaled = [s[:5] + [s[4] + (s[5] - s[4]) * factor[s[0]]] + s[6:] for s in tracer.spans]
    totals, counts = spans.round_totals(scaled, [i for i, _ in traced])
    m = {}
    for metric, name in SPAN_SECONDS.items():
        m[metric] = statistics.median(totals[i][name] for i, _ in traced)
    for metric, name in SPAN_MICROS.items():
        m[metric] = median_or_zero([(s[5] - s[4]) / 1e3 for s in scaled if s[3] == name])
    for metric, key in SPAN_COUNTS.items():
        m[metric] = statistics.median(counts[i][key] for i, _ in traced)
    for metric, key in PROBES.items():
        m[metric] = statistics.median(p[key] for _, p in traced)
    compared, skipped = m["planner.continuity_compared"], m["planner.continuity_skipped"]
    m["planner.continuity_useful_ratio"] = (
        compared / (compared + skipped) if compared + skipped else 0.0)
    m["graphs.plpath_us"] = median_or_zero([x for _, p in traced for x in p["plpath_us"]])
    for metric, key in INPUT_COUNTS.items():
        m[metric] = w.counts.get(key, 0)
    m["cli.self_s"] = statistics.median(totals[i]["cli.main#self"] for i, _ in traced)
    traced_s = statistics.median(r.norm_s for r in rounds if r.traced)
    plain_s = statistics.median(r.norm_s for r in rounds if not r.traced)
    m["trace_overhead_s"] = traced_s - plain_s
    detail = {"traced_rounds": len(traced), "traced_round_s": traced_s,
              "untraced_round_s": plain_s}
    for layer in LAYERS:
        detail[layer + ".self_s"] = statistics.median(
            totals[i][layer + "#layer"] for i, _ in traced)
    if w.name == "verify-graph":
        # parse, plan build, distances, the three verify phases and the
        # CLI's own time; the rest of a traced round is the wild report
        parts = ["spacefile.parse_s", "planner.plan_graph_s", "graphs.vertex_distances_s",
                 "planner.verify_coverage_s", "planner.verify_section_s",
                 "planner.verify_continuity_s", "cli.self_s"]
        detail["accounted_s"] = sum(m[p] for p in parts)
    return m, detail


def determinism(rounds):
    """Ops whose stdout digest differs from the first round's; and the run's
    digest, over the first round, to compare across runs with one seed."""
    first = rounds[0].digests
    bad = sum(1 for r in rounds[1:] for a, b in zip(first, r.digests) if a != b)
    digest = hashlib.sha256("".join(d for d in first if d).encode()).hexdigest()
    return bad, digest


def main(argv=None):
    workloads, import_s = load_program()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        w = workloads.WORKLOADS[args.workload](str(workdir), spans.Speed())
        tracer = spans.Tracer(w.speed.clock) if args.trace else None
        w.speed.start()
        try:
            rounds, setup_times, control_failures = run_rounds(
                w, args.seed, args.seconds, tracer, workloads.layer_patches)
        finally:
            w.speed.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    errors = [e for r in rounds for e in r.errors]
    nondeterministic, digest = determinism(rounds)
    failed = len(errors) + nondeterministic
    e2e, samples = end_to_end(w, rounds, setup_times)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "import_s": import_s, "setup_times_s": setup_times,
              "samples": samples, "end_to_end": e2e, "digest": digest,
              "controls_failed": control_failures, "errors": errors[:20],
              "nondeterministic_ops": nondeterministic,
              "failed_frac": failed / attempted,
              "reference_slice_s": statistics.median(w.speed.samples),
              "round_wall_s": statistics.median(r.wall_s for r in rounds if not r.traced)}
    if args.trace:
        layers, detail = per_layer(w, rounds, tracer)
        record.update(per_layer=layers, trace=detail)
        metrics = layers
    else:
        metrics = {k: e2e[k] for k in END_TO_END}

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"ops {attempted}  failed_frac {failed / attempted:.4f} ratio  "
          f"digest {digest[:16]}")
    print(f"  import {import_s:.3f} s, untraced round {record['round_wall_s']:.3f} s wall, "
          f"reference slice {record['reference_slice_s'] * 1e3:.3f} ms "
          f"(times below are scaled to {REFERENCE_SLICE_S * 1e3:g} ms)")
    for name, value in e2e.items():
        print(f"  {name:<24} {value:>14.6f} {unit_of(name):<6} n={samples.get(name, 1)}")
    if args.trace:
        for name, value in record["per_layer"].items():
            print(f"  {name:<34} {value:>16.6f} {unit_of(name)}")
        print("  " + "  ".join(f"{k} {v:.4f}" if isinstance(v, float) else f"{k} {v}"
                               for k, v in record["trace"].items()))
    for line in control_failures + errors[:5]:
        print(f"  FAILED {line}")

    out_dir = BENCH / "_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{name}.json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(out_dir / f"{name}-spans.json", "w", encoding="ascii") as fh:
            fh.write('{"fields": ["op", "id", "parent", "name", "start_ns", "end_ns", '
                     '"counts", "round"],\n "spans": [\n')
            fh.write(",\n".join(json.dumps(s) for s in tracer.spans))
            fh.write("\n]}\n")

    correct = failed == 0 and not control_failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
