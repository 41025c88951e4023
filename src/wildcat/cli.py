"""Command-line front end.

Subcommands: ``info``, ``plan``, ``verify``, ``certify``, ``truncate``,
``cuplength``.  Machine-readable output goes to stdout as one JSON document
per invocation with a fixed, order-stable key set; a human-readable summary
goes to stderr.  Exit status: 0 success, 2 parse/usage or output error, 3
unstable expression, 4 infinite rank, 5 verification failure.  When the
reader of a standard output pipe closes it early, the call stops writing
and exits 2 with no error line.
"""

import argparse
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction

from .graphs import GraphError, betti1, tc_graph
from .cohomology import zero_divisor_cuplength
from .planner import (PlanError, plan_graph, execute, verify_plan,
                      corrupt_plan_swap_endpoints, DEFAULT_DELTA, DEFAULT_EPS)
from .spacefile import ParseError, SpaceFile, parse_spacefile, print_chunks, parse_point
from .wild import (INF, ExprError, UnstableExpressionError, InfiniteRankError,
                   analyze, graph_expr, profile, cat, tc, cat_certificate,
                   tc_certificate, chunk_records, truncation_chunks, truncation_size,
                   truncation_betti1)
# not called here: kept because bench/workloads.py patches ``cli.truncate`` and
# ``cli.print_spacefile``
from .spacefile import print_spacefile  # noqa: F401
from .wild import truncate  # noqa: F401

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSTABLE = 3
EXIT_INFINITE = 4
EXIT_VERIFY = 5


def _load(path: str) -> SpaceFile:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return parse_spacefile(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError:
        raise ParseError(f"cannot read {path}: space files are ASCII")


def _write_all(binary, data: bytes):
    """Write ``data`` to a binary stream and flush it.  A write cut short (a
    pipe's reader closed) returns a short count, which the text layer
    ignores; here the next write raises."""
    view = memoryview(data)
    while view:
        view = view[binary.write(view):]
    binary.flush()


def _save(path: str, text: str):
    try:
        with open(path, "wb") as fh:
            _write_all(fh, text.encode("ascii"))
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror}")


class _ReaderGone(Exception):
    """Standard output is a pipe whose reader has closed it."""


def _write_stdout(text: str):
    """Write and flush ``text``: a write error exits 2 here, not at exit;
    a pipe whose reader has closed it raises ``_ReaderGone``."""
    out = sys.stdout
    try:
        if hasattr(out, "buffer"):
            out.flush()                       # what the text layer holds
            _write_all(out.buffer, text.encode(out.encoding, out.errors))
        else:                                 # a StringIO, say
            out.write(text)
            out.flush()
    except OSError as exc:
        # what is left in the buffer goes to the null device, so the flush at
        # exit passes; a stdout with no descriptor, such as a StringIO, has none
        with contextlib.suppress(OSError, ValueError), open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            raise _ReaderGone from None
        raise ParseError(f"cannot write standard output: {exc.strerror}")


def _num(value):
    return "inf" if value is INF else value


def _tower_doc(prof):
    return [{"pieces": lv.count, "betti1": _num(lv.b1)} for lv in prof.tower]


def _report(analysis):
    prof = profile(analysis)
    return {
        "wrk": _num(prof.wrk),
        "cat": _num(cat(analysis)),
        "tc": _num(tc(analysis)),
        "stable": prof.stable,
        "scc_class": prof.scc_class,
        "tower": _tower_doc(prof),
    }


def _emit(doc, summary):
    _write_stdout(json.dumps(doc, separators=(",", ":")) + "\n")
    if summary:
        sys.stderr.write(summary + "\n")


def _target_graph(sf: SpaceFile, name):
    if name is not None:
        return sf.get_graph(name)
    return sf.main_graph()


def _cert_doc(c):
    return {
        "kind": c.kind,
        "length": _num(c.length),
        "levels": [{"reason": lv.reason, "description": lv.description}
                   for lv in c.levels],
    }


def _write_dot(path: str, g, highlight=()):
    lines = [f"graph wildcat {{"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    marked = set(highlight)
    for e in g.edges:
        attr = f' [label="{e.id}"'
        if e.id in marked:
            attr += ", color=red, penwidth=2"
        attr += "];"
        lines.append(f'  "{e.v0}" -- "{e.v1}"{attr}')
    lines.append("}")
    _save(path, "\n".join(lines) + "\n")


def cmd_info(args) -> int:
    sf = _load(args.file)
    doc = _report(analyze(sf.main_expr()))
    _emit(doc, f"wrk={doc['wrk']} cat={doc['cat']} tc={doc['tc']} "
               f"scc_class={doc['scc_class']}")
    return EXIT_OK


def cmd_plan(args) -> int:
    sf = _load(args.file)
    g = _target_graph(sf, args.graph)
    src = parse_point(getattr(args, "from"))
    dst = parse_point(args.to)
    plan = plan_graph(g)
    j, path = execute(plan, src, dst)
    doc = {
        "stratum": j,
        "strata_count": len(plan.strata),
        "length": f"{path.length.numerator}/{path.length.denominator}",
        "path": [{"edge": s.edge,
                  "from": f"{s.a.numerator}/{s.a.denominator}",
                  "to": f"{s.b.numerator}/{s.b.denominator}"}
                 for s in path.steps],
    }
    if args.dot:
        _write_dot(args.dot, g, highlight=[s.edge for s in path.steps])
    _emit(doc, f"stratum {j}, {len(path.steps)} steps, length {path.length}")
    return EXIT_OK


def cmd_verify(args) -> int:
    sf = _load(args.file)
    g = _target_graph(sf, args.graph)
    plan = plan_graph(g)
    if args.corrupt:
        plan = corrupt_plan_swap_endpoints(plan)
    report = verify_plan(plan, g, samples=args.samples, delta=args.delta,
                         eps=args.eps, seed=args.seed)
    doc = _report(analyze(graph_expr(g)))
    doc["verification"] = {
        "passed": report.passed,
        "strata": report.strata_count,
        "expected_strata": report.expected_strata,
        "samples": report.samples,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail,
                    "witness": c.witness} for c in report.checks],
    }
    _emit(doc, ("verification passed" if report.passed else "verification FAILED")
          + f" ({report.strata_count} strata)")
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_certify(args) -> int:
    sf = _load(args.file)
    analysis = analyze(sf.main_expr())
    doc = _report(analysis)
    doc["certificates"] = {
        "cat": _cert_doc(cat_certificate(analysis)),
        "tc": _cert_doc(tc_certificate(analysis)),
    }
    _emit(doc, f"cat certificate length {doc['certificates']['cat']['length']}, "
               f"tc certificate length {doc['certificates']['tc']['length']}")
    return EXIT_OK


def cmd_truncate(args) -> int:
    sf = _load(args.file)
    analysis = analyze(sf.main_expr())
    if args.max_edges is not None:
        n_vertices, n_edges = truncation_size(analysis, args.depth)
        if n_edges > args.max_edges:
            raise ExprError(f"truncation at depth {args.depth} would have "
                            f"{n_vertices} vertices and {n_edges} edges, "
                            f"more than --max-edges {args.max_edges}")
    # the text is written straight from the expansion's chunks: no record is
    # built unless a name needs checking or a DOT file is asked for
    chunks = truncation_chunks(analysis, args.depth)
    text = print_chunks("truncated", chunks)
    if args.dot:
        _write_dot(args.dot, chunk_records(chunks))
    if args.output:
        _save(args.output, text)
    else:
        _write_stdout(text)
    sys.stderr.write(f"truncated at depth {args.depth}: "
                     f"{sum(len(ch.names) for ch in chunks)} vertices, "
                     f"{sum(len(ch.edges) for ch in chunks)} edges, "
                     f"betti1 {truncation_betti1(analysis, args.depth)}\n")
    return EXIT_OK


def cmd_cuplength(args) -> int:
    sf = _load(args.file)
    g = _target_graph(sf, args.graph)
    doc = {"betti1": betti1(g), "cuplength": zero_divisor_cuplength(g)}
    _emit(doc, f"betti1={doc['betti1']} zero-divisor cup-length={doc['cuplength']} "
               f"(tc_graph={tc_graph(g)})")
    return EXIT_OK


def _natural(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _positive_fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call may share it."""
    parser = argparse.ArgumentParser(
        prog="wildcat",
        description="Category, topological complexity, wildness rank, and "
                    "motion plans for graphs and one-dimensional wild spaces.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("info", help="invariants of the main definition")
    p.add_argument("file")
    p.set_defaults(fn=cmd_info)

    p = subs.add_parser("plan", help="answer one motion-plan query on a graph")
    p.add_argument("file")
    p.add_argument("--graph", default=None, help="named graph (default: main)")
    p.add_argument("--from", required=True, help="'vertex ID' or 'edge ID NUM/DEN'")
    p.add_argument("--to", required=True, help="'vertex ID' or 'edge ID NUM/DEN'")
    p.add_argument("--dot", default=None, metavar="PATH",
                   help="also write the graph in DOT format")
    p.set_defaults(fn=cmd_plan)

    p = subs.add_parser("verify", help="verify the stratified plan of a graph")
    p.add_argument("file")
    p.add_argument("--graph", default=None)
    p.add_argument("--samples", type=_natural, default=2000)
    p.add_argument("--delta", type=_positive_fraction, default=DEFAULT_DELTA)
    p.add_argument("--eps", type=_positive_fraction, default=DEFAULT_EPS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt", action="store_true",
                   help="negative control: corrupt the plan before verifying")
    p.set_defaults(fn=cmd_verify)

    p = subs.add_parser("certify", help="emit cat and tc filtration certificates")
    p.add_argument("file")
    p.set_defaults(fn=cmd_certify)

    p = subs.add_parser("truncate", help="finite graph approximation of the main expression")
    p.add_argument("file")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--max-edges", type=_natural, default=None, metavar="N",
                   help="exit 2 without expanding when the truncation would "
                        "have more than N edges (default: no limit)")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--dot", default=None, metavar="PATH")
    p.set_defaults(fn=cmd_truncate)

    p = subs.add_parser("cuplength", help="zero-divisor cup-length of a graph")
    p.add_argument("file")
    p.add_argument("--graph", default=None)
    p.set_defaults(fn=cmd_cuplength)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _ReaderGone:                       # as for ``wildcat ... | head``
        return EXIT_PARSE
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except UnstableExpressionError as exc:
        sys.stderr.write(f"error: unstable expression: {exc}\n")
        return EXIT_UNSTABLE
    except InfiniteRankError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INFINITE
    except (GraphError, PlanError, ExprError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
