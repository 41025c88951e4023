"""Textual formats for graphs and space expressions.

A space file holds named graph definitions (line-oriented ``vertex <id>`` /
``edge <id> <v0> <v1>`` records between ``graph <name>`` and ``endgraph``),
named expression definitions in an s-expression grammar, and exactly one
``main <name>`` designation.  Lines starting with ``#`` are comments.

Expression grammar::

    EXPR   := (graph GREF) | (node (base GREF) ATTACH* SEQFAM*)
            | (selfwild) | (zerodimwild)
    ATTACH := (attach POINT EXPR POINT)          ; base point, child, anchor
    SEQFAM := (seqfam SUBCOMPLEX EXPR POINT)     ; subcomplex, pattern, anchor
    POINT  := (vertex ID) | (edge ID NUM/DEN)
    SUBCOMPLEX := (ID ...)                       ; vertex and edge ids

Parsing, printing, and parsing again yields a structurally identical
document (subcomplexes and point parameters are normalized at construction).
Each ``(node ...)`` form is built by a generator that yields its clauses'
expression forms in order; one loop keeps the waiting generators on a list,
so nesting depth is bounded by memory, not by the recursion limit.
"""

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from types import GeneratorType

from .graphs import (MultiGraph, Edge, Vertex, EdgeInterior, GraphPoint, GraphError,
                     build_graph, _new_tuple)
from .wild import (Node, SelfWild, ZeroDimWild, SpaceExpr, Attachment,
                   SeqFamily, Subcomplex, ExprError, graph_expr)

__all__ = [
    "ParseError",
    "SpaceFile",
    "parse_spacefile",
    "print_spacefile",
    "parse_point",
    "format_point",
    "graph_records",
]


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "") + ": "
        super().__init__(where + message)


@dataclass
class SpaceFile:
    """Parsed space description: named graphs, named expressions, one main."""

    graphs: dict = field(default_factory=dict)
    exprs: dict = field(default_factory=dict)
    main: str = None

    def main_expr(self) -> SpaceExpr:
        if self.main in self.exprs:
            return self.exprs[self.main]
        if self.main in self.graphs:
            return graph_expr(self.graphs[self.main])
        raise ParseError(f"main designation {self.main!r} does not resolve")

    def main_graph(self) -> MultiGraph:
        if self.main in self.graphs:
            return self.graphs[self.main]
        raise ParseError(f"main designation {self.main!r} is not a plain graph")

    def get_graph(self, name: str) -> MultiGraph:
        if name not in self.graphs:
            raise ParseError(f"no graph named {name!r}")
        return self.graphs[name]


# --- s-expression tokenizer / reader -----------------------------------

# a parenthesis, or an atom: a run of neither whitespace (``str.isspace``)
# nor parentheses
_TOKEN = re.compile(r"[()]|[^\s()]+")


def _tokenize(text, start_line, start=0):
    """``(token, (line, col))`` for each token of ``text`` from index
    ``start`` on, whose first line is ``start_line``.  Columns count from
    the start of each line, the first included."""
    return [(m[0], (line, m.start() + 1))
            for line, row in enumerate(text.split("\n"), start_line)
            for m in _TOKEN.finditer(row, start if line == start_line else 0)]


def _read_sexpr(tokens, i):
    """One s-expression from ``tokens[i]`` on, and the index after it.

    ``parse_spacefile`` hands over only bodies with a token and with no
    more "(" than ")", so a list opened here is closed before the tokens
    run out.  Lists are read with an explicit stack of open lists, so
    nesting depth is bounded by memory, not by the recursion limit."""
    open_lists = []  # (items, position of the '(')
    while True:
        tok, pos = tokens[i]
        i += 1
        if tok == "(":
            open_lists.append(([], pos))
            continue
        if tok == ")":
            if not open_lists:
                raise ParseError("unbalanced ')'", pos[0], pos[1])
            sx = open_lists.pop()
        else:
            sx = (tok, pos)
        if not open_lists:
            return sx, i
        open_lists[-1][0].append(sx)


def _is_list(sx):
    return isinstance(sx[0], list)


def _head(sx):
    items, pos = sx
    if not items or _is_list(items[0]):
        raise ParseError("expected a keyword", pos[0], pos[1])
    return items[0][0]


def _fraction(text, pos):
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad fraction {text!r}", pos[0], pos[1])


def _build_point(sx) -> GraphPoint:
    items, pos = sx
    if not isinstance(items, list) or not items:
        raise ParseError("expected a point", pos[0], pos[1])
    head = _head(sx)
    if head == "vertex":
        if len(items) != 2 or _is_list(items[1]):
            raise ParseError("point syntax: (vertex ID)", pos[0], pos[1])
        return Vertex(items[1][0])
    if head == "edge":
        if len(items) != 3 or _is_list(items[1]) or _is_list(items[2]):
            raise ParseError("point syntax: (edge ID NUM/DEN)", pos[0], pos[1])
        t = _fraction(items[2][0], items[2][1])
        if not 0 < t < 1:
            raise ParseError("edge point parameter must be strictly between 0 and 1",
                             pos[0], pos[1])
        return EdgeInterior(items[1][0], t)
    raise ParseError(f"unknown point kind {head!r}", pos[0], pos[1])


def _build_subcomplex(sx, base: MultiGraph) -> Subcomplex:
    items, pos = sx
    if not isinstance(items, list) or not items:
        raise ParseError("expected a non-empty subcomplex list", pos[0], pos[1])
    vs = []
    es = []
    for item in items:
        if _is_list(item):
            raise ParseError("subcomplex entries must be plain ids",
                             item[1][0], item[1][1])
        name = item[0]
        is_v = name in base.degree
        is_e = name in base.edge_by_id
        if is_v and is_e:
            raise ParseError(f"ambiguous id {name!r} (both vertex and edge)",
                             item[1][0], item[1][1])
        if is_v:
            vs.append(name)
        elif is_e:
            es.append(name)
        else:
            raise ParseError(f"unknown id {name!r} in subcomplex",
                             item[1][0], item[1][1])
    return Subcomplex.of(base, vs, es)


def _open_expr(sx, graphs):
    """The expression of a leaf form, or a :func:`_node` generator that
    builds a ``(node ...)`` form."""
    items, pos = sx
    if not isinstance(items, list) or not items:
        raise ParseError("expected a space expression", pos[0], pos[1])
    head = _head(sx)
    if head == "selfwild":
        return SelfWild()
    if head == "zerodimwild":
        return ZeroDimWild()
    if head == "graph":
        if len(items) != 2 or _is_list(items[1]):
            raise ParseError("syntax: (graph NAME)", pos[0], pos[1])
        name = items[1][0]
        if name not in graphs:
            raise ParseError(f"unknown graph {name!r}", items[1][1][0], items[1][1][1])
        return graph_expr(graphs[name])
    if head != "node":
        raise ParseError(f"unknown expression kind {head!r}", pos[0], pos[1])
    if len(items) < 2 or not _is_list(items[1]) or _head(items[1]) != "base":
        raise ParseError("syntax: (node (base NAME) ...)", pos[0], pos[1])
    base_items = items[1][0]
    if len(base_items) != 2 or _is_list(base_items[1]):
        raise ParseError("syntax: (base NAME)", items[1][1][0], items[1][1][1])
    base_name = base_items[1][0]
    if base_name not in graphs:
        raise ParseError(f"unknown graph {base_name!r}",
                         base_items[1][1][0], base_items[1][1][1])
    return _node(items, pos, graphs[base_name])


def _node(items, pos, base):
    """Build a ``(node ...)`` form's clauses in order: yield each clause's
    expression form, take back its expression, and return the ``Node``.
    An error of the node itself is reported at the node's position."""
    fin = []
    seq = []
    try:
        for item in items[2:]:
            if not _is_list(item):
                raise ParseError("expected (attach ...) or (seqfam ...)",
                                 item[1][0], item[1][1])
            kind = _head(item)
            parts = item[0]
            if kind == "attach":
                if len(parts) != 4:
                    raise ParseError("syntax: (attach POINT EXPR POINT)",
                                     item[1][0], item[1][1])
                at = _build_point(parts[1])
                child = yield parts[2]
                fin.append(Attachment(at, child, _build_point(parts[3])))
            elif kind == "seqfam":
                if len(parts) != 4:
                    raise ParseError("syntax: (seqfam SUBCOMPLEX EXPR POINT)",
                                     item[1][0], item[1][1])
                sc = _build_subcomplex(parts[1], base)
                pattern = yield parts[2]
                seq.append(SeqFamily(sc, pattern, _build_point(parts[3])))
            else:
                raise ParseError(f"unknown node clause {kind!r}",
                                 item[1][0], item[1][1])
        return Node(base, tuple(fin), tuple(seq))
    except (ExprError, GraphError) as exc:
        raise ParseError(str(exc), pos[0], pos[1])


def _build_expr(sx, graphs) -> SpaceExpr:
    """Expression of an s-expression.  Each node form being built is a
    :func:`_node` generator waiting for the expression of its current
    clause; they wait on one list, innermost last, so nesting depth is
    bounded by memory, not by the recursion limit."""
    waiting = []
    out = _open_expr(sx, graphs)
    while True:
        if isinstance(out, GeneratorType):
            waiting.append(out)
            out = None                        # starts the generator
        elif not waiting:
            return out
        try:
            out = _open_expr(waiting[-1].send(out), graphs)
        except StopIteration as built:
            waiting.pop()
            out = built.value


# --- file-level parsing -------------------------------------------------

def parse_spacefile(text: str) -> SpaceFile:
    lines = text.split("\n")
    graphs = {}
    raw_exprs = []  # (name, text from the first line on, that line, where the body starts)
    main = None
    i = 0
    n = len(lines)
    while i < n:
        lineno = i + 1
        parts = lines[i].split()
        i += 1
        if not parts or parts[0].startswith("#"):
            continue
        key = parts[0]
        if key == "graph":
            if len(parts) != 2:
                raise ParseError("syntax: graph NAME", lineno)
            name = parts[1]
            if name in graphs:
                raise ParseError(f"duplicate graph name {name!r}", lineno)
            # every line read is counted in vs, es or skipped
            vs = []
            es = []
            skipped = 0
            for rec in map(str.split, islice(lines, i, None)):
                if len(rec) == 4 and rec[0] == "edge":
                    es.append(_new_tuple(Edge, rec[1:]))
                elif len(rec) == 2 and rec[0] == "vertex":
                    vs.append(rec[1])
                elif rec and rec[0] == "endgraph":
                    break
                elif not rec or rec[0].startswith("#"):
                    skipped += 1
                else:
                    k = i + len(vs) + len(es) + skipped
                    raise ParseError(f"bad graph record {lines[k].strip()!r}", k + 1)
            else:
                raise ParseError(f"graph {name!r} not closed by endgraph", lineno)
            i += len(vs) + len(es) + skipped + 1
            try:
                graphs[name] = build_graph(vs, es)
            except GraphError as exc:
                raise ParseError(str(exc), lineno)
        elif key == "expr":
            if len(parts) < 2:
                raise ParseError("syntax: expr NAME (EXPR)", lineno)
            name = parts[1]
            rest = lines[i - 1].split(None, 2)
            if len(rest) < 3:                 # the rest, if any, is not blank
                raise ParseError("syntax: expr NAME (EXPR)", lineno)
            depth = rest[2].count("(") - rest[2].count(")")
            while depth > 0:
                if i >= n:
                    raise ParseError(f"unbalanced expression for {name!r}", lineno)
                depth += lines[i].count("(") - lines[i].count(")")
                i += 1
            # the body with its whole first line, tokenized from where it starts
            start = len(lines[lineno - 1]) - len(rest[2])
            raw_exprs.append((name, "\n".join(lines[lineno - 1:i]), lineno, start))
        elif key == "main":
            if len(parts) != 2:
                raise ParseError("syntax: main NAME", lineno)
            if main is not None:
                raise ParseError("more than one main designation", lineno)
            main = parts[1]
        else:
            raise ParseError(f"unknown record {key!r}", lineno)
    exprs = {}
    for name, body, lineno, start in raw_exprs:
        if name in exprs or name in graphs:
            raise ParseError(f"duplicate definition name {name!r}", lineno)
        tokens = _tokenize(body, lineno, start)
        sx, end = _read_sexpr(tokens, 0)
        if end != len(tokens):
            extra = tokens[end]
            raise ParseError("trailing tokens after expression",
                             extra[1][0], extra[1][1])
        exprs[name] = _build_expr(sx, graphs)
    if main is None:
        raise ParseError("missing main designation")
    if main not in graphs and main not in exprs:
        raise ParseError(f"main designation {main!r} does not resolve")
    return SpaceFile(graphs, exprs, main)


# --- printing -----------------------------------------------------------

def format_point(p: GraphPoint) -> str:
    if isinstance(p, Vertex):
        return f"(vertex {p.v})"
    return f"(edge {p.edge} {p.t.numerator}/{p.t.denominator})"


def parse_point(text: str) -> GraphPoint:
    """Point from CLI syntax: ``vertex a`` or ``edge e 1/3``."""
    parts = text.split()
    if len(parts) == 2 and parts[0] == "vertex":
        return Vertex(parts[1])
    if len(parts) == 3 and parts[0] == "edge":
        t = _fraction(parts[2], (1, 1))
        if not 0 < t < 1:
            raise ParseError("edge point parameter must be strictly between 0 and 1")
        return EdgeInterior(parts[1], t)
    raise ParseError(f"bad point {text!r} (want 'vertex ID' or 'edge ID NUM/DEN')")


def _expr_to_sexpr(e: SpaceExpr, names) -> str:
    # explicit stack of text pieces and subexpressions still to write, so
    # nesting depth is not bounded by the interpreter's recursion limit;
    # ``names`` sees the bases in the same pre-order as a recursive printer
    out = []
    stack = [e]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, SelfWild):
            out.append("(selfwild)")
        elif isinstance(item, ZeroDimWild):
            out.append("(zerodimwild)")
        elif not item.fin and not item.seq:
            out.append(f"(graph {names(item.base)})")
        else:
            parts = [f"(node (base {names(item.base)})"]
            for att in item.fin:
                parts += [f" (attach {format_point(att.at)} ", att.child,
                          f" {format_point(att.anchor)})"]
            for fam in item.seq:
                ids = list(fam.subcomplex.vertices) + list(fam.subcomplex.edges)
                parts += [f" (seqfam ({' '.join(ids)}) ", fam.pattern,
                          f" {format_point(fam.anchor)})"]
            parts.append(")")
            stack.extend(reversed(parts))
    return "".join(out)


def graph_records(g: MultiGraph):
    """Line-oriented vertex/edge records of a graph, declaration order."""
    lines = [f"vertex {v}" for v in g.vertices]
    lines.extend(f"edge {e.id} {e.v0} {e.v1}" for e in g.edges)
    return lines


def print_spacefile(sf: SpaceFile) -> str:
    """Canonical text of a space file; parsing it back gives an equal file.

    A graph may be a ``MultiGraph`` or ``GraphRecords``: only its
    ``vertices`` and ``edges`` are read.  The map from a graph's records to
    its name is built when an expression first asks for a base's name, so
    a file of graphs alone never hashes them."""
    key_to_name = None
    extra = {}

    def names(g: MultiGraph) -> str:
        nonlocal key_to_name
        if key_to_name is None:
            key_to_name = {(h.vertices, h.edges): name for name, h in sf.graphs.items()}
        key = (g.vertices, g.edges)
        if key in key_to_name:
            return key_to_name[key]
        name = f"g{len(extra)}"
        while name in sf.graphs or name in sf.exprs:
            name = name + "_"
        key_to_name[key] = name
        extra[name] = g
        return name

    expr_lines = [f"expr {name} {_expr_to_sexpr(e, names)}"
                  for name, e in sf.exprs.items()]
    out = []
    for name, g in list(sf.graphs.items()) + list(extra.items()):
        out.append(f"graph {name}")
        out.extend(graph_records(g))
        out.append("endgraph")
    out.extend(expr_lines)
    out.append(f"main {sf.main}")
    out.append("")                        # the final newline, without a copy
    return "\n".join(out)
