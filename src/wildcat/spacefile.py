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
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import MultiGraph, Vertex, EdgeInterior, GraphPoint, GraphError, build_graph
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

    def __eq__(self, other):
        if not isinstance(other, SpaceFile):
            return NotImplemented
        return (self.graphs == other.graphs and self.exprs == other.exprs
                and self.main == other.main)


# --- s-expression tokenizer / reader -----------------------------------

def _tokenize(text, start_line):
    line = start_line
    col = 1
    tokens = []
    atom = None
    atom_pos = None
    for ch in text:
        if ch == "\n":
            if atom is not None:
                tokens.append((atom, atom_pos))
                atom = None
            line += 1
            col = 1
            continue
        if ch in "()":
            if atom is not None:
                tokens.append((atom, atom_pos))
                atom = None
            tokens.append((ch, (line, col)))
        elif ch.isspace():
            if atom is not None:
                tokens.append((atom, atom_pos))
                atom = None
        else:
            if atom is None:
                atom = ch
                atom_pos = (line, col)
            else:
                atom += ch
        col += 1
    if atom is not None:
        tokens.append((atom, atom_pos))
    return tokens


def _read_sexpr(tokens, i):
    """One s-expression from ``tokens[i]`` on, and the index after it.

    Lists are read with an explicit stack of open lists, so nesting depth is
    bounded by memory, not by the recursion limit."""
    if i >= len(tokens):
        raise ParseError("unexpected end of expression")
    open_lists = []  # (items, position of the '(')
    while True:
        if i >= len(tokens):
            pos = open_lists[-1][1]
            raise ParseError("unbalanced '('", pos[0], pos[1])
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
    """The expression of a leaf form, or a :class:`_NodeBuild` for a
    ``(node ...)`` form, whose clauses are read later."""
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
    return _NodeBuild(items, pos, graphs[base_name])


class _NodeBuild:
    """A ``(node ...)`` form being built.  Its clauses are read in order; a
    clause whose expression is itself a node form waits until that node is
    built."""

    __slots__ = ("items", "pos", "base", "next", "fin", "seq", "clause")

    def __init__(self, items, pos, base):
        self.items = items
        self.pos = pos
        self.base = base
        self.next = 2
        self.fin = []
        self.seq = []
        self.clause = None  # (kind, first argument, parts) awaiting its child

    def advance(self, graphs, child=None):
        """Continue with ``child`` as the expression of the waiting clause.
        Returns the :class:`_NodeBuild` of a nested node form to build
        first, or the finished :class:`Node`."""
        try:
            if child is not None:
                self._close_clause(child)
            while self.next < len(self.items):
                item = self.items[self.next]
                self.next += 1
                if not _is_list(item):
                    raise ParseError("expected (attach ...) or (seqfam ...)",
                                     item[1][0], item[1][1])
                kind = _head(item)
                parts = item[0]
                if kind == "attach":
                    if len(parts) != 4:
                        raise ParseError("syntax: (attach POINT EXPR POINT)",
                                         item[1][0], item[1][1])
                    first = _build_point(parts[1])
                elif kind == "seqfam":
                    if len(parts) != 4:
                        raise ParseError("syntax: (seqfam SUBCOMPLEX EXPR POINT)",
                                         item[1][0], item[1][1])
                    first = _build_subcomplex(parts[1], self.base)
                else:
                    raise ParseError(f"unknown node clause {kind!r}",
                                     item[1][0], item[1][1])
                self.clause = (kind, first, parts)
                sub = _open_expr(parts[2], graphs)
                if isinstance(sub, _NodeBuild):
                    return sub
                self._close_clause(sub)
            return Node(self.base, tuple(self.fin), tuple(self.seq))
        except (ExprError, GraphError) as exc:
            raise ParseError(str(exc), self.pos[0], self.pos[1])

    def _close_clause(self, child):
        kind, first, parts = self.clause
        anchor = _build_point(parts[3])
        if kind == "attach":
            self.fin.append(Attachment(first, child, anchor))
        else:
            self.seq.append(SeqFamily(first, child, anchor))


def _build_expr(sx, graphs) -> SpaceExpr:
    """Expression of an s-expression.  Nested node forms are built with an
    explicit stack, innermost first, so nesting depth is bounded by memory,
    not by the recursion limit."""
    top = _open_expr(sx, graphs)
    if not isinstance(top, _NodeBuild):
        return top
    stack = [top]
    built = None
    while True:
        out = stack[-1].advance(graphs, built)
        if isinstance(out, _NodeBuild):
            stack.append(out)
            built = None
            continue
        stack.pop()
        if not stack:
            return out
        built = out


# --- file-level parsing -------------------------------------------------

def parse_spacefile(text: str) -> SpaceFile:
    lines = text.split("\n")
    graphs = {}
    raw_exprs = []  # (name, sexpr-text, start line)
    main = None
    i = 0
    n = len(lines)
    while i < n:
        lineno = i + 1
        line = lines[i].strip()
        i += 1
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        key = parts[0]
        if key == "graph":
            if len(parts) != 2:
                raise ParseError("syntax: graph NAME", lineno)
            name = parts[1]
            if name in graphs:
                raise ParseError(f"duplicate graph name {name!r}", lineno)
            vs = []
            es = []
            closed = False
            while i < n:
                sub_no = i + 1
                sub = lines[i].strip()
                i += 1
                if not sub or sub.startswith("#"):
                    continue
                rec = sub.split()
                if rec[0] == "endgraph":
                    closed = True
                    break
                if rec[0] == "vertex" and len(rec) == 2:
                    vs.append(rec[1])
                elif rec[0] == "edge" and len(rec) == 4:
                    es.append((rec[1], rec[2], rec[3]))
                else:
                    raise ParseError(f"bad graph record {sub!r}", sub_no)
            if not closed:
                raise ParseError(f"graph {name!r} not closed by endgraph", lineno)
            try:
                graphs[name] = build_graph(vs, es)
            except GraphError as exc:
                raise ParseError(str(exc), lineno)
        elif key == "expr":
            if len(parts) < 2:
                raise ParseError("syntax: expr NAME (EXPR)", lineno)
            name = parts[1]
            rest = lines[i - 1].split(None, 2)
            body_lines = [rest[2] if len(rest) == 3 else ""]
            depth = body_lines[0].count("(") - body_lines[0].count(")")
            while depth > 0:
                if i >= n:
                    raise ParseError(f"unbalanced expression for {name!r}", lineno)
                body_lines.append(lines[i])
                depth += lines[i].count("(") - lines[i].count(")")
                i += 1
            body = "\n".join(body_lines)
            if not body.strip():
                raise ParseError("syntax: expr NAME (EXPR)", lineno)
            raw_exprs.append((name, body, lineno))
        elif key == "main":
            if len(parts) != 2:
                raise ParseError("syntax: main NAME", lineno)
            if main is not None:
                raise ParseError("more than one main designation", lineno)
            main = parts[1]
        else:
            raise ParseError(f"unknown record {key!r}", lineno)
    exprs = {}
    for name, body, lineno in raw_exprs:
        if name in exprs or name in graphs:
            raise ParseError(f"duplicate definition name {name!r}", lineno)
        tokens = _tokenize(body, lineno)
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
    """Canonical text of a space file; parsing it back gives an equal file."""
    key_to_name = {(g.vertices, g.edges): name for name, g in sf.graphs.items()}
    extra = {}

    def names(g: MultiGraph) -> str:
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
    return "\n".join(out) + "\n"
