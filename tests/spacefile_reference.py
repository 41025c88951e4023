"""Reference copy of the file-level ``parse_spacefile``, the s-expression
tokenizer, reader and builder and the ``MultiGraph`` name check as they
were before the graph-block loop built ``Edge`` records itself, the
tokenizer matched one regular expression, the checked constructor proved
names from its own tables and node forms were built by generators, kept
for differential tests only.

``parse_spacefile`` strips and splits each line of a graph block with a
line counter, collects each edge as a plain triple, and builds the graph
with ``multigraph``.  That converts each triple with ``Edge(*e)`` and runs
``check_names``: a whole-column test with its own sets and a ``zip(*es)``
over the edge records, then, only when it fails, the name-by-name loop.
``_tokenize`` reads an expression one character at a time, counting lines
and columns as it goes.  ``_read_sexpr`` checks for running out of tokens
itself, and ``_build_expr`` drives ``_NodeBuild``, a resumable state
machine per ``(node ...)`` form with a clause cursor and the clause that
waits for its child.  Only the point and subcomplex builders are read from
``wildcat.spacefile``.  The parsed file, or the error with its text, line
and column, must equal the parser's.
"""

from wildcat.graphs import Edge, GraphError, MultiGraph, _IDENT
from wildcat.spacefile import (ParseError, SpaceFile, _build_point, _build_subcomplex,
                               _head, _is_list)
from wildcat.wild import (Attachment, ExprError, Node, SelfWild, SeqFamily, ZeroDimWild,
                          graph_expr)


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


def _open_expr(sx, graphs):
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


def _build_expr(sx, graphs):
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


def _valid_names(vs, es) -> bool:
    ids, v0s, v1s = zip(*es) if es else ((), (), ())
    if not {str}.issuperset(map(type, vs + ids + v0s + v1s)):
        return False                          # before any name is hashed
    vset, idset = set(vs), set(ids)
    return ("" not in vset and "" not in idset
            and len(vset) == len(vs) and len(idset) == len(ids)
            and vset.issuperset(v0s) and vset.issuperset(v1s)
            and _all_idents(vs) and _all_idents(ids))


def _all_idents(names) -> bool:
    return not names or _IDENT.match("".join(names)) is not None


def _check_each_name(vs, es):
    vset = set()
    for v in vs:
        if not isinstance(v, str) or not _IDENT.match(v):
            raise GraphError(f"invalid vertex identifier {v!r}")
        if v in vset:
            raise GraphError(f"duplicate identifier {v!r}")
        vset.add(v)
    eset = set()
    for e in es:
        if not _IDENT.match(e.id):
            raise GraphError(f"invalid edge identifier {e.id!r}")
        if e.id in eset:
            raise GraphError(f"duplicate identifier {e.id!r}")
        eset.add(e.id)
        for v in (e.v0, e.v1):
            if v not in vset:
                raise GraphError(f"dangling endpoint {v!r} on edge {e.id!r}")


def check_names(vs, es):
    if not _valid_names(vs, es):
        _check_each_name(vs, es)


def multigraph(vertices, edges) -> MultiGraph:
    """``MultiGraph(vertices, edges)`` as the checked constructor built it."""
    vs = tuple(vertices)
    es = tuple([e if isinstance(e, Edge) else Edge(*e) for e in edges])
    check_names(vs, es)
    return MultiGraph._trusted(vs, es)


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
                graphs[name] = multigraph(vs, es)
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
