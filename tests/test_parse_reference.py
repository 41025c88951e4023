"""The graph-block parser and the checked constructor, against the copies
in ``spacefile_reference`` of the code they replaced.

``parse_spacefile`` builds each graph block's ``Edge`` records in its loop
and counts its position from the records and skipped lines it has read;
``MultiGraph``'s checked constructor proves names from the tables it
builds.  On every fixture, on generated graphs and chains, on the fuzz
mutants and on an error corpus aimed at the loop (odd whitespace inside
records, comments and blank lines inside a block, bad records at every
position), the parser must give an equal file, or the same error with the
same text, line and column, as the reference.  The one difference is
allowed for: on the line an expression starts, the reference counts
columns from the start of the body, the parser from the start of the
line, so the reference's column there is moved by where the body starts.  On API inputs the
constructor must build an equal graph or raise what the reference raises.
The tokenizer, one regular expression matched on each line, is compared
through the parser on the same inputs and on character-level mutants of
the fixtures' expressions.  The expression builder, one generator per
node form, is compared on a nested-error corpus: each kind of clause
fault, and clauses with two faults whose reading order decides the
error, in the innermost of 1, 2, 3 and 1500 nested nodes.  The reader,
which leaves running out of tokens to the file-level balance check, is
compared on 3000 random bodies of parentheses and atoms.  Negative
controls: mutants of the loop, the tokenizer, the builder and the name
check that the comparison must catch.

The cost guard counts what parsing the benchmark's 1600-vertex lifted file
does: no ``Edge.__new__`` call (the loop builds records with
``tuple.__new__``) and no name-by-name check.  The reference parser, which
converts plain triples, must fail it.
"""

import glob
import os
import random

import pytest

import spacefile_reference as ref
from wildcat import graphs, spacefile
from wildcat.graphs import Edge, GraphError, MultiGraph
from wildcat.spacefile import ParseError, SpaceFile, parse_spacefile, print_spacefile
from wildcat.wild import ExprError

import gen
from test_cli import _bench_module
from test_fuzz import _mutate
from test_graphs import _BAD_NAMES, _faulty_input
from test_lift import _mutant

HERE = os.path.dirname(__file__)
FIXTURES = sorted(glob.glob(os.path.join(HERE, "fixtures", "*.space")))


def _read(path):
    with open(path, encoding="ascii") as fh:
        return fh.read()


def _graph_text(g, name="g"):
    return print_spacefile(SpaceFile({name: g}, {}, name))


# --- the corpora --------------------------------------------------------------

def _generated_texts():
    rng = random.Random(2801)
    bench = _bench_module("gen")
    texts = [_graph_text(gen.random_connected_graph(rng)) for _ in range(40)]
    texts += [_graph_text(gen.random_tree(rng, n)) for n in (1, 2, 30)]
    texts += [_graph_text(gen.random_cycle_with_hairs(rng, 12, 60))]
    texts += [f(d) for f in (gen.rank_chain_text, gen.attach_chain_text,
                             gen.seq_chain_text) for d in (1, 5)]
    texts += [gen.random_anchor_chain_text(rng, 4)]
    texts += [bench.graph_text(*bench.general_graph(rng, 60, 90)),
              bench.graph_text(*bench.lifted_graph(rng, 10, 50)),
              bench.graph_text(*bench.tree_graph(rng, 40)),
              bench.chain_text(rng, 3), bench.chain_text(rng, 8)]
    return texts


def _fuzz_texts(n=600):
    rng = random.Random(2802)
    fixtures = [_read(p) for p in FIXTURES]
    return [_mutate(rng, rng.choice(fixtures)) for _ in range(n)]


def _char_texts(n=600):
    """Fixtures with expressions, with one to four characters replaced,
    deleted or inserted, from an alphabet of name characters, parentheses,
    fractions and odd whitespace, mostly inside the expressions, so tokens
    split, merge and move between lines."""
    rng = random.Random(2805)
    fixtures = [text for text in map(_read, FIXTURES) if "\nexpr " in text]
    alphabet = list("abz019 ()/\n\t\r\x0b\x1c#") + ["\n\n", "\n \n"]
    texts = []
    for _ in range(n):
        text = rng.choice(fixtures)
        chars = list(text)
        start = text.index("\nexpr ") + 6
        for _ in range(rng.randint(1, 4)):
            k = rng.randrange(0 if rng.random() < 0.2 else start, len(chars))
            op = rng.randrange(3)
            if op == 0:
                chars[k] = rng.choice(alphabet)
            elif op == 1:
                del chars[k]
            else:
                chars.insert(k, rng.choice(alphabet))
        texts.append("".join(chars))
    return texts


_BLOCK = ["vertex a", "vertex b", "vertex c", "edge e0 a b", "edge e1 b c",
          "edge e2 c c"]
# lines the loop must skip, read or reject, each at every position
_NOISE = [
    "", "   ", "\t", "\r", "# a comment", "   # indented", "#", "#endgraph",
    "vertex\td", "\tvertex d\t", "vertex d\r", "edge\te9 a\tb", "edge e9 a b\r",
    "vertex\x0bd", "vertex\x1cd", "edge e9\x0ba\x1cb", "\x0cvertex d\x1f",
    "vertex\x85d", "vertex\xa0d", "vertex\u3000d",
    "vertex", "vertex d e", "edge e9 a", "edge e9 a b c", "edges e9 a b",
    "vertexd", "vert d", "main g", "graph h", "endgraph junk", "endgraph\tjunk",
    "vertex a", "edge e0 a c", "edge e9 a z", "vertex d-d", "edge e.9 a b",
    "vertex \xe9", "edge e9 a \xe9",
]


def _error_texts():
    """Graph blocks with one or two noise lines at each position, some
    followed by a second block and an expression over both, so the loop's
    position after the block is exercised too; and blocks cut short."""
    texts = []
    rng = random.Random(2803)
    for noise in _NOISE:
        for k in range(len(_BLOCK) + 1):
            block = _BLOCK[:k] + [noise] + _BLOCK[k:]
            texts.append("\n".join(["graph g"] + block + ["endgraph", "main g", ""]))
            extra = rng.choice(_NOISE)
            block.insert(rng.randint(0, len(block)), extra)
            texts.append("\n".join(
                ["# head", "graph g"] + block + ["endgraph", "", "graph h", "vertex x",
                 "endgraph", "expr p (node (base g) (attach (vertex a) (graph h)"
                 " (vertex x)))", "main p"]))
    for k in range(len(_BLOCK) + 1):
        texts.append("\n".join(["graph g"] + _BLOCK[:k]))
        texts.append("\n".join(["graph g"] + _BLOCK[:k] + ["", "# c", "main g"]))
    texts += ["graph g\nendgraph\nmain g\n", "graph g\n\n\nendgraph",
              "graph g\nvertex a\nendgraph\ngraph g\nendgraph\nmain g",
              "graph g x\nendgraph\nmain g", "graph\nendgraph\nmain g",
              "graph g\r\nvertex a\r\nendgraph\r\nmain g\r\n"]
    return texts


_NESTED_HEAD = ["graph g", "vertex a", "vertex b", "edge e0 a b", "edge b a b", "endgraph",
                "graph h", "vertex x", "edge l x x", "endgraph"]
# the clauses of the innermost node: one fault each, two faults whose
# reading order decides the error, valid clauses, and a fault after a
# nested node form is built
_NESTED_CLAUSES = [
    "(attach (vertex a) (graph h) (vertex x))",
    "(seqfam (e0) (graph h) (vertex x)) (attach (edge e0 1/3) (graph h) (edge l 2/3))",
    # one fault
    "(frob (vertex a) (graph h) (vertex x))", "frob", "(frob)", "((attach))",
    "(attach (vertex a) (graph h))", "(seqfam (e0) (graph h) (vertex x) (vertex x))",
    "(attach (vertx a) (graph h) (vertex x))", "(attach (vertex) (graph h) (vertex x))",
    "(attach (edge e0 1/0) (graph h) (vertex x))", "(attach (edge e0 q) (graph h) (vertex x))",
    "(attach (edge e0 0) (graph h) (vertex x))", "(attach (edge e0 3/2) (graph h) (vertex x))",
    "(attach (vertex a) (graph h) (edge l 1))", "(attach (vertex a) (graph h) (edge l -1/2))",
    "(attach (vertex a) (graph hh) (vertex x))", "(attach (vertex a) (graph) (vertex x))",
    "(attach (vertex a) (node (base hh)) (vertex x))", "(attach (vertex a) (node) (vertex x))",
    "(seqfam (a zz) (graph h) (vertex x))", "(seqfam (b) (graph h) (vertex x))",
    "(seqfam () (graph h) (vertex x))", "(seqfam ((a)) (graph h) (vertex x))",
    "(attach (vertex zz) (graph h) (vertex x))", "(attach (edge zz 1/2) (graph h) (vertex x))",
    "(attach (vertex a) (graph h) (vertex zz))", "(seqfam (e0) (graph h) (edge zz 1/3))",
    "(attach (vertex a) (node (base h) (attach (vertex x) (graph h) (vertex zz)))"
    " (vertex x))",
    # two faults
    "(attach (vertx a) (graph hh) (vertex x))", "(attach (edge e0 2) (node (base hh)) (vertex x))",
    "(attach (vertex a) (graph hh) (vertx x))", "(seqfam (e0) (graph hh) (edge l 0))",
    "(attach (vertex a) (node (base h) (frob)) (edge l 5))",
    "(seqfam (zz) (graph hh) (vertex x))", "(seqfam (b) (node (base h) (frob)) (vertex x))",
    "(attach (vertex zz) (graph h) (vertx x))", "(attach (vertex zz) (graph h) (vertex zz))",
    "(seqfam (e0) (graph h) (vertex x)) (attach (vertex zz) (graph hh) (vertex x))",
    # a fault after a nested node form is built
    "(attach (vertex a) (node (base h) (attach (vertex x) (graph h) (vertex x)))"
    " (vertex x)) (frob)",
    "(seqfam (a) (node (base h) (seqfam (l) (graph h) (vertex x))) (vertex zz))",
]


def _nested_text(clause, depth):
    """``clause`` in the innermost of ``depth`` nested nodes, one node a
    line; the outer ones alternate attachments and families."""
    opens = ["(node (base g) (attach (vertex a)" if k % 2 else "(node (base g) (seqfam (e0)"
             for k in range(depth - 1)]
    closes = [" (vertex a)))"] * (depth - 1)
    return "\n".join(_NESTED_HEAD + ["expr p"] + opens + [f"(node (base g) {clause})"]
                     + closes + ["main p", ""]).replace("expr p\n", "expr p ", 1)


def _nested_texts():
    return [_nested_text(clause, depth) for depth in (1, 2, 3, 1500)
            for clause in _NESTED_CLAUSES]


def _reader_bodies(n=3000):
    """Expression bodies of parentheses, atoms, spaces and newlines."""
    rng = random.Random(2901)
    head = "graph g\nvertex a\nendgraph\nexpr x "
    return [head + "".join(rng.choice("(((  ))) aa\n") for _ in range(rng.randint(1, 14)))
            + "\nmain x\n" for _ in range(n)]


def _outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, GraphError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


def _same(got, want):
    """Equal files whose graphs have equal tables and ``Edge`` records, or
    equal errors."""
    if not isinstance(want, SpaceFile) or not isinstance(got, SpaceFile):
        return got == want
    if got != want or list(got.graphs) != list(want.graphs):
        return False
    return all(g.edge_by_id == h.edge_by_id and g.degree == h.degree
               and all(type(e) is Edge for e in g.edges)
               for g, h in zip(got.graphs.values(), want.graphs.values()))


def _body_starts(text):
    """Line number -> index where the body starts, for each line that
    starts an ``expr`` body with its first token."""
    starts, depth = {}, 0
    for lineno, line in enumerate(text.split("\n"), 1):
        if depth > 0:                         # a later line of a body
            depth += line.count("(") - line.count(")")
            continue
        rest = line.split(None, 2)
        if len(rest) == 3 and rest[0] == "expr":
            starts[lineno] = len(line) - len(rest[2])
            depth = rest[2].count("(") - rest[2].count(")")
    return starts


def _ref_outcome(text):
    """The reference's outcome, with columns on a body's first line counted
    from the start of the line: the reference counts them from the start of
    the body."""
    want = _outcome(ref.parse_spacefile, text)
    if isinstance(want, tuple) and want[3] is not None:
        kind, message, line, col = want
        start = _body_starts(text).get(line)
        if start:
            where = f"line {line}, col "
            message = message.replace(f"{where}{col}:", f"{where}{col + start}:", 1)
            want = kind, message, line, col + start
    return want


def _parse_mismatches(parse, texts):
    return [text for text in texts if not _same(_outcome(parse, text), _ref_outcome(text))]


def test_parser_matches_reference_on_fixtures_and_generated_files():
    texts = [_read(p) for p in FIXTURES] + _generated_texts()
    assert not _parse_mismatches(parse_spacefile, texts)
    assert all(isinstance(_outcome(parse_spacefile, t), SpaceFile) for t in texts)


def test_parser_matches_reference_on_fuzz_mutants():
    texts = _fuzz_texts() + _char_texts()
    assert not _parse_mismatches(parse_spacefile, texts)
    outcomes = [_outcome(parse_spacefile, t) for t in texts]
    # the mutants reach graph-record errors, name errors and valid files
    messages = [o[1] for o in outcomes if isinstance(o, tuple)]
    assert sum(isinstance(o, SpaceFile) for o in outcomes) >= 50
    for part in ("bad graph record", "duplicate identifier", "dangling endpoint",
                 "trailing tokens", "unknown expression kind", "unknown point kind"):
        assert any(part in m for m in messages), part
    # errors placed by the tokenizer, on many lines and columns
    assert len({o[2:] for o in outcomes if isinstance(o, tuple) and o[3]}) >= 100


def test_parser_matches_reference_on_the_error_corpus():
    texts = _error_texts()
    assert not _parse_mismatches(parse_spacefile, texts)
    outcomes = [_outcome(parse_spacefile, t) for t in texts]
    lines = {o[2] for o in outcomes if isinstance(o, tuple) and
             o[1].startswith(f"line {o[2]}: bad graph record")}
    # bad records are reported on many different lines, and each kind of
    # error the loop and the name check raise is reached
    assert len(lines) >= 8, lines
    messages = [o[1] for o in outcomes if isinstance(o, tuple)]
    for part in ("bad graph record", "not closed by endgraph", "duplicate identifier",
                 "dangling endpoint", "invalid vertex identifier",
                 "invalid edge identifier", "duplicate graph name", "syntax: graph NAME"):
        assert any(part in m for m in messages), part
    assert sum(isinstance(o, SpaceFile) for o in outcomes) >= 50


def test_builder_matches_reference_on_nested_errors():
    texts = _nested_texts()
    assert not _parse_mismatches(parse_spacefile, texts)
    outcomes = [_outcome(parse_spacefile, t) for t in texts]
    n = len(_NESTED_CLAUSES)
    # the valid clauses parse at every depth; the others fail, each node's
    # own errors on the innermost node's line
    assert all(isinstance(o, SpaceFile) == (k % n < 2) for k, o in enumerate(outcomes))
    messages = [o[1] for o in outcomes if isinstance(o, tuple)]
    for part in ("unknown node clause", "expected (attach ...)", "syntax: (attach",
                 "syntax: (seqfam", "unknown point kind", "bad fraction",
                 "strictly between 0 and 1", "unknown graph 'hh'", "unknown id 'zz'",
                 "ambiguous id 'b'", "not on the base", "not on the child's base"):
        assert any(part in m for m in messages), part
    deep = outcomes[-n:]
    assert any(o[1].startswith("line 1510, col 1: attachment point") for o in deep[2:])


def test_reader_bodies_raise_only_parse_errors_like_the_reference():
    texts = _reader_bodies()
    assert not _parse_mismatches(parse_spacefile, texts)
    outcomes = [_outcome(parse_spacefile, t) for t in texts]
    assert {type(o) for o in outcomes} == {tuple}
    assert {o[0] for o in outcomes} == {ParseError}
    messages = [o[1] for o in outcomes]
    for part in ("unbalanced ')'", "unbalanced expression", "trailing tokens",
                 "syntax: expr NAME", "unknown record", "expected a space expression",
                 "expected a keyword"):
        assert any(part in m for m in messages), part


class _Name(str):
    """A ``str`` subclass: valid names, which fail the exact type test."""


def _api_inputs():
    rng = random.Random(2804)
    cases = [_faulty_input(rng) for _ in range(1500)]
    s = _Name
    cases += [
        (["a", ["v"]], []), ([["v"]], [("e", "a", "b")]), (["a", 7], []),
        (["a", "b"], [(7, "a", "b")]), (["a", "b"], [("e", 7, "b")]),
        (["a", "b"], [("e", "a", ["b"])]), (["a", "b"], [(["e"], "a", "b")]),
        ([s("a"), s("b")], [(s("e"), s("a"), s("b"))]),
        (["a", "b"], [("e", s("a"), "b")]), ([s("a"), "a"], []),
        ([s("a b")], []), (["a"], [(s(""), "a", "a")]), ([s("")], []),
        ([], []), (["a"], []), ([], [("e", "a", "a")]), (["", "a"], []),
        (["a"], [("", "a", "a")]), (["a"], [("e", "", "a")]),
        (["a", "b"], [("e", "a")]), (["a", "b"], [("e", "a", "b", "c")]),
        (["a", "b"], [Edge("e", "a", "b"), ("f", "b", "a")]),
        (["a", "b"], [Edge(7, "a", "b")]), (["a", "b"], [Edge("e", "a", None)]),
        (["ab", "a", "b"], [("e", "ab", "b")]), (["a1"], [("e", "a", "1")]),
    ]
    return cases


def _build(fn, vs, es):
    try:
        g = fn(vs, es)
    except Exception as exc:
        return type(exc), str(exc)
    return g.vertices, g.edges, g.edge_by_id, g.degree


def _api_mismatches():
    bad = []
    for vs, es in _api_inputs():
        if _build(MultiGraph, vs, es) != _build(ref.multigraph, vs, es):
            bad.append((vs, es))
    return bad


def test_constructor_matches_reference_on_api_inputs():
    assert not _api_mismatches()
    outcomes = [_build(MultiGraph, vs, es) for vs, es in _api_inputs()]
    assert {o[0] for o in outcomes if isinstance(o[0], type)} == {GraphError, TypeError}
    assert any(o[0] is GraphError and "['v']" in o[1] for o in outcomes)
    # a graph of str subclass names is built, with its names kept
    assert any(type(v) is _Name for o in outcomes if isinstance(o[0], tuple) for v in o[0])
    for name in _BAD_NAMES:
        assert any(o[0] is GraphError and repr(name) in o[1] for o in outcomes), name


# --- negative controls ----------------------------------------------------------

PARSE_MUTANTS = {
    "skipped-line-not-counted": ("skipped += 1", "pass"),
    "endgraph-must-stand-alone": ('elif rec and rec[0] == "endgraph":',
                                  'elif rec == ["endgraph"]:'),
    "record-line-off-by-one": ("lines[k].strip()!r}\", k + 1)",
                               "lines[k].strip()!r}\", k)"),
}

CHECK_MUTANTS = {
    "vertex-count-not-compared": ("len(degree) != len(vs) or ", ""),
    "empty-id-not-tested": ('or "" in edge_by_id', ""),
    "dangling-endpoint-skipped": ("        _check_each_name(vs, es)\n        raise\n",
                                  "        return {}, {}\n"),
}


TOKENIZE_MUTANTS = {
    "column-counted-from-0": ("m.start() + 1", "m.start()"),
    # str.splitlines also ends a line at \r, \x0b and \x1c
    "lines-split-at-any-line-break": ('text.split("\\n")', "text.splitlines()"),
    "first-line-off-by-one": ("), start_line)", "), start_line + 1)"),
}


BUILD_MUTANTS = {
    "anchor-read-before-the-child": (
        ("child = yield parts[2]\n                fin.append(Attachment(at, child, "
         "_build_point(parts[3])))",
         "anchor = _build_point(parts[3])\n                child = yield parts[2]\n"
         "                fin.append(Attachment(at, child, anchor))"),
        ("pattern = yield parts[2]\n                seq.append(SeqFamily(sc, pattern, "
         "_build_point(parts[3])))",
         "anchor = _build_point(parts[3])\n                pattern = yield parts[2]\n"
         "                seq.append(SeqFamily(sc, pattern, anchor))")),
    "subcomplex-built-after-the-child": (
        ("sc = _build_subcomplex(parts[1], base)\n                pattern = yield parts[2]",
         "pattern = yield parts[2]\n                sc = _build_subcomplex(parts[1], base)"),),
    # the node lets its errors through, and the whole expression reports
    # them at its own position
    "errors-wrapped-at-the-outermost-node": (
        ("except (ExprError, GraphError) as exc:", "except () as exc:"),),
}


def _wrapped_at_the_top(build):
    def build_expr(sx, graphs):
        try:
            return build(sx, graphs)
        except (ExprError, GraphError) as exc:
            raise ParseError(str(exc), sx[1][0], sx[1][1])
    return build_expr


@pytest.mark.parametrize("mutant", sorted(BUILD_MUTANTS))
def test_builder_differential_catches_mutant(monkeypatch, mutant):
    _mutant(monkeypatch, spacefile, "_node", *BUILD_MUTANTS[mutant])
    monkeypatch.setattr(spacefile, "_build_expr", _wrapped_at_the_top(spacefile._build_expr))
    assert _parse_mismatches(parse_spacefile, _nested_texts())


@pytest.mark.parametrize("mutant", sorted(PARSE_MUTANTS))
def test_parse_differential_catches_mutant(monkeypatch, mutant):
    _mutant(monkeypatch, spacefile, "parse_spacefile", PARSE_MUTANTS[mutant])
    assert _parse_mismatches(spacefile.parse_spacefile, _error_texts())


@pytest.mark.parametrize("mutant", sorted(TOKENIZE_MUTANTS))
def test_tokenizer_differential_catches_mutant(monkeypatch, mutant):
    _mutant(monkeypatch, spacefile, "_tokenize", TOKENIZE_MUTANTS[mutant])
    assert _parse_mismatches(parse_spacefile, _char_texts())


@pytest.mark.parametrize("mutant", sorted(CHECK_MUTANTS))
def test_constructor_differential_catches_mutant(monkeypatch, mutant):
    _mutant(monkeypatch, graphs, "_check_names", CHECK_MUTANTS[mutant])
    assert _api_mismatches()


# --- cost ------------------------------------------------------------------------

def _parse_cost(monkeypatch, parse):
    """``Edge.__new__`` and ``_check_each_name`` calls while ``parse`` reads
    the benchmark's 1600-vertex lifted file."""
    bench = _bench_module("gen")
    text = bench.graph_text(*bench.lifted_graph(random.Random(17), 160, 1440))
    counts = {"Edge.__new__": 0, "_check_each_name": 0}
    new, each = Edge.__new__, graphs._check_each_name

    def counting_new(cls, *args, **kwargs):
        counts["Edge.__new__"] += 1
        return new(cls, *args, **kwargs)

    def counting_each(vs, es):
        counts["_check_each_name"] += 1
        return each(vs, es)

    monkeypatch.setattr(Edge, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(graphs, "_check_each_name", counting_each)
    g = parse(text).main_graph()
    monkeypatch.undo()
    assert len(g.vertices) == 1600 and len(g.edges) == 1600
    return counts


def test_parsing_the_lifted_file_builds_no_edge_and_checks_no_name(monkeypatch):
    assert _parse_cost(monkeypatch, parse_spacefile) == {
        "Edge.__new__": 0, "_check_each_name": 0}


def test_parse_cost_guard_catches_the_reference_parser(monkeypatch):
    assert _parse_cost(monkeypatch, ref.parse_spacefile)["Edge.__new__"] == 1600
