import glob
import os
from fractions import Fraction

import pytest

from wildcat.graphs import Vertex, EdgeInterior, betti1
from wildcat.spacefile import (ParseError, parse_spacefile, print_spacefile,
                               parse_point, format_point, graph_records)
from wildcat.wild import Node, SelfWild, wrk, cat, tc

from wild_reference import node_eq

FIXTURES = sorted(glob.glob(os.path.join(os.path.dirname(__file__),
                                         "fixtures", "*.space")))


def _read(path):
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def test_fixture_corpus_present():
    assert len(FIXTURES) >= 20


@pytest.mark.parametrize("path", FIXTURES, ids=[os.path.basename(p) for p in FIXTURES])
def test_roundtrip_parse_print_parse(path):
    first = parse_spacefile(_read(path))
    printed = print_spacefile(first)
    second = parse_spacefile(printed)
    assert first == second
    # printing is idempotent on the normalized document
    assert print_spacefile(second) == printed


def test_parse_graph_and_main():
    sf = parse_spacefile(_read(os.path.join(os.path.dirname(__file__),
                                            "fixtures", "k4.space")))
    g = sf.main_graph()
    assert len(g.vertices) == 4 and len(g.edges) == 6
    assert betti1(g) == 3


def test_parse_earring_expr():
    sf = parse_spacefile(_read(os.path.join(os.path.dirname(__file__),
                                            "fixtures", "earring.space")))
    e = sf.main_expr()
    assert isinstance(e, Node)
    assert len(e.seq) == 1
    assert (wrk(e), cat(e), tc(e)) == (2, 1, 2)


def test_parse_selfwild():
    sf = parse_spacefile("expr s (selfwild)\nmain s\n")
    assert isinstance(sf.main_expr(), SelfWild)


def test_parse_error_reports_line():
    with pytest.raises(ParseError) as err:
        parse_spacefile("graph g\nvertex a\nedge broken\nendgraph\nmain g\n")
    assert err.value.line == 3


def _error_place(text):
    with pytest.raises(ParseError) as err:
        parse_spacefile(text)
    return err.value.line, err.value.col, str(err.value)


def test_first_line_columns_count_from_the_line():
    # columns on an expression's first line count from the start of the
    # line, not of the body: ``(frob)`` starts at column 23
    head = "graph g\nvertex a\nendgraph\n"
    assert _error_place(head + "expr p (node (base g) (frob))\nmain p\n") == (
        4, 23, "line 4, col 23: unknown node clause 'frob'")
    # leading and repeated whitespace count as written, a tab as one column
    assert _error_place(head + " \texpr  p   (graph g) x\nmain p\n")[:2] == (4, 23)


def test_multiline_body_columns_count_from_each_line():
    head = "graph g\nvertex a\nendgraph\n"
    text = head + "expr p (node (base g)\n   (frob))\nmain p\n"
    assert _error_place(text) == (5, 4, "line 5, col 4: unknown node clause 'frob'")
    # a node's own errors are placed at its "(", here on the first line
    text = head + "expr  p (node (base g) (attach (vertex b)\n (graph g) (vertex a)))\nmain p\n"
    assert _error_place(text)[:2] == (4, 9)


def test_parse_error_dangling_reference():
    text = "graph g\nvertex a\nendgraph\nexpr e (graph missing)\nmain e\n"
    with pytest.raises(ParseError, match="unknown graph"):
        parse_spacefile(text)


def test_parse_requires_exactly_one_main():
    with pytest.raises(ParseError, match="missing main"):
        parse_spacefile("graph g\nvertex a\nendgraph\n")
    with pytest.raises(ParseError, match="more than one main"):
        parse_spacefile("graph g\nvertex a\nendgraph\nmain g\nmain g\n")


def test_parse_unbalanced_expr():
    text = "graph g\nvertex a\nendgraph\nexpr e (node (base g)\nmain e\n"
    with pytest.raises(ParseError):
        parse_spacefile(text)


def test_parse_bad_point_parameter():
    text = ("graph g\nvertex a\nedge l a a\nendgraph\n"
            "expr e (node (base g) (seqfam (a) (graph g) (edge l 3/2)))\nmain e\n")
    with pytest.raises(ParseError, match="strictly between"):
        parse_spacefile(text)


def test_parse_subcomplex_unknown_id():
    text = ("graph g\nvertex a\nendgraph\n"
            "expr e (node (base g) (seqfam (zz) (graph g) (vertex a)))\nmain e\n")
    with pytest.raises(ParseError, match="unknown id"):
        parse_spacefile(text)


def test_parse_subcomplex_ambiguous_id():
    # vertex and edge namespaces are separate, so a shared id cannot be
    # resolved inside a subcomplex list
    text = ("graph g\nvertex x\nedge x x x\nendgraph\n"
            "expr e (node (base g) (seqfam (x) (graph g) (vertex x)))\nmain e\n")
    with pytest.raises(ParseError, match="ambiguous"):
        parse_spacefile(text)


def test_point_cli_syntax():
    assert parse_point("vertex a") == Vertex("a")
    assert parse_point("edge e 1/3") == EdgeInterior("e", Fraction(1, 3))
    with pytest.raises(ParseError):
        parse_point("edge e 0.5")
    with pytest.raises(ParseError):
        parse_point("midpoint e")


def test_format_point_roundtrip():
    p = EdgeInterior("e0", Fraction(2, 7))
    assert format_point(p) == "(edge e0 2/7)"
    assert format_point(Vertex("a")) == "(vertex a)"


def test_graph_records_shape():
    sf = parse_spacefile(_read(os.path.join(os.path.dirname(__file__),
                                            "fixtures", "path3.space")))
    recs = graph_records(sf.main_graph())
    assert recs[0] == "vertex a"
    assert recs[-1] == "edge e1 b c"


def test_print_autonames_inline_graphs():
    from wildcat.spacefile import SpaceFile
    from wildcat.wild import graph_expr
    from wildcat.graphs import build_graph
    g = build_graph(["q"], [])
    sf = SpaceFile({}, {"e": graph_expr(g)}, "e")
    text = print_spacefile(sf)
    assert "graph g0" in text
    assert parse_spacefile(text).main_expr().base == g


def test_roundtrip_random_generated_expressions():
    import random
    from wildcat.spacefile import SpaceFile
    from gen import random_stable_expr
    rng = random.Random(83)
    for _ in range(40):
        e = random_stable_expr(rng, rng.randint(0, 3))
        sf = SpaceFile({}, {"main_expr": e}, "main_expr")
        text = print_spacefile(sf)
        back = parse_spacefile(text)
        assert back.exprs["main_expr"] == e
        assert print_spacefile(back) == text


def _same_file(a, b):
    # compared by the reference tree walk, independently of ``Node.__eq__``
    return (a.graphs == b.graphs and a.main == b.main and a.exprs.keys() == b.exprs.keys()
            and all(node_eq(a.exprs[k], b.exprs[k]) for k in a.exprs))


def test_same_expr_helper_sees_a_deep_difference():
    from gen import attach_chain_text
    a = parse_spacefile(attach_chain_text(30))
    b = parse_spacefile(attach_chain_text(30).replace("(vertex o)", "(edge l 1/2)"))
    assert _same_file(a, a) and not _same_file(a, b)
    assert (a == b) is False


def test_print_parse_roundtrip_deep_attach_chain():
    # printing walks the expression with an explicit stack, like parsing
    from gen import attach_chain_text
    sf = parse_spacefile(attach_chain_text(1500))
    text = print_spacefile(sf)
    back = parse_spacefile(text)
    assert _same_file(back, sf)
    assert print_spacefile(back) == text


def test_deep_expression_equality_and_hash_do_not_recurse():
    from gen import attach_chain_text
    text = attach_chain_text(10_000)
    a = parse_spacefile(text)
    b = parse_spacefile(text)
    c = parse_spacefile(text.replace("(vertex o)", "(edge l 1/2)"))
    assert a.main_expr() is not b.main_expr()
    assert a == b and a.main_expr() == b.main_expr()
    assert hash(a.main_expr()) == hash(b.main_expr())
    assert a != c and a.main_expr() != c.main_expr()


def test_multiline_expr_parses_in_linear_time():
    import time
    from gen import attach_chain_text
    one_line = attach_chain_text(8000)
    # one s-expression over about 40000 lines; recounting the parentheses
    # of the whole body after each line took 7 s at this size
    many_lines = one_line.replace(" (", "\n(").replace("chain\n(", "chain (")
    assert many_lines.count("\n") > 40000
    t0 = time.perf_counter()
    parsed = parse_spacefile(many_lines)
    elapsed = time.perf_counter() - t0
    assert _same_file(parsed, parse_spacefile(one_line))
    assert elapsed < 3.0, elapsed


def test_parser_never_crashes_on_mutations():
    # mutated inputs must either parse or raise ParseError, nothing else
    import random
    rng = random.Random(89)
    base = _read(os.path.join(os.path.dirname(__file__), "fixtures",
                              "nested3.space"))
    alphabet = "abz019 ()/\n"
    for _ in range(300):
        chars = list(base)
        for _ in range(rng.randint(1, 4)):
            k = rng.randrange(len(chars))
            op = rng.randrange(3)
            if op == 0:
                chars[k] = rng.choice(alphabet)
            elif op == 1:
                del chars[k]
            else:
                chars.insert(k, rng.choice(alphabet))
        try:
            parse_spacefile("".join(chars))
        except ParseError:
            pass
