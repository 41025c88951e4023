"""The tables ``MultiGraph`` builds on first read, against the eager code.

``incident``, ``component_of`` and ``n_components`` are built on first read;
``degree`` is built by the constructor.  ``graph_reference.tables`` is a
copy of the eager constructor these replaced (sorted incident lists and
degrees in one pass, components numbered by a BFS from each vertex in
sorted order), and all four tables must equal its tables on random
multigraphs, on every fixture graph and on truncations of the criterion 5
and 7 corpora.  Two faults the comparison must catch, each checked by a
negative control: components numbered in declaration order, and a loop
counted once in ``degree``.

The cost guards count the builders: truncating and printing builds no
incidence table, ``wildcat truncate`` builds no graph of its output at all
(it writes its text from the expansion's chunks, and the ``betti1`` it
reports comes from the expression), nor, on the benchmark's chain, any
``Edge`` record or ``graph_records`` call, and ``plan_graph``
on a graph with one cycle builds no incidence table for its input (the
deforestation reads only the edge list).  On the benchmark's chain at
depth 12, the command's traced Python peak is at most three times the
length of its text; the per-line writer it replaced, a negative control,
is not.  Copies and pickles carry the tables whether or not they were
built.
"""

import copy
import glob
import io
import os
import pickle
import random
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest

import graph_reference
from wildcat import cli, graphs, planner, spacefile, wild
from wildcat.graphs import Edge, MultiGraph, build_graph
from wildcat.spacefile import SpaceFile, graph_records, parse_spacefile, print_spacefile

from gen import random_cycle_with_hairs, rank_chain_text
from test_analysis import _corpus_5150, _corpus_707
from test_cli import _bench_module
from test_truncate import _print_graph

FIXTURES = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "fixtures",
                                         "*.space")))
# upper and lower case, and digits that sort as text, so declaration order
# and sorted order rarely agree
_NAMES = ("a", "b", "c", "B", "Z", "a1", "a2", "a10", "v9", "v10", "x_0", "_")


def _random_multigraph(rng):
    """Vertices in random declaration order, cut into blocks; edges only
    inside a block, with loops and repeated endpoint pairs, so a graph can
    have several components, isolated vertices and parallel edges."""
    vs = rng.sample(_NAMES, rng.randint(1, len(_NAMES)))
    cuts = sorted(rng.sample(range(1, len(vs)), rng.randint(0, min(3, len(vs) - 1))))
    blocks = [vs[i:j] for i, j in zip([0] + cuts, cuts + [len(vs)])]
    pairs = []
    for block in blocks:
        for _ in range(rng.randint(0, 2 * len(block))):
            if pairs and rng.random() < 0.2 and pairs[-1][0] in block:
                v0, v1 = pairs[-1]
                pairs.append((v1, v0) if rng.random() < 0.5 else (v0, v1))
            else:
                pairs.append((rng.choice(block), rng.choice(block)))
    rng.shuffle(pairs)
    ids = rng.sample(range(100), len(pairs))
    return build_graph(vs, [(f"e{i}", v0, v1) for i, (v0, v1) in zip(ids, pairs)])


def _random_corpus():
    rng = random.Random(1919)
    return [_random_multigraph(rng) for _ in range(500)]


def _fixture_graphs():
    out = []
    for path in FIXTURES:
        with open(path, encoding="ascii") as fh:
            out.extend(parse_spacefile(fh.read()).graphs.values())
    return out


def _truncations():
    return [wild.truncate(e, depth) for e in _corpus_5150() + _corpus_707()
            for depth in range(4)]


def _mismatches(gs):
    """Graphs whose four tables differ from the reference's, each with the
    names of the tables that differ."""
    bad = []
    for g in gs:
        want = graph_reference.tables(g)
        got = (g.incident, g.degree, g.component_of, g.n_components)
        names = [name for name, a, b in zip(
            ("incident", "degree", "component_of", "n_components"), got, want)
            if a != b]
        if names:
            bad.append((g, names))
    return bad


def test_tables_match_reference_on_random_multigraphs():
    corpus = _random_corpus()
    assert not _mismatches(corpus)
    # the corpus reaches each feature the tables must handle
    features = {"loop": 0, "parallel": 0, "isolated": 0, "components": 0,
                "unsorted": 0, "numbering": 0}
    for g in corpus:
        pairs = [frozenset((e.v0, e.v1)) for e in g.edges]
        comp = graph_reference.tables(g)[2]
        first_declared = list(dict.fromkeys(comp[v] for v in g.vertices))
        features["loop"] += any(e.is_loop for e in g.edges)
        features["parallel"] += len(set(pairs)) < len(pairs)
        features["isolated"] += 0 in g.degree.values()
        features["components"] += g.n_components >= 2
        features["unsorted"] += list(g.vertices) != sorted(g.vertices)
        features["numbering"] += first_declared != sorted(first_declared)
    assert all(n >= 50 for n in features.values()), features


def test_tables_match_reference_on_fixture_graphs():
    gs = _fixture_graphs()
    assert len(gs) >= len(FIXTURES)
    assert not _mismatches(gs)


def test_tables_match_reference_on_truncations():
    gs = _truncations()
    assert len(gs) == 4 * 250
    assert not _mismatches(gs)
    assert sum(len(g.edges) for g in gs) > 10000


def test_differential_catches_components_in_declaration_order(monkeypatch):
    original = MultiGraph._components

    def declaration_order(self):
        original(self)
        number = {}
        for v in self.vertices:
            number.setdefault(self._component_of[v], len(number))
        self._component_of = {v: number[c] for v, c in self._component_of.items()}

    monkeypatch.setattr(MultiGraph, "_components", declaration_order)
    bad = _mismatches(_random_corpus())
    assert bad and all(names == ["component_of"] for _, names in bad)


def test_differential_catches_a_loop_counted_once(monkeypatch):
    original = MultiGraph.__init__

    def loop_once(self, vertices, edges):
        original(self, vertices, edges)
        for e in self.edges:
            if e.is_loop:
                self.degree[e.v0] -= 1

    monkeypatch.setattr(MultiGraph, "__init__", loop_once)
    bad = _mismatches(_random_corpus())
    assert bad and all(names == ["degree"] for _, names in bad)


# --- cost --------------------------------------------------------------------

def _count_builders(monkeypatch):
    """Patch both builders to record each graph they run on."""
    built = {"_incidence": [], "_components": []}
    for name, graphs_built in built.items():
        original = getattr(MultiGraph, name)

        def counting(self, original=original, graphs_built=graphs_built):
            graphs_built.append(self)
            return original(self)

        monkeypatch.setattr(MultiGraph, name, counting)
    return built


def _truncate_cost_failures(monkeypatch, tmp_path):
    """The clauses of the cost guard that fail: ``wild.truncate`` then
    ``print_spacefile`` on a rank chain build no incidence table and leave
    the output's component table unbuilt, and ``wildcat truncate`` on the
    same file builds no incidence table and no graph of its output at all:
    it writes its text from the expansion's chunks.  (The wild analysis behind the atom
    check and ``truncation_betti1`` reads the components of the parsed base
    graphs; those are not counted.)"""
    text = rank_chain_text(3)
    e = parse_spacefile(text).main_expr()
    built = _count_builders(monkeypatch)
    failures = []
    g = wild.truncate(e, 3)
    print_spacefile(SpaceFile({"truncated": g}, {}, "truncated"))
    assert len(g.edges) > 100
    if built["_incidence"]:
        failures.append("library built an incidence table")
    if any(h is g for h in built["_components"]):
        failures.append("library built the output's components")
    path = tmp_path / "chain.space"
    path.write_text(text, encoding="ascii")
    # both constructors, checked and trusted, build through ``_tables``
    graphs_built = []
    tables = MultiGraph._tables

    def recording(self, *args):
        tables(self, *args)
        graphs_built.append(self)

    monkeypatch.setattr(MultiGraph, "_tables", recording)
    for gs in built.values():
        gs.clear()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert cli.main(["truncate", str(path), "--depth", "3"]) == 0
    if built["_incidence"]:
        failures.append("command built an incidence table")
    if any(h.edges == g.edges for h in graphs_built):
        failures.append("command built a graph of its output")
    return failures


def test_truncate_builds_no_incidence_and_no_output_components(monkeypatch, tmp_path):
    assert _truncate_cost_failures(monkeypatch, tmp_path) == []


def test_cost_guard_catches_an_eager_constructor(monkeypatch, tmp_path):
    # both constructors, checked and trusted, build through ``_tables``; the
    # command's only graphs are the parsed bases, which then build incidence
    original = MultiGraph._tables

    def eager(self, *args):
        original(self, *args)
        self.incident
        self.n_components

    monkeypatch.setattr(MultiGraph, "_tables", eager)
    assert _truncate_cost_failures(monkeypatch, tmp_path) == [
        "library built an incidence table", "library built the output's components",
        "command built an incidence table"]


def test_cost_guard_catches_a_command_routed_through_truncate(monkeypatch, tmp_path):
    # an earlier command printed the graph ``truncate`` built
    monkeypatch.setattr(cli, "truncation_text",
                        lambda e, depth: _print_graph(cli.truncate(e, depth)))
    assert _truncate_cost_failures(monkeypatch, tmp_path) == [
        "command built a graph of its output"]


def _command_record_cost(monkeypatch, tmp_path):
    """``Edge`` records built, by either constructor, and ``graph_records``
    calls made by ``wildcat truncate --depth 12`` on the benchmark's chain."""
    path = tmp_path / "chain.space"
    path.write_text(_bench_module("gen").chain_text(random.Random(3), 3), encoding="ascii")
    cost = {"Edge": 0, "graph_records": 0}
    edge_new = Edge.__new__

    def counting_new(cls, *args, **kwargs):
        cost["Edge"] += 1
        return edge_new(cls, *args, **kwargs)

    def counting_tuple(cls, items):
        cost["Edge"] += cls is Edge
        return tuple.__new__(cls, items)

    def counting_records(g):
        cost["graph_records"] += 1
        return graph_records(g)

    monkeypatch.setattr(Edge, "__new__", counting_new)
    for module in (graphs, wild, spacefile):
        monkeypatch.setattr(module, "_new_tuple", counting_tuple)
    monkeypatch.setattr(spacefile, "graph_records", counting_records)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert cli.main(["truncate", str(path), "--depth", "12"]) == 0
    assert out.getvalue().count("\nedge ") == 37692
    return cost


def test_truncate_command_builds_no_edge_record(monkeypatch, tmp_path):
    # the only records are the parsed input's: three triangle edges and a loop
    assert _command_record_cost(monkeypatch, tmp_path) == {"Edge": 4, "graph_records": 0}


def test_record_cost_guard_catches_a_command_that_prints_records(monkeypatch, tmp_path):
    # an earlier command printed the checked records with print_spacefile
    monkeypatch.setattr(cli, "truncation_text",
                        lambda e, depth: _print_graph(wild.truncation_records(e, depth)))
    assert _command_record_cost(monkeypatch, tmp_path) == {"Edge": 4 + 37692,
                                                           "graph_records": 1}


def _command_peak_per_byte(tmp_path):
    """The traced Python peak of ``wildcat truncate --depth 12`` on the
    benchmark's chain, over the length of the text it writes."""
    path = tmp_path / "chain.space"
    path.write_text(_bench_module("gen").chain_text(random.Random(3), 3), encoding="ascii")
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        tracemalloc.start()
        try:
            assert cli.main(["truncate", str(path), "--depth", "12"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak / len(out.getvalue())


def _per_line_print_chunks(chunks):
    """The command's text as it was written before template texts: each
    chunk's names and lookup list, and an f-string per edge line."""
    vs, es = [], []
    for tpl, prefix, host in chunks:
        names, edges = tpl.records()
        look = [prefix + v for v in names]
        vs += look
        look.append(host)
        es += [f"edge {prefix}{i} {look[i0]} {look[i1]}" for i, i0, i1 in edges]
    out = ["graph truncated"]
    if vs:
        out.append("vertex " + "\nvertex ".join(vs))
    out += es
    out += ["endgraph", "main truncated", ""]
    return "\n".join(out)


def test_truncate_command_peak_is_within_three_times_its_output(tmp_path):
    # the chunks hold no per-copy name, and each chunk's text is a few joins
    assert _command_peak_per_byte(tmp_path) <= 3


def test_peak_guard_catches_a_per_line_writer(monkeypatch, tmp_path):
    monkeypatch.setattr(wild, "_print_chunks", _per_line_print_chunks)
    assert _command_peak_per_byte(tmp_path) > 3


def _lifted_plan_builds_incidence(monkeypatch):
    """Whether ``plan_graph`` on a cycle with hairs, which it deforests,
    builds the incidence table of its input graph."""
    g = random_cycle_with_hairs(random.Random(5), 40, 200)
    built = _count_builders(monkeypatch)
    planner.plan_graph(g)
    return any(h is g for h in built["_incidence"])


def test_lifted_plan_builds_no_incidence_for_its_input(monkeypatch):
    assert not _lifted_plan_builds_incidence(monkeypatch)


def test_lifted_plan_guard_catches_an_incidence_read(monkeypatch):
    deforest = planner.deforest

    def reading(g):
        g.incident
        return deforest(g)

    monkeypatch.setattr(planner, "deforest", reading)
    assert _lifted_plan_builds_incidence(monkeypatch)


def test_each_table_is_built_once_on_first_read(monkeypatch):
    built = _count_builders(monkeypatch)
    g = _random_corpus()[0]
    assert built == {"_incidence": [], "_components": []}
    for _ in range(2):
        g.incident, g.component_of, g.n_components
    assert built == {"_incidence": [g], "_components": [g]}


# --- copies and pickles -------------------------------------------------------

def _tables(g):
    return (g.vertices, g.edges, g.edge_by_id, g.degree, g.incident,
            g.component_of, g.n_components)


@pytest.mark.parametrize("built", [False, True], ids=["lazy", "built"])
def test_copies_and_pickles_are_equal(built):
    chain = parse_spacefile(rank_chain_text(3)).main_expr()
    gs = _random_corpus()[:40] + [wild.truncate(chain, 3)]
    assert any(g.n_components >= 2 for g in gs) and len(gs[-1].edges) > 100
    copies = [copy.copy, copy.deepcopy]
    copies += [lambda g, proto=proto: pickle.loads(pickle.dumps(g, proto))
               for proto in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for g0 in gs:
        want = graph_reference.tables(g0)
        for duplicate in copies:
            g = build_graph(g0.vertices, g0.edges)
            if built:
                g.incident, g.n_components
            h = duplicate(g)
            assert (h._incident is None) is (not built)
            assert h == g and hash(h) == hash(g)
            assert _tables(h) == _tables(g)
            assert (h.incident, h.degree, h.component_of, h.n_components) == want
