import importlib
import importlib.util
import io
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stdout

import pytest

import graph_reference
from wildcat import cli, wild
from wildcat.cli import main
from wildcat.spacefile import parse_spacefile
from wildcat.graphs import betti1

from gen import (attach_chain_text, chain_space_text, rank_chain_text,
                 random_anchor_chain_text, seq_chain_text)

FIXDIR = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXDIR, name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out) if out else None, err


# --- info ---------------------------------------------------------------------

def test_info_earring(capsys):
    code, doc, _ = run_json(capsys, "info", fixture("earring.space"))
    assert code == 0
    assert (doc["wrk"], doc["cat"], doc["tc"]) == (2, 1, 2)
    assert doc["stable"] is True
    assert doc["scc_class"] == "none"
    assert doc["tower"] == [{"pieces": 1, "betti1": "inf"},
                            {"pieces": 1, "betti1": 0}]


def test_info_wildcircle(capsys):
    code, doc, _ = run_json(capsys, "info", fixture("wildcircle.space"))
    assert code == 0
    assert (doc["wrk"], doc["cat"], doc["tc"]) == (2, 2, 3)
    assert doc["scc_class"] == "one"


def test_info_nested3(capsys):
    code, doc, _ = run_json(capsys, "info", fixture("nested3.space"))
    assert code == 0
    assert (doc["wrk"], doc["cat"], doc["tc"]) == (3, 2, 4)


def test_info_selfwild(capsys):
    code, doc, _ = run_json(capsys, "info", fixture("selfwild.space"))
    assert code == 0
    assert (doc["wrk"], doc["cat"], doc["tc"]) == ("inf", "inf", "inf")


def test_info_zerodimwild(capsys):
    code, doc, _ = run_json(capsys, "info", fixture("zerodimwild.space"))
    assert code == 0
    assert (doc["wrk"], doc["cat"], doc["tc"]) == (2, 1, 2)
    assert doc["stable"] is False


def test_info_plain_graph(capsys):
    code, doc, _ = run_json(capsys, "info", fixture("fig8.space"))
    assert code == 0
    assert (doc["wrk"], doc["cat"], doc["tc"]) == (1, 1, 2)
    assert doc["scc_class"] == "many"


def test_info_report_key_order_fixed(capsys):
    code, out, _ = run_cli(capsys, "info", fixture("earring.space"))
    keys = list(json.loads(out).keys())
    assert keys == ["wrk", "cat", "tc", "stable", "scc_class", "tower"]


def test_info_deterministic_bytes(capsys):
    _, out1, _ = run_cli(capsys, "info", fixture("nested3.space"))
    _, out2, _ = run_cli(capsys, "info", fixture("nested3.space"))
    assert out1 == out2


@pytest.mark.parametrize("command", ["info", "certify"])
def test_deep_attach_chain_exits_zero(tmp_path, capsys, command):
    # 1500 nested (attach ...) forms: parsing and the analysis use no
    # recursion, so depth ends in exit 0, not a RecursionError
    path = tmp_path / "deep.space"
    path.write_text(attach_chain_text(1500), encoding="ascii")
    t0 = time.perf_counter()
    code, doc, _ = run_json(capsys, command, str(path))
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert (doc["wrk"], doc["cat"], doc["tc"]) == (2, 1, 2)
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("command", ["info", "certify"])
def test_deep_seq_chain_exits_zero(tmp_path, capsys, command):
    # 1500 nested (seqfam ...) forms: the stability walk over families and
    # the wild-set pieces use no recursion either
    path = tmp_path / "deep.space"
    path.write_text(seq_chain_text(1500), encoding="ascii")
    code, doc, _ = run_json(capsys, command, str(path))
    assert code == 0
    assert (doc["wrk"], doc["cat"], doc["tc"]) == (2, 1, 2)


@pytest.mark.parametrize("command", ["info", "certify"])
def test_deep_rank_chain_exits_zero(tmp_path, capsys, command):
    # 400 nested families whose rank grows with depth: every tower level is
    # a chain one family shorter, which the analysis meets as a memo hit
    path = tmp_path / "deep.space"
    path.write_text(rank_chain_text(400), encoding="ascii")
    code, doc, _ = run_json(capsys, command, str(path))
    assert code == 0
    assert (doc["wrk"], doc["cat"], doc["tc"]) == (402, 401, 802)


def test_info_on_a_deep_random_anchor_chain_is_fast(tmp_path, capsys):
    # 960 levels, each gluing its copies at a random vertex: no tower piece
    # equals a pattern, which took the piece-building analysis 41 s and
    # 1.0 GB; the tower summaries take well under a second
    path = tmp_path / "deep.space"
    path.write_text(random_anchor_chain_text(random.Random(3), 960), encoding="ascii")
    t0 = time.perf_counter()
    code, doc, _ = run_json(capsys, "info", str(path))
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert (doc["wrk"], doc["cat"], doc["tc"]) == (962, 961, 1922)
    assert elapsed < 10.0, elapsed


# --- exit-status contract --------------------------------------------------------

def test_exit_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.space"
    bad.write_text("graph g\nvertex a\nedge broken\nendgraph\nmain g\n")
    code, _, err = run_cli(capsys, "info", str(bad))
    assert code == 2
    assert "line 3" in err


def test_exit_missing_file(capsys):
    code, _, err = run_cli(capsys, "info", "/nonexistent/x.space")
    assert code == 2


def test_exit_non_ascii_file(tmp_path, capsys):
    f = tmp_path / "x.space"
    f.write_bytes("graph g\nvertex \xe9\nendgraph\nmain g\n".encode("utf-8"))
    code, _, err = run_cli(capsys, "info", str(f))
    assert code == 2
    assert "ASCII" in err


def test_exit_unstable(capsys):
    code, _, err = run_cli(capsys, "info", fixture("unstable.space"))
    assert code == 3
    assert "anchor" in err


def test_exit_infinite_rank_on_certify(capsys):
    code, _, err = run_cli(capsys, "certify", fixture("selfwild.space"))
    assert code == 4


def test_exit_verification_failure(capsys):
    code, doc, _ = run_json(capsys, "verify", fixture("c3.space"),
                            "--samples", "200", "--corrupt")
    assert code == 5
    assert doc["verification"]["passed"] is False


# --- plan --------------------------------------------------------------------------

def test_plan_circle_antipodal(capsys):
    code, doc, _ = run_json(capsys, "plan", fixture("circle4.space"),
                            "--from", "vertex a", "--to", "vertex c")
    assert code == 0
    assert doc["stratum"] == 0
    assert doc["length"] == "2/1"
    assert len(doc["path"]) == 2


def test_plan_tree_query(capsys):
    code, doc, _ = run_json(capsys, "plan", fixture("path3.space"),
                            "--from", "vertex a", "--to", "vertex c")
    assert code == 0
    assert doc["stratum"] == 0
    assert [s["edge"] for s in doc["path"]] == ["e0", "e1"]


def test_plan_fig8_double_off_tree(capsys):
    code, doc, _ = run_json(capsys, "plan", fixture("fig8.space"),
                            "--from", "edge l0 1/3", "--to", "edge l1 1/2")
    assert code == 0
    assert doc["stratum"] == 2
    assert doc["strata_count"] == 3


def test_plan_named_graph_flag(capsys):
    code, doc, _ = run_json(capsys, "plan", fixture("hair.space"),
                            "--graph", "hair",
                            "--from", "vertex tip", "--to", "edge h0 1/2")
    assert code == 0
    assert doc["stratum"] == 1
    assert doc["length"] == "3/2"


def test_plan_rejects_expression_target(capsys):
    code, _, err = run_cli(capsys, "plan", fixture("earring.space"),
                           "--from", "vertex v", "--to", "vertex v")
    assert code == 2


def test_plan_malformed_point(capsys):
    code, _, err = run_cli(capsys, "plan", fixture("c3.space"),
                           "--from", "vertex a", "--to", "edge e0 0.25")
    assert code == 2


def test_plan_dot_output(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    code, _, _ = run_json(capsys, "plan", fixture("c3.space"),
                          "--from", "vertex a", "--to", "vertex b",
                          "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith("graph wildcat {")
    assert '"a" -- "b"' in text


def test_plan_dot_unwritable_path(tmp_path, capsys):
    dot = tmp_path / "missing" / "g.dot"
    code, out, err = run_cli(capsys, "plan", fixture("c3.space"),
                             "--from", "vertex a", "--to", "vertex b",
                             "--dot", str(dot))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {dot}: ")


# --- verify ---------------------------------------------------------------------------

def test_verify_k4_passes(capsys):
    code, doc, _ = run_json(capsys, "verify", fixture("k4.space"),
                            "--samples", "400")
    assert code == 0
    v = doc["verification"]
    assert v["passed"] is True
    assert v["strata"] == 3 == v["expected_strata"]
    names = [c["name"] for c in v["checks"]]
    assert "section" in names and "continuity" in names


def test_verify_tree_single_stratum(capsys):
    code, doc, _ = run_json(capsys, "verify", fixture("tree5.space"),
                            "--samples", "200")
    assert code == 0
    assert doc["verification"]["strata"] == 1


def test_verify_corrupt_reports_witness(capsys):
    code, doc, _ = run_json(capsys, "verify", fixture("k4.space"),
                            "--samples", "200", "--corrupt")
    assert code == 5
    section = next(c for c in doc["verification"]["checks"]
                   if c["name"] == "section")
    assert section["passed"] is False
    assert section["witness"]


def test_verify_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", fixture("theta.space"),
                         "--samples", "300", "--seed", "7")
    _, out2, _ = run_cli(capsys, "verify", fixture("theta.space"),
                         "--samples", "300", "--seed", "7")
    assert out1 == out2


def test_verify_eps_beyond_any_float(capsys):
    # float(10^400) overflows; every point distance is below V + E, so the
    # verdict is that of any eps that large
    code, doc, _ = run_json(capsys, "verify", fixture("k4.space"), "--eps", "1e400")
    assert code == 0
    assert doc["verification"]["passed"] is True


@pytest.mark.parametrize("arg", ["--delta=-1/1000", "--delta=1/0", "--eps=1/0",
                                 "--samples=-3"],
                         ids=["negative-delta", "zero-denominator-delta",
                              "zero-denominator-eps", "negative-samples"])
def test_verify_rejects_bad_numeric_argument(capsys, arg):
    with pytest.raises(SystemExit) as exc:
        main(["verify", fixture("k4.space"), arg])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "error: argument " + arg.split("=")[0] in captured.err


# --- certify ----------------------------------------------------------------------------

def test_certify_earring(capsys):
    code, doc, _ = run_json(capsys, "certify", fixture("earring.space"))
    assert code == 0
    certs = doc["certificates"]
    assert certs["cat"]["length"] == 1
    assert certs["tc"]["length"] == 2
    assert len(certs["tc"]["levels"]) == 3


def test_certify_fig8_k_labels(capsys):
    code, doc, _ = run_json(capsys, "certify", fixture("fig8.space"))
    assert code == 0
    reasons = [lv["reason"] for lv in doc["certificates"]["tc"]["levels"]]
    assert reasons == ["spanning-tree-pieces", "graph-minus-tree-pieces",
                       "product-box"]


def test_certify_dendrite_zero_length(capsys):
    code, doc, _ = run_json(capsys, "certify", fixture("dendrite.space"))
    assert code == 0
    assert doc["certificates"]["cat"]["length"] == 0
    assert doc["certificates"]["tc"]["length"] == 0


def test_certify_lengths_match_info(capsys):
    for name in ("earring.space", "wildcircle.space", "nested3.space"):
        code, doc, _ = run_json(capsys, "certify", fixture(name))
        assert code == 0
        assert doc["certificates"]["cat"]["length"] == doc["cat"]
        assert doc["certificates"]["tc"]["length"] == doc["tc"]


# --- truncate ---------------------------------------------------------------------------

def test_truncate_earring_depth3(tmp_path, capsys):
    out = tmp_path / "t.space"
    code, _, _ = run_cli(capsys, "truncate", fixture("earring.space"),
                         "--depth", "3", "-o", str(out))
    assert code == 0
    g = parse_spacefile(out.read_text()).main_graph()
    assert betti1(g) == 3


def test_truncate_depth0_base_skeleton(capsys):
    code, out, _ = run_cli(capsys, "truncate", fixture("wildcircle.space"),
                           "--depth", "0")
    assert code == 0
    g = parse_spacefile(out).main_graph()
    assert len(g.edges) == 3 and betti1(g) == 1


def test_truncate_nested_depth2(capsys):
    code, out, _ = run_cli(capsys, "truncate", fixture("nested3.space"),
                           "--depth", "2")
    assert code == 0
    g = parse_spacefile(out).main_graph()
    assert betti1(g) == 6


def test_truncate_deep_attach_chain_exits_zero(tmp_path, capsys):
    # 1500 nested (attach ...) forms: the expansion uses no recursion
    path = tmp_path / "deep.space"
    path.write_text(attach_chain_text(1500), encoding="ascii")
    out = tmp_path / "t.space"
    code, _, err = run_cli(capsys, "truncate", str(path), "--depth", "1", "-o", str(out))
    assert code == 0
    assert "3001 vertices, 4501 edges" in err
    g = parse_spacefile(out.read_text()).main_graph()
    assert (len(g.vertices), len(g.edges), betti1(g)) == (3001, 4501, 1501)


def test_truncate_deep_seq_chain_exits_zero(tmp_path, capsys):
    # one copy per family: each of the 1500 triangles adds two vertices and
    # three edges, glued at a to the one before, and the loop adds an edge
    path = tmp_path / "deep.space"
    path.write_text(seq_chain_text(1500), encoding="ascii")
    out = tmp_path / "t.space"
    code, _, err = run_cli(capsys, "truncate", str(path), "--depth", "1", "-o", str(out))
    assert code == 0
    assert "3001 vertices, 4501 edges" in err
    g = parse_spacefile(out.read_text()).main_graph()
    assert (len(g.vertices), len(g.edges), betti1(g)) == (3001, 4501, 1501)


def test_truncate_anchor_on_an_edge_the_pattern_cuts(tmp_path, capsys):
    # the pattern's own copies cut f0 at 1/2, where its anchor also lies
    path = tmp_path / "anchor.space"
    path.write_text(chain_space_text(
        "(node (base pt) (seqfam (v) (node (base tri) (seqfam (a b c f0 f1 f2) "
        "(graph loop) (vertex o))) (edge f0 1/2)))"), encoding="ascii")
    code, _, err = run_cli(capsys, "truncate", str(path), "--depth", "4")
    assert code == 0
    assert "13 vertices, 32 edges" in err
    assert run_cli(capsys, "info", str(path))[0] == 0


def test_truncate_max_edges_refuses_without_expanding(monkeypatch, capsys):
    # nested3 at depth 400 has 240 800 edges; the limit is checked on the
    # predicted size, before any expansion
    def expand(e, depth):
        raise AssertionError("expanded")

    monkeypatch.setattr(cli, "truncation_text", expand)
    code, out, err = run_cli(capsys, "truncate", fixture("nested3.space"),
                             "--depth", "400", "--max-edges", "240799")
    assert code == 2
    assert out == ""
    assert err == ("error: truncation at depth 400 would have 80401 vertices "
                   "and 240800 edges, more than --max-edges 240799\n")
    # the patched name is the one the command expands through
    with pytest.raises(AssertionError, match="expanded"):
        main(["truncate", fixture("nested3.space"), "--depth", "2", "--max-edges", "10"])


def test_truncate_max_edges_allows_the_limit(capsys):
    # nested3 at depth 2 has exactly 10 edges: the output is unchanged
    plain = run_cli(capsys, "truncate", fixture("nested3.space"), "--depth", "2")
    limited = run_cli(capsys, "truncate", fixture("nested3.space"), "--depth", "2",
                      "--max-edges", "10")
    assert plain[0] == 0 and limited == plain


def test_truncate_builds_one_analysis(monkeypatch, capsys):
    # the atom check, the --max-edges count, the expansion and the betti1
    # share one wild analysis; the readers given the bare expression each
    # build their own, which the counter must see
    built = [0]
    init = wild.Analysis.__init__

    def counting(self, e):
        built[0] += 1
        init(self, e)

    monkeypatch.setattr(wild.Analysis, "__init__", counting)
    for stem in ("nested3", "earring"):
        built[0] = 0
        code = run_cli(capsys, "truncate", fixture(f"{stem}.space"), "--depth", "2",
                       "--max-edges", "1000")[0]
        assert (code, built[0]) == (0, 1), stem
    with open(fixture("nested3.space"), encoding="ascii") as fh:
        e = parse_spacefile(fh.read()).main_expr()
    built[0] = 0
    for reader in (wild.truncation_size, wild.truncate, wild.truncation_betti1):
        reader(e, 2)
    assert built[0] == 3


def test_truncate_atoms_rejected(capsys):
    code, _, err = run_cli(capsys, "truncate", fixture("selfwild.space"),
                           "--depth", "2")
    assert code == 2
    assert "atom" in err


FIXTURE_STEMS = sorted(f[:-len(".space")] for f in os.listdir(FIXDIR)
                       if f.endswith(".space"))


@pytest.mark.parametrize("stem", FIXTURE_STEMS)
def test_truncate_stderr_line(capsys, stem):
    # the goldens hold stdout only; the betti1 on stderr comes from the
    # component count, checked here against the reference BFS
    code, out, err = run_cli(capsys, "truncate", fixture(f"{stem}.space"),
                             "--depth", "3")
    if stem in ("selfwild", "zerodimwild"):          # atoms: no truncation
        assert code == 2 and out == "" and "truncated" not in err
        return
    assert code == 0
    g = parse_spacefile(out).main_graph()
    v, e = len(g.vertices), len(g.edges)
    b = e - v + graph_reference.tables(g)[3]
    assert err == f"truncated at depth 3: {v} vertices, {e} edges, betti1 {b}\n"


@pytest.mark.parametrize("flag", ["-o", "--dot"])
def test_truncate_unwritable_path(tmp_path, capsys, flag):
    target = tmp_path / "missing" / "x.space"
    code, out, err = run_cli(capsys, "truncate", fixture("nested3.space"),
                             "--depth", "2", flag, str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")


# --- cuplength --------------------------------------------------------------------------

def test_cuplength_k4(capsys):
    code, doc, _ = run_json(capsys, "cuplength", fixture("k4.space"))
    assert code == 0
    assert doc == {"betti1": 3, "cuplength": 2}


def test_cuplength_tree(capsys):
    code, doc, _ = run_json(capsys, "cuplength", fixture("tree5.space"))
    assert code == 0
    assert doc == {"betti1": 0, "cuplength": 0}


# --- one parser per process -------------------------------------------------------------

# each subcommand once, with a usage error after each
SUBCOMMAND_CALLS = (
    ["info", fixture("earring.space")],
    ["nosuch", fixture("earring.space")],
    ["plan", fixture("circle4.space"), "--from", "vertex a", "--to", "vertex c"],
    ["plan", fixture("circle4.space"), "--from", "vertex a"],
    ["verify", fixture("k4.space"), "--samples", "50"],
    ["verify", fixture("k4.space"), "--samples=-3"],
    ["certify", fixture("earring.space")],
    ["certify"],
    ["truncate", fixture("nested3.space"), "--depth", "2"],
    ["truncate", fixture("nested3.space"), "--depth", "two"],
    ["cuplength", fixture("k4.space")],
    [],
)


def _call(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_one_parser_serves_every_call(capsys):
    separate = []
    for argv in SUBCOMMAND_CALLS:
        cli._build_parser.cache_clear()
        separate.append(_call(capsys, argv))
    assert [c[0] for c in separate] == [0, 2] * len(SUBCOMMAND_CALLS[::2])
    cli._build_parser.cache_clear()
    assert [_call(capsys, argv) for argv in SUBCOMMAND_CALLS] == separate
    assert cli._build_parser.cache_info().misses == 1


# --- the traced benchmark ---------------------------------------------------------------

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def _benchmark_patch_failure():
    """Apply ``bench/workloads.layer_patches`` to a ``bench/spans.Tracer``,
    run one traced ``wildcat truncate`` and unpatch, in a forked child: the
    child sees this process's monkeypatches, and the bench's ``gen`` module
    does not shadow ``tests/gen.py`` here.  Returns the child's traceback,
    or "" when every patched name exists, the parse is traced and each name
    is restored."""
    assert threading.active_count() == 1          # forking is safe
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        status = 1
        try:
            for name in ("gen", "oracles", "spans", "workloads"):
                sys.modules.pop(name, None)
            sys.path.insert(0, BENCH)
            spans = importlib.import_module("spans")
            workloads = importlib.import_module("workloads")
            tracer = spans.Tracer()
            workloads.layer_patches(tracer)
            originals = list(tracer._patches)
            assert all(getattr(owner, attr) is not fn for owner, attr, fn in originals)
            tracer.enabled = True
            with tracer.span("op"), redirect_stdout(io.StringIO()):
                assert main(["truncate", fixture("nested3.space"), "--depth", "2"]) == 0
            traced = {s[3] for s in tracer.spans}
            # the command writes its text with ``truncation_text``, which no
            # patch traces: ``cli.print_spacefile`` is kept only to be patched
            assert "spacefile.parse" in traced and "spacefile.print" not in traced
            tracer.unpatch()
            assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)
            status = 0
        except Exception:
            os.write(write, traceback.format_exc().encode())
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        text = fh.read().decode()
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == (1 if text else 0)
    return text


def test_benchmark_layer_patches_apply_and_unpatch():
    # ``cli`` keeps ``truncate``, and ``wild`` keeps ``build_graph``, for these
    assert _benchmark_patch_failure() == ""


def test_benchmark_patch_guard_catches_a_missing_name(monkeypatch):
    monkeypatch.delattr(cli, "truncate")
    assert "AttributeError" in _benchmark_patch_failure()


# --- entry point ------------------------------------------------------------------------

def test_module_entry_point_subprocess():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-m", "wildcat", "info", fixture("earring.space")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["tc"] == 2


# --- standard output that cannot be written -----------------------------------------------

@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["info", fixture("earring.space")],
                                  ["truncate", fixture("earring.space"), "--depth", "3"]],
                         ids=["info", "truncate"])
def test_full_stdout_exits_2(argv, unbuffered):
    # a buffered write fails only at the flush, an unbuffered one at once;
    # either way the call ends with exit 2 and one error line, and the
    # interpreter's flush at exit finds nothing left to fail on
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "wildcat", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=_wildcat_env(unbuffered))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: cannot write standard output: ")
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


# --- the benchmark's own checks ----------------------------------------------------------

def _bench_module(name):
    """``bench/NAME.py`` loaded under its own name, so that the bench's
    ``gen`` does not shadow ``tests/gen.py``."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_selftest_and_oracles_accept_the_reports(capsys):
    # a report change that breaks the benchmark's oracles fails here
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "selftest.py")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    oracles = _bench_module("oracles")
    bench_gen = _bench_module("gen")
    graphs_seen = 0
    for name in sorted(os.listdir(FIXDIR)):
        with open(fixture(name), encoding="ascii") as fh:
            sf = parse_spacefile(fh.read())
        if sf.main not in sf.graphs:
            continue  # a wild space: verify exits 2
        g = sf.graphs[sf.main]
        graphs_seen += 1
        tc = bench_gen.expected_tc(g.vertices, g.edges)
        code, out, _ = run_cli(capsys, "verify", fixture(name))
        assert oracles.check_verify(code, out, tc) is None, name
        compared, skipped = oracles.continuity_counts(out)
        assert compared + skipped <= json.loads(out)["verification"]["samples"], name
        code, out, _ = run_cli(capsys, "verify", fixture(name), "--corrupt")
        oracles.continuity_counts(out)
        if g.edges:
            assert oracles.check_corrupt_verify(code, out) is None, name
        else:
            # every answer on one point is the constant path: nothing to swap
            assert oracles.check_verify(code, out, tc) is None, name
    assert graphs_seen == 11


def _wildcat_env(unbuffered):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _assert_write_error(returncode, stderr, target):
    assert returncode == 2, stderr
    assert stderr.startswith(f"error: cannot write {target}: Broken pipe"), stderr
    assert "Traceback" not in stderr
    assert "Exception ignored" not in stderr


def _assert_quiet_end(returncode, stderr):
    # a closed standard output pipe: exit 2, and nothing on stderr, not even
    # the summary line
    assert returncode == 2, stderr
    assert stderr == ""


@pytest.fixture(scope="module")
def big_chain(tmp_path_factory):
    """The benchmark's 3-level chain, whose depth-12 truncation is 2.9 MB."""
    path = tmp_path_factory.mktemp("chain") / "chain.space"
    path.write_text(_bench_module("gen").chain_text(random.Random(3), 3), encoding="ascii")
    return str(path)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_closed_part_way_exits_2(big_chain, unbuffered):
    # the reader takes 10 bytes and closes the pipe, so a write stops part-way:
    # the written count is short, and the command must not report success,
    # nor an error a closed pipe is not
    read, write = os.pipe()
    proc = subprocess.Popen([sys.executable, "-m", "wildcat", "truncate", big_chain,
                             "--depth", "12"], stdout=write, stderr=subprocess.PIPE,
                            text=True, env=_wildcat_env(unbuffered))
    os.close(write)
    head = os.read(read, 10)
    os.close(read)
    _, stderr = proc.communicate()
    assert head.startswith(b"graph")
    _assert_quiet_end(proc.returncode, stderr)


@pytest.mark.skipif(shutil.which("head") is None, reason="no head here")
def test_stdout_read_by_head_ends_quietly(big_chain):
    # ``wildcat truncate ... | head -c 10``: head exits after 10 bytes
    reader = subprocess.Popen(["head", "-c", "10"], stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE)
    proc = subprocess.run([sys.executable, "-m", "wildcat", "truncate", big_chain,
                           "--depth", "12"], stdout=reader.stdin, stderr=subprocess.PIPE,
                          text=True, env=_wildcat_env(False))
    reader.stdin.close()
    head = reader.stdout.read()
    reader.stdout.close()
    assert reader.wait() == 0 and head == b"graph trun"
    _assert_quiet_end(proc.returncode, proc.stderr)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_closed_before_the_write_exits_2(unbuffered):
    read, write = os.pipe()
    os.close(read)
    proc = subprocess.run([sys.executable, "-m", "wildcat", "info", fixture("earring.space")],
                          stdout=write, stderr=subprocess.PIPE, text=True,
                          env=_wildcat_env(unbuffered))
    os.close(write)
    _assert_quiet_end(proc.returncode, proc.stderr)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
def test_output_file_closed_part_way_exits_2(big_chain, tmp_path):
    fifo = str(tmp_path / "out.fifo")
    os.mkfifo(fifo)
    proc = subprocess.Popen([sys.executable, "-m", "wildcat", "truncate", big_chain,
                             "--depth", "12", "--output", fifo], stderr=subprocess.PIPE,
                            text=True, env=_wildcat_env(False))
    with open(fifo, "rb", buffering=0) as fh:
        head = fh.read(10)
    _, stderr = proc.communicate()
    assert head.startswith(b"graph")
    _assert_write_error(proc.returncode, stderr, fifo)
