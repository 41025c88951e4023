"""Byte-for-byte golden outputs of the CLI on every fixture.

Each file under ``tests/golden/`` holds one invocation: a first line
``exit: N`` with the exit status, then stdout verbatim.  ``STEM.verify`` is
``wildcat verify fixtures/STEM.space`` and ``STEM.corrupt.verify`` adds
``--corrupt``; ``STEM.info`` and ``STEM.certify`` are ``wildcat info`` and
``wildcat certify`` on the same file, and ``STEM.truncate`` is
``wildcat truncate fixtures/STEM.space --depth 3``.  ``STEM.plan`` holds two
``wildcat plan fixtures/STEM.space`` queries, each as an ``args:`` line, the
exit line and stdout: from the first to the last declared vertex, and from
``edge E0 1/3`` to ``edge En 2/3`` on the first and last declared edges.  The
names come from the main graph, or from the first graph of the file when the
main definition is an expression (so the call fails and its exit status is
recorded); ``none`` stands in for a vertex or edge the file does not have.
``STEM.cuplength`` is ``wildcat cuplength fixtures/STEM.space``; a file whose
main definition is an expression records exit 2.  Any change to a report
shows up here, and so does a file under ``tests/golden/`` that no test
reads.  ``verify`` and ``plan`` on ``k4`` and ``hair`` are also run in fresh
interpreters under two string-hash seeds, and must give the same bytes.
"""

import os
import re
import subprocess
import sys

import pytest

from wildcat.cli import main
from wildcat.spacefile import parse_spacefile

HERE = os.path.dirname(__file__)
FIXDIR = os.path.join(HERE, "fixtures")
GOLDDIR = os.path.join(HERE, "golden")
SRCDIR = os.path.abspath(os.path.join(HERE, os.pardir, "src"))

FIXTURES = sorted(f[:-len(".space")] for f in os.listdir(FIXDIR)
                  if f.endswith(".space"))
# one golden file per fixture and kind: STEM.KIND
KINDS = ("verify", "corrupt.verify", "info", "certify", "truncate", "plan",
         "cuplength")


def _run(capsys, argv):
    code = main(argv)
    return f"exit: {code}\n" + capsys.readouterr().out


def _check_text(got, name):
    with open(os.path.join(GOLDDIR, name), "r", encoding="ascii", newline="") as fh:
        assert got == fh.read()


def _check(capsys, argv, name):
    _check_text(_run(capsys, argv), name)


def _plan_queries(path):
    """The two ``--from``/``--to`` pairs of ``STEM.plan``."""
    with open(path, "r", encoding="ascii") as fh:
        sf = parse_spacefile(fh.read())
    g = sf.graphs.get(sf.main) or next(iter(sf.graphs.values()), None)
    vs = g.vertices if g is not None else ("none",)
    es = [e.id for e in g.edges] if g is not None and g.edges else ["none"]
    return [(f"vertex {vs[0]}", f"vertex {vs[-1]}"),
            (f"edge {es[0]} 1/3", f"edge {es[-1]} 2/3")]


@pytest.mark.parametrize("corrupt", [False, True], ids=["intact", "corrupt"])
@pytest.mark.parametrize("stem", FIXTURES)
def test_verify_matches_golden(capsys, stem, corrupt):
    argv = ["verify", os.path.join(FIXDIR, stem + ".space")]
    name = stem + ".verify"
    if corrupt:
        argv.append("--corrupt")
        name = stem + ".corrupt.verify"
    _check(capsys, argv, name)


@pytest.mark.parametrize("command", ["info", "certify"])
@pytest.mark.parametrize("stem", FIXTURES)
def test_report_matches_golden(capsys, stem, command):
    _check(capsys, [command, os.path.join(FIXDIR, stem + ".space")],
           f"{stem}.{command}")


@pytest.mark.parametrize("stem", FIXTURES)
def test_truncate_matches_golden(capsys, stem):
    _check(capsys, ["truncate", os.path.join(FIXDIR, stem + ".space"), "--depth", "3"],
           f"{stem}.truncate")


@pytest.mark.parametrize("stem", FIXTURES)
def test_plan_matches_golden(capsys, stem):
    path = os.path.join(FIXDIR, stem + ".space")
    got = ""
    for src, dst in _plan_queries(path):
        got += f"args: --from {src} --to {dst}\n"
        got += _run(capsys, ["plan", path, "--from", src, "--to", dst])
    _check_text(got, f"{stem}.plan")


@pytest.mark.parametrize("stem", FIXTURES)
def test_cuplength_matches_golden(capsys, stem):
    _check(capsys, ["cuplength", os.path.join(FIXDIR, stem + ".space")],
           f"{stem}.cuplength")


def _check_inventory(names):
    """The golden directory ``names`` are exactly the files the tests read."""
    expected = {f"{stem}.{kind}" for stem in FIXTURES for kind in KINDS}
    names = set(names)
    assert names == expected, (f"no test reads {sorted(names - expected)}; "
                               f"missing {sorted(expected - names)}")


def test_golden_files_are_exactly_those_read():
    _check_inventory(os.listdir(GOLDDIR))


def test_golden_inventory_rejects_an_extra_or_a_missing_file():
    names = sorted(os.listdir(GOLDDIR))
    with pytest.raises(AssertionError, match=re.escape("no test reads ['stale.verify']")):
        _check_inventory(names + ["stale.verify"])
    with pytest.raises(AssertionError, match=re.escape(f"missing [{names[0]!r}]")):
        _check_inventory(names[1:])


# --- determinism across string-hash seeds ---------------------------------------

def _fresh_run(argv, hash_seed):
    """``_run``'s text, as bytes, for ``wildcat ARGV`` in a new interpreter
    whose string hashes are seeded with ``hash_seed``."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=SRCDIR)
    proc = subprocess.run([sys.executable, "-m", "wildcat", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=300)
    return b"exit: %d\n" % proc.returncode + proc.stdout


def _hash_seed_mismatches(stem, command, hash_seeds, extra=()):
    """The hash seeds under which ``STEM.COMMAND``'s invocations, with the
    ``extra`` arguments, print other bytes than its golden file."""
    path = os.path.join(FIXDIR, stem + ".space")
    with open(os.path.join(GOLDDIR, f"{stem}.{command}"), "rb") as fh:
        want = fh.read()
    bad = []
    for hash_seed in hash_seeds:
        if command == "plan":
            got = b"".join(
                f"args: --from {src} --to {dst}\n".encode()
                + _fresh_run(["plan", path, "--from", src, "--to", dst, *extra], hash_seed)
                for src, dst in _plan_queries(path))
        else:
            got = _fresh_run([command, path, *extra], hash_seed)
        if got != want:
            bad.append(hash_seed)
    return bad


@pytest.mark.parametrize("command", ["verify", "plan"])
@pytest.mark.parametrize("stem", ["k4", "hair"])
def test_golden_holds_under_two_hash_seeds(stem, command):
    assert _hash_seed_mismatches(stem, command, (0, 1)) == []


def test_hash_seed_check_reports_another_report():
    # another verify seed draws other queries, so its report is not the golden one
    assert _hash_seed_mismatches("k4", "verify", (0,), ["--seed", "1"]) == [0]
