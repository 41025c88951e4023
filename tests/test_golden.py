"""Byte-for-byte golden outputs of the CLI on every fixture.

Each file under ``tests/golden/`` holds one invocation: a first line
``exit: N`` with the exit status, then stdout verbatim.  ``STEM.verify`` is
``wildcat verify fixtures/STEM.space`` and ``STEM.corrupt.verify`` adds
``--corrupt``; ``STEM.info`` and ``STEM.certify`` are ``wildcat info`` and
``wildcat certify`` on the same file, and ``STEM.truncate`` is
``wildcat truncate fixtures/STEM.space --depth 3``.  Any change to a report
shows up here.
"""

import os

import pytest

from wildcat.cli import main

HERE = os.path.dirname(__file__)
FIXDIR = os.path.join(HERE, "fixtures")
GOLDDIR = os.path.join(HERE, "golden")

FIXTURES = sorted(f[:-len(".space")] for f in os.listdir(FIXDIR)
                  if f.endswith(".space"))


def _check(capsys, argv, name):
    code = main(argv)
    got = f"exit: {code}\n" + capsys.readouterr().out
    with open(os.path.join(GOLDDIR, name), "r", encoding="ascii", newline="") as fh:
        assert got == fh.read()


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
