"""Byte-for-byte golden outputs of ``wildcat verify`` on every fixture.

Each file under ``tests/golden/`` holds one invocation: a first line
``exit: N`` with the exit status, then stdout verbatim.  ``STEM.verify`` is
``wildcat verify fixtures/STEM.space`` and ``STEM.corrupt.verify`` adds
``--corrupt``.  Any change to the verifier's report shows up here.
"""

import os

import pytest

from wildcat.cli import main

HERE = os.path.dirname(__file__)
FIXDIR = os.path.join(HERE, "fixtures")
GOLDDIR = os.path.join(HERE, "golden")

FIXTURES = sorted(f[:-len(".space")] for f in os.listdir(FIXDIR)
                  if f.endswith(".space"))


@pytest.mark.parametrize("corrupt", [False, True], ids=["intact", "corrupt"])
@pytest.mark.parametrize("stem", FIXTURES)
def test_verify_matches_golden(capsys, stem, corrupt):
    argv = ["verify", os.path.join(FIXDIR, stem + ".space")]
    name = stem + ".verify"
    if corrupt:
        argv.append("--corrupt")
        name = stem + ".corrupt.verify"
    code = main(argv)
    got = f"exit: {code}\n" + capsys.readouterr().out
    with open(os.path.join(GOLDDIR, name), "r", encoding="ascii", newline="") as fh:
        assert got == fh.read()
