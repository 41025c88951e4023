"""Every mutated space file ends with a documented exit code.

Each run takes a fixture, makes one to three token mutations (delete,
replace, duplicate or swap a token, drop or repeat a line) and runs every
subcommand on it in-process: ``info``, ``certify``, ``truncate`` at a depth
of at most 3, ``verify``, ``cuplength`` and ``plan``.  Each call must return
0, 2, 3, 4 or 5 and print no traceback; an exception that escapes
``cli.main`` is a failure.  The corpus is seeded, so a failure reproduces.
"""

import io
import os
import random
import re
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

from wildcat import cli

FIXDIR = os.path.join(os.path.dirname(__file__), "fixtures")
FIXTURES = sorted(f for f in os.listdir(FIXDIR) if f.endswith(".space"))
EXIT_CODES = {0, 2, 3, 4, 5}

# tokens that are often wrong where they land
_SPECIAL = ["(", ")", "0", "1", "-1", "1/0", "3/2", "0/1", "1/1", "x",
            "vertex", "edge", "graph", "endgraph", "node", "base", "attach",
            "seqfam", "expr", "main", "selfwild", "zerodimwild"]


def _mutate(rng, text):
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(6)
        i = rng.randrange(len(lines))
        if kind == 0:
            del lines[i]
            if not lines:
                lines = [""]
            continue
        if kind == 1:
            lines.insert(i, lines[i])
            continue
        pieces = re.split(r"(\s+|[()])", lines[i])
        slots = [k for k, p in enumerate(pieces) if p and not p.isspace()]
        if not slots:
            continue
        k = rng.choice(slots)
        pool = re.findall(r"[^\s()]+", text) + _SPECIAL
        if kind == 2:
            pieces[k] = ""
        elif kind == 3:
            pieces[k] = rng.choice(pool)
        elif kind == 4:
            pieces[k] += " " + pieces[k]
        else:
            j = rng.choice(slots)
            pieces[k], pieces[j] = pieces[j], pieces[k]
        lines[i] = "".join(pieces)
    return "\n".join(lines)


def _commands(rng, path, text):
    vertices = re.findall(r"^vertex (\S+)", text, re.M) or ["none"]
    return [
        ["info", path],
        ["certify", path],
        ["truncate", path, "--depth", str(rng.randint(0, 3))],
        ["verify", path, "--samples", "40"],
        ["cuplength", path],
        ["plan", path, "--from", f"vertex {vertices[0]}",
         "--to", f"vertex {vertices[-1]}"],
    ]


def _run(argv):
    """The exit code, and what went wrong or None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:          # any escape is a finding
        return None, f"{type(exc).__name__}: {exc}"
    if code not in EXIT_CODES:
        return code, f"exit {code}"
    if "Traceback" in err.getvalue():
        return code, "traceback on stderr"
    return code, None


def fuzz(tmp_path, seed, mutants):
    """``(fixture, text, argv, problem)`` for each call that ends badly, and
    how many calls ended with each exit code (None for an exception)."""
    rng = random.Random(seed)
    texts = {}
    for name in FIXTURES:
        with open(os.path.join(FIXDIR, name), encoding="ascii") as fh:
            texts[name] = fh.read()
    failures, codes = [], Counter()
    path = str(tmp_path / "mutant.space")
    for _ in range(mutants):
        name = rng.choice(FIXTURES)
        text = _mutate(rng, texts[name])
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        for argv in _commands(rng, path, text):
            code, problem = _run(argv)
            codes[code] += 1
            if problem:
                failures.append((name, text, argv, problem))
    return failures, codes


def test_mutated_fixtures_exit_with_documented_codes(tmp_path):
    failures, codes = fuzz(tmp_path, 2718, 200)
    assert not failures, failures[:3]
    # the mutants reach the analysis, not only the parser
    assert {0, 2, 3, 4} <= set(codes), codes


def test_fuzz_reports_an_escaping_exception(tmp_path, monkeypatch):
    # negative control: a parser that raises KeyError must be caught
    def broken(text):
        raise KeyError("broken parser")

    monkeypatch.setattr(cli, "parse_spacefile", broken)
    failures, codes = fuzz(tmp_path, 2718, 5)
    assert codes == {None: 30}
    assert len(failures) == 30
    assert all(problem.startswith("KeyError") for *_, problem in failures)
