"""``wildcat/planner.py`` and ``wildcat/regions.py`` decide every check in
exact arithmetic: they hold no float literal, and the planner's one
``float(`` call formats the sup of a continuity witness inside that
witness's f-string."""

import ast
import os

import wildcat

PLANNER = os.path.join(wildcat.__path__[0], "planner.py")
REGIONS = os.path.join(wildcat.__path__[0], "regions.py")


def float_uses(source):
    """Line and kind of each float in ``source`` outside a witness f-string
    (one whose text holds "sup "): float literals, and every other use of
    the name ``float``."""
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr) and any(
                isinstance(part, ast.Constant) and "sup " in part.value
                for part in node.values):
            allowed.update(id(call.func) for call in ast.walk(node)
                           if isinstance(call, ast.Call))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float" and id(node) not in allowed:
            found.append((node.lineno, "float"))
    return sorted(found)


def test_planner_decides_without_floats():
    with open(PLANNER, encoding="utf-8") as fh:
        source = fh.read()
    assert float_uses(source) == []
    # the witness sup is the one float( call, and it is still there
    assert source.count("float(") == 1
    assert "sup {float(sup):.4f}" in source


def test_regions_decide_without_floats():
    with open(REGIONS, encoding="utf-8") as fh:
        source = fh.read()
    assert float_uses(source) == []
    assert "float(" not in source


def test_the_check_finds_floats():
    assert float_uses("eps_f = float(eps) + 1e-9\n") \
        == [(1, "float"), (1, "literal 1e-09")]
    assert float_uses("x = 0.5\n") == [(1, "literal 0.5")]
    assert float_uses("xs = map(float, ts)\n") == [(1, "float")]
    # an f-string other than a witness's does not license float(
    assert float_uses('msg = f"eps {float(eps):.4f}"\n') == [(1, "float")]
    assert float_uses('w = f"{a} vs {b}: sup {float(s):.4f}"\n') == []
