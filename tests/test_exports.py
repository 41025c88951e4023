"""The package's public names stay consistent with the modules that define
them: every ``__all__`` entry resolves, and the package re-exports only
names its modules list in their ``__all__``.  A deleted function therefore
has to leave both lists, or this fails.  No module imports a name that it
neither uses nor exports, except the few that the benchmark patches."""

import ast
import importlib
import os
import pkgutil

import pytest

import wildcat

MODULES = sorted(m.name for m in pkgutil.iter_modules(wildcat.__path__)
                 if not m.name.startswith("_"))


# imported but never called: bench/workloads.py patches each by this name
BENCH_PATCHED = {
    ("cli", "truncate"),                # p(cli, "truncate", "wild.truncate", ...)
    ("cli", "print_spacefile"),         # p(cli, "print_spacefile", "spacefile.print", ...)
    ("wild", "build_graph"),            # p(mod, "build_graph", "graphs.build")
    ("planner", "vertex_distances"),    # p(planner, "vertex_distances", ...)
}


def _unused_imports(path):
    """Names the module at ``path`` imports but neither reads nor lists in
    its ``__all__``."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return imported - used - exported


def _package_imports():
    """``(module, name)`` for each relative import in ``wildcat/__init__.py``."""
    with open(os.path.join(wildcat.__path__[0], "__init__.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"wildcat.{name}")
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"wildcat.{name}.__all__ lists {export!r}"


def test_package_imports_are_listed_in_module_all():
    imports = _package_imports()
    assert imports
    for module_name, name in imports:
        module = importlib.import_module(f"wildcat.{module_name}")
        assert name in module.__all__, f"{name!r} is not in wildcat.{module_name}.__all__"
        assert getattr(wildcat, name) is getattr(module, name)


@pytest.mark.parametrize("name", MODULES + ["__main__"])
def test_no_module_imports_an_unused_name(name):
    """The package's ``__init__`` re-exports what it imports, which the test
    above checks."""
    path = os.path.join(wildcat.__path__[0], f"{name}.py")
    allowed = {n for m, n in BENCH_PATCHED if m == name}
    assert _unused_imports(path) == allowed


def test_a_stray_import_fails_the_guard(tmp_path):
    # negative control: a copy of wild.py with one import nothing reads
    with open(os.path.join(wildcat.__path__[0], "wild.py"), encoding="utf-8") as fh:
        text = fh.read()
    copy = tmp_path / "wild.py"
    copy.write_text(text.replace("import math\n", "import math\nimport shutil\n", 1),
                    encoding="utf-8")
    assert _unused_imports(copy) == {"build_graph", "shutil"}


@pytest.mark.parametrize("owner,name", [("graphs", "concat_paths"),
                                        ("graphs.CollapseHomotopy", "slide_back"),
                                        ("planner.CycleCoords", "march"),
                                        ("planner.CycleCoords", "point_at"),
                                        ("planner.CycleCoords", "coord"),
                                        ("wild.Subcomplex", "union"),
                                        ("wild.Subcomplex", "intersect"),
                                        ("wild.Subcomplex", "as_graph"),
                                        ("wild.Subcomplex", "is_empty")])
def test_replaced_path_helpers_are_gone(owner, name):
    """Lifted answers join step lists, and cycle answers walk integer slots;
    the path concatenation, reverse slide and Fraction march they replace
    are deleted, from the package's names too, and so are the Fraction
    ``point_at`` and ``coord`` that only tests read (now
    ``path_reference.point_at`` and ``path_reference.coord``).  Wild-set
    pieces come from the union-find forest of U_1, so the subcomplex
    union, intersection, graph and emptiness test are deleted too (the
    test-only reference analyses keep their own ``_union`` and
    ``_intersect``)."""
    module, _, cls = owner.partition(".")
    obj = importlib.import_module(f"wildcat.{module}")
    obj = getattr(obj, cls) if cls else obj
    assert not hasattr(obj, name)
    assert not hasattr(wildcat, name)


@pytest.mark.parametrize("name", ["tower", "_level_b1"])
def test_tower_walk_is_gone_from_the_analysis(name):
    """``profile`` reads run-length tower summaries, so the analysis keeps
    no level-by-level walk over pieces; ``wild_tower`` runs its own."""
    from wildcat.wild import Analysis
    assert not hasattr(Analysis, name)


def test_tower_levels_hold_no_pieces():
    import dataclasses
    from wildcat.wild import TowerLevel
    assert [f.name for f in dataclasses.fields(TowerLevel)] == ["count", "b1"]
