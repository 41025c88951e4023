"""The package's public names stay consistent with the modules that define
them: every ``__all__`` entry resolves, and the package re-exports only
names its modules list in their ``__all__``.  A deleted function therefore
has to leave both lists, or this fails."""

import ast
import importlib
import os
import pkgutil

import pytest

import wildcat

MODULES = sorted(m.name for m in pkgutil.iter_modules(wildcat.__path__)
                 if not m.name.startswith("_"))


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
