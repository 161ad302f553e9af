"""The import graph keeps the two computation paths apart.

The combinatorial path and the brute-force oracles may share only ``core``,
``rootdata`` and ``orders``; otherwise a cross-check could route one path
through the other and compare a result with itself.  Only ``checks``, ``cli``
and the package root import both.  The graph is read from the source with
``ast``, so those tests need no import of the package.  Every name a module
exports must resolve, so that moving or deleting a function cannot leave a
stale export behind.  No module asserts an invariant: ``python -O`` would
strip the check.
"""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "extalg"

SHARED = {"core", "rootdata", "orders"}
PATHS = ({"gpartitions", "constructor", "genexp", "recurrence"},
         {"weyl_oracle", "exterior_oracle"})
FRONTENDS = {"__init__", "checks", "cli"}


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _relative_imports(tree):
    """The package modules named by the relative imports anywhere in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:
                out.update(alias.name for alias in node.names)
            else:
                out.add(node.module.split(".")[0])
    return out


def _allowed(module):
    if module == "core":
        return set()
    for path in PATHS:
        if module in path:
            return SHARED | path
    return SHARED


def test_paths_share_only_core_rootdata_and_orders():
    trees = _trees()
    assert set(trees) == SHARED | FRONTENDS | set().union(*PATHS), \
        "place every new module in SHARED, PATHS or FRONTENDS"
    graph = {module: _relative_imports(tree) for module, tree in trees.items()}
    for module in set(trees) - FRONTENDS:
        reached, frontier = set(), [module]
        while frontier:
            for dep in graph[frontier.pop()] - reached:
                reached.add(dep)
                frontier.append(dep)
        assert reached - {module} <= _allowed(module), (module, sorted(reached))


def test_no_function_local_relative_import():
    for module, tree in _trees().items():
        top = set(map(id, tree.body))
        local = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level and id(node) not in top]
        assert not local, f"{module}.py imports inside a function at lines {local}"


def test_every_export_resolves():
    for module in ["extalg"] + [f"extalg.{path.stem}" for path in sorted(PACKAGE.glob("*.py"))
                                if path.stem != "__init__"]:
        mod = importlib.import_module(module)
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, f"{module}.__all__ names {missing}"


def test_no_assert_statement_in_the_package():
    # invariants are raised, not asserted: python -O strips assert statements
    for module, tree in _trees().items():
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{module}.py asserts at lines {lines}"


def test_the_census_names_no_family():
    # orders lists dominant weights from the Cartan matrix alone, so a new
    # family needs no census code
    from extalg.rootdata import FAMILIES
    named = [node.lineno for node in ast.walk(_trees()["orders"])
             if isinstance(node, ast.Constant) and node.value in FAMILIES]
    assert not named, f"orders.py names a family at lines {named}"
