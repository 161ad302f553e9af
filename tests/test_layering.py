"""The import graph keeps the two computation paths apart.

The combinatorial path and the brute-force oracles may share only ``core``,
``rootdata`` and ``orders``; otherwise a cross-check could route one path
through the other and compare a result with itself.  Only ``checks``, ``cli``
and the package root import both.  The graph is read from the source with
``ast``, so those tests need no import of the package.  Every name a module
exports must resolve, so that moving or deleting a function cannot leave a
stale export behind.  No module asserts an invariant: ``python -O`` would
strip the check.  One walk reads the Weyl group's coset tables, and two
callers read its points.  A cold import loads neither ``dataclasses`` nor
``fractions``: with the modules they pull in, they would take about a fifth
of a one-shot ``gexp`` call's set-up.
"""

import ast
import importlib
import subprocess
import sys
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


def _scopes(tree):
    """``(name, node)`` per top-level function and method (``Class.method``); a
    statement outside them is named ``<body>``."""
    for top in tree.body:
        for scope in top.body if isinstance(top, ast.ClassDef) else [top]:
            qual = getattr(scope, "name", "<body>")
            yield (f"{top.name}.{qual}" if scope is not top else qual), scope


def _readers(tree, name):
    """The scopes of :func:`_scopes` whose code names ``name``."""
    return {qual for qual, scope in _scopes(tree)
            if any(getattr(node, "attr", getattr(node, "id", None)) == name
                   for node in ast.walk(scope))}


def test_one_walk_reads_the_coset_tables():
    # reduce_to_dominant and the oracles' readers are walks of regular_orbit2,
    # so the Weyl action on a vector is written once; orbit_size counts
    # without walking
    readers = {f"{module}.{qual}" for module, tree in _trees().items()
               for qual in _readers(tree, "_cosets2")}
    assert readers == {"rootdata.RootDatum.regular_orbit2",
                       "rootdata.RootDatum.orbit_size"}, sorted(readers)


def test_two_point_readers_of_the_walk():
    # a call of regular_orbit2 that passes a leaf (the third argument) reads
    # the points v; only Lusztig's sum and the minuscule rows read v, and
    # every other caller, the weight system of freudenthal among them, reads
    # the walk's sums
    readers = {f"{module}.{qual}" for module, tree in _trees().items()
               for qual, scope in _scopes(tree) for node in ast.walk(scope)
               if isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) == "regular_orbit2"
               and (len(node.args) > 2 or any(k.arg == "leaf" for k in node.keywords))}
    assert readers == {"weyl_oracle.lusztig_E", "recurrence.minuscule_row"}, sorted(readers)


def test_no_dataclasses_and_fractions_only_inside_a_function():
    # a PolyT evaluated at a negative power is the one user of Fraction
    for module, tree in _trees().items():
        local = {id(node) for scope in ast.walk(tree)
                 if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(scope)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = {node.module.split(".")[0]}
            else:
                continue
            assert "dataclasses" not in names, f"{module}.py imports dataclasses"
            assert "fractions" not in names or id(node) in local, \
                f"{module}.py imports fractions outside a function at line {node.lineno}"


COSTLY_AT_IMPORT = ("dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal")


def test_a_cold_import_of_the_cli_loads_no_costly_module():
    # -S keeps the imports of site out of the child's sys.modules
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import extalg.cli; "
            f"print(*[m for m in {COSTLY_AT_IMPORT!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [], f"importing extalg.cli loaded {proc.stdout.strip()}"
