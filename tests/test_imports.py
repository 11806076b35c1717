"""No gsketch module imports a private (``_``-prefixed) name from another
gsketch module: what one module needs of another is public.  The package's
``__all__`` lists the names it imports from its modules, not the modules.
Every name a module or test imports is used, and the condition layer needs
of the graph, category and sketch layers exactly the names listed here."""
import ast
import pathlib
import types

import pytest

import gsketch

PACKAGE = pathlib.Path(gsketch.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
TESTS = pathlib.Path(__file__).parent
# __init__.py only re-exports
SOURCES = sorted([path for path in PACKAGE.glob("*.py")
                  if path.name != "__init__.py"] + list(TESTS.glob("*.py")))
# what conditions and translation import from the layers below them
INTERFACE = {
    "conditions": {
        "graphs": ["Graph", "GraphMorphism", "MismatchError",
                   "enumerate_extensions", "identity", "iter_extensions"],
        "sketches": ["Sketch", "Statement", "statement_key", "translate_key"],
    },
    "translation": {
        "category": ["pushout"],
        "graphs": ["GraphMorphism", "MismatchError", "compose", "identity",
                   "invert", "is_isomorphism"],
        "sketches": ["translate_statement"],
    },
}


def private_imports(source):
    """``module.name`` for each private name imported from gsketch."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "gsketch":
            continue
        found += ["%s.%s" % (node.module or "", alias.name)
                  for alias in node.names if alias.name.startswith("_")]
    return found


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_no_private_name(module):
    source = (PACKAGE / ("%s.py" % module)).read_text(encoding="utf-8")
    assert private_imports(source) == []


def test_private_imports_are_found():
    assert private_imports("from .conditions import And, _violations\n"
                           "from gsketch.sketches import _statement_at\n"
                           "from os import _exit\n") == [
        "conditions._violations", "gsketch.sketches._statement_at"]


def test_all_lists_no_module():
    assert [name for name in gsketch.__all__
            if isinstance(getattr(gsketch, name), types.ModuleType)] == []
    assert "graph_of" in gsketch.__all__


def unused_imports(source):
    """The names bound by an import and never referenced, sorted;
    ``from __future__`` imports bind none."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0]
                      for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\n"
                          "import json as js\n"
                          "from .graphs import Graph, compose as comp\n"
                          "x: Graph = js.loads('1')\n") == ["comp", "os"]


def layer_imports(source):
    """The names ``source`` imports from each of graphs, category and
    sketches, by module."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1 \
                and node.module in ("graphs", "category", "sketches"):
            found.setdefault(node.module, []).extend(
                alias.name for alias in node.names)
    return {module: sorted(names) for module, names in found.items()}


@pytest.mark.parametrize("module", sorted(INTERFACE))
def test_condition_layer_interface(module):
    source = (PACKAGE / ("%s.py" % module)).read_text(encoding="utf-8")
    assert layer_imports(source) == INTERFACE[module]
