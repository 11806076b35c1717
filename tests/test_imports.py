"""No gsketch module imports a private (``_``-prefixed) name from another
gsketch module: what one module needs of another is public.  The package's
``__all__`` lists the names it imports from its modules, not the modules."""
import ast
import pathlib
import types

import pytest

import gsketch

PACKAGE = pathlib.Path(gsketch.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


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
