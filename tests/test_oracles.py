"""The brute-force oracles live in ``gsketch.oracles`` only: no engine module,
the package's ``__init__`` included, imports them, defines them, or keeps
the options and helpers retired with them, and the package does not export
them, so importing the runtime does not load them."""
import ast
import pathlib

import pytest

import gsketch
from gsketch import oracles

ENGINE = ("__init__", "graphs", "category", "sketches", "conditions",
          "translation", "deduction", "ct", "dsl", "cli")
MOVED = ("default_test_graphs", "verify_pushout", "verify_pullback",
         "shift_equivalence_oracle", "sketches_isomorphic",
         "conditions_equal_modulo_renaming")
RETIRED = ("nac_condition", "premise_condition", "restrict_to_monos",
           "_extensions", "RepairTrace")


def module_tree(name):
    path = pathlib.Path(gsketch.__file__).parent / ("%s.py" % name)
    return ast.parse(path.read_text(encoding="utf-8"))


def identifiers(tree):
    """Every name the module binds, reads, imports or passes by keyword."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.arg, ast.keyword)):
            out.add(node.arg)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.update(node.module.split("."))
    return out


@pytest.mark.parametrize("module", ENGINE)
def test_engine_module_carries_no_oracle(module):
    found = identifiers(module_tree(module))
    assert found.isdisjoint(("oracles",) + MOVED + RETIRED)


def test_sketch_pullback_enumerates_no_bindings():
    (fn,) = [node for node in ast.walk(module_tree("sketches"))
             if isinstance(node, ast.FunctionDef)
             and node.name == "sketch_pullback"]
    assert "enumerate_morphisms" not in identifiers(fn)


@pytest.mark.parametrize("name", MOVED)
def test_moved_name_resolves_from_the_package(name):
    assert not hasattr(gsketch, name)
    assert getattr(oracles, name).__module__ == "gsketch.oracles"
