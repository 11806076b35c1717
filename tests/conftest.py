import itertools
import pathlib

import pytest

from gsketch import sketches
from gsketch.dsl import parse_files
from gsketch.graphs import GraphMorphism
from gsketch.sketches import Statement

from ct_example import build_ct_fixtures

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "ct"

CORPUS = [FIXTURE_DIR / name for name in (
    "base.sketch", "example.sketch", "conditions.sketch",
    "rules.sketch", "deduce.sketch")]


@pytest.fixture(scope="session")
def fx():
    return build_ct_fixtures()


@pytest.fixture(scope="session")
def corpus_paths():
    return [str(p) for p in CORPUS]


@pytest.fixture(scope="session")
def doc(corpus_paths):
    return parse_files(corpus_paths)


@pytest.fixture
def statements_built(monkeypatch):
    """A list that receives every statement value built from here on in
    the test, through the validating constructor or through the engine's
    unchecked ``sketches._statement_at``."""
    built = []
    init, at = Statement.__init__, sketches._statement_at

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def counting_at(*args):
        built.append(at(*args))
        return built[-1]

    monkeypatch.setattr(Statement, "__init__", counting_init)
    monkeypatch.setattr(sketches, "_statement_at", counting_at)
    return built


def brute_force_morphisms(a, g):
    """Independent oracle: iterate every node map x edge map, filter the
    homomorphism law."""
    out = []
    a_nodes, a_edges = sorted(a.nodes), sorted(a.edges)
    g_nodes, g_edges = sorted(g.nodes), sorted(g.edges)
    if a_nodes and not g_nodes:
        return []
    if a_edges and not g_edges:
        return []
    for node_images in itertools.product(g_nodes, repeat=len(a_nodes)):
        node_map = dict(zip(a_nodes, node_images))
        for edge_images in itertools.product(g_edges, repeat=len(a_edges)):
            edge_map = dict(zip(a_edges, edge_images))
            if all(node_map[a.src[e]] == g.src[edge_map[e]]
                   and node_map[a.tgt[e]] == g.tgt[edge_map[e]]
                   for e in a_edges):
                out.append(GraphMorphism(a, g, node_map, edge_map))
    return out


def union_find_quotient(left, right, glue):
    """Reference for ``category.tagged_quotient``: a union-find with path
    halving over the tagged members, each class named by its least tag."""
    parent = {("L", x): ("L", x) for x in left}
    parent.update({("R", y): ("R", y) for y in right})

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for x, y in glue:
        parent[find(("L", x))] = find(("R", y))
    classes = {}
    for t in parent:
        classes.setdefault(find(t), []).append(t)
    names = {"L": {}, "R": {}}
    for cls in classes.values():
        name = min("%s:%s" % t for t in cls)
        for tag, x in cls:
            names[tag][x] = name
    return names["L"], names["R"]
