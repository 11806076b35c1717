"""Hypothesis strategies shared by the test modules: small graphs, the
statements bound in a graph, and sketches built from both."""
from hypothesis import strategies as st

from gsketch.ct import COMP, FINAL, MONIC
from gsketch.graphs import Graph, enumerate_morphisms
from gsketch.sketches import Sketch, Statement


@st.composite
def small_graphs(draw, max_nodes=4, max_edges=5):
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    nodes = ["n%d" % i for i in range(n)]
    k = draw(st.integers(min_value=0, max_value=max_edges)) if n else 0
    src, tgt = {}, {}
    for i in range(k):
        src["x%d" % i] = draw(st.sampled_from(nodes))
        tgt["x%d" % i] = draw(st.sampled_from(nodes))
    return Graph(nodes, src.keys(), src, tgt)


@st.composite
def statements_over(draw, g, max_size=3):
    """Up to ``max_size`` comp, monic and final statements bound in g."""
    candidates = [Statement(p, b) for p in (COMP, MONIC, FINAL)
                  for b in enumerate_morphisms(p.arity, g)]
    if not candidates:
        return []
    return draw(st.lists(st.sampled_from(candidates), max_size=max_size))


@st.composite
def random_sketches(draw):
    """A sketch on at most 3 nodes and 4 edges with up to 4 statements."""
    g = draw(small_graphs(max_nodes=3, max_edges=4))
    return Sketch(g, draw(statements_over(g, max_size=4)))
