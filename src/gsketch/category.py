"""Pushouts, pullbacks and the initial object in the category of finite graphs.

Pushout objects are quotients of tagged disjoint unions: elements coming from
the left leg's codomain are tagged ``L:``, elements from the right leg's
codomain ``R:``, and each equivalence class is named after its
lexicographically least tagged member.  Pullback elements are pairs named
``b|a``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import (EMPTY_GRAPH, Graph, GraphMorphism, MismatchError,
                     inclusion)


@dataclass(frozen=True)
class PushoutResult:
    object: Graph
    left: GraphMorphism   # B -> D
    right: GraphMorphism  # A -> D


@dataclass(frozen=True)
class PullbackResult:
    object: Graph
    left: GraphMorphism   # D -> B
    right: GraphMorphism  # D -> A


def initial_graph() -> Graph:
    return EMPTY_GRAPH


def initial_morphism(g: Graph) -> GraphMorphism:
    return inclusion(EMPTY_GRAPH, g)


def pair_name(x: str, y: str) -> str:
    """The name ``x|y`` of the pullback element over the pair (x, y)."""
    return "%s|%s" % (x, y)


def tagged_quotient(left, right, glue):
    """Quotient of the tagged disjoint union of ``left`` and ``right`` by the
    pairs ``glue`` of (left member, right member).

    Returns ``(left_name, right_name)``, which map each member of either side
    to its class name: the least of the class's ``L:x`` / ``R:y`` tags.
    """
    class_of = {("L", x): [("L", x)] for x in left}
    class_of.update({("R", y): [("R", y)] for y in right})
    classes = list(class_of.values())
    for x, y in glue:
        big, small = class_of["L", x], class_of["R", y]
        if len(big) < len(small):
            big, small = small, big
        if big is not small:
            big.extend(small)
            class_of.update(dict.fromkeys(small, big))
            small.clear()  # so only whole classes stay non-empty
    names = {"L": {}, "R": {}}
    for cls in filter(None, classes):
        name = min("%s:%s" % tagged for tagged in cls)
        for tag, x in cls:
            names[tag][x] = name
    return names["L"], names["R"]


def pushout(m: GraphMorphism, r: GraphMorphism) -> PushoutResult:
    """Pushout of the span B <-m- C -r-> A in the category of finite graphs."""
    if m.dom != r.dom:
        raise MismatchError("pushout needs a span with a common domain")
    b, a, c = m.cod, r.cod, m.dom
    nodes_b, nodes_a = tagged_quotient(
        b.nodes, a.nodes, ((m.node_map[n], r.node_map[n]) for n in c.nodes))
    edges_b, edges_a = tagged_quotient(
        b.edges, a.edges, ((m.edge_map[e], r.edge_map[e]) for e in c.edges))
    # every member of an edge class has its endpoints in the same node classes
    src, tgt = {}, {}
    for g, edge_names, node_names in ((b, edges_b, nodes_b),
                                      (a, edges_a, nodes_a)):
        for e, name in edge_names.items():
            src[name] = node_names[g.src[e]]
            tgt[name] = node_names[g.tgt[e]]
    d = Graph(set(nodes_b.values()) | set(nodes_a.values()), set(src),
              src, tgt)
    left = GraphMorphism(b, d, nodes_b, edges_b)
    right = GraphMorphism(a, d, nodes_a, edges_a)
    return PushoutResult(d, left, right)


def pullback(m: GraphMorphism, r: GraphMorphism) -> PullbackResult:
    """Pullback of the cospan B -m-> C <-r- A: the componentwise fiber product."""
    if m.cod != r.cod:
        raise MismatchError("pullback needs a cospan with a common codomain")
    b, a = m.dom, r.dom

    nodes = {pair_name(nb, na): (nb, na)
             for nb in sorted(b.nodes) for na in sorted(a.nodes)
             if m.node_map[nb] == r.node_map[na]}
    edges = {pair_name(eb, ea): (eb, ea)
             for eb in sorted(b.edges) for ea in sorted(a.edges)
             if m.edge_map[eb] == r.edge_map[ea]}
    d = Graph(nodes, edges,
              {e: pair_name(b.src[eb], a.src[ea])
               for e, (eb, ea) in edges.items()},
              {e: pair_name(b.tgt[eb], a.tgt[ea])
               for e, (eb, ea) in edges.items()})
    left = GraphMorphism(d, b, {n: p[0] for n, p in nodes.items()},
                         {e: p[0] for e, p in edges.items()})
    right = GraphMorphism(d, a, {n: p[1] for n, p in nodes.items()},
                          {e: p[1] for e, p in edges.items()})
    return PullbackResult(d, left, right)

