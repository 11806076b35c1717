"""Pushouts, pullbacks and the initial object in the category of finite graphs.

Pushout objects are quotients of tagged disjoint unions: elements coming from
the left leg's codomain are tagged ``L:``, elements from the right leg's
codomain ``R:``, and each equivalence class is named after its
lexicographically least tagged member.  Pullback elements are pairs named
``b|a``, with ``\\`` and ``|`` inside b and a escaped.
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


def initial_morphism(g: Graph) -> GraphMorphism:
    return inclusion(EMPTY_GRAPH, g)


def pair_name(x: str, y: str) -> str:
    """The name ``x|y`` of the pullback element over the pair (x, y).

    A ``\\`` or ``|`` inside x or y is escaped by a ``\\``, so distinct
    pairs get distinct names; names without either character are joined as
    they are."""
    return "%s|%s" % (_escape(x), _escape(y))


def _escape(name: str) -> str:
    return name.replace("\\", "\\\\").replace("|", "\\|")


def tagged_quotient(left, right, glue):
    """Quotient of the tagged disjoint union of ``left`` and ``right`` by the
    pairs ``glue`` of (left member, right member).

    Returns ``(left_name, right_name)``, which map each member of either side
    to its class name: the least of the class's ``L:x`` / ``R:y`` tags.
    Every ``L:`` tag sorts before every ``R:`` tag and every glue pair has a
    left member, so a glued class is named ``L:x`` after its least left
    member x, and an unglued right member y is the class ``R:y`` alone.  A
    union-find over the left members, whose roots are the least members of
    their classes, joins those glued to a common right member.
    """
    up = {}       # left member -> a lesser member of its class; roots absent
    partner = {}  # right member -> the first left member glued to it

    def find(x):
        while x in up:
            # path halving: point x at its grandparent, then move there
            parent = up[x]
            up[x] = up.get(parent, parent)
            x = up[x]
        return x

    for x, y in glue:
        z = partner.setdefault(y, x)
        if z != x:
            rx, rz = find(x), find(z)
            if rx < rz:
                up[rz] = rx
            elif rz < rx:
                up[rx] = rz
    left_name = {x: "L:" + x for x in left}
    for x in up:  # the members that are not roots
        left_name[x] = "L:" + find(x)
    right_name = {y: left_name[partner[y]] if y in partner else "R:" + y
                  for y in right}
    return left_name, right_name


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
    left = GraphMorphism._trusted(b, d, nodes_b, edges_b)
    right = GraphMorphism._trusted(a, d, nodes_a, edges_a)
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
    left = GraphMorphism._trusted(d, b, {n: p[0] for n, p in nodes.items()},
                                  {e: p[0] for e, p in edges.items()})
    right = GraphMorphism._trusted(d, a, {n: p[1] for n, p in nodes.items()},
                                   {e: p[1] for e, p in edges.items()})
    return PullbackResult(d, left, right)

