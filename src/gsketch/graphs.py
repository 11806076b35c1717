"""Finite directed multigraphs and their homomorphisms.

Graphs and morphisms are immutable values; every operation returns a new
value.  Enumeration is deterministic: elements are assigned in lexicographic
order (nodes first, then edges) and candidate targets are tried in
lexicographic order.  Every enumeration goes through the generator
:func:`search`, which reads the codomain's edges through an index by their
endpoints, built once per graph on first use, and drops a partial node map as
soon as some domain edge between its nodes has no image; since only maps that
no homomorphism extends are dropped, this canonical order is kept.  Callers
that need only the first result draw it from :func:`search` or
:func:`iter_extensions`; the ``enumerate_*`` functions list every result.
"""
from __future__ import annotations

from itertools import product
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping


class MismatchError(ValueError):
    """Endpoints of morphisms or constructions do not line up."""


class NotInvertibleError(ValueError):
    """invert() was called on a morphism that is not an isomorphism."""


class Graph:
    """A finite directed multigraph with string-named nodes and edges.

    A graph is its four fields: ``==`` compares them, and the hash is that
    of the node and edge sets, whose own hashes frozenset caches.  ``src``
    and ``tgt`` are read-only views of private copies.  The index that
    :func:`search` reads when the graph is a codomain is built on first use
    and kept in a private slot that equality, hashing and ``repr`` ignore.

    Every value is a graph: ``src`` and ``tgt`` are keyed by exactly the
    edges, every endpoint is a node, and no name is both a node and an edge.
    The constructor raises ``ValueError`` otherwise, naming the least
    offending element.
    """

    __slots__ = ("nodes", "edges", "src", "tgt", "_index")

    def __init__(self, nodes: Iterable[str], edges: Iterable[str],
                 src: Mapping[str, str], tgt: Mapping[str, str]):
        nodes, edges = frozenset(nodes), frozenset(edges)
        src, tgt = dict(src), dict(tgt)
        if not (src.keys() == edges == tgt.keys()
                and nodes.issuperset(src.values())
                and nodes.issuperset(tgt.values())
                and nodes.isdisjoint(edges)):
            raise ValueError(_first_problem(nodes, edges, src, tgt))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "src", MappingProxyType(src))
        object.__setattr__(self, "tgt", MappingProxyType(tgt))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Graph) and self.nodes == other.nodes
            and self.edges == other.edges and self.src == other.src
            and self.tgt == other.tgt)

    def __hash__(self):
        return hash((self.nodes, self.edges))

    def __repr__(self):
        edges = ", ".join("%s:%s->%s" % (e, self.src[e], self.tgt[e])
                          for e in sorted(self.edges))
        return "Graph([%s], [%s])" % (" ".join(sorted(self.nodes)), edges)

    def is_empty(self) -> bool:
        return not self.nodes and not self.edges

    def _search_index(self):
        """``(between, succ, pred, nodes)``: the sorted edges between each
        (source, target) pair that has one, the sorted successors and
        predecessors of each node along those pairs, and the sorted nodes.
        Shared by every search into this graph, so never mutated."""
        try:
            return self._index
        except AttributeError:
            between: dict = {}
            for e in sorted(self.edges):
                between.setdefault((self.src[e], self.tgt[e]), []).append(e)
            succ: dict = {}
            pred: dict = {}
            for s, t in sorted(between):
                succ.setdefault(s, []).append(t)
                pred.setdefault(t, []).append(s)
            index = (between, succ, pred, sorted(self.nodes))
            object.__setattr__(self, "_index", index)
            return index


def _first_problem(nodes: frozenset, edges: frozenset, src: dict,
                   tgt: dict) -> str:
    """Why these fields are not a graph, naming the least offending element
    of the first invariant, in the order :class:`Graph` lists them, that
    fails."""
    for ends, side in ((src, "source"), (tgt, "target")):
        name = min(edges ^ ends.keys(), default=None)
        if name is not None:
            return ("edge %r has no %s" % (name, side) if name in edges else
                    "the %s map names %r, which is not an edge" % (side, name))
    for e in sorted(edges):
        for ends, side in ((src, "source"), (tgt, "target")):
            if ends[e] not in nodes:
                return "edge %r has dangling %s %r" % (e, side, ends[e])
    return "name %r is both a node and an edge" % min(nodes & edges)


EMPTY_GRAPH = Graph((), (), {}, {})


def graph_of(nodes: str = "", edges: str = "") -> Graph:
    """Build a graph from compact literals: ``graph_of("1 2", "a:1->2 b:1->2")``.

    Edge endpoints are added to the node set automatically.
    """
    node_set = set(nodes.split())
    src, tgt, edge_set = {}, {}, set()
    for item in edges.split():
        name, arrow = item.split(":", 1)
        s, t = arrow.split("->", 1)
        edge_set.add(name)
        src[name], tgt[name] = s, t
        node_set.add(s)
        node_set.add(t)
    return Graph(node_set, edge_set, src, tgt)


class GraphMorphism:
    """A graph homomorphism: total node and edge maps respecting incidence.

    ``node_map`` and ``edge_map`` are read-only views of private copies.
    Equality compares the maps and the endpoints, and so does the hash.

    The constructor raises ``MismatchError`` on maps that are not total on
    the domain, leave the codomain or break incidence, naming the least
    offending element; nodes are checked first, and incidence last.
    """

    __slots__ = ("dom", "cod", "node_map", "edge_map")

    def __init__(self, dom: Graph, cod: Graph,
                 node_map: Mapping[str, str], edge_map: Mapping[str, str]):
        for kind, xs, m, targets in (("node", dom.nodes, node_map, cod.nodes),
                                     ("edge", dom.edges, edge_map, cod.edges)):
            for x in sorted(xs):
                if x not in m:
                    raise MismatchError("%s %r of the domain is unmapped"
                                        % (kind, x))
                if m[x] not in targets:
                    raise MismatchError("%s %r maps outside the codomain"
                                        % (kind, x))
            # every element of the domain is a key, so a longer map has others
            if len(m) != len(xs):
                raise MismatchError("the %s map names %r, which is not in the "
                                    "domain" % (kind, min(m.keys() - xs)))
        for e in sorted(dom.edges):
            if node_map[dom.src[e]] != cod.src[edge_map[e]] or \
               node_map[dom.tgt[e]] != cod.tgt[edge_map[e]]:
                raise MismatchError(
                    "edge %r: image does not respect source/target" % e)
        self._own(dom, cod, dict(node_map), dict(edge_map))

    @classmethod
    def _trusted(cls, dom: Graph, cod: Graph, node_map: dict,
                 edge_map: dict) -> "GraphMorphism":
        """The morphism with these maps, unchecked and uncopied: the caller
        guarantees that they are keyed by exactly the elements of ``dom``,
        respect incidence, and are not changed afterwards."""
        m = object.__new__(cls)
        m._own(dom, cod, node_map, edge_map)
        return m

    def _own(self, dom, cod, node_map, edge_map):
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "node_map", MappingProxyType(node_map))
        object.__setattr__(self, "edge_map", MappingProxyType(edge_map))

    def __setattr__(self, name, value):
        raise AttributeError("GraphMorphism is immutable")

    def __eq__(self, other):
        return isinstance(other, GraphMorphism) and (
            self is other or (self.node_map == other.node_map
                              and self.edge_map == other.edge_map
                              and self.dom == other.dom
                              and self.cod == other.cod))

    def __hash__(self):
        return hash((self.dom, self.cod, frozenset(self.node_map.items()),
                     frozenset(self.edge_map.items())))

    def __repr__(self):
        entries = ["%s->%s" % kv for kv in sorted(self.node_map.items())]
        entries += ["%s->%s" % kv for kv in sorted(self.edge_map.items())]
        return "GraphMorphism{%s}" % ", ".join(entries)


def morphism_of(dom: Graph, cod: Graph, nodes: Mapping[str, str] = None,
                edges: Mapping[str, str] = None) -> GraphMorphism:
    """Build a morphism, inferring node images from edge assignments.

    Node entries may be omitted when forced by an incident edge; genuinely
    isolated unmapped nodes are an error, and so is every unmapped edge.
    Maps that pass the checks here and make a morphism are built unchecked;
    the others go through the :class:`GraphMorphism` constructor, which
    names the first offending element.
    """
    node_map = dict(nodes or {})
    edge_map = dict(edges or {})
    for n in node_map:
        if n not in dom.nodes:
            raise MismatchError("unknown node %r in assignment" % n)
    for e, img in edge_map.items():
        if e not in dom.edges:
            raise MismatchError("unknown edge %r in assignment" % e)
        if img not in cod.edges:
            raise MismatchError("edge %r maps to unknown edge %r" % (e, img))
        for end, cend in ((dom.src[e], cod.src[img]), (dom.tgt[e], cod.tgt[img])):
            if node_map.setdefault(end, cend) != cend:
                raise MismatchError(
                    "conflicting node image for %r forced by edge %r" % (end, e))
    missing = sorted(dom.nodes - node_map.keys())
    if missing:
        raise MismatchError("isolated nodes need explicit images: %s"
                            % ", ".join(missing))
    # the keys are exactly dom's nodes and a subset of its edges, and an
    # edge's image is in cod and forced its endpoints' images; any other
    # failure is the constructor's to name
    if (cod.nodes.issuperset(node_map.values())
            and len(edge_map) == len(dom.edges)):
        return GraphMorphism._trusted(dom, cod, node_map, edge_map)
    return GraphMorphism(dom, cod, node_map, edge_map)


def inclusion(small: Graph, big: Graph) -> GraphMorphism:
    """The morphism small -> big that maps every element to itself.  It is
    built unchecked when ``small`` is a subgraph of ``big``, and otherwise
    through the constructor, which names the first offending element."""
    node_map = {n: n for n in small.nodes}
    edge_map = {e: e for e in small.edges}
    if small is big or (small.nodes <= big.nodes
                        and small.src.items() <= big.src.items()
                        and small.tgt.items() <= big.tgt.items()):
        return GraphMorphism._trusted(small, big, node_map, edge_map)
    return GraphMorphism(small, big, node_map, edge_map)


def identity(g: Graph) -> GraphMorphism:
    return inclusion(g, g)


def compose(f: GraphMorphism, g: GraphMorphism) -> GraphMorphism:
    """Return f;g (apply f first)."""
    if f.cod != g.dom:
        raise MismatchError("cannot compose: codomain of f differs from domain of g")
    return GraphMorphism._trusted(
        f.dom, g.cod,
        {n: g.node_map[f.node_map[n]] for n in f.dom.nodes},
        {e: g.edge_map[f.edge_map[e]] for e in f.dom.edges})


def is_monomorphism(m: GraphMorphism) -> bool:
    return (len(set(m.node_map.values())) == len(m.dom.nodes)
            and len(set(m.edge_map.values())) == len(m.dom.edges))


def is_isomorphism(m: GraphMorphism) -> bool:
    return (len(m.dom.nodes) == len(m.cod.nodes)
            and len(m.dom.edges) == len(m.cod.edges)
            and is_monomorphism(m))


def invert(m: GraphMorphism) -> GraphMorphism:
    if not is_isomorphism(m):
        raise NotInvertibleError("morphism is not an isomorphism")
    return GraphMorphism._trusted(
        m.cod, m.dom,
        {v: k for k, v in m.node_map.items()},
        {v: k for k, v in m.edge_map.items()})


def search(dom: Graph, cod: Graph, node_seed: Mapping[str, str],
           edge_seed: Mapping[str, str]) -> Iterator[GraphMorphism]:
    """Backtracking enumeration of all homomorphisms extending a partial map,
    drawn one at a time.

    Yields in canonical order: dom elements are assigned in lexicographic
    order, nodes before edges, candidate targets in lexicographic order.
    A seed for a node or edge name outside dom is ignored; a seed image
    outside the codomain, or seeds that disagree, give nothing.

    The codomain edges are read through ``cod``'s index by (source,
    target), built on the first search into ``cod``.  A node image is
    rejected as soon as some dom edge between placed nodes (seeded ones or
    earlier in the order) has no codomain edge between their images; a node
    joined by an edge to an earlier-placed one only tries the sorted
    neighbours of that one's image.  An edge slot iterates the sorted index
    entry of its endpoint images.  Only partial maps that no homomorphism
    extends are skipped, so the output is the same list, in the same order,
    as trying every node map.
    """
    node_map: dict = {}
    edge_map: dict = {}

    for n, img in node_seed.items():
        if img not in cod.nodes:
            return
        if n in dom.nodes:
            node_map[n] = img
    for e, img in edge_seed.items():
        if img not in cod.edges:
            return
        if e not in dom.edges:
            continue
        # seeded edges force their endpoints
        for end, cend in ((dom.src[e], cod.src[img]), (dom.tgt[e], cod.tgt[img])):
            if node_map.setdefault(end, cend) != cend:
                return
        edge_map[e] = img

    between, succ, pred, cod_nodes = cod._search_index()
    free_nodes = [n for n in sorted(dom.nodes) if n not in node_map]
    free_edges = [e for e in sorted(dom.edges) if e not in edge_map]
    # checks[i]: endpoint pairs of the dom edges placed with free_nodes[i]
    position = {n: i for i, n in enumerate(free_nodes)}
    checks: list = [{} for _ in free_nodes]
    for e in sorted(dom.edges):
        s, t = dom.src[e], dom.tgt[e]
        i = max(position.get(s, -1), position.get(t, -1))
        if i >= 0:
            checks[i][s, t] = None
        elif (node_map[s], node_map[t]) not in between:
            return
    # where the images of free_nodes[i] come from: the successors or the
    # predecessors of an earlier node's image, or every codomain node
    via = [next(((succ, s) if t == n else (pred, t)
                 for s, t in pairs if (s == n) != (t == n)), (None, None))
           for n, pairs in zip(free_nodes, checks)]

    def place(i: int) -> Iterator[GraphMorphism]:
        if i == len(free_nodes):
            buckets = [between[node_map[dom.src[e]], node_map[dom.tgt[e]]]
                       for e in free_edges]
            for images in product(*buckets):
                edge_map.update(zip(free_edges, images))
                # keyed by exactly dom, and every edge image joins the
                # images of its endpoints
                yield GraphMorphism._trusted(dom, cod, dict(node_map),
                                             dict(edge_map))
            return
        n, pairs, (adjacent, other) = free_nodes[i], checks[i], via[i]
        images = cod_nodes if adjacent is None else adjacent.get(node_map[other], ())
        for img in images:
            node_map[n] = img
            if all((node_map[s], node_map[t]) in between for s, t in pairs):
                yield from place(i + 1)
        node_map.pop(n, None)

    try:
        yield from place(0)
    finally:
        # place refers to itself; unbinding it frees this search's partial
        # maps and tables as soon as the search ends or is dropped, rather
        # than at the next run of the cyclic garbage collector
        del place


def enumerate_morphisms(a: Graph, g: Graph) -> list:
    """All graph homomorphisms a -> g in canonical order."""
    return list(search(a, g, {}, {}))


def enumerate_morphisms_extending(dom: Graph, cod: Graph,
                                  node_seed: Mapping[str, str],
                                  edge_seed: Mapping[str, str]) -> list:
    """All homomorphisms dom -> cod extending the given partial assignment."""
    return list(search(dom, cod, node_seed, edge_seed))


def iter_extensions(a: GraphMorphism,
                    t: GraphMorphism) -> Iterator[GraphMorphism]:
    """The r: M -> G with a;r = t, for a: K -> M and t: K -> G, drawn one at
    a time in canonical order.  The domains are compared at once, before
    the first draw."""
    if a.dom != t.dom:
        raise MismatchError("extension enumeration needs a common domain")
    node_seed: dict = {}
    edge_seed: dict = {}
    for k, img in a.node_map.items():
        if node_seed.setdefault(img, t.node_map[k]) != t.node_map[k]:
            return iter(())
    for k, img in a.edge_map.items():
        if edge_seed.setdefault(img, t.edge_map[k]) != t.edge_map[k]:
            return iter(())
    return search(a.cod, t.cod, node_seed, edge_seed)


def enumerate_extensions(a: GraphMorphism, t: GraphMorphism) -> list:
    """All r: M -> G with a;r = t, for a: K -> M and t: K -> G."""
    return list(iter_extensions(a, t))
