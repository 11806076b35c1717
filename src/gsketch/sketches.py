"""Footprints, statements, sketches and sketch morphisms.

A statement is an atomic constraint: a predicate symbol together with a
binding morphism from its arity graph into a context.  Over a fixed context
the binding is given by its images, so a statement's key is the tuple of
node images and the tuple of edge images, in the sorted order of the arity's
nodes and edges.  Stm(phi) has one implementation, ``translate_key``, which
maps a key by looking each image up in phi; statements and indexes are
both translated through it.  A sketch is a context plus a set of
statements, of which it stores only the index from each predicate to the
keys of its statements; sketch morphisms preserve statements.  Sketch-level
pushouts and pullbacks are derived from the graph-level ones and read and
write that index.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable

from .category import pair_name, pullback, pushout
from .graphs import Graph, GraphMorphism, MismatchError


@dataclass(frozen=True)
class PredicateSymbol:
    name: str
    arity: Graph

    # The hash and ``order`` are built on first use and kept on the
    # instance; equality and hashing still see only the fields.
    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.name, self.arity))
            object.__setattr__(self, "_hash", h)
            return h

    @cached_property
    def order(self):
        """The arity's nodes and its edges, each sorted: the positions of a
        statement key."""
        return tuple(sorted(self.arity.nodes)), tuple(sorted(self.arity.edges))


class Footprint:
    __slots__ = ("predicates", "_by_name")

    def __init__(self, predicates: Iterable[PredicateSymbol]):
        predicates = frozenset(predicates)
        by_name = {}
        for p in predicates:
            if p.name in by_name:
                raise ValueError("duplicate predicate name %r" % p.name)
            by_name[p.name] = p
        object.__setattr__(self, "predicates", predicates)
        object.__setattr__(self, "_by_name", by_name)

    def __setattr__(self, name, value):
        raise AttributeError("Footprint is immutable")

    def __getitem__(self, name: str) -> PredicateSymbol:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(sorted(self.predicates, key=lambda p: p.name))

    def __eq__(self, other):
        return isinstance(other, Footprint) and self.predicates == other.predicates

    def __hash__(self):
        return hash(self.predicates)


@dataclass(frozen=True)
class Statement:
    predicate: PredicateSymbol
    binding: GraphMorphism  # arity -> context

    def __post_init__(self):
        if self.binding.dom != self.predicate.arity:
            raise MismatchError(
                "binding domain differs from the arity of %r" % self.predicate.name)

    @property
    def context(self) -> Graph:
        return self.binding.cod

    @cached_property
    def key(self):
        """The binding's images of the arity's nodes and of its edges, in
        the predicate's ``order``: the statement's entry in the index of a
        sketch over its context.  Kept on the instance once built."""
        nodes, edges = self.predicate.order
        return (tuple(map(self.binding.node_map.__getitem__, nodes)),
                tuple(map(self.binding.edge_map.__getitem__, edges)))


def statement_key(s: Statement):
    """Canonical ordering key: predicate name, then the sorted binding maps."""
    (nodes, edges), (images, edge_images) = s.predicate.order, s.key
    return (s.predicate.name, tuple(zip(nodes, images)),
            tuple(zip(edges, edge_images)))


def translate_key(phi: GraphMorphism, key):
    """Stm(phi) on keys: the key of the statement with this key translated
    along phi."""
    nodes, edges = key
    return (tuple(map(phi.node_map.__getitem__, nodes)),
            tuple(map(phi.edge_map.__getitem__, edges)))


def translate_index(phi: GraphMorphism, index, into=None) -> dict:
    """Stm(phi) on a whole index: each predicate's keys translated along
    phi, joined to its keys in the index ``into`` when that is given."""
    out = dict(into or ())
    for p, keys in index.items():
        out[p] = out.get(p, frozenset()).union(
            translate_key(phi, key) for key in keys)
    return out


def _statement_at(p: PredicateSymbol, context: Graph, key) -> Statement:
    """The statement of ``p`` over ``context`` with this key, unchecked: the
    key's images must form a binding of the arity into ``context``.  The
    statement keeps the key it was given."""
    nodes, edges = p.order
    return unchecked(Statement, predicate=p, key=key,
                     binding=GraphMorphism._trusted(
                         p.arity, context, dict(zip(nodes, key[0])),
                         dict(zip(edges, key[1]))))


class Sketch:
    """A context and a set of statements bound in it.

    The sketch stores only ``index``, a read-only map from each predicate
    to the frozenset of the keys of its statements, built once.
    ``statements``, the frozenset of the statements themselves, is built
    from the index on each read.  ``==`` and the hash read the context and
    the index.
    """

    __slots__ = ("context", "index")

    def __init__(self, context: Graph, statements: Iterable[Statement] = ()):
        index = {}
        for s in statements:
            if s.context != context:
                raise MismatchError(
                    "statement %r is not bound in the sketch context"
                    % s.predicate.name)
            index.setdefault(s.predicate, set()).add(s.key)
        self._own(context, index)

    @classmethod
    def _from_index(cls, context: Graph, index: dict) -> "Sketch":
        """The sketch with these statement keys, unchecked: the caller
        guarantees that each key is a binding of its predicate's arity into
        ``context`` and that no key set is empty."""
        sketch = object.__new__(cls)
        sketch._own(context, index)
        return sketch

    def _own(self, context, index):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "index", MappingProxyType(
            {p: frozenset(keys) for p, keys in index.items()}))

    def __setattr__(self, name, value):
        raise AttributeError("Sketch is immutable")

    @property
    def statements(self) -> frozenset:
        return frozenset(_statement_at(p, self.context, key)
                         for p, keys in self.index.items() for key in keys)

    def holds(self, p: PredicateSymbol, key) -> bool:
        """True iff the statement of ``p`` with this key is in the sketch."""
        keys = self.index.get(p)
        return keys is not None and key in keys

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Sketch) and self.context == other.context
            and self.index == other.index)

    def __hash__(self):
        return hash((self.context, frozenset(self.index.items())))

    def sorted_statements(self) -> list:
        return sorted(self.statements, key=statement_key)

    def __repr__(self):
        return "Sketch(%r, %d statements)" % (
            self.context, sum(map(len, self.index.values())))


def translate_statement(phi: GraphMorphism, s: Statement) -> Statement:
    """Stm(phi)(P, b) = (P, b;phi), computed on the statement's key."""
    if s.binding.cod != phi.dom:
        raise MismatchError("statement is not bound in the morphism's domain")
    return _statement_at(s.predicate, phi.cod, translate_key(phi, s.key))


def is_sketch_morphism(phi: GraphMorphism, k: Sketch, g: Sketch) -> bool:
    """True iff phi maps every statement of k onto a statement of g."""
    if phi.dom != k.context or phi.cod != g.context:
        raise MismatchError("morphism endpoints differ from the sketch contexts")
    return all(g.holds(p, translate_key(phi, key))
               for p, keys in k.index.items() for key in keys)


def unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields``, made
    without running its ``__post_init__`` check: for values that are valid
    by construction."""
    value = object.__new__(cls)
    vars(value).update(fields)
    return value


@dataclass(frozen=True)
class SketchMorphism:
    dom: Sketch
    cod: Sketch
    morphism: GraphMorphism

    def __post_init__(self):
        if not is_sketch_morphism(self.morphism, self.dom, self.cod):
            raise MismatchError("morphism does not preserve statements")


def sketch_pushout(m: SketchMorphism, r: SketchMorphism):
    """Pushout in the category of sketches for the span B <-m- C -r-> A.

    Returns ``(D, r_star: B -> D, m_star: A -> D)``; the statement set of D
    is the union of the translated statement sets of A and B.
    """
    if m.dom != r.dom:
        raise MismatchError("sketch pushout needs a span with a common domain")
    po = pushout(m.morphism, r.morphism)
    d = Sketch._from_index(po.object, translate_index(
        po.left, m.cod.index, translate_index(po.right, r.cod.index)))
    # D holds the image of every statement of A and B
    return (d, unchecked(SketchMorphism, dom=m.cod, cod=d, morphism=po.left),
            unchecked(SketchMorphism, dom=r.cod, cod=d, morphism=po.right))


def _paired_key(kb, ka):
    """The key over a pullback object D that projects to ``kb`` in B and to
    ``ka`` in A: each position holds the pair ``b|a`` of its two images."""
    return (tuple(map(pair_name, kb[0], ka[0])),
            tuple(map(pair_name, kb[1], ka[1])))


def sketch_pullback(m: SketchMorphism, r: SketchMorphism):
    """Pullback in the category of sketches for the cospan B -m-> C <-r- A.

    Returns ``(D, left: D -> B, right: D -> A)``, in the order of
    :func:`~gsketch.category.pullback`.  The statement set of D
    is the maximal one whose projections land in the statement sets of A and
    B.  A binding into D is exactly a pair of bindings, into B and into A,
    that agree in C, so D pairs each statement of B with each statement of A
    that has the same image in C.
    """
    if m.cod != r.cod:
        raise MismatchError("sketch pullback needs a cospan with a common codomain")
    pb = pullback(m.morphism, r.morphism)
    over_c = {}
    for p, keys in r.dom.index.items():
        for ka in keys:
            over_c.setdefault((p, translate_key(r.morphism, ka)), []).append(ka)
    index = {}
    for p, keys in m.dom.index.items():
        for kb in keys:
            for ka in over_c.get((p, translate_key(m.morphism, kb)), ()):
                index.setdefault(p, set()).add(_paired_key(kb, ka))
    d = Sketch._from_index(pb.object, index)
    # each statement of D projects to the pair it was built from
    return (d, unchecked(SketchMorphism, dom=d, cod=m.dom, morphism=pb.left),
            unchecked(SketchMorphism, dom=d, cod=r.dom, morphism=pb.right))
