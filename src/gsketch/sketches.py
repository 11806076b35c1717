"""Footprints, statements, sketches and sketch morphisms.

A statement is an atomic constraint: a predicate symbol together with a
binding morphism from its arity graph into a context.  A sketch is a context
plus a set of statements; sketch morphisms preserve statements.  Sketch-level
pushouts and pullbacks are derived from the graph-level ones, including the
multi-sketch variants where statements carry identifiers.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .category import pair_name, pullback, pushout, tagged_quotient
from .graphs import (Graph, GraphMorphism, MismatchError, compose,
                     validate_graph)


@dataclass(frozen=True)
class PredicateSymbol:
    name: str
    arity: Graph

    def __post_init__(self):
        problems = validate_graph(self.arity)
        if problems:
            raise ValueError("invalid arity for %r: %s"
                             % (self.name, "; ".join(problems)))


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


def statement_key(s: Statement):
    """Canonical ordering key: predicate name, then binding maps."""
    return (s.predicate.name,
            tuple(sorted(s.binding.node_map.items())),
            tuple(sorted(s.binding.edge_map.items())))


class Sketch:
    __slots__ = ("context", "statements")

    def __init__(self, context: Graph, statements: Iterable[Statement] = ()):
        statements = frozenset(statements)
        for s in statements:
            if s.context != context:
                raise MismatchError(
                    "statement %r is not bound in the sketch context"
                    % s.predicate.name)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "statements", statements)

    def __setattr__(self, name, value):
        raise AttributeError("Sketch is immutable")

    def __eq__(self, other):
        return (isinstance(other, Sketch) and self.context == other.context
                and self.statements == other.statements)

    def __hash__(self):
        return hash((self.context, self.statements))

    def sorted_statements(self) -> list:
        return sorted(self.statements, key=statement_key)

    def __repr__(self):
        return "Sketch(%r, %d statements)" % (self.context, len(self.statements))


def translate_statement(phi: GraphMorphism, s: Statement) -> Statement:
    """Post-compose the binding: Stm(phi)(P, b) = (P, b;phi)."""
    if s.binding.cod != phi.dom:
        raise MismatchError("statement is not bound in the morphism's domain")
    return Statement(s.predicate, compose(s.binding, phi))


def is_sketch_morphism(phi: GraphMorphism, k: Sketch, g: Sketch) -> bool:
    """True iff phi maps every statement of k onto a statement of g."""
    if phi.dom != k.context or phi.cod != g.context:
        raise MismatchError("morphism endpoints differ from the sketch contexts")
    return all(translate_statement(phi, s) in g.statements for s in k.statements)


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
    statements = {translate_statement(po.right, s) for s in r.cod.statements}
    statements |= {translate_statement(po.left, s) for s in m.cod.statements}
    d = Sketch(po.object, statements)
    # D holds the image of every statement of A and B
    return (d, unchecked(SketchMorphism, dom=m.cod, cod=d, morphism=po.left),
            unchecked(SketchMorphism, dom=r.cod, cod=d, morphism=po.right))


def paired_statement(sb: Statement, sa: Statement, d: Graph) -> Statement:
    """The statement over a pullback object D that projects to ``sb`` in B
    and to ``sa`` in A: each arity element goes to the pair ``b|a`` of its
    two images.  Both statements share a predicate, and their images in the
    cospan's codomain agree."""
    arity = sb.predicate.arity
    return Statement(sb.predicate, GraphMorphism._trusted(
        arity, d,
        {n: pair_name(sb.binding.node_map[n], sa.binding.node_map[n])
         for n in arity.nodes},
        {e: pair_name(sb.binding.edge_map[e], sa.binding.edge_map[e])
         for e in arity.edges}))


def sketch_pullback(m: SketchMorphism, r: SketchMorphism):
    """Pullback in the category of sketches for the cospan B -m-> C <-r- A.

    Returns ``(D, m_star: D -> A, r_star: D -> B)``.  The statement set of D
    is the maximal one whose projections land in the statement sets of A and
    B.  A binding into D is exactly a pair of bindings, into B and into A,
    that agree in C, so D pairs each statement of B with each statement of A
    that has the same image in C.
    """
    if m.cod != r.cod:
        raise MismatchError("sketch pullback needs a cospan with a common codomain")
    pb = pullback(m.morphism, r.morphism)
    # pb.left: D -> B, pb.right: D -> A
    over_c = {}
    for sa in r.dom.statements:
        over_c.setdefault(translate_statement(r.morphism, sa), []).append(sa)
    d = Sketch(pb.object, [
        paired_statement(sb, sa, pb.object) for sb in m.dom.statements
        for sa in over_c.get(translate_statement(m.morphism, sb), ())])
    # each statement of D projects to the pair it was built from
    return (d, unchecked(SketchMorphism, dom=d, cod=r.dom, morphism=pb.right),
            unchecked(SketchMorphism, dom=d, cod=m.dom, morphism=pb.left))


class MultiSketch:
    """A sketch whose statements carry identities (an indexed family).

    ``stm`` is a read-only view of a private copy.
    """

    __slots__ = ("context", "stm")

    def __init__(self, context: Graph, stm: Mapping[str, Statement]):
        stm = dict(stm)
        for i, s in stm.items():
            if s.context != context:
                raise MismatchError(
                    "statement %r is not bound in the multi-sketch context" % i)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "stm", MappingProxyType(stm))

    def __setattr__(self, name, value):
        raise AttributeError("MultiSketch is immutable")

    @property
    def ids(self) -> frozenset:
        return frozenset(self.stm)

    def __eq__(self, other):
        return (isinstance(other, MultiSketch) and self.context == other.context
                and self.stm == other.stm)

    def __hash__(self):
        return hash((self.context, tuple(sorted(self.stm.items(),
                                                key=lambda kv: kv[0]))))


@dataclass(frozen=True)
class MultiSketchMorphism:
    dom: MultiSketch
    cod: MultiSketch
    morphism: GraphMorphism
    id_map: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "id_map", dict(self.id_map))
        for i in self.dom.ids:
            if i not in self.id_map:
                raise MismatchError("identifier %r is unmapped" % i)
            j = self.id_map[i]
            if j not in self.cod.ids:
                raise MismatchError("identifier %r maps to unknown %r" % (i, j))
            if translate_statement(self.morphism, self.dom.stm[i]) != self.cod.stm[j]:
                raise MismatchError(
                    "identifier map is incompatible with statements at %r" % i)


def multi_pushout(m: MultiSketchMorphism, r: MultiSketchMorphism):
    """Componentwise pushout of contexts and identifier sets."""
    if m.dom is not r.dom and m.dom != r.dom:
        raise MismatchError("multi pushout needs a span with a common domain")
    po = pushout(m.morphism, r.morphism)

    # identifier-set pushout: tagged disjoint union modulo the span images
    ids_l, ids_r = tagged_quotient(
        m.cod.ids, r.cod.ids, ((m.id_map[i], r.id_map[i]) for i in m.dom.ids))
    stm = {}
    for i in m.cod.ids:
        stm[ids_l[i]] = translate_statement(po.left, m.cod.stm[i])
    for i in r.cod.ids:
        stm[ids_r[i]] = translate_statement(po.right, r.cod.stm[i])
    d = MultiSketch(po.object, stm)
    # each identifier's statement is translated along its own leg
    return (d, unchecked(MultiSketchMorphism, dom=m.cod, cod=d,
                         morphism=po.left, id_map=ids_l),
            unchecked(MultiSketchMorphism, dom=r.cod, cod=d,
                      morphism=po.right, id_map=ids_r))


def multi_pullback(m: MultiSketchMorphism, r: MultiSketchMorphism):
    """Componentwise pullback of contexts and identifier sets.

    The statement attached to a compatible identifier pair is the unique
    mediating statement, obtained by pairing the two bindings through the
    context pullback.
    """
    if m.cod != r.cod:
        raise MismatchError("multi pullback needs a cospan with a common codomain")
    pb = pullback(m.morphism, r.morphism)
    # pb.left: D -> B (= m.dom context), pb.right: D -> A (= r.dom context)
    # identified statements have one image in C, so they share a predicate
    pairs = {pair_name(i, j): (i, j)
             for i in sorted(m.dom.ids) for j in sorted(r.dom.ids)
             if m.id_map[i] == r.id_map[j]}
    d = MultiSketch(pb.object, {
        p: paired_statement(m.dom.stm[i], r.dom.stm[j], pb.object)
        for p, (i, j) in pairs.items()})
    # each paired statement projects to the two it was built from
    return (d, unchecked(MultiSketchMorphism, dom=d, cod=m.dom,
                         morphism=pb.left,
                         id_map={p: i for p, (i, _) in pairs.items()}),
            unchecked(MultiSketchMorphism, dom=d, cod=r.dom,
                      morphism=pb.right,
                      id_map={p: j for p, (_, j) in pairs.items()}))
