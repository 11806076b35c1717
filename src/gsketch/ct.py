"""The category-theory footprint, statement helpers, the (co)limit
condition generator, and statement unfolding.

Naming scheme for generated cone contexts: apexes are "apex"/"apex2",
projection edges "p_<node>" and "q_<node>", mediators "m" (single) and
"m1"/"m2" (parallel pair).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .conditions import (Condition, Stmt, Top, conj, implication,
                         statements_conj, unguarded_exists, unguarded_forall)
from .graphs import Graph, GraphMorphism, graph_of, inclusion, morphism_of
from .sketches import Footprint, PredicateSymbol, Statement
from .translation import translate_condition

COMP = PredicateSymbol("comp", graph_of("", "e1:v1->v2 e2:v2->v3 e3:v1->v3"))
ID = PredicateSymbol("id", graph_of("", "e:v->v"))
MONIC = PredicateSymbol("monic", graph_of("", "e:v1->v2"))
FINAL = PredicateSymbol("final", graph_of("v"))

CT_FOOTPRINT = Footprint([COMP, ID, MONIC, FINAL])


def comp_stmt(context: Graph, e1: str, e2: str, e3: str) -> Statement:
    return Statement(COMP, morphism_of(COMP.arity, context,
                                       edges={"e1": e1, "e2": e2, "e3": e3}))


def monic_stmt(context: Graph, e: str) -> Statement:
    return Statement(MONIC, morphism_of(MONIC.arity, context, edges={"e": e}))


def final_stmt(context: Graph, v: str) -> Statement:
    return Statement(FINAL, morphism_of(FINAL.arity, context, nodes={"v": v}))


@dataclass(frozen=True)
class ConeContexts:
    base: Graph           # shape plus one (co)cone
    double: Graph         # shape plus two (co)cones
    one_mediator: Graph   # double plus a single mediator edge
    two_mediators: Graph  # double plus two parallel mediator edges
    include_double: GraphMorphism        # base -> double
    include_one: GraphMorphism           # double -> one_mediator
    include_two: GraphMorphism           # base -> two_mediators
    merge_mediators: GraphMorphism       # two_mediators -> one_mediator


def _extend(g: Graph, nodes=(), edges=()) -> Graph:
    src = dict(g.src)
    tgt = dict(g.tgt)
    names = set(g.edges)
    for name, s, t in edges:
        names.add(name)
        src[name], tgt[name] = s, t
    return Graph(set(g.nodes) | set(nodes), names, src, tgt)


def cone_contexts(shape: Graph, colimit: bool = False) -> ConeContexts:
    def proj(prefix, apex, node):
        # limit cones project out of the apex, colimit cocones into it
        return ((prefix + "_" + node, apex, node) if not colimit
                else (prefix + "_" + node, node, apex))

    base = _extend(shape, ["apex"], [proj("p", "apex", n)
                                     for n in sorted(shape.nodes)])
    double = _extend(base, ["apex2"], [proj("q", "apex2", n)
                                       for n in sorted(shape.nodes)])
    med = (lambda name: (name, "apex2", "apex") if not colimit
           else (name, "apex", "apex2"))
    one = _extend(double, [], [med("m")])
    two = _extend(double, [], [med("m1"), med("m2")])
    merge = GraphMorphism(
        two, one, {n: n for n in two.nodes},
        {e: ("m" if e in ("m1", "m2") else e) for e in two.edges})
    return ConeContexts(base, double, one, two,
                        inclusion(base, double), inclusion(double, one),
                        inclusion(base, two), merge)


def _cone_commutativity(ctx: Graph, shape: Graph, prefix: str, colimit: bool):
    out = []
    for k in sorted(shape.edges):
        x, y = shape.src[k], shape.tgt[k]
        if not colimit:
            # p_y = p_x ; k
            out.append(comp_stmt(ctx, prefix + "_" + x, k, prefix + "_" + y))
        else:
            # p_x = k ; p_y
            out.append(comp_stmt(ctx, k, prefix + "_" + y, prefix + "_" + x))
    return out


def _mediator_triangles(ctx: Graph, shape: Graph, mediator: str, colimit: bool):
    out = []
    for n in sorted(shape.nodes):
        if not colimit:
            # q_n = m ; p_n
            out.append(comp_stmt(ctx, mediator, "p_" + n, "q_" + n))
        else:
            # q_n = p_n ; m
            out.append(comp_stmt(ctx, "p_" + n, mediator, "q_" + n))
    return out


def _guarded(guard_stmts, ctx, body: Condition) -> Condition:
    """Implication with the empty guard elided (empty conjunction is true)."""
    if not guard_stmts:
        return body
    return implication(statements_conj(ctx, guard_stmts), body)


def _mediator_condition(shape: Graph, colimit: bool) -> Condition:
    cc = cone_contexts(shape, colimit)
    psi1 = (_cone_commutativity(cc.double, shape, "p", colimit)
            + _cone_commutativity(cc.double, shape, "q", colimit))
    psi2 = _mediator_triangles(cc.one_mediator, shape, "m", colimit)
    exist = unguarded_forall(
        cc.include_double,
        _guarded(psi1, cc.double,
                 unguarded_exists(cc.include_one,
                                  statements_conj(cc.one_mediator, psi2)
                                  if psi2 else Top(cc.one_mediator))))
    psi3 = (_cone_commutativity(cc.two_mediators, shape, "p", colimit)
            + _cone_commutativity(cc.two_mediators, shape, "q", colimit)
            + _mediator_triangles(cc.two_mediators, shape, "m1", colimit)
            + _mediator_triangles(cc.two_mediators, shape, "m2", colimit))
    unique = unguarded_forall(
        cc.include_two,
        _guarded(psi3, cc.two_mediators,
                 unguarded_exists(cc.merge_mediators, Top(cc.one_mediator))))
    return conj(cc.base, (exist, unique))


def limit_condition(shape: Graph) -> Condition:
    """Existence-and-uniqueness-of-mediators condition for limits of a shape."""
    return _mediator_condition(shape, colimit=False)


def colimit_condition(shape: Graph) -> Condition:
    """The formal dual: mediator condition for colimits of a shape."""
    return _mediator_condition(shape, colimit=True)


def unfold(cond: Condition, defs: Mapping[PredicateSymbol, Condition]) -> Condition:
    """Replace statement leaves of the mapped predicates by their defining
    conditions, translated along the statement bindings.

    Each defining condition must live over its predicate's arity.  One pass:
    predicates occurring inside definitions are not unfolded recursively.
    """
    for p, d in defs.items():
        if d.context != p.arity:
            raise ValueError("definition for %r must live over its arity" % p.name)

    def walk(node):
        if isinstance(node, Stmt):
            d = defs.get(node.statement.predicate)
            if d is None:
                return node
            return translate_condition(node.statement.binding, d)
        return node.rebuild(node.context,
                            [walk(x) for x in node.subconditions()])

    return walk(cond)
