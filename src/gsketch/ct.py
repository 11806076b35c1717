"""The category-theory footprint, its sample sketch and conditions, the
(co)limit condition generator, and statement unfolding.

Naming scheme for generated cone contexts: apexes are "apex"/"apex2",
projection edges "p_<node>" and "q_<node>", mediators "m" (single) and
"m1"/"m2" (parallel pair).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from .category import initial_morphism
from .conditions import (Condition, Forall, Stmt, Top, conj, implication,
                         statements_conj, stmt, unguarded_exists,
                         unguarded_forall)
from .graphs import (Graph, GraphMorphism, graph_of, identity, inclusion,
                     morphism_of)
from .sketches import Footprint, PredicateSymbol, Sketch, Statement
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
class CTFixtures:
    footprint: Footprint
    graph_g: Graph
    sketch_g: Sketch
    sketch_g_prime: Sketch  # edge f and its comp statement removed
    statements: Dict[str, Statement]
    conditions: Dict[str, Condition]
    t1: GraphMorphism
    t2: GraphMorphism


def build_ct_fixtures() -> CTFixtures:
    g = graph_of("", "a:1->2 b:2->3 c:3->4 d:4->5 e:1->3 f:1->3 g:3->5")

    psi1 = comp_stmt(g, "a", "b", "e")
    psi2 = comp_stmt(g, "a", "b", "f")
    psi3 = comp_stmt(g, "c", "d", "g")
    psi4 = monic_stmt(g, "b")
    psi5 = monic_stmt(g, "g")
    sketch_g = Sketch(g, [psi1, psi2, psi3, psi4, psi5])

    g_prime = Graph(g.nodes, g.edges - {"f"},
                    {e: s for e, s in g.src.items() if e != "f"},
                    {e: t for e, t in g.tgt.items() if e != "f"})
    sketch_g_prime = Sketch(g_prime, [
        comp_stmt(g_prime, "a", "b", "e"), comp_stmt(g_prime, "c", "d", "g"),
        monic_stmt(g_prime, "b"), monic_stmt(g_prime, "g")])

    # phi1: composition is defined for a given composable pair
    k1 = graph_of("", "e1:v1->v2 e2:v2->v3")
    m1 = COMP.arity
    incl1 = morphism_of(k1, m1, edges={"e1": "e1", "e2": "e2"})
    phi1 = unguarded_exists(incl1, stmt(Statement(COMP, identity(m1))))

    # phi2: composition is always defined
    phi2 = unguarded_forall(initial_morphism(k1), phi1)

    # phi3: uniqueness of composition
    l3 = graph_of("", "e1:v1->v2 e2:v2->v3 e3:v1->v3 e4:v1->v3")
    m3 = graph_of("", "e1:v1->v2 e2:v2->v3 e:v1->v3")
    alpha3 = morphism_of(l3, m3,
                         edges={"e1": "e1", "e2": "e2", "e3": "e", "e4": "e"})
    guard3 = statements_conj(l3, [comp_stmt(l3, "e1", "e2", "e3"),
                                  comp_stmt(l3, "e1", "e2", "e4")])
    phi3 = unguarded_forall(
        initial_morphism(l3),
        implication(guard3, unguarded_exists(alpha3, Top(m3))))

    # phi4: all morphisms out of a final object are monic
    v_ctx = graph_of("v")
    ve = graph_of("", "e:v->v1")
    inner4 = unguarded_forall(morphism_of(v_ctx, ve, nodes={"v": "v"}),
                              stmt(monic_stmt(ve, "e")))
    phi4 = unguarded_forall(
        initial_morphism(v_ctx),
        implication(stmt(final_stmt(v_ctx, "v")), inner4))

    # phi5: monomorphisms are closed under composition
    tri = COMP.arity
    guard5 = statements_conj(tri, [Statement(COMP, identity(tri)),
                                   monic_stmt(tri, "e1"), monic_stmt(tri, "e2")])
    phi5 = unguarded_forall(initial_morphism(tri),
                            implication(guard5, stmt(monic_stmt(tri, "e3"))))

    # phi6: decomposition of monomorphisms
    guard6 = statements_conj(tri, [Statement(COMP, identity(tri)),
                                   monic_stmt(tri, "e3")])
    phi6 = unguarded_forall(initial_morphism(tri),
                            implication(guard6, stmt(monic_stmt(tri, "e1"))))

    # phi7: the universal property of monomorphisms
    k7 = MONIC.arity
    m7 = graph_of("", "e:v1->v2 e1:v3->v1 e2:v3->v1 e3:v3->v2")
    shift7 = morphism_of(k7, m7, edges={"e": "e"})
    guard7 = statements_conj(m7, [
        Statement(COMP, morphism_of(COMP.arity, m7,
                                    edges={"e1": "e1", "e2": "e", "e3": "e3"})),
        Statement(COMP, morphism_of(COMP.arity, m7,
                                    edges={"e1": "e2", "e2": "e", "e3": "e3"}))])
    m7p = graph_of("", "e:v1->v2 e4:v3->v1 e3:v3->v2")
    alpha7 = morphism_of(m7, m7p,
                         edges={"e": "e", "e1": "e4", "e2": "e4", "e3": "e3"})
    phi7 = Forall(k7, Top(k7), shift7,
                  implication(guard7, unguarded_exists(alpha7, Top(m7p))))

    # phi8: the universal property of final objects
    v8 = FINAL.arity
    c8 = graph_of("v v1")
    e8 = graph_of("", "e:v1->v")
    exist8 = unguarded_forall(
        morphism_of(v8, c8, nodes={"v": "v"}),
        unguarded_exists(morphism_of(c8, e8, nodes={"v": "v", "v1": "v1"}),
                         Top(e8)))
    p8 = graph_of("", "e1:v1->v e2:v1->v")
    alpha8 = morphism_of(p8, e8, edges={"e1": "e", "e2": "e"})
    unique8 = unguarded_forall(morphism_of(v8, p8, nodes={"v": "v"}),
                               unguarded_exists(alpha8, Top(e8)))
    phi8 = conj(v8, (exist8, unique8))

    t1 = morphism_of(k1, g, edges={"e1": "a", "e2": "b"})
    t2 = morphism_of(k1, g, edges={"e1": "b", "e2": "c"})

    return CTFixtures(
        footprint=CT_FOOTPRINT, graph_g=g, sketch_g=sketch_g,
        sketch_g_prime=sketch_g_prime,
        statements={"psi1": psi1, "psi2": psi2, "psi3": psi3,
                    "psi4": psi4, "psi5": psi5},
        conditions={"phi1": phi1, "phi2": phi2, "phi3": phi3, "phi4": phi4,
                    "phi5": phi5, "phi6": phi6, "phi7": phi7, "phi8": phi8},
        t1=t1, t2=t2)


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
