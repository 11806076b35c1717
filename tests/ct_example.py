"""The paper's running example built by hand: the sample graph G, its
sketch and conditions phi1-phi8, and the morphisms t1, t2.

The same example is data in ``fixtures/ct``, which the CLI reads; this copy
is the independent reference that the parsed corpus is compared with.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from gsketch.category import initial_morphism
from gsketch.conditions import (Condition, Forall, Top, conj, implication,
                                statements_conj, stmt, unguarded_exists,
                                unguarded_forall)
from gsketch.ct import (COMP, CT_FOOTPRINT, FINAL, MONIC, comp_stmt,
                        final_stmt, monic_stmt)
from gsketch.graphs import Graph, GraphMorphism, graph_of, identity, morphism_of
from gsketch.sketches import Footprint, Sketch, Statement


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
