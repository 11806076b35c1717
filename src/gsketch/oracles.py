"""Brute-force references for the engine's fast paths; no engine module
calls them.  Each decides its property by exhaustive enumeration: the
universal properties of (co)limits over a pool of small test graphs, the
shift property of translation over sample sketches, and equality of sketches
and conditions up to renaming by a search for context isomorphisms.
"""
from __future__ import annotations

from .category import PullbackResult, PushoutResult
from .conditions import Condition, Quantifier, Stmt, satisfies
from .graphs import (GraphMorphism, compose, enumerate_extensions,
                     enumerate_morphisms, graph_of, is_isomorphism)
from .sketches import Sketch, Statement
from .translation import translate_condition


def default_test_graphs() -> list:
    """Small mediator test pool for universal-property verification."""
    return [
        graph_of(),
        graph_of("x"),
        graph_of("x y"),
        graph_of("", "k:x->y"),
        graph_of("", "k:x->x"),
        graph_of("", "k:x->y l:x->y"),
        graph_of("", "k:x->y l:y->z"),
    ]


def verify_pushout(m: GraphMorphism, r: GraphMorphism,
                   candidate: PushoutResult, test_graphs=None) -> bool:
    """Check commutativity and the pushout universal property.

    The mediator quantification runs over a finite pool of test cospans drawn
    from ``test_graphs`` (a desk-scale approximation of the full property).
    """
    if candidate.left.dom != m.cod or candidate.right.dom != r.cod:
        return False
    if compose(m, candidate.left) != compose(r, candidate.right):
        return False
    d = candidate.object
    for t in (test_graphs if test_graphs is not None else default_test_graphs()):
        homs_d = enumerate_morphisms(d, t)
        for f in enumerate_morphisms(m.cod, t):
            mf = compose(m, f)
            for g in enumerate_morphisms(r.cod, t):
                if mf != compose(r, g):
                    continue
                mediators = [u for u in homs_d
                             if compose(candidate.left, u) == f
                             and compose(candidate.right, u) == g]
                if len(mediators) != 1:
                    return False
    return True


def verify_pullback(m: GraphMorphism, r: GraphMorphism,
                    candidate: PullbackResult, test_graphs=None) -> bool:
    """Check commutativity and the pullback universal property (bounded pool)."""
    if candidate.left.cod != m.dom or candidate.right.cod != r.dom:
        return False
    if compose(candidate.left, m) != compose(candidate.right, r):
        return False
    d = candidate.object
    for t in (test_graphs if test_graphs is not None else default_test_graphs()):
        homs_d = enumerate_morphisms(t, d)
        for f in enumerate_morphisms(t, m.dom):
            fm = compose(f, m)
            for g in enumerate_morphisms(t, r.dom):
                if fm != compose(g, r):
                    continue
                mediators = [u for u in homs_d
                             if compose(u, candidate.left) == f
                             and compose(u, candidate.right) == g]
                if len(mediators) != 1:
                    return False
    return True


def shift_equivalence_oracle(c: GraphMorphism, cond: Condition,
                             sample_sketches) -> bool:
    """Semantic check of translation: for every sample sketch G and every
    t: H -> G, t satisfies the translated condition iff c;t satisfies the
    original.  Returns whether all anchors agree.
    """
    translated = translate_condition(c, cond)
    return all(satisfies(t, g, translated).holds
               == satisfies(compose(c, t), g, cond).holds
               for g in sample_sketches
               for t in enumerate_morphisms(c.cod, g.context))


def isomorphisms(candidates):
    """The isomorphisms among the candidate morphisms, in their order."""
    return (m for m in candidates if is_isomorphism(m))


def composed_statement(phi: GraphMorphism, s: Statement) -> Statement:
    """Stm(phi) by its definition, (P, b) |-> (P, b;phi): the reference for
    the engine's translation of statement keys."""
    return Statement(s.predicate, compose(s.binding, phi))


def sketches_isomorphic(a: Sketch, b: Sketch) -> bool:
    """True iff some context isomorphism maps the statement sets bijectively."""
    sa, sb = a.statements, b.statements
    if len(sa) != len(sb):
        return False
    return any({composed_statement(phi, s) for s in sa} == sb
               for phi in isomorphisms(enumerate_morphisms(a.context,
                                                           b.context)))


def conditions_equal_modulo_renaming(a: Condition, b: Condition) -> bool:
    """Structural equality of two conditions up to consistent renaming of all
    context elements.

    Walks both trees in parallel; quantifier shifts force partial
    correspondences between the codomain contexts, and remaining elements are
    matched by a bounded isomorphism search.
    """
    def walk(na, nb, corr):
        # corr: GraphMorphism a.context -> b.context (an isomorphism)
        if type(na) is not type(nb):
            return False
        if isinstance(na, Stmt):
            sa, sb = na.statement, nb.statement
            return (sa.predicate == sb.predicate
                    and compose(sa.binding, corr) == sb.binding)
        if isinstance(na, Quantifier):
            if not walk(na.guard, nb.guard, corr):
                return False
            # the body correspondences extend corr along the two shifts
            return any(walk(na.body, nb.body, corr2)
                       for corr2 in isomorphisms(enumerate_extensions(
                           na.shift, compose(corr, nb.shift))))
        subs_a, subs_b = na.subconditions(), nb.subconditions()
        return len(subs_a) == len(subs_b) and all(
            walk(x, y, corr) for x, y in zip(subs_a, subs_b))

    return any(walk(a, b, corr) for corr in isomorphisms(
        enumerate_morphisms(a.context, b.context)))
