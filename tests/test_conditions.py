import gc
from dataclasses import fields, replace

import pytest

from gsketch.category import initial_morphism
from gsketch.conditions import (And, Bottom, Constraint, EvaluationBudgetExceeded,
                                Exists, Forall, IllFormedConditionError, Not,
                                Or, Stmt, Top, check_constraint, conj,
                                implication, is_closed, iter_violations, nuc,
                                satisfies, statements_conj, stmt, uc,
                                unguarded_exists, unguarded_forall,
                                well_formed)
from gsketch.ct import (COMP, MONIC, colimit_condition, comp_stmt,
                        limit_condition, monic_stmt)
from gsketch.deduction import find_matches, rule_from_condition
from gsketch.graphs import (compose, enumerate_morphisms, graph_of, identity,
                            morphism_of)
from gsketch.sketches import (Sketch, SketchMorphism, Statement,
                              is_sketch_morphism)
from gsketch.oracles import conditions_equal_modulo_renaming


def unchecked_node(good, **bad):
    """A node of ``good``'s kind with the fields ``bad`` in place of its
    own, built without the construction check."""
    node = object.__new__(type(good))
    for f in fields(good):
        object.__setattr__(node, f.name, bad.get(f.name, getattr(good, f.name)))
    return node


def assert_rejected(good, message, **bad):
    """``good`` is well formed, and each way of building it with ``bad``
    fields raises at construction: the constructor, ``rebuild`` and
    ``dataclasses.replace``."""
    assert well_formed(good) == []
    raw = unchecked_node(good, **bad)
    assert well_formed(raw) == [message]
    builds = [lambda: type(good)(*(getattr(raw, f.name) for f in fields(raw))),
              lambda: good.rebuild(raw.context, raw.subconditions()),
              lambda: replace(good, **bad)]
    for build in builds:
        with pytest.raises(IllFormedConditionError, match=message):
            build()


class TestWellFormed:
    def test_top_anywhere(self, fx):
        assert well_formed(Top(fx.graph_g)) == []

    def test_stmt_in_wrong_context(self, fx):
        assert_rejected(stmt(fx.statements["psi4"]),
                        "statement bound outside its context",
                        context=graph_of("x"))

    @pytest.mark.parametrize("kind", [And, Or])
    def test_junction_child_in_wrong_context(self, fx, kind):
        g = fx.graph_g
        assert_rejected(kind(g, (stmt(fx.statements["psi4"]), Top(g))),
                        "child context differs from parent",
                        children=(stmt(fx.statements["psi4"]),
                                  Top(graph_of("x"))))

    def test_negated_child_in_wrong_context(self, fx):
        assert_rejected(Not(fx.graph_g, stmt(fx.statements["psi4"])),
                        "child context differs from parent",
                        child=Top(graph_of("x")))

    def test_phi2_well_formed(self, fx):
        assert well_formed(fx.conditions["phi2"]) == []
        assert is_closed(fx.conditions["phi2"])

    def test_shift_domain_mismatch(self, fx):
        g, x = fx.graph_g, graph_of("x")
        # rebuild keeps the shift, so it meets the mismatch through the
        # new context
        assert_rejected(Exists(g, Top(g), identity(g), Top(g)),
                        "shift domain differs from context",
                        context=x, guard=Top(x))

    def test_guard_in_wrong_context(self, fx):
        g = fx.graph_g
        assert_rejected(Forall(g, Top(g), identity(g), Top(g)),
                        "guard context differs from context",
                        guard=Top(graph_of("x")))

    def test_body_off_the_shift_codomain(self, fx):
        phi1 = fx.conditions["phi1"]
        assert_rejected(phi1, "body not over the shift codomain",
                        body=Top(phi1.context))

    def test_leaves_no_reference_cycle(self, fx):
        # neither a rejected construction nor the rule matching leaves
        # anything for the collector
        r = rule_from_condition(fx.conditions["phi3"])
        gc.collect()
        gc.disable()
        try:
            with pytest.raises(IllFormedConditionError):
                Stmt(graph_of("x"), fx.statements["psi4"])
            assert len(find_matches(r, fx.sketch_g)) == 2
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSatisfactionClauses:
    def test_stmt_clause(self, fx):
        arrow = MONIC.arity
        c = stmt(Statement(MONIC, identity(arrow)))
        on_b = morphism_of(arrow, fx.graph_g, edges={"e": "b"})
        on_a = morphism_of(arrow, fx.graph_g, edges={"e": "a"})
        assert satisfies(on_b, fx.sketch_g, c).holds
        assert not satisfies(on_a, fx.sketch_g, c).holds

    def test_truth_constants(self, fx):
        t = initial_morphism(fx.graph_g)
        empty = t.dom
        assert satisfies(t, fx.sketch_g, Top(empty)).holds
        assert not satisfies(t, fx.sketch_g, Bottom(empty)).holds

    def test_empty_and_is_true_empty_or_is_false(self, fx):
        t = initial_morphism(fx.graph_g)
        empty = t.dom
        assert satisfies(t, fx.sketch_g, And(empty, ())).holds
        assert not satisfies(t, fx.sketch_g, Or(empty, ())).holds

    def test_not_is_complement(self, fx):
        t = initial_morphism(fx.graph_g)
        empty = t.dom
        assert not satisfies(t, fx.sketch_g, Not(empty, Top(empty))).holds

    def test_failed_guard_satisfies_both_quantifiers(self, fx):
        empty = initial_morphism(fx.graph_g).dom
        ex = Exists(empty, Bottom(empty), identity(empty), Bottom(empty))
        fa = Forall(empty, Bottom(empty), identity(empty), Bottom(empty))
        t = initial_morphism(fx.graph_g)
        assert satisfies(t, fx.sketch_g, ex).holds
        assert satisfies(t, fx.sketch_g, fa).holds

    def test_exists_witness_is_first_in_canonical_order(self, fx):
        v = satisfies(fx.t1, fx.sketch_g, fx.conditions["phi1"])
        assert v.holds
        assert v.witness.edge_map["e3"] == "e"  # 'e' precedes 'f'

    def test_forall_counterexample_is_first_violation(self, fx):
        v = satisfies(initial_morphism(fx.graph_g), fx.sketch_g,
                      fx.conditions["phi6"])
        assert not v.holds
        assert v.counterexample.edge_map == {"e1": "c", "e2": "d", "e3": "g"}

    def test_anchor_endpoint_check(self, fx):
        with pytest.raises(Exception):
            satisfies(fx.t1, fx.sketch_g, fx.conditions["phi2"])


class TestExampleFacts:
    def test_phi1_t1_holds(self, fx):
        assert satisfies(fx.t1, fx.sketch_g, fx.conditions["phi1"]).holds

    def test_phi1_t2_fails(self, fx):
        assert not satisfies(fx.t2, fx.sketch_g, fx.conditions["phi1"]).holds

    def test_global_facts(self, fx):
        bang = initial_morphism(fx.graph_g)
        expected = {"phi2": False, "phi3": False, "phi4": True,
                    "phi5": True, "phi6": False}
        for name, want in expected.items():
            k = Constraint(fx.conditions[name], bang)
            assert check_constraint(fx.sketch_g, k).holds is want, name

    def test_phi6_unique_counterexample(self, fx):
        cond = fx.conditions["phi6"]
        bad = list(iter_violations(initial_morphism(fx.graph_g),
                                   fx.sketch_g, cond))
        assert len(bad) == 1
        assert bad[0].edge_map == {"e1": "c", "e2": "d", "e3": "g"}

    def test_g_prime_satisfies_phi3(self, fx):
        gp = fx.sketch_g_prime
        k = Constraint(fx.conditions["phi3"], initial_morphism(gp.context))
        assert check_constraint(gp, k).holds


class TestImplication:
    def test_sides_over_different_contexts(self, fx):
        with pytest.raises(IllFormedConditionError):
            implication(Top(graph_of("x")), Top(fx.graph_g))

    def test_false_premise(self, fx):
        empty = initial_morphism(fx.graph_g).dom
        c = implication(Bottom(empty), Bottom(empty))
        assert satisfies(initial_morphism(fx.graph_g), fx.sketch_g, c).holds

    def test_true_premise_with_present_statement(self, fx):
        arrow = MONIC.arity
        c = implication(Top(arrow), stmt(Statement(MONIC, identity(arrow))))
        on_b = morphism_of(arrow, fx.graph_g, edges={"e": "b"})
        assert satisfies(on_b, fx.sketch_g, c).holds

    def test_phi6_restricted_to_its_match(self, fx):
        tri = COMP.arity
        guard = statements_conj(tri, [Statement(COMP, identity(tri)),
                                      monic_stmt(tri, "e3")])
        c = implication(guard, stmt(monic_stmt(tri, "e1")))
        at_cdg = morphism_of(tri, fx.graph_g,
                             edges={"e1": "c", "e2": "d", "e3": "g"})
        assert not satisfies(at_cdg, fx.sketch_g, c).holds

    def test_truth_table(self, fx):
        empty = initial_morphism(fx.graph_g).dom
        t = initial_morphism(fx.graph_g)
        for l in (Top(empty), Bottom(empty)):
            for r in (Top(empty), Bottom(empty)):
                want = (not satisfies(t, fx.sketch_g, l).holds
                        or satisfies(t, fx.sketch_g, r).holds)
                got = satisfies(t, fx.sketch_g, implication(l, r)).holds
                assert got is want


class TestEvaluatorLaws:
    def test_de_morgan(self, fx):
        tri = COMP.arity
        cs = (stmt(Statement(COMP, identity(tri))),
              stmt(monic_stmt(tri, "e1")), stmt(monic_stmt(tri, "e3")))
        neg_and = Not(tri, And(tri, cs))
        or_negs = Or(tri, tuple(Not(tri, c) for c in cs))
        for t in enumerate_morphisms(tri, fx.graph_g):
            assert (satisfies(t, fx.sketch_g, neg_and).holds
                    == satisfies(t, fx.sketch_g, or_negs).holds)

    def test_quantifier_duality(self, fx):
        k1 = fx.t1.dom
        tri = COMP.arity
        incl = morphism_of(k1, tri, edges={"e1": "e1", "e2": "e2"})
        body = stmt(Statement(COMP, identity(tri)))
        fa = unguarded_forall(incl, body)
        not_ex_not = Not(k1, unguarded_exists(incl, Not(tri, body)))
        for t in enumerate_morphisms(k1, fx.graph_g):
            assert (satisfies(t, fx.sketch_g, fa).holds
                    == satisfies(t, fx.sketch_g, not_ex_not).holds)

    def test_unguarded_sugar(self, fx):
        k1 = fx.t1.dom
        tri = COMP.arity
        incl = morphism_of(k1, tri, edges={"e1": "e1", "e2": "e2"})
        body = stmt(Statement(COMP, identity(tri)))
        sugar = unguarded_exists(incl, body)
        explicit = Exists(k1, Top(k1), incl, body)
        assert sugar == explicit

    def test_budget_exhaustion(self, fx):
        with pytest.raises(EvaluationBudgetExceeded):
            satisfies(initial_morphism(fx.graph_g), fx.sketch_g,
                      fx.conditions["phi2"], budget=3)

    def test_non_injective_extension_is_a_witness(self, fx):
        # quantifiers range over all extensions, not only monomorphisms: in
        # G' the only completion of this square sends q onto p's image
        square = graph_of("", "p:x->y q:x->y")
        point = graph_of("", "p:x->y")
        c = unguarded_exists(morphism_of(point, square, edges={"p": "p"}),
                             Top(square))
        gp = fx.sketch_g_prime
        t = morphism_of(point, gp.context, edges={"p": "e"})
        v = satisfies(t, gp, c)
        assert v.holds and v.witness.edge_map == {"p": "e", "q": "e"}


def direct_uc_holds(rule, g):
    """The quantifier definition evaluated by brute force: every statement-
    preserving t: L -> G extends to a statement-preserving r with a;r = t."""
    from gsketch.graphs import enumerate_extensions
    a = rule.morphism
    for t in enumerate_morphisms(rule.dom.context, g.context):
        if not is_sketch_morphism(t, rule.dom, g):
            continue
        if not any(is_sketch_morphism(r, rule.cod, g)
                   for r in enumerate_extensions(a, t)):
            return False
    return True


def direct_nuc_holds(rule, g):
    from gsketch.graphs import enumerate_extensions
    a = rule.morphism
    for t in enumerate_morphisms(rule.dom.context, g.context):
        if not is_sketch_morphism(t, rule.dom, g):
            continue
        if any(is_sketch_morphism(r, rule.cod, g)
               for r in enumerate_extensions(a, t)):
            return False
    return True


class TestUcNuc:
    def _rules(self, fx):
        from gsketch.deduction import rule_from_condition
        return [rule_from_condition(fx.conditions[name])
                for name in ("phi3", "phi6", "phi5")]

    def test_uc_matches_direct_definition(self, fx):
        for rule in self._rules(fx):
            for g in (fx.sketch_g, fx.sketch_g_prime):
                k = Constraint(uc(rule), initial_morphism(g.context))
                assert (check_constraint(g, k).holds
                        == direct_uc_holds(rule, g)), rule

    def test_nuc_matches_direct_definition(self, fx):
        for rule in self._rules(fx):
            for g in (fx.sketch_g, fx.sketch_g_prime):
                k = Constraint(nuc(rule), initial_morphism(g.context))
                assert (check_constraint(g, k).holds
                        == direct_nuc_holds(rule, g)), rule

    def test_uc_of_empty_identity_rule_always_holds(self, fx):
        empty = Sketch(graph_of(""))
        rule = SketchMorphism(empty, empty, identity(empty.context))
        for g in (fx.sketch_g, fx.sketch_g_prime):
            k = Constraint(uc(rule), initial_morphism(g.context))
            assert check_constraint(g, k).holds

    def test_nuc_of_monic_marking_fails_on_g(self, fx):
        arrow = MONIC.arity
        lhs = Sketch(arrow)
        rhs = Sketch(arrow, [Statement(MONIC, identity(arrow))])
        rule = SketchMorphism(lhs, rhs, identity(arrow))
        k = Constraint(nuc(rule), initial_morphism(fx.graph_g))
        assert not check_constraint(fx.sketch_g, k).holds  # psi4 exists


class TestEqualModuloRenaming:
    def test_reflexive(self, fx):
        for cond in fx.conditions.values():
            assert conditions_equal_modulo_renaming(cond, cond)

    def test_renamed_contexts(self, fx):
        k1 = fx.t1.dom
        tri = COMP.arity
        incl = morphism_of(k1, tri, edges={"e1": "e1", "e2": "e2"})
        a = unguarded_exists(incl, stmt(Statement(COMP, identity(tri))))
        k1r = graph_of("", "f1:w1->w2 f2:w2->w3")
        trir = graph_of("", "f1:w1->w2 f2:w2->w3 f3:w1->w3")
        inclr = morphism_of(k1r, trir, edges={"f1": "f1", "f2": "f2"})
        b = unguarded_exists(inclr, Stmt(trir, Statement(
            COMP, morphism_of(COMP.arity, trir,
                              edges={"e1": "f1", "e2": "f2", "e3": "f3"}))))
        assert conditions_equal_modulo_renaming(a, b)

    def test_different_predicates_differ(self, fx):
        arrow = MONIC.arity
        a = stmt(Statement(MONIC, identity(arrow)))
        b = Top(arrow)
        assert not conditions_equal_modulo_renaming(a, b)

    def test_different_shapes_differ(self, fx):
        assert not conditions_equal_modulo_renaming(fx.conditions["phi5"],
                                                    fx.conditions["phi6"])


def _nodes(c):
    yield c
    for sub in c.subconditions():
        yield from _nodes(sub)


class TestTraversalProtocol:
    SHAPES = [graph_of(), graph_of("x"), graph_of("x y"),
              graph_of("", "k:x->y"), graph_of("", "k:x->y l:x->y"),
              graph_of("", "k:x->y l:y->z")]

    def _all_conditions(self, fx, doc):
        yield from fx.conditions.values()
        for shape in self.SHAPES:
            yield limit_condition(shape)
            yield colimit_condition(shape)
        yield from doc.conditions.values()
        g = fx.graph_g
        yield Not(g, Or(g, (Bottom(g), stmt(fx.statements["psi4"]))))

    def test_rebuild_from_own_parts_is_identity(self, fx, doc):
        kinds = set()
        for cond in self._all_conditions(fx, doc):
            for n in _nodes(cond):
                kinds.add(type(n).__name__)
                assert n.rebuild(n.context, n.subconditions()) == n
        assert kinds == {"Stmt", "Top", "Bottom", "And", "Or", "Not",
                         "Exists", "Forall"}

    def test_subconditions_of_each_kind(self, fx):
        g = fx.graph_g
        leaf = stmt(fx.statements["psi4"])
        assert Top(g).subconditions() == ()
        assert Bottom(g).subconditions() == ()
        assert leaf.subconditions() == ()
        assert Or(g, (leaf, Top(g))).subconditions() == (leaf, Top(g))
        assert Not(g, leaf).subconditions() == (leaf,)
        q = Forall(g, leaf, identity(g), Bottom(g))
        assert q.subconditions() == (leaf, Bottom(g))
        assert q.rebuild(g, (Top(g), Top(g))) == Forall(g, Top(g), identity(g),
                                                        Top(g))

    def test_renaming_tells_and_from_or(self, fx):
        g = fx.graph_g
        children = (stmt(fx.statements["psi1"]), stmt(fx.statements["psi4"]))
        assert conditions_equal_modulo_renaming(And(g, children),
                                                And(g, children))
        assert not conditions_equal_modulo_renaming(And(g, children),
                                                    Or(g, children))

    def test_renaming_tells_exists_from_forall(self, fx):
        phi1 = fx.conditions["phi1"]
        twin = Forall(phi1.context, phi1.guard, phi1.shift, phi1.body)
        assert conditions_equal_modulo_renaming(twin, twin)
        assert not conditions_equal_modulo_renaming(phi1, twin)
