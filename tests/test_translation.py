import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gsketch.category import PushoutResult
from gsketch.conditions import (Exists, Stmt, Top, satisfies, stmt,
                                well_formed)
from gsketch.ct import (COMP, MONIC, colimit_condition, limit_condition,
                        monic_stmt)
from gsketch.graphs import (MismatchError, compose, enumerate_morphisms,
                            graph_of, identity, invert, morphism_of)
from gsketch.oracles import shift_equivalence_oracle, verify_pushout
from gsketch.sketches import Sketch, Statement
from gsketch.translation import chosen_pushout, translate_condition

from strategies import small_graphs

LOOP = graph_of("", "l:v->v")

# (co)limit shapes with one or two nodes
SHAPES = {"object": graph_of("a"), "pair": graph_of("a b"),
          "arrow": graph_of("", "k:a->b"),
          "parallel pair": graph_of("", "k:a->b l:a->b")}
SHAPE_CONDITIONS = {
    **{"limit of " + n: limit_condition(s) for n, s in SHAPES.items()},
    **{"colimit of " + n: colimit_condition(s) for n, s in SHAPES.items()}}


class TestChosenPushout:
    def test_iso_shortcut(self, fx):
        k1 = fx.t1.dom
        incl = morphism_of(k1, COMP.arity, edges={"e1": "e1", "e2": "e2"})
        a_star, c_star = chosen_pushout(identity(k1), incl)
        assert a_star == incl
        assert c_star == identity(COMP.arity)

    def test_renaming_iso_shortcut(self):
        a = graph_of("", "e:v1->v2")
        b = graph_of("", "e:w1->w2")
        c = morphism_of(a, b, edges={"e": "e"})
        shift = morphism_of(a, LOOP, edges={"e": "l"})
        a_star, c_star = chosen_pushout(c, shift)
        assert a_star == compose(invert(c), shift)
        assert c_star == identity(LOOP)

    def test_non_iso_is_a_real_pushout(self, fx):
        k1 = fx.t1.dom
        c = morphism_of(k1, LOOP, edges={"e1": "l", "e2": "l"})
        shift = morphism_of(k1, COMP.arity, edges={"e1": "e1", "e2": "e2"})
        a_star, c_star = chosen_pushout(c, shift)
        assert verify_pushout(c, shift, PushoutResult(a_star.cod, a_star, c_star))

    def test_mismatch(self, fx):
        with pytest.raises(MismatchError):
            chosen_pushout(fx.t1, identity(COMP.arity))


class TestStructure:
    def test_identity_is_structural_noop(self, fx):
        for name, cond in fx.conditions.items():
            assert translate_condition(identity(cond.context), cond) == cond, name

    def test_stmt_leaf_post_composes(self, fx):
        arrow = MONIC.arity
        c = morphism_of(arrow, fx.graph_g, edges={"e": "b"})
        out = translate_condition(c, stmt(Statement(MONIC, identity(arrow))))
        assert out == Stmt(fx.graph_g, monic_stmt(fx.graph_g, "b"))

    def test_domain_checked(self, fx):
        with pytest.raises(MismatchError):
            translate_condition(fx.t1, fx.conditions["phi7"])

    def test_result_context_is_codomain(self, fx):
        c = morphism_of(fx.conditions["phi7"].context, LOOP, edges={"e": "l"})
        out = translate_condition(c, fx.conditions["phi7"])
        assert out.context == LOOP

    def test_well_formedness_preserved(self, fx):
        c = morphism_of(fx.conditions["phi7"].context, LOOP, edges={"e": "l"})
        assert well_formed(translate_condition(c, fx.conditions["phi7"])) == []


class TestSemantics:
    def _samples(self, fx):
        return [fx.sketch_g, fx.sketch_g_prime,
                Sketch(LOOP, [monic_stmt(LOOP, "l")])]

    def test_phi7_into_loop(self, fx):
        c = morphism_of(fx.conditions["phi7"].context, LOOP, edges={"e": "l"})
        assert shift_equivalence_oracle(c, fx.conditions["phi7"],
                                        self._samples(fx))

    def test_phi1_into_itself(self, fx):
        k1 = fx.t1.dom
        swap = morphism_of(k1, LOOP, edges={"e1": "l", "e2": "l"})
        assert shift_equivalence_oracle(swap, fx.conditions["phi1"],
                                        self._samples(fx))

    def test_all_fixture_conditions_along_all_small_anchors(self, fx):
        samples = self._samples(fx)
        targets = [LOOP, graph_of("", "e1:v1->v2 e2:v2->v3"), MONIC.arity]
        for name, cond in fx.conditions.items():
            for h in targets:
                for c in enumerate_morphisms(cond.context, h):
                    assert shift_equivalence_oracle(c, cond, samples), (name, h)

    @pytest.mark.parametrize("name", ["phi%d" % i for i in range(1, 9)]
                             + sorted(SHAPE_CONDITIONS))
    @settings(max_examples=25, deadline=None)
    @given(h=small_graphs(max_nodes=3, max_edges=3), data=st.data())
    def test_shift_property_along_random_anchors(self, fx, name, h, data):
        cond = {**fx.conditions, **SHAPE_CONDITIONS}[name]
        anchors = enumerate_morphisms(cond.context, h)
        assume(anchors)
        c = data.draw(st.sampled_from(anchors))
        assert shift_equivalence_oracle(c, cond, self._samples(fx))

    def test_functoriality_is_semantic(self, fx):
        k1 = fx.t1.dom
        c1 = morphism_of(k1, COMP.arity, edges={"e1": "e1", "e2": "e2"})
        c2 = morphism_of(COMP.arity, LOOP,
                         edges={"e1": "l", "e2": "l", "e3": "l"})
        cond = fx.conditions["phi1"]
        step = translate_condition(c2, translate_condition(c1, cond))
        direct = translate_condition(compose(c1, c2), cond)
        for g in self._samples(fx):
            for t in enumerate_morphisms(LOOP, g.context):
                assert (satisfies(t, g, step).holds
                        == satisfies(t, g, direct).holds)

    def test_oracle_detects_wrong_translation(self, fx):
        # swap the quantifier's chosen pushout for a bogus identity shift and
        # confirm the oracle rejects it
        k1 = fx.t1.dom
        c = morphism_of(k1, LOOP, edges={"e1": "l", "e2": "l"})
        bogus = Exists(LOOP, Top(LOOP), identity(LOOP), Top(LOOP))
        good = translate_condition(c, fx.conditions["phi1"])
        assert bogus != good
        empty = Sketch(LOOP)  # no comp statement: phi1 must fail at c;t
        found_disagreement = False
        for t in enumerate_morphisms(LOOP, empty.context):
            lhs = satisfies(t, empty, bogus).holds
            rhs = satisfies(compose(c, t), empty, fx.conditions["phi1"]).holds
            found_disagreement = found_disagreement or lhs != rhs
        assert found_disagreement
