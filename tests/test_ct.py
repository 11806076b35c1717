import pytest

from gsketch.conditions import (And, Exists, Forall, Stmt, Top, conj,
                                is_closed, stmt, unguarded_exists,
                                unguarded_forall, well_formed)
from gsketch.ct import (COMP, CT_FOOTPRINT, FINAL, ID, MONIC,
                        colimit_condition, comp_stmt, cone_contexts,
                        final_stmt, limit_condition, monic_stmt, unfold)
from gsketch.graphs import EMPTY_GRAPH, graph_of, identity, morphism_of
from gsketch.oracles import conditions_equal_modulo_renaming
from gsketch.sketches import Statement

SHAPES = {
    "empty": EMPTY_GRAPH,
    "point": graph_of("x"),
    "discrete_pair": graph_of("x y"),
    "arrow": graph_of("", "k:x->y"),
    "parallel_pair": graph_of("", "k:x->y l:x->y"),
}


class TestFootprint:
    def test_symbols(self):
        assert {p.name for p in CT_FOOTPRINT} == {"comp", "id", "monic", "final"}

    def test_arities(self):
        assert len(COMP.arity.edges) == 3 and len(COMP.arity.nodes) == 3
        assert len(ID.arity.edges) == 1 and len(ID.arity.nodes) == 1
        assert len(MONIC.arity.edges) == 1 and len(MONIC.arity.nodes) == 2
        assert FINAL.arity == graph_of("v")

    def test_statement_helpers(self, fx):
        s = comp_stmt(fx.graph_g, "a", "b", "e")
        assert s.binding.edge_map == {"e1": "a", "e2": "b", "e3": "e"}
        assert monic_stmt(fx.graph_g, "b").binding.edge_map == {"e": "b"}
        assert final_stmt(fx.graph_g, "5").binding.node_map == {"v": "5"}


class TestFixtures:
    def test_counts(self, fx):
        assert len(fx.sketch_g.statements) == 5
        assert len(fx.sketch_g_prime.statements) == 4
        assert len(fx.conditions) == 8

    def test_g_prime_drops_one_edge(self, fx):
        assert fx.sketch_g_prime.context.edges == fx.graph_g.edges - {"f"}

    def test_anchor_endpoints(self, fx):
        assert fx.t1.cod == fx.graph_g and fx.t2.cod == fx.graph_g
        assert fx.t1.dom == fx.t2.dom == fx.conditions["phi1"].context

    def test_closedness(self, fx):
        closed = {name for name, c in fx.conditions.items() if is_closed(c)}
        assert closed == {"phi2", "phi3", "phi4", "phi5", "phi6"}

    def test_all_conditions_well_formed(self, fx):
        for name, c in fx.conditions.items():
            assert well_formed(c) == [], name


class TestConeContexts:
    def test_binary_product_base(self):
        cc = cone_contexts(SHAPES["discrete_pair"])
        assert cc.base.nodes == {"x", "y", "apex"}
        assert cc.base.edges == {"p_x", "p_y"}
        assert cc.base.src["p_x"] == "apex" and cc.base.tgt["p_x"] == "x"

    def test_colimit_reverses_projections(self):
        cc = cone_contexts(SHAPES["discrete_pair"], colimit=True)
        assert cc.base.src["p_x"] == "x" and cc.base.tgt["p_x"] == "apex"

    def test_inclusion_chain(self):
        cc = cone_contexts(SHAPES["arrow"])
        assert cc.include_double.dom == cc.base
        assert cc.include_double.cod == cc.double
        assert cc.include_one.dom == cc.double
        assert cc.include_one.cod == cc.one_mediator
        assert cc.include_two.dom == cc.base
        assert cc.include_two.cod == cc.two_mediators

    def test_merge_collapses_both_mediators(self):
        cc = cone_contexts(SHAPES["arrow"])
        assert cc.merge_mediators.edge_map["m1"] == "m"
        assert cc.merge_mediators.edge_map["m2"] == "m"
        assert set(cc.two_mediators.edges) - set(cc.double.edges) == {"m1", "m2"}


class TestMediatorConditions:
    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_limit_well_formed(self, name):
        cond = limit_condition(SHAPES[name])
        assert well_formed(cond) == []
        assert cond.context == cone_contexts(SHAPES[name]).base

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_colimit_well_formed(self, name):
        cond = colimit_condition(SHAPES[name])
        assert well_formed(cond) == []

    def test_binary_product_structure(self):
        cond = limit_condition(SHAPES["discrete_pair"])
        assert isinstance(cond, And) and len(cond.children) == 2
        exist, unique = cond.children
        assert isinstance(exist, Forall)
        inner = exist.body
        assert isinstance(inner, Exists)  # existence is unguarded for no edges
        assert isinstance(unique, Forall)

    def test_empty_shape_matches_final_object_condition(self, fx):
        assert conditions_equal_modulo_renaming(limit_condition(EMPTY_GRAPH),
                                                fx.conditions["phi8"])

    def test_empty_shape_colimit_matches_hand_built_dual(self):
        v8 = FINAL.arity
        c8 = graph_of("v v1")
        e8 = graph_of("", "e:v->v1")
        exist = unguarded_forall(
            morphism_of(v8, c8, nodes={"v": "v"}),
            unguarded_exists(morphism_of(c8, e8, nodes={"v": "v", "v1": "v1"}),
                             Top(e8)))
        p8 = graph_of("", "e1:v->v1 e2:v->v1")
        alpha = morphism_of(p8, e8, edges={"e1": "e", "e2": "e"})
        unique = unguarded_forall(morphism_of(v8, p8, nodes={"v": "v"}),
                                  unguarded_exists(alpha, Top(e8)))
        dual = conj(v8, (exist, unique))
        assert conditions_equal_modulo_renaming(colimit_condition(EMPTY_GRAPH),
                                                dual)

    def test_limit_and_colimit_of_a_shape_differ(self):
        assert not conditions_equal_modulo_renaming(
            limit_condition(SHAPES["arrow"]),
            colimit_condition(SHAPES["arrow"]))


class TestUnfold:
    def test_untouched_without_mapping(self, fx):
        for cond in fx.conditions.values():
            assert unfold(cond, {}) == cond

    def test_monic_leaf_becomes_phi7(self, fx):
        leaf = stmt(Statement(MONIC, identity(MONIC.arity)))
        out = unfold(leaf, {MONIC: fx.conditions["phi7"]})
        assert out == fx.conditions["phi7"]

    def test_phi4_with_final_definition(self, fx):
        out = unfold(fx.conditions["phi4"], {FINAL: fx.conditions["phi8"]})
        assert well_formed(out) == []
        assert out != fx.conditions["phi4"]
        # comp/monic leaves survive untouched
        def leaves(node):
            if isinstance(node, Stmt):
                yield node.statement.predicate.name
            for attr in ("children", "guard", "body", "child"):
                sub = getattr(node, attr, None)
                if sub is None:
                    continue
                for x in (sub if isinstance(sub, tuple) else (sub,)):
                    yield from leaves(x)
        assert "final" not in set(leaves(out))
        assert "monic" in set(leaves(out))

    def test_phi5_with_monic_definition(self, fx):
        out = unfold(fx.conditions["phi5"], {MONIC: fx.conditions["phi7"]})
        assert well_formed(out) == []

    def test_single_pass_only(self, fx):
        # a self-referential definition is substituted once, not recursively
        arrow = MONIC.arity
        selfref = unguarded_exists(identity(arrow),
                                   stmt(Statement(MONIC, identity(arrow))))
        leaf = stmt(Statement(MONIC, identity(arrow)))
        out = unfold(leaf, {MONIC: selfref})
        assert out == selfref

    def test_wrong_context_rejected(self, fx):
        with pytest.raises(ValueError, match="arity"):
            unfold(fx.conditions["phi4"], {FINAL: fx.conditions["phi7"]})
