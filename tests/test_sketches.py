import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gsketch.category import pullback, pushout
from gsketch.conditions import satisfies, stmt
from gsketch.ct import COMP, FINAL, MONIC, comp_stmt, monic_stmt
from gsketch.graphs import (Graph, GraphMorphism, MismatchError, compose,
                            enumerate_morphisms, graph_of, identity,
                            morphism_of)
from gsketch.sketches import (Footprint, MultiSketch, MultiSketchMorphism,
                              PredicateSymbol, Sketch, SketchMorphism,
                              Statement, is_sketch_morphism, multi_pullback,
                              multi_pushout, sketch_pullback, sketch_pushout,
                              statement_key, translate_key,
                              translate_statement)
from gsketch.oracles import composed_statement, sketches_isomorphic

from test_graphs import small_graphs


class TestFootprint:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Footprint([PredicateSymbol("p", graph_of("v")),
                       PredicateSymbol("p", graph_of("w"))])

    def test_lookup(self):
        fp = Footprint([COMP, MONIC])
        assert fp["comp"] is COMP
        assert "monic" in fp and "final" not in fp

    def test_bad_arity_rejected(self):
        bad = graph_of("")
        object.__setattr__(bad, "src", {"x": "nowhere"})
        with pytest.raises(ValueError):
            PredicateSymbol("p", bad)


class TestStatements:
    def test_binding_domain_checked(self, fx):
        with pytest.raises(MismatchError):
            Statement(COMP, identity(MONIC.arity))

    def test_translate_identity(self, fx):
        s = fx.statements["psi1"]
        assert translate_statement(identity(fx.graph_g), s) == s

    def test_translate_functorial(self, fx):
        g = fx.graph_g
        arrow = MONIC.arity
        f = morphism_of(arrow, g, edges={"e": "b"})
        s = Statement(MONIC, identity(arrow))
        for phi in (identity(g),):
            lhs = translate_statement(compose(f, phi), s)
            rhs = translate_statement(phi, translate_statement(f, s))
            assert lhs == rhs

    def test_translate_along_merge(self, fx):
        g = fx.graph_g
        merged = graph_of("", "a:1->2 b:2->3 c:3->4 d:4->5 ef:1->3 g:3->5")
        merge = GraphMorphism(
            g, merged, {n: n for n in g.nodes},
            {e: ("ef" if e in ("e", "f") else e) for e in g.edges})
        out = translate_statement(merge, fx.statements["psi1"])
        assert out == comp_stmt(merged, "a", "b", "ef")


class TestSketchMorphisms:
    def test_identity_preserves(self, fx):
        assert is_sketch_morphism(identity(fx.graph_g), fx.sketch_g, fx.sketch_g)

    def test_vacuous_on_statement_free_domain(self, fx):
        k = Sketch(fx.t1.dom)
        assert is_sketch_morphism(fx.t1, k, fx.sketch_g)

    def test_unmarked_edge_does_not_preserve_monic(self, fx):
        arrow = MONIC.arity
        k = Sketch(arrow, [Statement(MONIC, identity(arrow))])
        t = morphism_of(arrow, fx.graph_g, edges={"e": "a"})
        assert not is_sketch_morphism(t, k, fx.sketch_g)
        t_ok = morphism_of(arrow, fx.graph_g, edges={"e": "b"})
        assert is_sketch_morphism(t_ok, k, fx.sketch_g)

    def test_constructor_validates(self, fx):
        arrow = MONIC.arity
        k = Sketch(arrow, [Statement(MONIC, identity(arrow))])
        t = morphism_of(arrow, fx.graph_g, edges={"e": "a"})
        with pytest.raises(MismatchError):
            SketchMorphism(k, fx.sketch_g, t)


class TestSketchPushout:
    def test_statement_free(self):
        c = Sketch(graph_of("x"))
        b = Sketch(graph_of("x y"))
        incl = SketchMorphism(c, b, morphism_of(c.context, b.context,
                                                nodes={"x": "x"}))
        d, r_star, m_star = sketch_pushout(incl, incl)
        assert d.statements == frozenset()

    def test_merge_collapses_parallel_composites(self, fx):
        l3 = graph_of("", "e1:v1->v2 e2:v2->v3 e3:v1->v3 e4:v1->v3")
        m3 = graph_of("", "e1:v1->v2 e2:v2->v3 e:v1->v3")
        iota = morphism_of(l3, m3,
                           edges={"e1": "e1", "e2": "e2", "e3": "e", "e4": "e"})
        lhs = Sketch(l3, [comp_stmt(l3, "e1", "e2", "e3"),
                          comp_stmt(l3, "e1", "e2", "e4")])
        rhs = Sketch(m3, [comp_stmt(m3, "e1", "e2", "e")])
        t = morphism_of(l3, fx.graph_g,
                        edges={"e1": "a", "e2": "b", "e3": "e", "e4": "f"})
        d, t_star, a_star = sketch_pushout(SketchMorphism(lhs, rhs, iota),
                                           SketchMorphism(lhs, fx.sketch_g, t))
        assert len(d.context.edges) == 6
        comp_count = sum(1 for s in d.statements if s.predicate.name == "comp")
        assert comp_count == 2  # psi1 and psi2 collapsed, psi3 survives

    def test_along_identity(self, fx):
        g = fx.sketch_g
        k = Sketch(g.context)
        m = SketchMorphism(k, k, identity(g.context))
        r = SketchMorphism(k, g, identity(g.context))
        d, _, m_star = sketch_pushout(m, r)
        assert sketches_isomorphic(d, g)

    def test_injections_are_sketch_morphisms(self, fx):
        # the constructors of the returned SketchMorphisms already assert
        # statement preservation; reaching here is the check
        g = fx.sketch_g
        k = Sketch(g.context, [fx.statements["psi4"]])
        m = SketchMorphism(k, g, identity(g.context))
        d, r_star, m_star = sketch_pushout(m, m)
        assert isinstance(r_star, SketchMorphism)


class TestSketchPullback:
    def test_along_identity(self, fx):
        g = fx.sketch_g
        ident = SketchMorphism(g, g, identity(g.context))
        d, m_star, r_star = sketch_pullback(ident, ident)
        assert sketches_isomorphic(d, g)

    def test_statement_free(self, fx):
        g = fx.sketch_g
        a = Sketch(g.context)
        ident = SketchMorphism(a, g, identity(g.context))
        d, _, _ = sketch_pullback(ident, ident)
        assert d.statements == frozenset()

    def test_shared_monic_edge(self, fx):
        arrow = MONIC.arity
        b = Sketch(arrow, [monic_stmt(arrow, "e")])
        m = SketchMorphism(b, fx.sketch_g,
                           morphism_of(arrow, fx.graph_g, edges={"e": "b"}))
        d, m_star, r_star = sketch_pullback(m, m)
        monics = [s for s in d.statements if s.predicate.name == "monic"]
        assert len(monics) == 1
        assert monics[0].binding.edge_map == {"e": "e|e"}

    def test_statement_set_is_maximal(self, fx):
        from gsketch.graphs import enumerate_morphisms
        arrow = MONIC.arity
        b = Sketch(arrow, [monic_stmt(arrow, "e")])
        m = SketchMorphism(b, fx.sketch_g,
                           morphism_of(arrow, fx.graph_g, edges={"e": "b"}))
        d, m_star, r_star = sketch_pullback(m, m)
        for pred in (MONIC, COMP):
            for binding in enumerate_morphisms(pred.arity, d.context):
                sigma = Statement(pred, binding)
                if sigma in d.statements:
                    continue
                ok_left = composed_statement(
                    r_star.morphism, sigma) in b.statements
                ok_right = composed_statement(
                    m_star.morphism, sigma) in b.statements
                assert not (ok_left and ok_right)


class TestMultiSketches:
    def _monic_pair(self, fx):
        g = fx.graph_g
        s = monic_stmt(g, "b")
        return MultiSketch(g, {"i1": s, "i2": s})

    def test_morphism_endpoints_checked(self, fx):
        # without identifiers no statement is translated, so only the
        # endpoint check sees the foreign context morphism
        x, yz = MultiSketch(graph_of("x"), {}), MultiSketch(graph_of("y z"), {})
        for m in (identity(graph_of("", "a:p->q")), identity(graph_of("x")),
                  identity(graph_of("y z"))):
            with pytest.raises(MismatchError, match="multi-sketch contexts"):
                MultiSketchMorphism(x, yz, m, {})
        assert MultiSketchMorphism(x, x, identity(graph_of("x")), {}).dom == x

    def test_identified_statements_share_a_predicate(self, fx):
        # equal keys under another predicate of the same arity do not match
        g = fx.graph_g
        epi = PredicateSymbol("epi", MONIC.arity)
        single = MultiSketch(g, {"j": monic_stmt(g, "b")})
        other = MultiSketch(g, {"k": Statement(epi, monic_stmt(g, "b").binding)})
        with pytest.raises(MismatchError, match="incompatible"):
            MultiSketchMorphism(single, other, identity(g), {"j": "k"})

    def test_statement_family_read_only(self, fx):
        ms = self._monic_pair(fx)
        with pytest.raises(TypeError):
            ms.stm["i1"] = monic_stmt(fx.graph_g, "a")
        assert ms == self._monic_pair(fx)

    def test_identifier_map_read_only(self, fx):
        g = fx.graph_g
        single = MultiSketch(g, {"j": monic_stmt(g, "b")})
        given = {"j": "i1"}
        to1 = MultiSketchMorphism(single, self._monic_pair(fx), identity(g),
                                  given)
        given["j"] = "i2"
        with pytest.raises(TypeError):
            to1.id_map["j"] = "i2"
        assert to1.id_map == {"j": "i1"}
        # the legs of the constructions are read-only too
        d, left, right = multi_pushout(to1, to1)
        dm, _ = multi_pullback(left, right)[1:]
        for leg in (left, right, dm):
            with pytest.raises(TypeError):
                leg.id_map[next(iter(leg.id_map))] = "x"

    def test_morphisms_hash_by_value(self, fx):
        g = fx.graph_g
        single = MultiSketch(g, {"j": monic_stmt(g, "b")})

        def to(i):
            return MultiSketchMorphism(single, self._monic_pair(fx),
                                       identity(g), {"j": i})

        assert to("i1") == to("i1") and hash(to("i1")) == hash(to("i1"))
        assert to("i1") != to("i2")
        assert len({to("i1"), to("i1"), to("i2")}) == 2
        d, left, right = multi_pushout(to("i1"), to("i2"))
        again = MultiSketchMorphism(left.dom, left.cod, left.morphism,
                                    dict(left.id_map))
        assert again == left and hash(again) == hash(left)

    def test_distinct_ids_with_equal_statements_stay_distinct(self, fx):
        ms = self._monic_pair(fx)
        ident = MultiSketchMorphism(ms, ms, identity(fx.graph_g),
                                    {"i1": "i1", "i2": "i2"})
        d, left, right = multi_pushout(ident, ident)
        assert len(d.ids) == 2

    def test_pushout_merges_identified_statements(self, fx):
        g = fx.graph_g
        single = MultiSketch(g, {"j": monic_stmt(g, "b")})
        pair = self._monic_pair(fx)
        to1 = MultiSketchMorphism(single, pair, identity(g), {"j": "i1"})
        to2 = MultiSketchMorphism(single, pair, identity(g), {"j": "i2"})
        d, left, right = multi_pushout(to1, to2)
        # j identifies the left copy of i1 with the right copy of i2; the
        # other two copies survive on their own, giving three classes
        assert len(d.ids) == 3
        assert left.id_map["i1"] == right.id_map["i2"]

    def test_empty_ids_reduce_to_context_pushout(self, fx):
        g = fx.graph_g
        ms = MultiSketch(g, {})
        ident = MultiSketchMorphism(ms, ms, identity(g), {})
        d, _, _ = multi_pushout(ident, ident)
        assert d.ids == frozenset()

    def test_pullback_singleton_pair(self, fx):
        g = fx.graph_g
        base = MultiSketch(g, {"k": monic_stmt(g, "b"),
                               "l": monic_stmt(g, "g")})
        left = MultiSketch(g, {"x": monic_stmt(g, "b")})
        right = MultiSketch(g, {"y": monic_stmt(g, "b")})
        m = MultiSketchMorphism(left, base, identity(g), {"x": "k"})
        r = MultiSketchMorphism(right, base, identity(g), {"y": "k"})
        d, dm, dr = multi_pullback(m, r)
        assert d.ids == frozenset({"x|y"})
        s = d.stm["x|y"]
        assert s.predicate is MONIC
        assert s.binding.edge_map == {"e": "b|b"}

    def test_pullback_ids_with_bars_stay_apart(self, fx):
        # unescaped, the pairs (a|b, c) and (a, b|c) would share one name
        g = fx.graph_g
        s = monic_stmt(g, "b")
        base = MultiSketch(g, {"k": s})
        left = MultiSketch(g, {"a|b": s, "a": s})
        right = MultiSketch(g, {"c": s, "b|c": s})
        m = MultiSketchMorphism(left, base, identity(g), {"a|b": "k", "a": "k"})
        r = MultiSketchMorphism(right, base, identity(g), {"c": "k", "b|c": "k"})
        d, dm, dr = multi_pullback(m, r)
        assert len(d.ids) == 4
        assert {(dm.id_map[p], dr.id_map[p]) for p in d.ids} == {
            (i, j) for i in left.ids for j in right.ids}

    def test_pullback_incompatible_pair_is_empty(self, fx):
        g = fx.graph_g
        base = MultiSketch(g, {"k": monic_stmt(g, "b"),
                               "l": monic_stmt(g, "g")})
        left = MultiSketch(g, {"x": monic_stmt(g, "b")})
        right = MultiSketch(g, {"y": monic_stmt(g, "g")})
        m = MultiSketchMorphism(left, base, identity(g), {"x": "k"})
        r = MultiSketchMorphism(right, base, identity(g), {"y": "l"})
        d, _, _ = multi_pullback(m, r)
        assert d.ids == frozenset()


def enumerated_pullback(m, r):
    """Reference sketch pullback: every binding of every predicate shared by
    B and A into the pullback object, kept when both projections are
    statements."""
    pb = pullback(m.morphism, r.morphism)
    shared = ({s.predicate for s in m.dom.statements}
              & {s.predicate for s in r.dom.statements})
    statements = [
        sigma for p in shared
        for sigma in (Statement(p, b)
                      for b in enumerate_morphisms(p.arity, pb.object))
        if composed_statement(pb.right, sigma) in r.dom.statements
        and composed_statement(pb.left, sigma) in m.dom.statements]
    return Sketch(pb.object, statements), pb.right, pb.left


@st.composite
def graphs_over(draw, c):
    """A morphism into ``c`` from a random graph: nodes get random images,
    and each edge runs over a random edge of ``c`` between nodes lying over
    its endpoints."""
    n = draw(st.integers(1, 3)) if c.nodes else 0
    node_map = {"n%d" % i: draw(st.sampled_from(sorted(c.nodes)))
                for i in range(n)}
    src, tgt, edge_map = {}, {}, {}
    for i in range(draw(st.integers(0, 4)) if c.edges else 0):
        img = draw(st.sampled_from(sorted(c.edges)))
        ends = [[x for x in sorted(node_map) if node_map[x] == end]
                for end in (c.src[img], c.tgt[img])]
        if all(ends):
            e = "x%d" % i
            src[e], tgt[e] = (draw(st.sampled_from(xs)) for xs in ends)
            edge_map[e] = img
    g = Graph(node_map, src.keys(), src, tgt)
    return GraphMorphism(g, c, node_map, edge_map)


def all_statements(g):
    return [Statement(p, b) for p in (FINAL, MONIC, COMP)
            for b in enumerate_morphisms(p.arity, g)]


def some_of(candidates):
    return (st.sets(st.sampled_from(candidates), min_size=1, max_size=6)
            if candidates else st.just(set()))


@st.composite
def sketch_cospans(draw):
    """B -m-> C <-r- A, with C carrying exactly the images of the statements
    of B and A.  Some statements of A are drawn among those with the same
    image as a statement of B, so that many pullbacks have statements."""
    c = draw(small_graphs(max_nodes=3, max_edges=4).filter(
        lambda g: g.nodes))
    mb, ra = draw(graphs_over(c)), draw(graphs_over(c))
    sb = draw(some_of(all_statements(mb.dom)))
    images = {composed_statement(mb, s) for s in sb}
    paired = [s for s in all_statements(ra.dom)
              if composed_statement(ra, s) in images]
    sa = draw(some_of(all_statements(ra.dom))) | draw(some_of(paired))
    images |= {composed_statement(ra, s) for s in sa}
    sc = Sketch(c, images)
    return (SketchMorphism(Sketch(mb.dom, sb), sc, mb),
            SketchMorphism(Sketch(ra.dom, sa), sc, ra))


class TestSketchPullbackDifferential:
    @settings(max_examples=300, deadline=None)
    @given(sketch_cospans())
    def test_pairing_equals_enumeration(self, cospan):
        m, r = cospan
        d, m_star, r_star = sketch_pullback(m, r)
        want, right, left = enumerated_pullback(m, r)
        assert d.context == want.context
        assert d.statements == want.statements
        assert (m_star.dom, m_star.cod, m_star.morphism) == (d, r.dom, right)
        assert (r_star.dom, r_star.cod, r_star.morphism) == (d, m.dom, left)


@st.composite
def footprints(draw):
    """One to three predicates with distinct names and random arities."""
    arities = draw(st.lists(small_graphs(max_nodes=2, max_edges=2),
                            min_size=1, max_size=3))
    return Footprint(PredicateSymbol("p%d" % i, a)
                     for i, a in enumerate(arities))


def statements_of(fp, g):
    return [Statement(p, b) for p in fp for b in enumerate_morphisms(p.arity, g)]


@st.composite
def statement_sets(draw, fp, g, max_size=4):
    candidates = statements_of(fp, g)
    if not candidates:
        return set()
    return draw(st.sets(st.sampled_from(candidates), max_size=max_size))


@st.composite
def targets(draw):
    """A random graph with a loop added, so that every graph maps into it."""
    g = draw(small_graphs(max_nodes=3, max_edges=3))
    return Graph(g.nodes | {"z"}, g.edges | {"l"}, {**g.src, "l": "z"},
                 {**g.tgt, "l": "z"})


@st.composite
def leaf_cases(draw):
    """A sketch g, a statement s over K and a morphism t: K -> G; half of
    the time g holds the image of s along t."""
    fp = draw(footprints())
    k, g = draw(small_graphs(max_nodes=3, max_edges=3)), draw(targets())
    t = draw(st.sampled_from(enumerate_morphisms(k, g)))
    candidates = statements_of(fp, k)
    assume(candidates)
    s = draw(st.sampled_from(candidates))
    statements = draw(statement_sets(fp, g))
    if draw(st.booleans()):
        statements.add(composed_statement(t, s))
    return Sketch(g, statements), s, t


@st.composite
def sketch_spans(draw):
    """B <-m- C -r-> A: each leg a random morphism, each codomain holding
    the images of the statements of C and random statements of its own."""
    fp = draw(footprints())
    c_graph = draw(small_graphs(max_nodes=2, max_edges=2))
    c = Sketch(c_graph, draw(statement_sets(fp, c_graph, max_size=2)))
    legs = []
    for _ in range(2):
        cod = draw(targets())
        m = draw(st.sampled_from(enumerate_morphisms(c.context, cod)))
        statements = draw(statement_sets(fp, cod))
        statements |= {composed_statement(m, s) for s in c.statements}
        legs.append(SketchMorphism(c, Sketch(cod, statements), m))
    return legs


@st.composite
def sketch_inputs(draw):
    """A random graph and a set of statements bound in it."""
    fp = draw(footprints())
    g = draw(small_graphs(max_nodes=3, max_edges=4))
    return g, draw(statement_sets(fp, g, max_size=6))


@st.composite
def translation_chains(draw):
    """A statement s over K and two composable morphisms t1: K -> G1 and
    t2: G1 -> G2."""
    fp = draw(footprints())
    k = draw(small_graphs(max_nodes=3, max_edges=3))
    candidates = statements_of(fp, k)
    assume(candidates)
    s = draw(st.sampled_from(candidates))
    g1, g2 = draw(targets()), draw(targets())
    t1 = draw(st.sampled_from(enumerate_morphisms(k, g1)))
    t2 = draw(st.sampled_from(enumerate_morphisms(g1, g2)))
    return s, t1, t2


def old_statement_key(s):
    """The canonical ordering key as the sorted items of the binding maps."""
    return (s.predicate.name,
            tuple(sorted(s.binding.node_map.items())),
            tuple(sorted(s.binding.edge_map.items())))


class TestStatementIndexDifferential:
    """The index of statement keys against the statements it stands for,
    with statements translated by composing bindings
    (``oracles.composed_statement``)."""

    @settings(max_examples=200, deadline=None)
    @given(leaf_cases())
    def test_leaf_lookup_is_translated_membership(self, case):
        g, s, t = case
        want = composed_statement(t, s) in g.statements
        assert g.holds(s.predicate, translate_key(t, s.key)) == want
        assert satisfies(t, g, stmt(s)).holds == want

    @settings(max_examples=200, deadline=None)
    @given(sketch_spans())
    def test_pushout_statements_are_the_translated_union(self, span):
        m, r = span
        d, r_star, m_star = sketch_pushout(m, r)
        po = pushout(m.morphism, r.morphism)
        want = Sketch(po.object,
                      {composed_statement(po.right, s) for s in r.cod.statements}
                      | {composed_statement(po.left, s) for s in m.cod.statements})
        assert d.statements == want.statements
        assert d == want and want == d and hash(d) == hash(want)
        assert (r_star.morphism, m_star.morphism) == (po.left, po.right)

    @settings(max_examples=200, deadline=None)
    @given(sketch_inputs())
    def test_sketch_from_its_index_is_the_sketch(self, case):
        context, statements = case
        g = Sketch(context, statements)
        again = Sketch._from_index(g.context, dict(g.index))
        assert again == g and g == again and hash(again) == hash(g)
        assert again.statements == frozenset(statements)
        assert again.statements == again.statements == g.statements
        assert all(type(keys) is frozenset and keys
                   for keys in g.index.values())
        for p in g.index:
            with pytest.raises(TypeError):
                g.index[p] = frozenset()
        with pytest.raises(TypeError):
            again.index[PredicateSymbol("q", graph_of("v"))] = frozenset()
        for sketch in (g, again):
            assert type(sketch.statements) is frozenset
            with pytest.raises(AttributeError):
                sketch.statements = frozenset()
            with pytest.raises(AttributeError):
                sketch.index = {}
        assert again == g and hash(again) == hash(g)

    @settings(max_examples=200, deadline=None)
    @given(sketch_inputs())
    def test_a_built_sketch_gives_back_the_set_it_was_given(self, case):
        context, statements = case
        g = Sketch(context, statements)
        assert g.statements == frozenset(statements) == g.statements
        again = Sketch(context, list(g.statements))
        assert again.index == g.index and hash(again) == hash(g)

    @settings(max_examples=200, deadline=None)
    @given(translation_chains())
    def test_translate_statement_is_composition(self, chain):
        s, t1, t2 = chain
        once = translate_statement(t1, s)
        assert once == composed_statement(t1, s)
        assert hash(once) == hash(composed_statement(t1, s))
        twice = translate_statement(t2, once)
        assert twice == composed_statement(t2, composed_statement(t1, s))
        assert twice == composed_statement(compose(t1, t2), s)
        # the key a translated statement keeps is the key of its binding
        for out in (once, twice):
            assert out.key == Statement(out.predicate, out.binding).key
        if t2.dom != s.context:
            with pytest.raises(MismatchError):
                translate_statement(t2, s)

    @settings(max_examples=200, deadline=None)
    @given(sketch_inputs())
    def test_statement_key_is_the_sorted_binding_maps(self, case):
        context, statements = case
        built = Sketch(context, statements)
        for s in list(statements) + list(built.statements):
            assert statement_key(s) == old_statement_key(s)
        assert built.sorted_statements() == sorted(statements,
                                                   key=old_statement_key)
