import gc
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gsketch.graphs import (EMPTY_GRAPH, Graph, GraphMorphism, MismatchError,
                            NotInvertibleError, compose, enumerate_extensions,
                            enumerate_morphisms, enumerate_morphisms_extending,
                            graph_of, identity, invert, is_isomorphism,
                            is_monomorphism, morphism_of, validate_graph)

from conftest import brute_force_morphisms


G = graph_of("", "a:1->2 b:2->3 c:3->4 d:4->5 e:1->3 f:1->3 g:3->5")
COMP_ARITY = graph_of("", "e1:v1->v2 e2:v2->v3 e3:v1->v3")
MONIC_ARITY = graph_of("", "e:v1->v2")
K1 = graph_of("", "e1:v1->v2 e2:v2->v3")


@st.composite
def small_graphs(draw, max_nodes=4, max_edges=5):
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    nodes = ["n%d" % i for i in range(n)]
    k = draw(st.integers(min_value=0, max_value=max_edges)) if n else 0
    src, tgt = {}, {}
    for i in range(k):
        src["x%d" % i] = draw(st.sampled_from(nodes))
        tgt["x%d" % i] = draw(st.sampled_from(nodes))
    return Graph(nodes, src.keys(), src, tgt)


class TestValidation:
    def test_empty_graph_valid(self):
        assert validate_graph(EMPTY_GRAPH) == []

    def test_example_graph_valid(self):
        assert validate_graph(G) == []

    def test_dangling_target(self):
        bad = Graph(["1"], ["x"], {"x": "1"}, {"x": "9"})
        problems = validate_graph(bad)
        assert len(problems) == 1
        assert "dangling target" in problems[0]

    def test_shared_name(self):
        bad = Graph(["1", "x"], ["x"], {"x": "1"}, {"x": "1"})
        assert any("both a node and an edge" in p for p in validate_graph(bad))

    def test_graph_immutable(self):
        with pytest.raises(AttributeError):
            G.nodes = frozenset()

    def test_incidence_maps_read_only(self):
        g = graph_of("", "a:1->2")
        for incidence in (g.src, g.tgt):
            with pytest.raises(TypeError):
                incidence["a"] = "2"
        assert g == graph_of("", "a:1->2")

    def test_constructor_copies_incidence(self):
        src, tgt = {"a": "1"}, {"a": "2"}
        g = Graph(["1", "2"], ["a"], src, tgt)
        src["a"] = "2"
        assert g.src["a"] == "1" and hash(g) == hash(graph_of("", "a:1->2"))

    def test_morphism_maps_read_only(self):
        t = morphism_of(K1, G, edges={"e1": "a", "e2": "b"})
        with pytest.raises(TypeError):
            t.node_map["v1"] = "2"
        with pytest.raises(TypeError):
            t.edge_map["e1"] = "e"
        assert t == morphism_of(K1, G, edges={"e1": "a", "e2": "b"})


class TestIdentity:
    @settings(max_examples=200, deadline=None)
    @given(small_graphs(), st.randoms(use_true_random=False))
    def test_shuffled_inputs_give_equal_graphs(self, g, rnd):
        def shuffled(items):
            items = list(items)
            rnd.shuffle(items)
            return items

        again = Graph(shuffled(g.nodes), shuffled(g.edges),
                      dict(shuffled(g.src.items())),
                      dict(shuffled(g.tgt.items())))
        assert again == g and g == again and hash(again) == hash(g)

    @settings(max_examples=200, deadline=None)
    @given(small_graphs(), st.data())
    def test_moving_one_endpoint_gives_another_graph(self, g, data):
        assume(g.edges and len(g.nodes) > 1)
        e = data.draw(st.sampled_from(sorted(g.edges)))
        side = data.draw(st.sampled_from(["src", "tgt"]))
        ends = dict(getattr(g, side))
        ends[e] = data.draw(st.sampled_from(sorted(g.nodes - {ends[e]})))
        moved = Graph(g.nodes, g.edges, **{"src": g.src, "tgt": g.tgt,
                                           side: ends})
        assert moved != g and g != moved


class TestComposition:
    def test_identity_left(self):
        t = morphism_of(K1, G, edges={"e1": "a", "e2": "b"})
        assert compose(identity(K1), t) == t

    def test_identity_right(self):
        t1 = morphism_of(K1, G, edges={"e1": "a", "e2": "b"})
        assert compose(t1, identity(G)) == t1

    def test_pointwise_table(self):
        # iota identifies e3,e4 |-> e; follow with r sending e to a concrete edge
        l3 = graph_of("", "e1:v1->v2 e2:v2->v3 e3:v1->v3 e4:v1->v3")
        m3 = graph_of("", "e1:v1->v2 e2:v2->v3 e:v1->v3")
        iota = morphism_of(l3, m3,
                           edges={"e1": "e1", "e2": "e2", "e3": "e", "e4": "e"})
        r = morphism_of(m3, G, edges={"e1": "a", "e2": "b", "e": "e"})
        both = compose(iota, r)
        assert both.edge_map == {"e1": "a", "e2": "b", "e3": "e", "e4": "e"}
        assert both.node_map == {"v1": "1", "v2": "2", "v3": "3"}

    def test_mismatch(self):
        with pytest.raises(MismatchError):
            compose(identity(K1), identity(G))

    def test_associative_on_sampled_triples(self):
        fs = enumerate_morphisms(MONIC_ARITY, K1)
        gs = enumerate_morphisms(K1, G)
        hs = [identity(G)]
        for f, g, h in itertools.product(fs, gs, hs):
            assert compose(compose(f, g), h) == compose(f, compose(g, h))


ARROW = graph_of("", "a:1->2")
CYCLE = graph_of("", "b:x->y c:y->x")


@pytest.mark.parametrize("nodes, edges, message", [
    ({"1": "x"}, {"a": "b"}, "node '2' of the domain is unmapped"),
    ({"1": "x", "2": "z"}, {"a": "b"}, "node '2' maps outside the codomain"),
    ({"1": "x", "2": "y"}, {}, "edge 'a' of the domain is unmapped"),
    ({"1": "x", "2": "y"}, {"a": "d"}, "edge 'a' maps outside the codomain"),
    ({"1": "x", "2": "y"}, {"a": "c"},
     "edge 'a': image does not respect source/target"),
])
def test_morphism_constructor_rejects(nodes, edges, message):
    with pytest.raises(MismatchError) as err:
        GraphMorphism(ARROW, CYCLE, nodes, edges)
    assert str(err.value) == message


class TestMorphismOf:
    def test_infers_nodes_from_edges(self):
        t = morphism_of(K1, G, edges={"e1": "a", "e2": "b"})
        assert t.node_map == {"v1": "1", "v2": "2", "v3": "3"}

    def test_isolated_node_needs_explicit_image(self):
        with pytest.raises(MismatchError, match="isolated"):
            morphism_of(graph_of("v"), G)

    def test_conflicting_forced_images(self):
        with pytest.raises(MismatchError, match="conflicting"):
            morphism_of(K1, G, edges={"e1": "a", "e2": "d"})


class TestEnumeration:
    def test_single_node_counts_nodes(self):
        assert len(enumerate_morphisms(graph_of("v"), G)) == 5

    def test_single_edge_counts_edges(self):
        assert len(enumerate_morphisms(MONIC_ARITY, G)) == 7

    def test_comp_arity_matches_oracle(self):
        got = enumerate_morphisms(COMP_ARITY, G)
        want = brute_force_morphisms(COMP_ARITY, G)
        assert set(got) == set(want)
        assert got == want

    def test_search_leaves_no_reference_cycle(self):
        # the per-call codomain index is freed as soon as a search ends
        gc.collect()
        gc.disable()
        try:
            assert len(enumerate_morphisms(COMP_ARITY, G)) == 3
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_deterministic(self):
        assert enumerate_morphisms(K1, G) == enumerate_morphisms(K1, G)

    def test_empty_codomain(self):
        assert enumerate_morphisms(graph_of("v"), EMPTY_GRAPH) == []
        assert enumerate_morphisms(EMPTY_GRAPH, EMPTY_GRAPH) == [
            identity(EMPTY_GRAPH)]

    @settings(max_examples=40, deadline=None)
    @given(a=small_graphs(max_nodes=3, max_edges=3),
           g=small_graphs(max_nodes=3, max_edges=4))
    def test_matches_brute_force(self, a, g):
        got = enumerate_morphisms(a, g)
        want = brute_force_morphisms(a, g)
        # the oracle iterates node images, then edge images, each in
        # lexicographic order: the canonical order itself
        assert got == want
        assert len(got) == len(set(got))

    @settings(max_examples=60, deadline=None)
    @given(a=small_graphs(max_nodes=3, max_edges=3),
           g=small_graphs(max_nodes=3, max_edges=4), data=st.data())
    def test_extending_matches_filtered_brute_force(self, a, g, data):
        # seeds may name images outside g and may disagree with the
        # endpoints a seeded edge forces
        images = sorted(g.nodes) + ["absent"]
        node_seed = {n: data.draw(st.sampled_from(images))
                     for n in sorted(a.nodes) if data.draw(st.booleans())}
        edge_seed = {e: data.draw(st.sampled_from(sorted(g.edges)))
                     for e in sorted(a.edges)
                     if g.edges and data.draw(st.booleans())}
        want = [m for m in brute_force_morphisms(a, g)
                if all(m.node_map[n] == img for n, img in node_seed.items())
                and all(m.edge_map[e] == img for e, img in edge_seed.items())]
        assert enumerate_morphisms_extending(a, g, node_seed, edge_seed) == want

    @settings(max_examples=60, deadline=None)
    @given(k=small_graphs(max_nodes=2, max_edges=2),
           m=small_graphs(max_nodes=3, max_edges=3),
           g=small_graphs(max_nodes=3, max_edges=4), data=st.data())
    def test_extensions_match_filtered_brute_force(self, k, m, g, data):
        shifts, anchors = enumerate_morphisms(k, m), enumerate_morphisms(k, g)
        assume(shifts and anchors)
        a = data.draw(st.sampled_from(shifts))
        t = data.draw(st.sampled_from(anchors))
        want = [r for r in brute_force_morphisms(m, g) if compose(a, r) == t]
        assert enumerate_extensions(a, t) == want

    def test_l3_into_duplicate_composite_chain(self):
        # arrows a0..a11 between nodes "0".."12"; composites c_i, d_i: i -> i+2
        n = 12
        chain = graph_of("", " ".join(
            ["a%d:%d->%d" % (i, i, i + 1) for i in range(n)]
            + ["%s%d:%d->%d" % (x, i, i, i + 2)
               for i in range(n - 1) for x in "cd"]))
        l3 = graph_of("", "e1:v1->v2 e2:v2->v3 e3:v1->v3 e4:v1->v3")
        got = enumerate_morphisms(l3, chain)
        # v1 -> v3 spans two steps, so e1, e2 are a_i, a_i+1 and e3, e4 each
        # pick c_i or d_i: 4 per start node i = 0..n-2
        assert len(got) == 4 * (n - 1)
        assert got[0] == morphism_of(
            l3, chain, edges={"e1": "a0", "e2": "a1", "e3": "c0", "e4": "c0"})
        # node names compare as strings, so "9" is the last start node
        assert got[-1] == morphism_of(
            l3, chain, edges={"e1": "a9", "e2": "a10", "e3": "d9", "e4": "d9"})

    def test_seed_outside_the_domain_is_ignored(self):
        got = enumerate_morphisms_extending(MONIC_ARITY, G, {"zz": "1"}, {})
        assert got == enumerate_morphisms(MONIC_ARITY, G)
        assert all(m.node_map.keys() == {"v1", "v2"} for m in got)


class TestExtensions:
    def test_identity_shift_gives_anchor(self):
        t = morphism_of(K1, G, edges={"e1": "a", "e2": "b"})
        assert enumerate_extensions(identity(K1), t) == [t]

    def test_composable_pair_has_two_completions(self):
        incl = morphism_of(K1, COMP_ARITY, edges={"e1": "e1", "e2": "e2"})
        t1 = morphism_of(K1, G, edges={"e1": "a", "e2": "b"})
        rs = enumerate_extensions(incl, t1)
        assert [r.edge_map["e3"] for r in rs] == ["e", "f"]

    def test_conflicting_seed_gives_nothing(self):
        l3 = graph_of("", "e1:v1->v2 e2:v2->v3 e3:v1->v3 e4:v1->v3")
        m3 = graph_of("", "e1:v1->v2 e2:v2->v3 e:v1->v3")
        iota = morphism_of(l3, m3,
                           edges={"e1": "e1", "e2": "e2", "e3": "e", "e4": "e"})
        t = morphism_of(l3, G,
                        edges={"e1": "a", "e2": "b", "e3": "e", "e4": "f"})
        assert enumerate_extensions(iota, t) == []

    def test_extensions_characterization(self):
        incl = morphism_of(K1, COMP_ARITY, edges={"e1": "e1", "e2": "e2"})
        for t in enumerate_morphisms(K1, G):
            rs = enumerate_extensions(incl, t)
            all_homs = enumerate_morphisms(COMP_ARITY, G)
            assert set(rs) <= set(all_homs)
            assert set(rs) == {r for r in all_homs if compose(incl, r) == t}


class TestIsoMono:
    def test_identity_is_iso(self):
        assert is_isomorphism(identity(G))
        assert invert(identity(G)) == identity(G)

    def test_merge_is_neither(self):
        l3 = graph_of("", "e3:v1->v3 e4:v1->v3")
        m3 = graph_of("", "e:v1->v3")
        iota = morphism_of(l3, m3, edges={"e3": "e", "e4": "e"})
        assert not is_monomorphism(iota)
        assert not is_isomorphism(iota)
        with pytest.raises(NotInvertibleError):
            invert(iota)

    def test_renaming_bijection(self):
        a = graph_of("", "e:v1->v2")
        b = graph_of("", "e:v->v1")
        m = morphism_of(a, b, edges={"e": "e"})
        assert is_isomorphism(m)
        inv = invert(m)
        assert compose(m, inv) == identity(a)
        assert compose(inv, m) == identity(b)
