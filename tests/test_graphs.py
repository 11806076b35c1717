import gc
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gsketch.graphs import (EMPTY_GRAPH, Graph, GraphMorphism, MismatchError,
                            NotInvertibleError, compose, enumerate_extensions,
                            enumerate_morphisms, enumerate_morphisms_extending,
                            graph_of, identity, inclusion, invert,
                            is_isomorphism, is_monomorphism, iter_extensions,
                            morphism_of, search)

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
    """A graph is valid by construction: each invariant is checked by the
    constructor, and each message names the least offending element, so it
    does not depend on the order of set iteration."""

    def test_empty_graph_valid(self):
        assert EMPTY_GRAPH == Graph([], [], {}, {}) and repr(EMPTY_GRAPH)

    def test_example_graph_valid(self):
        assert G == Graph(G.nodes, G.edges, G.src, G.tgt)

    @pytest.mark.parametrize("src, tgt, message", [
        ({"b": "1"}, {"a": "1", "b": "1"}, "^edge 'a' has no source$"),
        ({"a": "1", "b": "1"}, {"b": "1"}, "^edge 'a' has no target$"),
        ({}, {}, "^edge 'a' has no source$"),  # once built, repr failed
        ({"a": "1", "b": "1", "c": "1"}, {"a": "1", "b": "1"},
         "^the source map names 'c', which is not an edge$"),
        ({"a": "1", "b": "1"}, {"a": "1", "b": "1", "z": "1", "c": "1"},
         "^the target map names 'c', which is not an edge$"),
    ])
    def test_incidence_keyed_by_exactly_the_edges(self, src, tgt, message):
        with pytest.raises(ValueError, match=message):
            Graph(["1"], ["a", "b"], src, tgt)

    def test_dangling_target(self):
        # once built, this graph let a search map a node to the missing '9'
        with pytest.raises(ValueError,
                           match="^edge 'a' has dangling target '9'$"):
            Graph({"1"}, {"a"}, {"a": "1"}, {"a": "9"})

    @pytest.mark.parametrize("src, tgt, message", [
        ({"x": "8"}, {"x": "9"}, "^edge 'x' has dangling source '8'$"),
        ({"x": "1", "w": "1"}, {"x": "9", "w": "7"},
         "^edge 'w' has dangling target '7'$"),
    ])
    def test_endpoints_are_nodes(self, src, tgt, message):
        # the least edge with a dangling end is named, its source before
        # its target
        with pytest.raises(ValueError, match=message):
            Graph(["1"], src.keys(), src, tgt)

    def test_shared_name(self):
        with pytest.raises(ValueError,
                           match="^name 'x' is both a node and an edge$"):
            Graph(["1", "x", "y"], ["y", "x"], {"x": "1", "y": "1"},
                  {"x": "1", "y": "1"})

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


FOUR = graph_of("a b c d")
PARALLEL = graph_of("", "p:1->2 q:1->2")


@pytest.mark.parametrize("dom, nodes, edges, message", [
    # each node offends; the least is named, whatever the set order
    (FOUR, {n: "q" for n in "abcd"}, {}, "node 'a' maps outside the codomain"),
    (FOUR, {}, {}, "node 'a' of the domain is unmapped"),
    (FOUR, {"d": "x", "b": "y"}, {}, "node 'a' of the domain is unmapped"),
    (FOUR, {"a": "x", "b": "x", "c": "x", "d": "x", "zz": "x", "yy": "x"}, {},
     "the node map names 'yy', which is not in the domain"),
    (FOUR, {n: "x" for n in "abcd"}, {"e": "b"},
     "the edge map names 'e', which is not in the domain"),
    (PARALLEL, {"1": "x", "2": "y"}, {"q": "zz", "p": "zz"},
     "edge 'p' maps outside the codomain"),
])
def test_morphism_constructor_names_the_least_offender(dom, nodes, edges,
                                                       message):
    with pytest.raises(MismatchError) as err:
        GraphMorphism(dom, CYCLE, nodes, edges)
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

    @pytest.mark.parametrize("nodes, edges, message", [
        ({"zz": "1"}, {"e1": "a", "e2": "b"}, "unknown node 'zz' in assignment"),
        # an edge is not a node, also where the edge is mapped as well
        ({"e1": "1"}, {"e1": "a", "e2": "b"}, "unknown node 'e1' in assignment"),
        ({}, {"e1": "a", "zz": "b"}, "unknown edge 'zz' in assignment"),
    ])
    def test_unknown_key_rejected(self, nodes, edges, message):
        with pytest.raises(MismatchError) as err:
            morphism_of(K1, G, nodes, edges)
        assert str(err.value) == message

    @pytest.mark.parametrize("dom, nodes, edges, message", [
        # the constructor's least-offender cases that morphism_of reaches:
        # all nodes, or some, map outside the codomain
        (FOUR, {n: "q" for n in "abcd"}, {}, "node 'a' maps outside the codomain"),
        (FOUR, {"a": "x", "b": "q", "c": "y", "d": "q"}, {},
         "node 'b' maps outside the codomain"),
        # neither edge of a parallel pair is mapped, or only one
        (PARALLEL, {"1": "x", "2": "y"}, {}, "edge 'p' of the domain is unmapped"),
        (PARALLEL, {"1": "x", "2": "y"}, {"q": "b"},
         "edge 'p' of the domain is unmapped"),
        (PARALLEL, {"1": "x", "2": "y"}, {"p": "b"},
         "edge 'q' of the domain is unmapped"),
    ])
    def test_names_the_constructors_least_offender(self, dom, nodes, edges,
                                                   message):
        # morphism_of checks the maps itself; it names what the constructor
        # names
        for build in (GraphMorphism, morphism_of):
            with pytest.raises(MismatchError) as err:
                build(dom, CYCLE, nodes, edges)
            assert str(err.value) == message


@st.composite
def subgraphs(draw, big):
    """Some nodes of ``big`` and some of the edges between them."""
    nodes = {n for n in sorted(big.nodes) if draw(st.booleans())}
    edges = [e for e in sorted(big.edges) if big.src[e] in nodes
             and big.tgt[e] in nodes and draw(st.booleans())]
    return Graph(nodes, edges, {e: big.src[e] for e in edges},
                 {e: big.tgt[e] for e in edges})


class TestInclusion:
    @settings(max_examples=200, deadline=None)
    @given(small_graphs(max_nodes=3, max_edges=4), st.data())
    def test_equals_its_checked_rebuild(self, big, data):
        # a subgraph, drawn as such or by chance, the graph itself, or any
        # other graph: the unchecked build is the checked one, and a graph
        # that is no subgraph fails with the constructor's message
        small = data.draw(st.one_of(subgraphs(big), st.just(big),
                                    small_graphs(max_nodes=3, max_edges=4)))
        nodes, edges = {n: n for n in small.nodes}, {e: e for e in small.edges}
        try:
            want = GraphMorphism(small, big, nodes, edges)
        except MismatchError as exc:
            with pytest.raises(MismatchError) as err:
                inclusion(small, big)
            assert str(err.value) == str(exc)
            return
        got = inclusion(small, big)
        assert got == want and hash(got) == hash(want)
        assert dict(got.node_map) == nodes and dict(got.edge_map) == edges
        if small is big:
            assert identity(big) == want

    @pytest.mark.parametrize("small, message", [
        (graph_of("1 9"), "node '9' maps outside the codomain"),
        # the edge exists in the codomain, between other nodes
        (graph_of("", "a:2->1"), "edge 'a': image does not respect "
                                 "source/target"),
        (graph_of("", "z:1->2"), "edge 'z' maps outside the codomain"),
    ])
    def test_no_subgraph_is_named_by_the_constructor(self, small, message):
        with pytest.raises(MismatchError) as err:
            inclusion(small, G)
        assert str(err.value) == message


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
        # a search's own tables are freed as soon as it ends or is dropped
        # after its first result; the codomain index stays on the graph
        gc.collect()
        gc.disable()
        try:
            assert len(enumerate_morphisms(COMP_ARITY, G)) == 3
            assert next(search(COMP_ARITY, G, {}, {})) is not None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_search_draws_the_list_in_order(self):
        drawn = search(COMP_ARITY, G, {}, {})
        want = enumerate_morphisms(COMP_ARITY, G)
        assert next(drawn) == want[0]
        assert [next(drawn)] + list(drawn) == want[1:]

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
        for node_seed, edge_seed in (({"zz": "1"}, {}), ({}, {"zz": "a"})):
            got = enumerate_morphisms_extending(MONIC_ARITY, G, node_seed,
                                                edge_seed)
            assert got == enumerate_morphisms(MONIC_ARITY, G)
            assert all(m.node_map.keys() == {"v1", "v2"} for m in got)
            assert all(m.edge_map.keys() == {"e"} for m in got)


class TestSearchIndex:
    @settings(max_examples=60, deadline=None)
    @given(a=small_graphs(max_nodes=3, max_edges=3),
           b=small_graphs(max_nodes=3, max_edges=3),
           g=small_graphs(max_nodes=3, max_edges=4))
    def test_reused_index_gives_the_fresh_list(self, a, b, g):
        # g keeps its index from the first search; an equal graph built
        # anew has none yet
        fresh = Graph(g.nodes, g.edges, g.src, g.tgt)
        for dom in (a, b, a):
            want = brute_force_morphisms(dom, g)
            assert enumerate_morphisms(dom, g) == want
            assert enumerate_morphisms(dom, g) == want
        assert enumerate_morphisms(a, fresh) == brute_force_morphisms(a, g)

    def test_index_leaves_equality_hash_and_repr_alone(self):
        used = graph_of("", "a:1->2 b:2->3 c:1->3")
        fresh = graph_of("", "a:1->2 b:2->3 c:1->3")
        before = (hash(used), repr(used))
        assert enumerate_morphisms(MONIC_ARITY, used)
        assert (hash(used), repr(used)) == before == (hash(fresh), repr(fresh))
        assert used == fresh and fresh == used
        assert used != graph_of("", "a:1->2 b:2->3 c:2->3")

    def test_no_attribute_can_be_assigned(self):
        g = graph_of("", "a:1->2")
        enumerate_morphisms(MONIC_ARITY, g)
        for name in ("nodes", "edges", "src", "tgt", "_index", "other"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)
        assert enumerate_morphisms(MONIC_ARITY, g) == \
            brute_force_morphisms(MONIC_ARITY, g)


class TestExtensions:
    def test_iter_extensions_draws_the_list(self):
        incl = morphism_of(K1, COMP_ARITY, edges={"e1": "e1", "e2": "e2"})
        for t in enumerate_morphisms(K1, G):
            assert list(iter_extensions(incl, t)) == enumerate_extensions(incl, t)

    def test_iter_extensions_checks_domains_before_drawing(self):
        with pytest.raises(MismatchError):
            iter_extensions(identity(K1), identity(G))

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
