import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsketch.category import (PushoutResult, initial_morphism, pair_name,
                              pullback, pushout, tagged_quotient)
from gsketch.graphs import (EMPTY_GRAPH, MismatchError, compose,
                            enumerate_morphisms, graph_of, identity,
                            is_isomorphism, morphism_of)
from gsketch.oracles import (default_test_graphs, verify_pullback,
                             verify_pushout)

from conftest import union_find_quotient

G = graph_of("", "a:1->2 b:2->3 c:3->4 d:4->5 e:1->3 f:1->3 g:3->5")


class TestInitial:
    def test_initial_graph_is_empty(self):
        assert EMPTY_GRAPH.is_empty()
        assert initial_morphism(G).dom == EMPTY_GRAPH

    def test_initial_morphism_of_empty(self):
        assert initial_morphism(EMPTY_GRAPH) == identity(EMPTY_GRAPH)

    def test_initial_morphism_shape(self):
        m = initial_morphism(G)
        assert m.cod == G and m.node_map == {} and m.edge_map == {}

    def test_initiality(self):
        assert enumerate_morphisms(EMPTY_GRAPH, G) == [initial_morphism(G)]


class TestPushout:
    def test_empty_apex_is_disjoint_union(self):
        b, a = graph_of("x"), graph_of("y")
        po = pushout(initial_morphism(b), initial_morphism(a))
        assert po.object.nodes == {"L:x", "R:y"}
        assert verify_pushout(initial_morphism(b), initial_morphism(a), po)

    def test_along_identity(self):
        c = graph_of("", "k:x->y")
        r = morphism_of(c, G, edges={"k": "a"})
        po = pushout(identity(c), r)
        assert is_isomorphism(po.right)
        assert verify_pushout(identity(c), r, po)

    def test_merge_parallel_edges(self):
        b = graph_of("", "e3:v1->v3 e4:v1->v3")
        a = graph_of("", "e:v1->v3")
        iota = morphism_of(b, a, edges={"e3": "e", "e4": "e"})
        po = pushout(identity(b), iota)
        assert len(po.object.edges) == 1
        assert verify_pushout(identity(b), iota, po)

    def test_canonical_naming(self):
        # classes are named after their lexicographically least tagged member
        b, a = graph_of("p"), graph_of("q")
        c = graph_of("z")
        m = morphism_of(c, b, nodes={"z": "p"})
        r = morphism_of(c, a, nodes={"z": "q"})
        po = pushout(m, r)
        assert po.object.nodes == {"L:p"}

    def test_mismatch(self):
        with pytest.raises(MismatchError):
            pushout(identity(G), identity(graph_of("x")))

    def test_symmetry_up_to_iso(self):
        c = graph_of("", "k:x->y")
        b = graph_of("", "k:x->y l:x->y")
        m = morphism_of(c, b, edges={"k": "k"})
        r = morphism_of(c, G, edges={"k": "a"})
        d1 = pushout(m, r).object
        d2 = pushout(r, m).object
        assert any(is_isomorphism(phi) for phi in enumerate_morphisms(d1, d2))


class TestPullback:
    def test_along_identity(self):
        b = graph_of("", "k:x->y")
        m = morphism_of(b, G, edges={"k": "b"})
        pb = pullback(m, identity(G))
        assert is_isomorphism(pb.left)
        assert verify_pullback(m, identity(G), pb)

    def test_single_nodes(self):
        c = graph_of("v")
        m = morphism_of(graph_of("x"), c, nodes={"x": "v"})
        r = morphism_of(graph_of("y"), c, nodes={"y": "v"})
        pb = pullback(m, r)
        assert pb.object.nodes == {"x|y"} and not pb.object.edges

    def test_distinct_parallel_edges_have_empty_fiber(self):
        arrow = graph_of("", "e:v1->v2")
        m = morphism_of(arrow, G, edges={"e": "e"})
        r = morphism_of(arrow, G, edges={"e": "f"})
        pb = pullback(m, r)
        assert pb.object.nodes == {"v1|v1", "v2|v2"}
        assert pb.object.edges == frozenset()
        assert verify_pullback(m, r, pb)

    def test_projections_jointly_monic(self):
        arrow = graph_of("", "e:v1->v2")
        m = morphism_of(arrow, G, edges={"e": "b"})
        r = morphism_of(arrow, G, edges={"e": "b"})
        pb = pullback(m, r)
        keys = {(pb.left.node_map[n], pb.right.node_map[n])
                for n in pb.object.nodes}
        assert len(keys) == len(pb.object.nodes)

    def test_mismatch(self):
        with pytest.raises(MismatchError):
            pullback(identity(G), identity(graph_of("x")))

    def test_names_with_bars_stay_apart(self):
        # unescaped, (a|b, c) and (a, b|c) would both be named a|b|c
        c = graph_of("v")
        m = morphism_of(graph_of("a|b a"), c, nodes={"a|b": "v", "a": "v"})
        r = morphism_of(graph_of("c b|c"), c, nodes={"c": "v", "b|c": "v"})
        pb = pullback(m, r)
        assert pb.object.nodes == {"a\\|b|c", "a\\|b|b\\|c", "a|c", "a|b\\|c"}
        assert verify_pullback(m, r, pb)


class TestVerifiers:
    def test_rejects_wrong_disjoint_union(self):
        # pretending a pushout with identifications is a plain coproduct
        c = graph_of("z")
        b, a = graph_of("p"), graph_of("q")
        m = morphism_of(c, b, nodes={"z": "p"})
        r = morphism_of(c, a, nodes={"z": "q"})
        union = graph_of("L:p R:q")
        fake = PushoutResult(union,
                             morphism_of(b, union, nodes={"p": "L:p"}),
                             morphism_of(a, union, nodes={"q": "R:q"}))
        assert not verify_pushout(m, r, fake)

    def test_all_spans_over_small_fixtures(self):
        pool = default_test_graphs()
        c = graph_of("", "k:x->y")
        for b in pool:
            for m in enumerate_morphisms(c, b):
                for a in pool:
                    for r in enumerate_morphisms(c, a):
                        assert verify_pushout(m, r, pushout(m, r))

    def test_all_cospans_over_small_fixtures(self):
        pool = default_test_graphs()
        c = graph_of("", "k:x->y")
        for b in pool:
            for m in enumerate_morphisms(b, c):
                for a in pool:
                    for r in enumerate_morphisms(a, c):
                        assert verify_pullback(m, r, pullback(m, r))

    def test_commutativity(self):
        c = graph_of("", "k:x->y")
        r = morphism_of(c, G, edges={"k": "a"})
        po = pushout(identity(c), r)
        assert compose(identity(c), po.left) == compose(r, po.right)


class TestPairName:
    def test_plain_names_are_joined_as_they_are(self):
        assert pair_name("b", "a") == "b|a"
        assert pair_name("L:x", "") == "L:x|"

    def test_bar_and_backslash_are_escaped(self):
        assert pair_name("a|b", "c") == "a\\|b|c"
        assert pair_name("a", "b|c") == "a|b\\|c"
        assert pair_name("a\\", "|") == "a\\\\|\\|"

    @settings(max_examples=200, deadline=None)
    @given(st.text("ab|\\"), st.text("ab|\\"))
    def test_pair_is_recovered(self, x, y):
        # so distinct pairs never share a name
        assert split_pair(pair_name(x, y)) == (x, y)


def split_pair(name):
    """The two names joined by ``pair_name``: the text on either side of
    the one unescaped bar, with the escapes removed."""
    parts, current, chars = [], [], iter(name)
    for ch in chars:
        if ch == "\\":
            current.append(next(chars))
        elif ch == "|":
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    return (*parts, "".join(current))


@st.composite
def quotient_inputs(draw, names=st.sampled_from("abcdefgh")):
    """Random left and right member sets and glue pairs between them."""
    members = st.sets(names, max_size=6)
    left, right = draw(members), draw(members)
    pairs = st.tuples(st.sampled_from(sorted(left)),
                      st.sampled_from(sorted(right)))
    glue = draw(st.lists(pairs, max_size=8)) if left and right else []
    return left, right, glue


class TestTaggedQuotient:
    @settings(max_examples=200, deadline=None)
    @given(quotient_inputs())
    def test_agrees_with_union_find(self, inputs):
        assert tagged_quotient(*inputs) == union_find_quotient(*inputs)

    @settings(max_examples=300, deadline=None)
    @given(quotient_inputs(st.sampled_from(
        ["", ":", "L", "R", "L:", "R:", "L:a", "R:a", ":a", "a:", "a", "b"])))
    def test_agrees_with_union_find_on_tag_like_names(self, inputs):
        assert tagged_quotient(*inputs) == union_find_quotient(*inputs)

    def test_tag_like_names(self):
        names_l, names_r = tagged_quotient(
            {"", "R:a", "L"}, {"", "L:", ":"}, [("R:a", "L:"), ("L", "L:")])
        assert names_l == {"": "L:", "R:a": "L:L", "L": "L:L"}
        assert names_r == {"": "R:", "L:": "L:L", ":": "R::"}

    def test_class_named_by_least_tag(self):
        names_l, names_r = tagged_quotient(
            {"x", "y"}, {"p", "q"}, [("y", "p"), ("x", "p")])
        assert names_l == {"x": "L:x", "y": "L:x"}
        assert names_r == {"p": "L:x", "q": "R:q"}
