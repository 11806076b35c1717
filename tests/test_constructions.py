"""Differential tests for the constructions that build their values
without validation: every morphism a search yields, every leg of a pushout,
pullback, composite, inverse, chosen pushout and sketch (co)limit,
every paired statement binding and every rule match equals its rebuild
through the validating constructor.  The graphs, spans and cospans are
random, their legs often not injective, and their element names hold the
characters that pushout and pullback names are made of."""
from hypothesis import given, settings
from hypothesis import strategies as st

from gsketch.category import pullback, pushout
from gsketch.ct import COMP, FINAL, MONIC
from gsketch.deduction import Rule, apply_rule, find_matches
from gsketch.graphs import (Graph, GraphMorphism, compose,
                            enumerate_extensions, enumerate_morphisms,
                            identity, invert)
from gsketch.oracles import (composed_statement, verify_pullback,
                             verify_pushout)
from gsketch.sketches import (Sketch, SketchMorphism, Statement,
                              sketch_pullback, sketch_pushout)
from gsketch.translation import chosen_pushout

from strategies import small_graphs

NAMES = ["p", "q", "L:p", "R:", "p|q", "|", "p\\", ""]


def assert_valid(m):
    """``m`` is a homomorphism keyed by exactly its domain's elements: the
    validating constructor accepts its maps and builds an equal value."""
    again = GraphMorphism(m.dom, m.cod, dict(m.node_map), dict(m.edge_map))
    assert m == again and again == m and hash(m) == hash(again)


def assert_valid_sketch_leg(leg):
    assert_valid(leg.morphism)
    assert SketchMorphism(leg.dom, leg.cod, leg.morphism) == leg


@st.composite
def legs_from(draw, c):
    """A morphism out of ``c``: nodes go to names drawn from NAMES, so some
    share an image; each edge goes to a new edge or, at random, to one
    already placed between the same images.  The codomain gets up to two
    more nodes and edges."""
    node_map = {n: draw(st.sampled_from(NAMES)) for n in sorted(c.nodes)}
    nodes = set(node_map.values()) | draw(st.sets(st.sampled_from(NAMES),
                                                   max_size=2))
    src, tgt, edge_map = {}, {}, {}
    for e in sorted(c.edges):
        ends = node_map[c.src[e]], node_map[c.tgt[e]]
        parallel = [f for f in sorted(src) if (src[f], tgt[f]) == ends]
        if parallel and draw(st.booleans()):
            edge_map[e] = draw(st.sampled_from(parallel))
        else:
            f = "e%d|%s" % (len(src), draw(st.sampled_from(NAMES)))
            src[f], tgt[f] = ends
            edge_map[e] = f
    for i in range(draw(st.integers(0, 2)) if nodes else 0):
        f = "x%d\\" % i
        src[f] = draw(st.sampled_from(sorted(nodes)))
        tgt[f] = draw(st.sampled_from(sorted(nodes)))
    return GraphMorphism(c, Graph(nodes, src, src, tgt), node_map, edge_map)


@st.composite
def spans(draw):
    c = draw(small_graphs(max_nodes=3, max_edges=3))
    return draw(legs_from(c)), draw(legs_from(c))


@st.composite
def renamings(draw):
    """An isomorphism from a random graph onto a copy whose nodes are
    renamed to short strings of ``p``, ``|`` and ``\\``."""
    g = draw(small_graphs(max_nodes=3, max_edges=3))
    names = draw(st.lists(st.text("p|\\", max_size=3), unique=True,
                          min_size=len(g.nodes), max_size=len(g.nodes)))
    node_map = dict(zip(sorted(g.nodes), names))
    edge_map = {e: "%s|%s" % (e, node_map[g.src[e]]) for e in sorted(g.edges)}
    h = Graph(node_map.values(), edge_map.values(),
              {edge_map[e]: node_map[g.src[e]] for e in g.edges},
              {edge_map[e]: node_map[g.tgt[e]] for e in g.edges})
    return GraphMorphism(g, h, node_map, edge_map)


@st.composite
def cospans(draw):
    """B -m-> C <-r- A, each leg a random morphism into C from a renamed
    copy of a random graph, or the identity of C when there is none."""
    c = draw(small_graphs(max_nodes=2, max_edges=3))
    legs = []
    for _ in range(2):
        renaming = draw(renamings())
        homs = enumerate_morphisms(renaming.dom, c)
        legs.append(compose(invert(renaming), draw(st.sampled_from(homs)))
                    if homs else identity(c))
    return tuple(legs)


def some_statements(draw, g, max_size=4):
    candidates = [Statement(p, b) for p in (FINAL, MONIC, COMP)
                  for b in enumerate_morphisms(p.arity, g)]
    if not candidates:
        return set()
    return draw(st.sets(st.sampled_from(candidates), max_size=max_size))


class TestGraphLegs:
    @settings(max_examples=300, deadline=None)
    @given(spans())
    def test_pushout(self, span):
        m, r = span
        po = pushout(m, r)
        assert_valid(po.left)
        assert_valid(po.right)
        assert verify_pushout(m, r, po)

    @settings(max_examples=300, deadline=None)
    @given(cospans())
    def test_pullback(self, cospan):
        m, r = cospan
        pb = pullback(m, r)
        assert_valid(pb.left)
        assert_valid(pb.right)
        assert verify_pullback(m, r, pb)

    @settings(max_examples=200, deadline=None)
    @given(spans())
    def test_chosen_pushout_and_composites(self, span):
        m, r = span
        # (r, r) has an isomorphism on the left only when r is one
        for c, a in ((m, r), (r, r), (identity(m.dom), r)):
            a_star, c_star = chosen_pushout(c, a)
            assert_valid(a_star)
            assert_valid(c_star)
            assert_valid(compose(c, a_star))
            assert compose(c, a_star) == compose(a, c_star)

    @settings(max_examples=200, deadline=None)
    @given(renamings())
    def test_invert(self, iso):
        inverse = invert(iso)
        assert_valid(inverse)
        assert compose(iso, inverse) == identity(iso.dom)
        assert compose(inverse, iso) == identity(iso.cod)


class TestSearchOutput:
    @settings(max_examples=200, deadline=None)
    @given(small_graphs(max_nodes=3, max_edges=3),
           small_graphs(max_nodes=3, max_edges=4))
    def test_enumerate_morphisms(self, a, g):
        for m in enumerate_morphisms(a, g):
            assert_valid(m)

    @settings(max_examples=200, deadline=None)
    @given(spans())
    def test_enumerate_extensions(self, span):
        m, r = span
        for x in enumerate_extensions(m, r):
            assert_valid(x)
            assert compose(m, x) == r


class TestSketchLegs:
    @settings(max_examples=200, deadline=None)
    @given(spans(), st.data())
    def test_sketch_pushout(self, span, data):
        m, r = span
        apex = Sketch(m.dom)
        b = Sketch(m.cod, some_statements(data.draw, m.cod))
        a = Sketch(r.cod, some_statements(data.draw, r.cod))
        d, left, right = sketch_pushout(SketchMorphism(apex, b, m),
                                        SketchMorphism(apex, a, r))
        assert (left.dom, left.cod, right.dom, right.cod) == (b, d, a, d)
        assert_valid_sketch_leg(left)
        assert_valid_sketch_leg(right)

    @settings(max_examples=200, deadline=None)
    @given(cospans(), st.data())
    def test_sketch_pullback(self, cospan, data):
        m, r = cospan
        b = Sketch(m.dom, some_statements(data.draw, m.dom))
        a = Sketch(r.dom, some_statements(data.draw, r.dom))
        c = Sketch(m.cod, {Statement(s.predicate, compose(s.binding, leg))
                           for sketch, leg in ((b, m), (a, r))
                           for s in sketch.statements})
        d, to_b, to_a = sketch_pullback(SketchMorphism(b, c, m),
                                        SketchMorphism(a, c, r))
        assert (to_a.dom, to_a.cod, to_b.dom, to_b.cod) == (d, a, d, b)
        assert_valid_sketch_leg(to_a)
        assert_valid_sketch_leg(to_b)
        for s in d.statements:
            assert_valid(s.binding)


class TestRuleApplication:
    @settings(max_examples=200, deadline=None)
    @given(spans(), st.data())
    def test_match_leg(self, span, data):
        """A rule along one leg of the span, applied to a host over the
        other leg's codomain that holds the image of the premise."""
        a, t = span
        lhs = Sketch(a.dom, some_statements(data.draw, a.dom, 2))
        rule = Rule.build(lhs, a, some_statements(data.draw, a.cod, 2))
        host = Sketch(t.cod, {composed_statement(t, s)
                              for s in lhs.statements}
                      | some_statements(data.draw, t.cod, 2))
        for match in find_matches(rule, host):
            assert_valid(match)
            leg = SketchMorphism(rule.lhs, host, match)
            h, a_star, t_star = apply_rule(rule, match, host)
            assert sketch_pushout(rule, leg) == (h, t_star, a_star)
            assert_valid_sketch_leg(a_star)
            assert_valid_sketch_leg(t_star)
