"""The evaluator against the brute-force evaluator of the benchmark.

``perfbench/reference.py`` evaluates a condition by building every
quantifier extension with ``itertools.product`` and filtering it by the
extension equation; it shares no code with ``gsketch.graphs.search``.  Here
random conditions, with merging shifts and anchors into random sketches,
must get the same truth value from both, and every witness and
counterexample must be the first decisive extension in the reference's
order, which is the canonical one; the violations that a universal
condition draws are all of the reference's, in that order.
"""
import importlib.util
import pathlib

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gsketch.conditions import (And, Bottom, Exists, Forall, Not, Or, Top,
                                iter_violations, satisfies, stmt)
from gsketch.ct import COMP, FINAL, MONIC
from gsketch.graphs import Graph, GraphMorphism, enumerate_morphisms
from gsketch.sketches import Sketch, Statement

from test_graphs import small_graphs

_spec = importlib.util.spec_from_file_location(
    "perfbench_reference", pathlib.Path(__file__).resolve().parent.parent
    / "perfbench" / "reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

PREDICATES = (COMP, MONIC, FINAL)


@st.composite
def statements_over(draw, g, max_size):
    candidates = [Statement(p, b) for p in PREDICATES
                  for b in enumerate_morphisms(p.arity, g)]
    if not candidates:
        return []
    return draw(st.lists(st.sampled_from(candidates), max_size=max_size))


@st.composite
def sketches(draw):
    g = draw(small_graphs(max_nodes=3, max_edges=4))
    return Sketch(g, draw(statements_over(g, max_size=4)))


@st.composite
def shifts_from(draw, k, prefix):
    """A morphism out of ``k`` that may glue nodes, and then parallel
    edges, of ``k``, into a codomain with up to one fresh node and two
    fresh edges, named after ``prefix``."""
    rep = {}
    for i, n in enumerate(sorted(k.nodes)):
        glued = draw(st.sampled_from(sorted(k.nodes)[:i + 1]))
        rep[n] = n if glued == n else rep[glued]
    edge_map, src, tgt = {}, {}, {}
    for e in sorted(k.edges):
        s, t = rep[k.src[e]], rep[k.tgt[e]]
        parallel = [x for x in src if (src[x], tgt[x]) == (s, t)]
        image = draw(st.sampled_from([e] + parallel))
        edge_map[e], src[image], tgt[image] = image, s, t
    nodes = sorted(set(rep.values()))
    nodes += ["%sv" % prefix] * draw(st.integers(0, 1))
    if nodes:
        for i in range(draw(st.integers(0, 2))):
            e = "%se%d" % (prefix, i)
            src[e] = draw(st.sampled_from(nodes))
            tgt[e] = draw(st.sampled_from(nodes))
    cod = Graph(nodes, src.keys(), src, tgt)
    return GraphMorphism(k, cod, rep, edge_map)


@st.composite
def conditions_over(draw, context, depth=3):
    """A condition over ``context`` at most ``depth`` connectives deep."""
    kind = draw(st.sampled_from(
        ["leaf", "not", "junction", "quantifier"] if depth else ["leaf"]))
    if kind == "leaf":
        statements = draw(statements_over(context, max_size=1))
        if statements and draw(st.booleans()):
            return stmt(statements[0])
        return draw(st.sampled_from([Top, Bottom]))(context)
    if kind == "not":
        return Not(context, draw(conditions_over(context, depth - 1)))
    if kind == "junction":
        children = draw(st.lists(conditions_over(context, depth - 1),
                                 max_size=3))
        return draw(st.sampled_from([And, Or]))(context, tuple(children))
    shift = draw(shifts_from(context, "q%d" % depth))
    guard = draw(st.one_of(st.just(Top(context)),
                           conditions_over(context, depth - 1)))
    body = draw(conditions_over(shift.cod, depth - 1))
    return draw(st.sampled_from([Exists, Forall]))(context, guard, shift, body)


def assert_verdict(v, t, target, c):
    """``v``, the verdict of the map pair ``t`` on ``c``, has the truth
    value of the reference; a junction's inner verdict is that of its first
    decisive child, and a quantifier's witness or counterexample is its
    first decisive extension, whose verdict is the inner one."""
    assert v.holds == reference.holds(t, target, c)
    if isinstance(c, (And, Or)):
        decisive = isinstance(c, Or)
        first = next((x for x in c.children
                      if reference.holds(t, target, x) == decisive), None)
        if first is None:
            assert v.inner is None
        else:
            assert_verdict(v.inner, t, target, first)
        return
    first = None
    if isinstance(c, (Exists, Forall)) and reference.holds(t, target, c.guard):
        decisive = isinstance(c, Exists)
        first = next((r for r in reference.extensions(c.shift, t, target)
                      if reference.holds(r, target, c.body) == decisive),
                     None)
    found = v.witness if isinstance(c, Exists) else v.counterexample
    other = v.counterexample if isinstance(c, Exists) else v.witness
    assert other is None
    if first is None:
        assert found is None and v.inner is None
    else:
        assert reference.maps_of(found) == first
        assert_verdict(v.inner, first, target, c.body)


class TestAgainstReference:
    @settings(max_examples=1000, deadline=None)
    @given(sketches(), small_graphs(max_nodes=2, max_edges=1), st.data())
    def test_verdicts_and_violations(self, g, context, data):
        # an empty context gives a closed condition at the initial anchor
        anchors = enumerate_morphisms(context, g.context)
        assume(anchors)
        t = data.draw(st.sampled_from(anchors))
        c = data.draw(conditions_over(context))
        anchor, target = reference.maps_of(t), reference.Target(g)
        assert_verdict(satisfies(t, g, c), anchor, target, c)
        if isinstance(c, Forall):
            # a guard that fails leaves nothing to violate
            want = []
            if reference.holds(anchor, target, c.guard):
                want = [r for r in reference.extensions(c.shift, anchor,
                                                        target)
                        if not reference.holds(r, target, c.body)]
            assert [reference.maps_of(r)
                    for r in iter_violations(t, g, c)] == want
