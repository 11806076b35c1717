import pathlib
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gsketch import conditions, deduction, sketches
from gsketch.category import initial_morphism
from gsketch.conditions import (And, Constraint, Exists, Forall, Not, Top,
                                check_constraint, implication,
                                iter_violations, satisfies, stmt,
                                statements_conj, uc, unguarded_exists,
                                unguarded_forall, violating_extensions,
                                well_formed)
from gsketch.ct import COMP, FINAL, MONIC, comp_stmt, monic_stmt
from gsketch.deduction import (CertificationError, ConstrainedSketch,
                               MismatchError, Rule, RuleShapeError, apply_rule,
                               conj_elim, conj_intro, cstr_translate,
                               find_matches, modus_ponens,
                               repair_to_fixpoint, rule_from_condition,
                               skolemize, statement_to_constraint,
                               universal_elim)
from gsketch.dsl import parse_files
from gsketch.graphs import (compose, enumerate_extensions, enumerate_morphisms,
                            graph_of, identity, morphism_of)
from gsketch.oracles import composed_statement
from gsketch.sketches import (Sketch, SketchMorphism, Statement,
                              is_sketch_morphism)

from test_graphs import small_graphs

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def rule3(fx):
    return rule_from_condition(fx.conditions["phi3"])


def rule6(fx):
    return rule_from_condition(fx.conditions["phi6"])


def premise_condition(rule):
    """The rule's premise: the conjunction of its lhs statements, over L."""
    return statements_conj(rule.lhs.context, rule.lhs.statements)


def added_statements(rule):
    """The statements of the rhs outside the image of the lhs."""
    return rule.rhs.statements - {composed_statement(rule.morphism, s)
                                  for s in rule.lhs.statements}


def nac_condition(rule):
    """The negative application condition: no completion along the rule."""
    return Not(rule.lhs.context, unguarded_exists(
        rule.morphism,
        statements_conj(rule.rhs.context, added_statements(rule))))


def reference_matches(rule, g):
    """Enumerate every L -> G, keep those where the premise and the negative
    application condition hold."""
    premise, nac = premise_condition(rule), nac_condition(rule)
    return [t for t in enumerate_morphisms(rule.lhs.context, g.context)
            if satisfies(t, g, premise).holds and satisfies(t, g, nac).holds]


def duplicate_composite_chain(n):
    """Arrows a0..a(n-1) in a row; each adjacent pair has two composites c_i
    and d_i, and every other d_i is monic."""
    edges = ["a%d:%d->%d" % (i, i, i + 1) for i in range(n)]
    edges += ["%s%d:%d->%d" % (x, i, i, i + 2)
              for i in range(n - 1) for x in "cd"]
    g = graph_of("", " ".join(edges))
    stmts = [comp_stmt(g, "a%d" % i, "a%d" % (i + 1), "%s%d" % (x, i))
             for i in range(n - 1) for x in "cd"]
    stmts += [monic_stmt(g, "d%d" % i) for i in range(0, n - 1, 2)]
    return Sketch(g, stmts)


class TestRuleShapes:
    def test_phi3_shape(self, fx):
        r = rule3(fx)
        assert len(r.lhs.statements) == 2
        assert added_statements(r) == frozenset()
        assert r.morphism.edge_map["e3"] == r.morphism.edge_map["e4"]

    def test_phi6_identity_shape(self, fx):
        r = rule6(fx)
        assert r.morphism == identity(r.lhs.context)
        (s,) = added_statements(r)
        assert s.predicate is MONIC and s.binding.edge_map == {"e": "e1"}

    def test_phi5_identity_shape(self, fx):
        r = rule_from_condition(fx.conditions["phi5"])
        assert r.morphism == identity(r.lhs.context)
        assert len(r.lhs.statements) == 3

    def test_non_universal_rejected(self, fx):
        with pytest.raises(RuleShapeError, match="universal"):
            rule_from_condition(fx.conditions["phi1"])

    def test_non_statement_guard_rejected(self, fx):
        k1 = fx.t1.dom
        bad = unguarded_forall(
            initial_morphism(k1),
            implication(Exists(k1, Top(k1), identity(k1), Top(k1)),
                        Top(k1)))
        with pytest.raises(RuleShapeError, match="statement conjunction"):
            rule_from_condition(bad)

    def test_rhs_must_include_lhs_image(self, fx):
        arrow = MONIC.arity
        lhs = Sketch(arrow, [Statement(MONIC, identity(arrow))])
        rhs = Sketch(arrow)  # drops the image of the lhs statement
        with pytest.raises(MismatchError):
            Rule(lhs, rhs, identity(arrow))

    def test_nac_and_premise_shape(self, fx):
        r = rule3(fx)
        assert nac_condition(r).context == r.lhs.context
        assert well_formed(nac_condition(r)) == []
        assert premise_condition(r).context == r.lhs.context


class TestMatches:
    def test_empty_lhs_node_adding_rule(self, fx):
        empty = Sketch(graph_of(""))
        point = Sketch(graph_of("v"))
        r = Rule.build(empty, initial_morphism(point.context), [])
        # on a nonempty host the completion already exists, so the negative
        # application condition blocks the match; on the empty host it fires
        assert find_matches(r, fx.sketch_g) == []
        assert len(find_matches(r, empty)) == 1

    def test_phi3_matches_on_g(self, fx):
        ms = find_matches(rule3(fx), fx.sketch_g)
        assert [m.edge_map["e3"] for m in ms] == ["e", "f"]
        assert [m.edge_map["e4"] for m in ms] == ["f", "e"]

    def test_phi3_no_matches_on_g_prime(self, fx):
        assert find_matches(rule3(fx), fx.sketch_g_prime) == []

    def test_phi6_single_match(self, fx):
        ms = find_matches(rule6(fx), fx.sketch_g)
        assert len(ms) == 1
        assert ms[0].edge_map == {"e1": "c", "e2": "d", "e3": "g"}

    def test_nac_filters_satisfied_instances(self, fx):
        # the (a, b) composable pairs satisfy phi1's conclusion already, so a
        # rule adding the comp statement does not match there
        r = rule_from_condition(unguarded_forall(
            initial_morphism(COMP.arity),
            implication(Top(COMP.arity),
                        stmt(Statement(COMP, identity(COMP.arity))))))
        ms = find_matches(r, fx.sketch_g)
        assert all(Statement(COMP, m) not in fx.sketch_g.statements
                   for m in ms)


class TestMatchesDifferential:
    def test_fixture_sketches(self, fx, doc):
        fx_rules = [rule3(fx), rule6(fx)] + [
            rule_from_condition(fx.conditions[name]) for name in ("phi2", "phi5")]
        for rules, sketches in (
                (fx_rules, [fx.sketch_g, fx.sketch_g_prime]),
                (list(doc.rules.values()), list(doc.sketches.values()))):
            for r in rules:
                for g in sketches:
                    assert find_matches(r, g) == reference_matches(r, g)

    def test_every_sketch_of_a_chain_repair(self, fx):
        rules = [rule3(fx), rule6(fx)]
        start = duplicate_composite_chain(4)
        _, trace, exhausted = repair_to_fixpoint(rules, start, 20)
        # three merges, then a0 and a2 become monic
        assert len(trace) == 5 and not exhausted
        for g in [start] + [step.result for step in trace]:
            for r in rules:
                assert find_matches(r, g) == reference_matches(r, g)

    def test_one_well_formed_check_per_call(self, fx, monkeypatch):
        checked = []

        def counting(c):
            checked.append(c)
            return well_formed(c)

        monkeypatch.setattr(conditions, "well_formed", counting)
        r = rule3(fx)
        assert len(find_matches(r, fx.sketch_g)) == 2
        assert checked == [uc(r)]


def eager_repair(rules, g, max_steps):
    """Reference repair loop: list every match of each rule in turn and
    fire the first match of the first rule that has one.  Returns the final
    sketch, the (rule, match, result) of each step and the exhausted flag."""
    steps, current = [], g
    while True:
        fired = next(((rule, ms[0]) for rule in rules
                      if (ms := find_matches(rule, current))), None)
        if fired is None or len(steps) == max_steps:
            return current, steps, fired is not None
        rule, match = fired
        current, _, _ = apply_rule(rule, match, current)
        steps.append((rule, match, current))


def repair_outcome(rules, g, max_steps):
    final, steps, exhausted = repair_to_fixpoint(rules, g, max_steps)
    return final, [(s.rule, s.match, s.result) for s in steps], exhausted


@st.composite
def statements_over(draw, g, max_size=3):
    """Up to ``max_size`` comp, monic and final statements bound in g."""
    candidates = [Statement(p, b) for p in (COMP, MONIC, FINAL)
                  for b in enumerate_morphisms(p.arity, g)]
    if not candidates:
        return []
    return draw(st.lists(st.sampled_from(candidates), max_size=max_size))


@st.composite
def random_rules(draw):
    """A rule along a random morphism between small graphs, with random
    premise and added statements."""
    lhs = draw(small_graphs(max_nodes=2, max_edges=2))
    rhs = draw(small_graphs(max_nodes=3, max_edges=3))
    morphisms = enumerate_morphisms(lhs, rhs)
    assume(morphisms)
    a = draw(st.sampled_from(morphisms))
    return Rule.build(Sketch(lhs, draw(statements_over(lhs))), a,
                      draw(statements_over(rhs)))


@st.composite
def random_sketches(draw):
    g = draw(small_graphs(max_nodes=3, max_edges=4))
    return Sketch(g, draw(statements_over(g, max_size=4)))


def repair_chain_inputs(seed):
    """The rules, sketches and step bounds of every repair-chain benchmark
    operation at ``seed``, as the benchmark builds them."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads
    state = workloads.RepairChain().setup(workloads.gsketch_modules(), seed)
    return state.rules, [(g, 4 * spec.n) for ops in state.rounds
                         for spec, g in ops]


class TestFirstMatch:
    @settings(max_examples=80, deadline=None)
    @given(rule=random_rules(), g=random_sketches())
    def test_violations_drawn_lazily_are_the_list(self, rule, g):
        t, c = initial_morphism(g.context), rule.universal_constraint
        want = [r for r in enumerate_extensions(c.shift, t)
                if not satisfies(r, g, c.body).holds]
        assert list(iter_violations(t, g, c)) == violating_extensions(t, g, c)
        assert violating_extensions(t, g, c) == want
        matches = find_matches(rule, g)
        assert matches == want
        first = next(iter_violations(t, g, c), None)
        assert (first is None) == (matches == [])
        assert first is None or first == matches[0]

    @settings(max_examples=60, deadline=None)
    @given(rules=st.lists(random_rules(), min_size=1, max_size=2),
           g=random_sketches())
    def test_repair_fires_what_the_eager_loop_fires(self, rules, g):
        assert repair_outcome(rules, g, 3) == eager_repair(rules, g, 3)

    def test_repair_on_the_corpus(self, fx, doc):
        rule_lists = [list(doc.rules.values()), [rule3(fx), rule6(fx)],
                      [rule_from_condition(fx.conditions["phi2"])]]
        hosts = list(doc.sketches.values()) + [fx.sketch_g,
                                                fx.sketch_g_prime]
        for rules in rule_lists:
            for g in hosts:
                assert repair_outcome(rules, g, 5) == eager_repair(rules, g, 5)

    def test_repair_on_every_benchmark_chain(self):
        rules, inputs = repair_chain_inputs(1)
        assert len(inputs) == 100
        for g, max_steps in inputs:
            assert repair_outcome(rules, g, max_steps) == \
                eager_repair(rules, g, max_steps)

    def test_repair_translates_nothing_and_checks_each_rule_once(
            self, fx, monkeypatch, statements_built):
        # rules, statement leaves and pushouts work on statement keys, and
        # a drawn match is applied without being evaluated again
        rules = [rule3(fx), rule6(fx)]
        assert statements_built == []
        for r in rules:
            r.universal_constraint
        start = duplicate_composite_chain(8)
        want = eager_repair(rules, start, 40)
        del statements_built[:]
        checked = []

        def counting_check(c):
            checked.append(c)
            return well_formed(c)

        monkeypatch.setattr(conditions, "well_formed", counting_check)
        got = repair_outcome(rules, start, 40)
        assert got == want and len(got[1]) > 8 and not got[2]
        assert statements_built == []
        assert checked == [r.universal_constraint for r in rules]

    def test_checks_come_before_the_first_draw(self, fx):
        t = initial_morphism(fx.graph_g)
        with pytest.raises(TypeError):
            iter_violations(t, fx.sketch_g, fx.conditions["phi1"])
        with pytest.raises(MismatchError):
            iter_violations(initial_morphism(graph_of("x")), fx.sketch_g,
                            fx.conditions["phi3"])


class TestRuleCaching:
    def test_uc_built_once_per_rule(self, fx, monkeypatch):
        built = []

        def counting(a):
            built.append(a)
            return uc(a)

        monkeypatch.setattr(deduction, "uc", counting)
        r = rule_from_condition(fx.conditions["phi3"])
        first = find_matches(r, fx.sketch_g)
        assert find_matches(r, fx.sketch_g) == first
        assert len(first) == 2
        h, _, _ = apply_rule(r, first[0], fx.sketch_g)
        assert find_matches(r, h) == reference_matches(r, h)
        assert built == [r]

    def test_sketch_morphism_validated_once(self, fx, monkeypatch):
        validated = []

        def counting(m, dom, cod):
            validated.append(m)
            return is_sketch_morphism(m, dom, cod)

        monkeypatch.setattr(sketches, "is_sketch_morphism", counting)
        r = rule_from_condition(fx.conditions["phi3"])
        for _ in range(2):
            for t in find_matches(r, fx.sketch_g):
                apply_rule(r, t, fx.sketch_g)
        # the rule, its matches and the pushout legs are valid by
        # construction, so nothing is validated again
        assert validated == []

    def test_dsl_rule_validated_once(self, corpus_paths, monkeypatch):
        validated = []

        def counting(m, dom, cod):
            validated.append(m)
            return is_sketch_morphism(m, dom, cod)

        monkeypatch.setattr(sketches, "is_sketch_morphism", counting)
        rules = list(parse_files(corpus_paths).rules.values())
        # one check per declared rule, at its declaration, and no other
        assert len(rules) == 2
        assert [id(m) for m in validated] == [id(r.morphism) for r in rules]

    def test_uc_gives_back_the_rule(self, fx, doc):
        rules = list(doc.rules.values()) + [
            rule_from_condition(fx.conditions[name])
            for name in ("phi3", "phi5", "phi6")]
        for r in rules:
            assert rule_from_condition(uc(r)) == r

    def test_cached_values_leave_equality_alone(self, fx):
        used, fresh = rule3(fx), rule3(fx)
        used.universal_constraint
        assert used == fresh and hash(used) == hash(fresh)
        assert fresh.universal_constraint == uc(fresh)

    def test_repair_trace_unchanged_by_reuse(self, fx):
        rules = [rule3(fx), rule6(fx)]
        start = duplicate_composite_chain(4)
        first = repair_to_fixpoint(rules, start, 20)
        again = repair_to_fixpoint(rules, start, 20)
        fresh = repair_to_fixpoint([rule3(fx), rule6(fx)], start, 20)
        for other in (again, fresh):
            assert other[0] == first[0] and other[2] == first[2]
            assert [(s.rule, s.match, s.result) for s in other[1]] == \
                [(s.rule, s.match, s.result) for s in first[1]]


class TestApply:
    def test_invalid_match_rejected(self, fx):
        r = rule3(fx)
        bad = morphism_of(r.lhs.context, fx.graph_g,
                          edges={"e1": "a", "e2": "b", "e3": "e", "e4": "e"})
        with pytest.raises(MismatchError):
            apply_rule(r, bad, fx.sketch_g)

    def test_nac_blocked_match_rejected(self, fx):
        r = rule6(fx)
        match = find_matches(r, fx.sketch_g)[0]
        h, a_star, _ = apply_rule(r, match, fx.sketch_g)
        # the premise still holds at the carried-over match, but the
        # conclusion is there now, so the negative application condition
        # blocks it
        carried = compose(match, a_star.morphism)
        assert satisfies(carried, h, premise_condition(r)).holds
        with pytest.raises(MismatchError):
            apply_rule(r, carried, h)

    def test_match_into_another_sketch_rejected(self, fx):
        r = rule6(fx)
        match = find_matches(r, fx.sketch_g)[0]
        with pytest.raises(MismatchError):
            apply_rule(r, match, fx.sketch_g_prime)

    def test_postconditions(self, fx):
        r = rule3(fx)
        match = find_matches(r, fx.sketch_g)[0]
        h, a_star, t_star = apply_rule(r, match, fx.sketch_g)
        # conclusion statements hold at the rhs image
        conc = statements_conj(r.rhs.context, r.rhs.statements)
        assert satisfies(t_star.morphism, h, conc).holds
        # premise is carried over along match;a*
        prem = statements_conj(r.lhs.context, r.lhs.statements)
        assert satisfies(compose(match, a_star.morphism), h, prem).holds

    def test_nac_makes_application_idempotent(self, fx):
        r = rule6(fx)
        match = find_matches(r, fx.sketch_g)[0]
        h, a_star, _ = apply_rule(r, match, fx.sketch_g)
        assert find_matches(r, h) == []

    def test_merge_application_collapses_edges(self, fx):
        r = rule3(fx)
        match = find_matches(r, fx.sketch_g)[0]
        h, _, _ = apply_rule(r, match, fx.sketch_g)
        assert len(h.context.edges) == len(fx.graph_g.edges) - 1


class TestRepair:
    def test_no_rules_is_a_fixpoint(self, fx):
        final, trace, exhausted = repair_to_fixpoint([], fx.sketch_g, 5)
        assert final == fx.sketch_g and len(trace) == 0 and not exhausted

    def test_two_step_repair(self, fx):
        final, trace, exhausted = repair_to_fixpoint(
            [rule3(fx), rule6(fx)], fx.sketch_g, 10)
        assert len(trace) == 2 and not exhausted
        preds = sorted((s.predicate.name, tuple(sorted(s.binding.edge_map.values())))
                       for s in final.statements)
        assert [p for p, _ in preds] == ["comp", "comp", "monic", "monic", "monic"]
        assert len(final.context.edges) == 6

    def test_result_satisfies_the_source_conditions(self, fx):
        final, _, _ = repair_to_fixpoint([rule3(fx), rule6(fx)],
                                         fx.sketch_g, 10)
        for name in ("phi3", "phi6"):
            k = Constraint(fx.conditions[name], initial_morphism(final.context))
            assert check_constraint(final, k).holds

    def test_exhaustion(self, fx):
        # phi2 as a rule keeps firing: each application adds a fresh edge
        r = rule_from_condition(fx.conditions["phi2"])
        final, trace, exhausted = repair_to_fixpoint([r], fx.sketch_g, 5)
        assert exhausted and len(trace) == 5

    def test_negative_max_steps(self, fx):
        with pytest.raises(ValueError):
            repair_to_fixpoint([], fx.sketch_g, -1)


class TestDeductionOps:
    def test_universal_elim(self, fx):
        k = Constraint(fx.conditions["phi2"], initial_morphism(fx.graph_g))
        out = universal_elim(k, fx.t1)
        assert out == Constraint(fx.conditions["phi1"], fx.t1)
        assert check_constraint(fx.sketch_g, out).holds

    def test_universal_elim_checks_extension(self, fx):
        k = Constraint(fx.conditions["phi1"], fx.t1)
        with pytest.raises(RuleShapeError):
            universal_elim(k, fx.t1)

    def test_modus_ponens(self, fx):
        tri = COMP.arity
        guard = statements_conj(tri, [Statement(COMP, identity(tri)),
                                      monic_stmt(tri, "e1"),
                                      monic_stmt(tri, "e2")])
        cond = implication(guard, stmt(monic_stmt(tri, "e3")))
        t = morphism_of(tri, fx.graph_g,
                        edges={"e1": "a", "e2": "b", "e3": "e"})
        with pytest.raises(MismatchError):
            modus_ponens(Constraint(cond, t), Constraint(guard, fx.t1))
        out = modus_ponens(Constraint(cond, t), Constraint(guard, t))
        assert isinstance(out.condition, Exists)
        assert isinstance(out.condition.guard, Top)

    def test_skolemize_materializes_witness(self, fx):
        k = Constraint(fx.conditions["phi1"],
                       morphism_of(fx.t1.dom, fx.sketch_g_prime.context,
                                   edges={"e1": "c", "e2": "d"}))
        h, new, a_star = skolemize(k, fx.sketch_g_prime)
        # a pushout always adds a fresh composite edge, even though g is
        # already present in the host
        assert len(h.context.edges) == len(fx.sketch_g_prime.context.edges) + 1
        assert check_constraint(h, new).holds
        assert is_sketch_morphism(a_star.morphism, fx.sketch_g_prime, h)

    def test_skolemize_requires_unguarded_existential(self, fx):
        k = Constraint(fx.conditions["phi2"], initial_morphism(fx.graph_g))
        with pytest.raises(RuleShapeError):
            skolemize(k, fx.sketch_g)

    def test_conj_intro_elim_round_trip(self, fx):
        a = Constraint(fx.conditions["phi1"], fx.t1)
        b = Constraint(Top(fx.t1.dom), fx.t1)
        both = conj_intro([a, b])
        assert isinstance(both.condition, And)
        assert conj_elim(both) == [a, b]

    def test_conj_intro_needs_common_anchor(self, fx):
        a = Constraint(fx.conditions["phi1"], fx.t1)
        b = Constraint(fx.conditions["phi1"], fx.t2)
        with pytest.raises(MismatchError):
            conj_intro([a, b])

    def test_statement_to_constraint_is_not_certified(self, fx):
        # instantiating monic's defining condition at psi4 produces a claim
        # that still has to be checked against the sketch
        out = statement_to_constraint(fx.statements["psi4"],
                                      fx.conditions["phi7"],
                                      identity(MONIC.arity))
        assert out.anchor == fx.statements["psi4"].binding
        assert check_constraint(fx.sketch_g, out).holds  # true here, by luck

    def test_cstr_translate_recheck(self, fx):
        k1 = Sketch(fx.t1.dom)
        phi = SketchMorphism(k1, fx.sketch_g, fx.t1)
        inner = Constraint(fx.conditions["phi1"], identity(fx.t1.dom))
        out = cstr_translate(phi, inner)
        assert out.anchor == fx.t1
        assert check_constraint(fx.sketch_g, out).holds
        phi2 = SketchMorphism(k1, fx.sketch_g, fx.t2)
        assert not check_constraint(fx.sketch_g,
                                    cstr_translate(phi2, inner)).holds


class TestConstrainedSketch:
    def test_certifies_on_construction(self, fx):
        good = Constraint(fx.conditions["phi4"], initial_morphism(fx.graph_g))
        cs = ConstrainedSketch(fx.sketch_g, [good])
        assert cs.certified and good in cs.constraints

    def test_rejects_failing_constraint(self, fx):
        bad = Constraint(fx.conditions["phi2"], initial_morphism(fx.graph_g))
        with pytest.raises(CertificationError):
            ConstrainedSketch(fx.sketch_g, [bad])

    def test_unchecked_store_admits_hypotheses(self, fx):
        bad = Constraint(fx.conditions["phi2"], initial_morphism(fx.graph_g))
        cs = ConstrainedSketch.unchecked(fx.sketch_g, [bad])
        assert not cs.certified

    def test_with_constraint_rechecks(self, fx):
        cs = ConstrainedSketch(fx.sketch_g)
        bad = Constraint(fx.conditions["phi3"], initial_morphism(fx.graph_g))
        with pytest.raises(CertificationError):
            cs.with_constraint(bad)

    def test_with_constraint_checks_only_the_new_constraint(self, fx,
                                                           monkeypatch):
        checked = []

        def counting(g, k, **kwargs):
            checked.append(k)
            return check_constraint(g, k, **kwargs)

        monkeypatch.setattr(deduction, "check_constraint", counting)
        bang = initial_morphism(fx.graph_g)
        ks = [Constraint(fx.conditions[n], bang) for n in ("phi4", "phi5")]
        cs = ConstrainedSketch(fx.sketch_g, ks)
        assert len(checked) == 2
        k1 = Constraint(fx.conditions["phi1"], fx.t1)
        cs = cs.with_constraint(k1)
        assert checked[2:] == [k1]
        assert cs.certified and cs.constraints == frozenset(ks + [k1])
        # a hypothesis store checks anchors only
        bad = Constraint(fx.conditions["phi2"], bang)
        hyp = ConstrainedSketch.unchecked(fx.sketch_g, ks).with_constraint(bad)
        assert len(checked) == 3 and not hyp.certified
        assert hyp.constraints == frozenset(ks + [bad])
        elsewhere = Constraint(fx.conditions["phi2"],
                               initial_morphism(fx.sketch_g_prime.context))
        with pytest.raises(MismatchError):
            hyp.with_constraint(elsewhere)

    def test_immutable(self, fx):
        cs = ConstrainedSketch(fx.sketch_g)
        with pytest.raises(AttributeError):
            cs.sketch = None
