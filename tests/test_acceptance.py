"""End-to-end acceptance suite.

Each test prints a single ``criterion N: PASS`` / ``FAIL`` line in addition
to the usual pytest verdict.
"""
import contextlib
import random

import pytest

from gsketch.category import initial_morphism
from gsketch.category import PullbackResult, PushoutResult
from gsketch.cli import main as cli_main
from gsketch.conditions import (And, Constraint, Exists, Forall, Top,
                                check_constraint, nuc, satisfies,
                                statements_conj, uc, violating_extensions)
from gsketch.ct import COMP, MONIC, comp_stmt, limit_condition, monic_stmt
from gsketch.deduction import (ConstrainedSketch, conj_elim, conj_intro,
                               cstr_translate, modus_ponens,
                               repair_to_fixpoint, rule_from_condition,
                               skolemize, statement_to_constraint,
                               universal_elim)
from gsketch.dsl import parse, print_document
from gsketch.graphs import (enumerate_extensions, enumerate_morphisms,
                            graph_of, identity, morphism_of)
from gsketch.sketches import (Sketch, SketchMorphism, Statement,
                              is_sketch_morphism, multi_pullback,
                              multi_pushout, sketch_pullback, sketch_pushout,
                              MultiSketch, MultiSketchMorphism)
from gsketch.oracles import (composed_statement,
                             conditions_equal_modulo_renaming,
                             shift_equivalence_oracle, sketches_isomorphic,
                             verify_pullback, verify_pushout)

from test_conditions import direct_nuc_holds, direct_uc_holds


@contextlib.contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print("criterion %d (%s): FAIL" % (n, label))
        raise
    print("criterion %d (%s): PASS" % (n, label))


def test_criterion_1_exact_satisfaction_facts(fx):
    with criterion(1, "exact satisfaction facts"):
        g, bang = fx.sketch_g, initial_morphism(fx.graph_g)
        assert satisfies(fx.t1, g, fx.conditions["phi1"]).holds
        assert not satisfies(fx.t2, g, fx.conditions["phi1"]).holds
        assert not check_constraint(g, Constraint(fx.conditions["phi2"], bang)).holds
        assert not check_constraint(g, Constraint(fx.conditions["phi3"], bang)).holds
        assert check_constraint(g, Constraint(fx.conditions["phi5"], bang)).holds
        assert not check_constraint(g, Constraint(fx.conditions["phi6"], bang)).holds
        bad = violating_extensions(bang, g, fx.conditions["phi6"])
        assert [b.edge_map for b in bad] == [{"e1": "c", "e2": "d", "e3": "g"}]


def test_criterion_2_deletion_variant(fx):
    with criterion(2, "deletion variant satisfies uniqueness"):
        gp = fx.sketch_g_prime
        assert gp.context.edges == fx.graph_g.edges - {"f"}
        k = Constraint(fx.conditions["phi3"], initial_morphism(gp.context))
        assert check_constraint(gp, k).holds


def test_criterion_3_repair_reproduction(fx):
    with criterion(3, "repair reproduces the merged sketch"):
        rules = [rule_from_condition(fx.conditions["phi3"]),
                 rule_from_condition(fx.conditions["phi6"])]
        final, trace, exhausted = repair_to_fixpoint(rules, fx.sketch_g, 10)
        assert len(trace) == 2 and not exhausted
        h_ctx = graph_of("", "a:1->2 b:2->3 c:3->4 d:4->5 ef:1->3 g:3->5")
        h = Sketch(h_ctx, [comp_stmt(h_ctx, "a", "b", "ef"),
                           comp_stmt(h_ctx, "c", "d", "g"),
                           monic_stmt(h_ctx, "b"), monic_stmt(h_ctx, "g"),
                           monic_stmt(h_ctx, "c")])
        assert sketches_isomorphic(final, h)
        bang = initial_morphism(final.context)
        assert check_constraint(final, Constraint(fx.conditions["phi3"], bang)).holds
        assert check_constraint(final, Constraint(fx.conditions["phi6"], bang)).holds
        assert not check_constraint(final, Constraint(fx.conditions["phi2"], bang)).holds


def test_criterion_4_statement_preservation_equivalence(fx, doc):
    with criterion(4, "morphism condition matches statement preservation"):
        arrow = MONIC.arity
        sketches = list(doc.sketches.values()) + [
            Sketch(arrow), Sketch(arrow, [monic_stmt(arrow, "e")]),
            Sketch(fx.t1.dom)]
        pairs = 0
        for a in sketches:
            for b in sketches:
                for t in enumerate_morphisms(a.context, b.context):
                    lhs = is_sketch_morphism(t, a, b)
                    k = Constraint(
                        statements_conj(a.context, a.statements), t)
                    rhs = check_constraint(b, k).holds
                    assert lhs == rhs
                    pairs += 1
        assert pairs > 100  # the enumeration really covered something


def test_criterion_5_shift_property(fx):
    with criterion(5, "translation preserves satisfaction"):
        loop = graph_of("", "l:v->v")
        samples = [fx.sketch_g, fx.sketch_g_prime,
                   Sketch(loop, [monic_stmt(loop, "l")])]
        targets = [loop, graph_of("", "e1:v1->v2 e2:v2->v3"), MONIC.arity]
        checked = 0
        for name, cond in fx.conditions.items():
            for h in targets:
                for c in enumerate_morphisms(cond.context, h):
                    assert shift_equivalence_oracle(c, cond, samples), (name, h)
                    checked += 1
        # phi7 into the loop graph is among the enumerated pairs
        assert any(True for _ in enumerate_morphisms(
            fx.conditions["phi7"].context, loop))
        assert checked > 20


def test_criterion_6_uc_nuc_vs_direct_definitions(fx, doc):
    with criterion(6, "uc/nuc agree with the quantifier definitions"):
        rules = list(doc.rules.values())
        rules.append(rule_from_condition(fx.conditions["phi5"]))
        for rule in rules:
            for g in (fx.sketch_g, fx.sketch_g_prime):
                bang = initial_morphism(g.context)
                assert (check_constraint(g, Constraint(uc(rule), bang)).holds
                        == direct_uc_holds(rule, g))
                assert (check_constraint(g, Constraint(nuc(rule), bang)).holds
                        == direct_nuc_holds(rule, g))


def test_criterion_7_universal_properties(fx, doc):
    with criterion(7, "pushouts and pullbacks verified"):
        # graph level: spans/cospans drawn from the corpus morphisms
        t3 = doc.morphisms["t3"]
        alpha3 = doc.morphisms["alpha3"]
        from gsketch.category import pushout, pullback
        po = pushout(alpha3, t3)
        assert verify_pushout(alpha3, t3, po)
        pb = pullback(fx.t1, fx.t2)
        assert verify_pullback(fx.t1, fx.t2, pb)

        # sketch level: context part verified, statements are exactly the
        # translated union (pushout) and maximal (pullback)
        lhs = doc.sketches["RuleL3"]
        rhs = doc.sketches["RuleR3"]
        m = SketchMorphism(lhs, rhs, alpha3)
        r = SketchMorphism(lhs, fx.sketch_g, t3 if t3.cod == fx.graph_g
                           else morphism_of(lhs.context, fx.graph_g,
                                            edges={"e1": "a", "e2": "b",
                                                   "e3": "e", "e4": "f"}))
        d, t_star, a_star = sketch_pushout(m, r)
        assert verify_pushout(m.morphism, r.morphism,
                              PushoutResult(d.context, t_star.morphism,
                                            a_star.morphism))
        want = ({composed_statement(t_star.morphism, s)
                 for s in rhs.statements}
                | {composed_statement(a_star.morphism, s)
                   for s in r.cod.statements})
        assert d.statements == frozenset(want)

        arrow = MONIC.arity
        b = Sketch(arrow, [monic_stmt(arrow, "e")])
        bm = SketchMorphism(b, fx.sketch_g,
                            morphism_of(arrow, fx.graph_g, edges={"e": "b"}))
        pd, pm, pr = sketch_pullback(bm, bm)
        assert verify_pullback(bm.morphism, bm.morphism,
                               PullbackResult(pd.context, pm.morphism,
                                              pr.morphism))
        for pred in (MONIC, COMP):
            for binding in enumerate_morphisms(pred.arity, pd.context):
                sigma = Statement(pred, binding)
                if sigma in pd.statements:
                    continue
                assert not (composed_statement(pm.morphism, sigma)
                            in b.statements
                            and composed_statement(pr.morphism, sigma)
                            in b.statements)

        # multi level: componentwise context plus identifier classes
        gg = fx.graph_g
        single = MultiSketch(gg, {"j": monic_stmt(gg, "b")})
        pair = MultiSketch(gg, {"i1": monic_stmt(gg, "b"),
                                "i2": monic_stmt(gg, "b")})
        to1 = MultiSketchMorphism(single, pair, identity(gg), {"j": "i1"})
        to2 = MultiSketchMorphism(single, pair, identity(gg), {"j": "i2"})
        md, ml, mr = multi_pushout(to1, to2)
        assert verify_pushout(to1.morphism, to2.morphism,
                              PushoutResult(md.context, ml.morphism,
                                            mr.morphism))
        assert ml.id_map["i1"] == mr.id_map["i2"] and len(md.ids) == 3


def test_criterion_8_limit_generator(fx):
    with criterion(8, "empty-shape limit condition matches the final-object condition"):
        from gsketch.graphs import EMPTY_GRAPH
        assert conditions_equal_modulo_renaming(
            limit_condition(EMPTY_GRAPH), fx.conditions["phi8"])


def _random_deduction_walk(fx, rng):
    """One randomized certified-deduction sequence; asserts that every
    constraint marked certified by an operation really holds."""
    if rng.random() < 0.5:
        store = ConstrainedSketch(fx.sketch_g, [
            Constraint(fx.conditions["phi4"], initial_morphism(fx.graph_g)),
            Constraint(fx.conditions["phi5"], initial_morphism(fx.graph_g)),
            Constraint(fx.conditions["phi1"], fx.t1)])
    else:
        gp = fx.sketch_g_prime
        store = ConstrainedSketch(gp, [
            Constraint(fx.conditions["phi3"], initial_morphism(gp.context)),
            Constraint(fx.conditions["phi4"], initial_morphism(gp.context)),
            Constraint(fx.conditions["phi5"], initial_morphism(gp.context))])
    for _ in range(rng.randint(2, 5)):
        ks = sorted(store.constraints,
                    key=lambda k: repr((k.condition, k.anchor)))
        op = rng.choice(["elim", "mp", "conj", "skolem", "translate", "inst"])
        if op == "elim":
            cands = [k for k in ks if isinstance(k.condition, Forall)
                     and isinstance(k.condition.guard, Top)]
            if not cands:
                continue
            k = rng.choice(cands)
            exts = enumerate_extensions(k.condition.shift, k.anchor)
            if not exts:
                continue
            out = universal_elim(k, rng.choice(exts))
            store = store.with_constraint(out)  # certifies
        elif op == "mp":
            cands = [k for k in ks if isinstance(k.condition, Exists)
                     and not isinstance(k.condition.guard, Top)]
            if not cands:
                continue
            k = rng.choice(cands)
            guard = Constraint(k.condition.guard, k.anchor)
            if not check_constraint(store.sketch, guard).holds:
                continue
            out = modus_ponens(k, guard)
            store = store.with_constraint(out)  # certifies
        elif op == "conj":
            if len(ks) < 2:
                continue
            k = rng.choice(ks)
            same = [x for x in ks if x.anchor == k.anchor]
            both = conj_intro(same)
            store = store.with_constraint(both)  # certifies
            for part in conj_elim(both):
                store = store.with_constraint(part)  # certifies
        elif op == "skolem":
            cands = [k for k in ks if isinstance(k.condition, Exists)
                     and isinstance(k.condition.guard, Top)]
            picked = None
            for k in cands:
                try:
                    picked = skolemize(k, store.sketch)
                    break
                except Exception:
                    continue
            if picked is None:
                continue
            h, new, a_star = picked
            kept = []
            for k in ks:
                moved = cstr_translate(a_star, k)
                if check_constraint(h, moved).holds:  # re-check and filter
                    kept.append(moved)
            store = ConstrainedSketch(h, kept + [new])  # certifies everything
        elif op == "translate":
            if not ks:
                continue
            k = rng.choice(ks)
            ident = SketchMorphism(store.sketch, store.sketch,
                                   identity(store.sketch.context))
            moved = cstr_translate(ident, k)
            if check_constraint(store.sketch, moved).holds:
                store = store.with_constraint(moved)
        else:  # inst
            monics = [s for s in store.sketch.statements
                      if s.predicate is MONIC]
            if not monics:
                continue
            s = rng.choice(monics)
            out = statement_to_constraint(s, fx.conditions["phi7"],
                                          identity(MONIC.arity))
            if check_constraint(store.sketch, out).holds:
                store = store.with_constraint(out)
    assert store.certified


def test_criterion_9_deduction_soundness(fx):
    with criterion(9, "randomized deduction sequences stay certified"):
        for seed in range(200):
            _random_deduction_walk(fx, random.Random(seed))


def test_criterion_10_dsl_round_trip_and_cli(doc, corpus_paths, tmp_path,
                                             capsys):
    with criterion(10, "DSL round trip and CLI exit codes"):
        assert parse(print_document(doc)) == doc
        assert cli_main(["check", *corpus_paths,
                         "--constraint", "k_phi1_t1"]) == 0
        assert cli_main(["check", *corpus_paths, "--constraint", "k_phi6",
                         "--sketch", "G"]) == 1
        assert cli_main(["check", *corpus_paths,
                         "--constraint", "unknown"]) == 2
        bad = tmp_path / "bad.sketch"
        bad.write_text("graph G {")
        assert cli_main(["check", str(bad), "--all"]) == 2
        assert cli_main(["repair", *corpus_paths, "--sketch", "G",
                         "--rules", "merge_composites", "monic_first_factor",
                         "--max-steps", "1"]) == 3
        assert cli_main(["repair", *corpus_paths, "--sketch", "G",
                         "--rules", "merge_composites",
                         "monic_first_factor"]) == 0
        capsys.readouterr()
