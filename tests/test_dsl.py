import pytest

from gsketch.conditions import conditions_equal_modulo_renaming
from gsketch.dsl import (Document, ParseError, ResolutionError,
                         ValidationError, format_condition, parse,
                         parse_files, print_document)
from gsketch.graphs import graph_of

BASE = """
graph Arrow { nodes v1 v2; edges e: v1 -> v2; }
footprint FP { pred monic arity Arrow; }
"""


class TestParsing:
    def test_corpus_matches_programmatic_fixtures(self, doc, fx):
        assert doc.graphs["GG"] == fx.graph_g
        assert doc.sketches["G"] == fx.sketch_g
        assert doc.sketches["Gprime"] == fx.sketch_g_prime
        assert doc.morphisms["t1"] == fx.t1
        assert doc.morphisms["t2"] == fx.t2
        for name in ("phi1", "phi2", "phi3", "phi4", "phi5", "phi6",
                     "phi7", "phi8"):
            assert conditions_equal_modulo_renaming(
                doc.conditions[name], fx.conditions[name]), name

    def test_corpus_constraints_resolve(self, doc, fx):
        k = doc.constraints["k_phi1_t1"].resolve(fx.graph_g)
        assert k.anchor == fx.t1
        closed = doc.constraints["k_phi3"].resolve(fx.graph_g)
        assert closed.anchor.dom.is_empty()

    def test_corpus_rules(self, doc, fx):
        from gsketch.deduction import rule_from_condition
        want = rule_from_condition(fx.conditions["phi3"])
        got = doc.rules["merge_composites"]
        assert got.morphism.edge_map == want.morphism.edge_map

    def test_empty_graph(self):
        doc = parse("graph E { }")
        assert doc.graphs["E"] == graph_of("")

    def test_comments_and_whitespace(self):
        doc = parse("# leading\ngraph E { } # trailing\n# done\n")
        assert "E" in doc.graphs

    def test_cross_document_references(self):
        doc = parse(BASE)
        doc = parse("sketch S over FP on Arrow { stmt monic via { e -> e }; }",
                    doc)
        assert len(doc.sketches["S"].statements) == 1

    def test_duplicate_name_rejected(self):
        with pytest.raises(ResolutionError, match="duplicate"):
            parse(BASE + "graph Arrow { }")


class TestDiagnostics:
    def test_syntax_error_position_and_expected(self):
        with pytest.raises(ParseError) as err:
            parse("graph G {\n  nodes v1;\n  edges e v1 -> v1;\n}")
        assert err.value.line == 3
        assert err.value.expected  # mentions what would have been legal

    @pytest.mark.parametrize("word", ["true", "false", "stmt", "and", "or",
                                      "not", "implies", "exists", "forall"])
    def test_quoted_keyword_is_a_name(self, word):
        prefix = "condition c over Arrow = "
        assert parse(BASE + prefix + "true").conditions
        with pytest.raises(ParseError) as err:
            parse(BASE + prefix + '"%s"' % word)
        # rejected at the quoted name itself
        assert err.value.col == len(prefix) + 1
        assert err.value.expected == ("a condition expression",)

    def test_quoted_declaration_keyword_is_a_name(self):
        with pytest.raises(ParseError) as err:
            parse('"graph" G { }')
        assert err.value.expected == ("a declaration keyword",)

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse("graph G { nodes @; }")
        assert err.value.line == 1 and err.value.col == 17

    def test_dangling_edge_endpoint(self):
        with pytest.raises(ResolutionError, match="declared node") as err:
            parse("graph G {\n  nodes v1;\n  edges e: v1 -> v9;\n}")
        assert "line 3" in str(err.value)

    def test_unknown_graph_reference(self):
        with pytest.raises(ResolutionError, match="unknown"):
            parse("morphism m : A -> B { }")

    def test_unknown_predicate(self):
        with pytest.raises(ResolutionError, match="predicate"):
            parse(BASE + "sketch S over FP on Arrow "
                         "{ stmt comp via { e -> e }; }")

    def test_morphism_validation(self):
        with pytest.raises(ValidationError):
            parse(BASE + "graph Loop { nodes v; edges l: v -> v; }\n"
                         "morphism m : Arrow -> Loop { nodes v1 -> v; }")

    def test_initial_anchor_requires_closed_condition(self):
        with pytest.raises(ValidationError, match="closed"):
            parse(BASE + "condition c over Arrow = true\n"
                         "constraint k = (c, initial)")

    def test_rule_must_be_a_sketch_morphism(self):
        text = BASE + """
graph Pair { nodes v1 v2; edges e: v1 -> v2, f: v1 -> v2; }
morphism emb : Arrow -> Pair { edges e -> e; }
sketch L over FP on Arrow { stmt monic via { e -> e }; }
sketch R over FP on Pair { }
rule bad = morphism emb from L to R
"""
        with pytest.raises(ValidationError):
            parse(text)


class TestPrinting:
    def test_round_trip(self, doc):
        assert parse(print_document(doc)) == doc

    def test_round_trip_small(self):
        doc = parse(BASE + "graph Empty { }\n"
                           "condition c over Empty = forall (extend "
                           "{ nodes v1 v2; edges e: v1 -> v2 }) . "
                           "stmt monic via { e -> e }\n"
                           "constraint k = (c, initial)")
        assert parse(print_document(doc)) == doc

    def test_format_condition_reparses(self, doc, fx):
        for name in ("phi1", "phi3", "phi7", "phi8"):
            text = format_condition(doc.conditions[name], doc)
            round_doc = parse(text)
            (cname,) = round_doc.conditions
            assert conditions_equal_modulo_renaming(
                round_doc.conditions[cname], fx.conditions[name]), name

    def test_format_condition_reuses_declared_names(self, doc):
        text = format_condition(doc.conditions["phi3"], doc)
        assert "L3" in text and "alpha3" in text
        assert "GG" not in text  # unrelated declarations stay out


class TestQuotedNames:
    def test_parse_quoted_identifiers(self):
        doc = parse('graph G { nodes "x|y" "nodes"; '
                    'edges "L:e": "x|y" -> "nodes"; }')
        g = doc.graphs["G"]
        assert g.nodes == {"x|y", "nodes"} and g.edges == {"L:e"}

    def test_printed_canonical_names_round_trip(self, fx):
        from gsketch.deduction import rule_from_condition, repair_to_fixpoint
        from gsketch.dsl import Document, print_document
        rules = [rule_from_condition(fx.conditions["phi3"]),
                 rule_from_condition(fx.conditions["phi6"])]
        final, _, _ = repair_to_fixpoint(rules, fx.sketch_g, 10)
        out = Document()
        out.sketches["repaired"] = final
        text = print_document(out)
        assert parse(text).sketches["repaired"] == final

    def test_morphism_between_pushout_graphs_round_trips(self):
        from gsketch.category import pushout
        from gsketch.graphs import morphism_of
        c = graph_of("", "e:x->y")
        b = graph_of("z", "e:x->y f:x->y")
        a = graph_of("", "e:x->y g:y->y")
        po = pushout(morphism_of(c, b, edges={"e": "e"}),
                     morphism_of(c, a, edges={"e": "e"}))
        assert "L:e" in po.object.edges and "L:z" in po.object.nodes
        # glue the second pushout along the first one's left leg, so that
        # the right leg runs between two graphs of tagged names
        b2 = graph_of("w", "e:x->y f:x->y")
        po2 = pushout(po.left, morphism_of(b, b2, nodes={"z": "w"},
                                           edges={"e": "e", "f": "f"}))
        doc = Document()
        doc.graphs["D"] = po.object
        doc.graphs["D2"] = po2.object
        doc.morphisms["leg"] = po2.left
        text = print_document(doc)
        assert '"L:e" -> "L:L:e"' in text and '"L:z" -> "L:L:z"' in text
        assert parse(text) == doc

    def test_unterminated_quote(self):
        with pytest.raises(ParseError, match="unterminated"):
            parse('graph G { nodes "x }')


class TestParseFiles:
    def test_accumulates_across_files(self, corpus_paths):
        doc = parse_files(corpus_paths)
        assert set(doc.sketches) >= {"G", "Gprime"}
        assert set(doc.rules) == {"merge_composites", "monic_first_factor"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            parse_files([str(tmp_path / "absent.sketch")])
