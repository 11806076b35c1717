import json
import os
import re
import subprocess
import sys

import pytest

from gsketch import cli, conditions, deduction, dsl
from gsketch.cli import main
from gsketch.dsl import parse, parse_files

from conftest import FIXTURE_DIR
from test_dsl import BAD_ENTRIES, REJECTED

SRC_DIR = FIXTURE_DIR.parent.parent / "src"


@pytest.fixture(scope="module")
def corpus():
    return [str(FIXTURE_DIR / name) for name in (
        "base.sketch", "example.sketch", "conditions.sketch",
        "rules.sketch", "deduce.sketch")]


class TestCheck:
    def test_holding_constraint_exits_zero(self, corpus, capsys):
        code = main(["check", *corpus, "--constraint", "k_phi1_t1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "k_phi1_t1: holds" in out
        assert "witness" in out and "e3 -> e" in out

    def test_failing_constraint_exits_one(self, corpus, capsys):
        code = main(["check", *corpus, "--constraint", "k_phi6",
                     "--sketch", "G"])
        out = capsys.readouterr().out
        assert code == 1
        assert "k_phi6: FAILS" in out
        assert "violating extension" in out
        assert "e1 -> c" in out and "e2 -> d" in out and "e3 -> g" in out

    def test_all_constraints_report(self, corpus, capsys):
        code = main(["check", *corpus, "--all", "--sketch", "G", "--json"])
        out = capsys.readouterr().out
        assert code == 1
        reports = json.loads(out)
        verdicts = {r["constraint"]: r["holds"] for r in reports}
        assert verdicts == {"k_phi1_t1": True, "k_phi1_t2": False,
                            "k_phi2": False, "k_phi3": False, "k_phi4": True,
                            "k_phi5": True, "k_phi6": False}
        for r in reports:
            assert set(r) >= {"constraint", "holds", "anchor"}
            assert set(r["anchor"]) == {"nodes", "edges"}

    def test_g_prime_satisfies_uniqueness(self, corpus, capsys):
        code = main(["check", *corpus, "--constraint", "k_phi3",
                     "--sketch", "Gprime"])
        capsys.readouterr()
        assert code == 0

    def test_unknown_constraint_is_input_error(self, corpus, capsys):
        code = main(["check", *corpus, "--constraint", "nope"])
        err = capsys.readouterr().err
        assert code == 2 and "nope" in err

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.sketch"
        bad.write_text("graph G {")
        code = main(["check", str(bad), "--all"])
        err = capsys.readouterr().err
        assert code == 2 and "error:" in err

    def test_deep_nesting_exits_two(self, corpus, tmp_path, capsys):
        deep = tmp_path / "deep.sketch"
        deep.write_text("condition deep over Empty = %strue\n"
                        "constraint k = (deep, initial)\n" % ("not " * 3000))
        code = main(["check", *corpus, str(deep), "--constraint", "k",
                     "--sketch", "G"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: line 1, column 829: condition nested more than 200 deep\n")

    def test_exhausted_budget_exits_four(self, corpus, capsys, monkeypatch):
        # the budget is read when the check runs, so it stops before any
        # verdict is printed
        monkeypatch.setattr(conditions, "DEFAULT_BUDGET", 3)
        code = main(["check", *corpus, "--constraint", "k_phi3",
                     "--sketch", "G"])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: evaluation step budget exhausted\n"

    def test_universal_constraint_is_drawn_once(self, corpus, capsys,
                                                monkeypatch):
        draws = []

        def counting(t, g, c):
            draws.append(c)
            return conditions.iter_violations(t, g, c)

        def unused(*args, **kwargs):
            raise AssertionError("a universal constraint was evaluated twice")

        monkeypatch.setattr(cli, "iter_violations", counting)
        monkeypatch.setattr(cli, "check_constraint", unused)
        code = main(["check", *corpus, "--constraint", "k_phi3",
                     "--sketch", "G"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1 and len(draws) == 1
        assert lines[0] == "k_phi3: FAILS"
        violating = [line for line in lines if "violating extension" in line]
        assert len(violating) == 2
        assert violating[0].split("extension")[1] == \
            lines[1].split("counterexample")[1]

    @pytest.mark.parametrize("text, message", REJECTED.values(),
                             ids=REJECTED)
    def test_rejected_construction_exits_two(self, tmp_path, capsys, text,
                                             message):
        path = tmp_path / "bad.sketch"
        path.write_text(text)
        code = main(["check", str(path)])
        assert code == 2
        assert capsys.readouterr().err == "error: %s\n" % message

    @pytest.mark.parametrize("text, message", BAD_ENTRIES.values(),
                             ids=BAD_ENTRIES)
    def test_bad_entry_exits_two(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.sketch"
        path.write_text(text)
        code = main(["check", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: %s\n" % message

    def test_missing_file_exits_two(self, capsys):
        code = main(["check", "/nonexistent.sketch", "--all"])
        capsys.readouterr()
        assert code == 2


class TestCheckResolution:
    """``check`` picks each constraint's sketch and resolves its anchor
    before it prints anything."""

    @pytest.mark.parametrize("files, argv, data, message", [
        # the first constraint, k_phi1_t1, is anchored in G
        ("corpus", ["--sketch", "Gprime"], None,
         "constraint 'k_phi1_t1': anchor does not land in sketch 'Gprime'"),
        # k_phi1_t1 and k_phi1_t2 pick G; k_phi2 has an initial anchor
        ("corpus", [], None,
         "constraint 'k_phi2': document has 6 sketches; pass --sketch"),
        ("corpus", ["--constraint", "k_lone"],
         b"graph Lone { nodes a b c; edges x: a -> b, y: b -> c; }\n"
         b"morphism into_lone : K1 -> Lone { edges e1 -> x, e2 -> y; }\n"
         b"constraint k_lone = (phi1, into_lone)\n",
         "constraint 'k_lone': no sketch matches the constraint anchor; "
         "pass --sketch"),
        ("corpus", ["--constraint", "k_phi1_t1"],
         b"sketch G2 over CT on GG { }\n",
         "constraint 'k_phi1_t1': several sketches match the constraint "
         "anchor; pass --sketch"),
        ("base", [], None, "document declares no constraints"),
        ("base", ["--constraint", "k"],
         b"graph Two { nodes v w; }\n"
         b"footprint F1 { pred final arity Two; }\n"
         b"condition c over Point = stmt final via { v -> v }\n"
         b"constraint k = (c, initial)\n",
         "line 3, column 31: predicate 'final' is ambiguous between "
         "footprints"),
    ])
    def test_unresolved_check_prints_nothing(self, corpus, tmp_path, capsys,
                                             files, argv, data, message):
        paths = corpus if files == "corpus" else corpus[:1]
        if data is not None:
            (tmp_path / "input.sketch").write_bytes(data)
            paths = paths + [str(tmp_path / "input.sketch")]
        code = main(["check", *paths, *argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: %s\n" % message

    def test_only_sketch_is_the_default(self, corpus, tmp_path, capsys):
        path = tmp_path / "one.sketch"
        path.write_text(
            "sketch S over CT on Point { stmt final via { v -> v }; }\n"
            "condition c over Empty =\n"
            "  exists (extend { nodes x; }) . stmt final via { v -> x }\n"
            "constraint k = (c, initial)\n")
        code = main(["check", *corpus[:1], str(path)])
        assert code == 0
        assert capsys.readouterr().out == "k: holds\n  witness {x -> v}\n"


@pytest.mark.parametrize("argv, message", [
    (["check", "--constraint", "nope"], "unknown constraint 'nope'"),
    (["check", "--sketch", "nope"], "unknown sketch 'nope'"),
    (["repair", "--rules", "nope"], "unknown rule 'nope'"),
    (["translate", "--condition", "nope", "--along", "t1"],
     "unknown condition 'nope'"),
    (["translate", "--condition", "phi1", "--along", "nope"],
     "unknown morphism 'nope'"),
    (["pushout", "--span", "alpha3", "nope"], "unknown morphism 'nope'"),
    (["pullback", "--cospan", "nope", "t2"], "unknown morphism 'nope'"),
])
def test_unknown_name_exits_two(corpus, capsys, argv, message):
    code = main([argv[0], *corpus, *argv[1:]])
    assert code == 2
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize("argv, data, message", [
    (["repair", "--sketch", "G", "--rules", "merge_composites",
      "--max-steps", "-1"], None, "--max-steps must be non-negative"),
    (["check", "{path}", "--all"],
     b"graph X1 { }\ngraph X2 { }\n"
     b"footprint F { pred p arity X1; pred p arity X2; }\n",
     "line 3, column 37: duplicate predicate name 'p'"),
    (["check", "{path}", "--all"], b"# gr\xf6\xdfe\n",
     "line 1, column 5: {path}: byte 0xf6 is not UTF-8"),
    (["deduce", "--sketch", "Gprime", "--script", "{path}"],
     b"assume phi3 initial as unique\n# gr\xf6\xdfe\n",
     "line 2, column 5: {path}: byte 0xf6 is not UTF-8"),
    (["check", "{path}", "--all"],
     b"footprint F2 { pred final arity Point; }\n"
     b"sketch S over F2 on Arrow { stmt monic via { e -> e }; }\n",
     "line 2, column 34: statement 'monic': the predicate is not in "
     "footprint 'F2'"),
])
def test_rejected_input_exits_two(corpus, tmp_path, capsys, argv, data,
                                  message):
    # ``{path}`` stands for a file holding ``data``
    path = tmp_path / "input"
    if data is not None:
        path.write_bytes(data)
    argv = [arg.format(path=path) for arg in argv]
    code = main([argv[0], *corpus, *argv[1:]])
    assert code == 2
    assert capsys.readouterr().err == "error: %s\n" % message.format(path=path)


class TestRepair:
    def test_repair_to_fixpoint(self, corpus, capsys, tmp_path):
        out_path = tmp_path / "repaired.sketch"
        code = main(["repair", *corpus, "--sketch", "G",
                     "--rules", "merge_composites", "monic_first_factor",
                     "--out", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "step 1:" in out and "step 2:" in out and "step 3:" not in out
        repaired = parse(out_path.read_text())
        sk = repaired.sketches["repaired"]
        assert len(sk.context.edges) == 6
        assert len(sk.statements) == 5

    def test_max_steps_exhausted_exits_three(self, corpus, capsys):
        code = main(["repair", *corpus, "--sketch", "G",
                     "--rules", "merge_composites", "monic_first_factor",
                     "--max-steps", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert "exhausted" in captured.err

    def test_exhausted_budget_exits_four(self, corpus, capsys, monkeypatch):
        monkeypatch.setattr(conditions, "DEFAULT_BUDGET", 3)
        code = main(["repair", *corpus, "--sketch", "G",
                     "--rules", "merge_composites", "monic_first_factor"])
        assert code == 4
        assert capsys.readouterr().err == (
            "error: evaluation step budget exhausted\n")

    def test_unknown_rule(self, corpus, capsys):
        code = main(["repair", *corpus, "--sketch", "G", "--rules", "nope"])
        capsys.readouterr()
        assert code == 2


class TestTranslate:
    def test_translate_prints_parseable_condition(self, corpus, capsys):
        code = main(["translate", *corpus, "--condition", "phi1",
                     "--along", "t1"])
        out = capsys.readouterr().out
        assert code == 0
        round_doc = parse(out)
        assert len(round_doc.conditions) == 1

    def test_wrong_domain(self, corpus, capsys):
        code = main(["translate", *corpus, "--condition", "phi7",
                     "--along", "t1"])
        capsys.readouterr()
        assert code == 2


class TestSpans:
    def test_pushout(self, corpus, capsys):
        code = main(["pushout", *corpus, "--span", "alpha3", "t3"])
        out = capsys.readouterr().out
        assert code == 0
        assert parse(out).sketches

    def test_pullback(self, corpus, capsys):
        code = main(["pullback", *corpus, "--cospan", "t1", "t2"])
        out = capsys.readouterr().out
        assert code == 0
        assert parse(out).sketches

    def test_non_span_is_input_error(self, corpus, capsys):
        code = main(["pushout", *corpus, "--span", "t1", "alpha7"])
        capsys.readouterr()
        assert code == 2


class TestDeduce:
    def test_script_runs(self, corpus, capsys):
        script = str(FIXTURE_DIR / "deduce.txt")
        code = main(["deduce", *corpus, "--sketch", "Gprime",
                     "--script", script])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("unique", "at_pair", "premise", "merged",
                     "defined", "fresh"):
            assert name in out

    def test_script_certifies_each_constraint_once(self, corpus, capsys,
                                                   monkeypatch):
        original, checked = deduction.check_constraint, []

        def counting(g, k, **kwargs):
            checked.append(k)
            return original(g, k, **kwargs)

        monkeypatch.setattr(deduction, "check_constraint", counting)
        code = main(["deduce", *corpus, "--sketch", "Gprime",
                     "--script", str(FIXTURE_DIR / "deduce.txt")])
        capsys.readouterr()
        assert code == 0
        # six bound constraints, one check each
        assert len(checked) == 6

    def test_intro_and_split_round_trip(self, corpus, tmp_path, capsys):
        script = tmp_path / "script.txt"
        script.write_text("assume phi3 initial as unique\n"
                          "assume phi4 initial as final_monic\n"
                          "intro unique final_monic as both\n"
                          "split both as both\n")
        code = main(["deduce", *corpus, "--sketch", "Gprime",
                     "--script", str(script)])
        assert code == 0
        # each store entry prints as "NAME: anchor {...}" and a document;
        # split binds both_1 and both_2, not its prefix, which may be bound
        printed = dict(re.findall(r"^(\w+): anchor \{\}\n(.*?)(?=^\w+: |\Z)",
                                  capsys.readouterr().out, re.M | re.S))
        assert list(printed) == ["unique", "final_monic", "both",
                                 "both_1", "both_2"]
        assert printed["both_1"] == printed["unique"]
        assert printed["both_2"] == printed["final_monic"]
        assert "condition result over Empty = and(" in printed["both"]

    @pytest.mark.parametrize("lines, message", [
        (["assume phi3 initial as a", "assume phi3 initial as a"],
         "line 2, column 24: duplicate constraint name 'a'"),
        (["assume phi3 initial as both_2", "assume phi4 initial as m",
          "intro both_2 m as both", "split both as both"],
         "line 4, column 15: duplicate constraint name 'both_2'"),
        (["assume phi3 initial as unique", "elim unique WRONG t3 as x"],
         "line 2, column 13: found 'WRONG' (expected 'via')"),
        (["elim nope via t3 as x"],
         "line 1, column 6: unknown deduced constraint 'nope'"),
    ])
    def test_script_error_is_located(self, corpus, tmp_path, capsys, lines,
                                     message):
        script = tmp_path / "script.txt"
        script.write_text("\n".join(lines) + "\n")
        code = main(["deduce", *corpus, "--sketch", "Gprime",
                     "--script", str(script)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: %s\n" % message

    @pytest.mark.parametrize("line, message", [
        ("inst monic via { e -> a } def phi7 as x",
         "statement is not in the sketch"),
        ("frobnicate unique as x", "unknown deduction command 'frobnicate'"),
    ])
    def test_rejected_step_exits_two(self, corpus, tmp_path, capsys, line,
                                     message):
        script = tmp_path / "script.txt"
        script.write_text(line + "\n")
        code = main(["deduce", *corpus, "--sketch", "Gprime",
                     "--script", str(script)])
        assert code == 2
        assert capsys.readouterr().err == "error: line 1: %s\n" % message

    def test_bad_script_step(self, corpus, tmp_path, capsys):
        script = tmp_path / "script.txt"
        script.write_text("assume nope initial as x\n")
        code = main(["deduce", *corpus, "--sketch", "Gprime",
                     "--script", str(script)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: line 1, column 8: unknown condition 'nope'\n"

    def test_unknown_name_in_a_step_is_located_on_its_line(self, corpus,
                                                            tmp_path, capsys):
        script = tmp_path / "script.txt"
        script.write_text("assume phi3 initial as unique\n"
                          "inst monic via { zz -> b } def phi7 as x\n")
        code = main(["deduce", *corpus, "--sketch", "Gprime",
                     "--script", str(script)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: line 2, column 18: statement 'monic': 'zz' is "
            "neither a node nor an edge of the domain\n")

    def test_script_is_tokenized_once(self, corpus, monkeypatch):
        # each line is tokenized on its own, numbered from its line, so a
        # script costs its length in characters however long it is
        doc = parse_files(corpus)
        lines = ["# note %d" % i for i in range(200)]
        lines += ["assume phi3 initial as unique", "elim unique WRONG t3 as x"]
        original, handed = dsl._tokenize, []

        def counting(text, *args):
            handed.append(text)
            return original(text, *args)

        monkeypatch.setattr(dsl, "_tokenize", counting)
        with pytest.raises(cli.InputError,
                           match="^line 202, column 13: found 'WRONG' "):
            cli._run_deduce_script(doc, doc.sketches["Gprime"], lines)
        assert sum(map(len, handed)) <= len("\n".join(lines))

    def test_inst_accepts_quoted_names(self, corpus, tmp_path, capsys):
        script = tmp_path / "script.txt"
        script.write_text('inst monic via { "e" -> "b" } def phi7 as mono_b\n')
        code = main(["deduce", *corpus, "--sketch", "Gprime",
                     "--script", str(script)])
        out = capsys.readouterr().out
        assert code == 0
        assert "mono_b: anchor {v1 -> 2, v2 -> 3, e -> b}" in out

    @pytest.mark.parametrize("line", [
        "elim unique WRONG t3 as x",
        "elim unique via t3 as x trailing",
        "elim unique via t3",
        "intro as x",
        "inst monic via { zz -> b } def phi7 as x",
        'assume phi3 "initial" as x',
    ])
    def test_malformed_line_exits_two_with_its_number(self, corpus, tmp_path,
                                                      capsys, line):
        script = tmp_path / "script.txt"
        script.write_text("assume phi3 initial as unique\n" + line + "\n")
        code = main(["deduce", *corpus, "--sketch", "Gprime",
                     "--script", str(script)])
        assert code == 2
        assert re.match(r"error: line 2(, column \d+)?: ",
                        capsys.readouterr().err)

    def test_malformed_line_exits_two_under_optimize(self, corpus, tmp_path):
        script = tmp_path / "script.txt"
        script.write_text("assume phi3 initial as unique\n"
                          "elim unique WRONG t3 as x\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "gsketch.cli", "deduce", *corpus,
             "--sketch", "Gprime", "--script", str(script)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert "line 2" in proc.stderr


class TestParserReuse:
    """``main`` builds its argument parser on its first call and reuses it;
    every call behaves as in a fresh process."""

    def test_calls_in_one_process_match_fresh_processes(self, corpus, capsys,
                                                        monkeypatch):
        # the help text wraps at the terminal width; fix it for both sides
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr(cli, "_parser", None)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
        codes = []
        for argv in (["repair", *corpus],  # a usage error: --rules missing
                     ["--help"],
                     ["check", *corpus, "--all", "--sketch", "G", "--json"]):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            proc = subprocess.run(
                [sys.executable, "-m", "gsketch.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60)
            assert (code, captured.out, captured.err) == \
                (proc.returncode, proc.stdout, proc.stderr), argv
            codes.append(code)
        assert codes == [2, 0, 1]

    def test_build_parser_returns_a_new_parser(self, corpus, capsys):
        assert main(["check", *corpus, "--all", "--sketch", "G"]) == 1
        edited = cli.build_parser()
        assert edited is not cli.build_parser()
        edited.prog = "edited"
        edited.add_argument("--extra")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        assert out.startswith("usage: gsketch ") and "--extra" not in out
