import json
import os
import subprocess
import sys

import pytest

from gsketch import deduction
from gsketch.cli import main
from gsketch.dsl import parse

from conftest import FIXTURE_DIR

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

    def test_missing_file_exits_two(self, capsys):
        code = main(["check", "/nonexistent.sketch", "--all"])
        capsys.readouterr()
        assert code == 2


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

    def test_bad_script_step(self, corpus, tmp_path, capsys):
        script = tmp_path / "script.txt"
        script.write_text("assume nope initial as x\n")
        code = main(["deduce", *corpus, "--sketch", "Gprime",
                     "--script", str(script)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: line 1: unknown condition 'nope'\n"

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
        assert capsys.readouterr().err.startswith("error: line 2: ")

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
