"""Run the installed ``gsketch`` script on a table of cases and require, for
each, the exact exit code, stdout and stderr, under ``PYTHONHASHSEED`` 0
and 1, so that no output follows set iteration order.

Install the package, then run this file from a directory outside the
checkout, so that ``gsketch`` imports the installed copy::

    python /path/to/checkout/tests/installed_cli.py

It prints one line per case and seed, and exits non-zero, naming the cases
that differ, if any does.
"""
import os
import pathlib
import subprocess
import sys
import tempfile

CHECKOUT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHECKOUT / "perfbench"))
from workloads import CLI_COMMANDS, HERE, cli_argv  # noqa: E402

CT = CHECKOUT / "fixtures" / "ct"
DEDUCE_GPRIME = ["deduce", *(str(CT / name) for name in (
    "base.sketch", "example.sketch", "conditions.sketch")),
    "--sketch", "Gprime", "--script"]


def golden(name):
    with open(os.path.join(HERE, "golden", name + ".out"), "rb") as f:
        return f.read()


def input_error(argv, files, message):
    """A case that exits 2 with empty stdout and one ``error:`` line."""
    return argv, files, 2, b"", ("error: %s\n" % message).encode()


# name -> (arguments, files written first, exit code, stdout, stderr)
CASES = {
    # the benchmark's CLI commands: stdout as in perfbench/golden
    name: (cli_argv(args), {}, code, golden(name), b"")
    for name, args, code, _ in CLI_COMMANDS}
CASES.update({
    # a morphism body that maps an edge twice, and one that leaves an edge
    # unmapped
    "twice": input_error(
        ["check", "twice.sketch"],
        {"twice.sketch": "graph A { nodes v w; edges e: v -> w; }\n"
                         "morphism m : A -> A { edges e -> e, e -> e; }\n"},
        "line 2, column 37: morphism 'm': 'e' is mapped twice"),
    "unmapped": input_error(
        ["check", "unmapped.sketch"],
        {"unmapped.sketch": "graph A { nodes v w; edges e: v -> w, "
                            "f: v -> w; }\n"
                            "morphism m : A -> A { edges e -> e; }\n"},
        "line 2, column 10: morphism 'm': edge 'f' of the domain is "
        "unmapped"),
    # lexical errors, the one path that computes a token's position: an
    # illegal character in mid-line and an unterminated quote on line 3
    "illegal": input_error(
        ["check", "illegal.sketch"],
        {"illegal.sketch": "graph A { nodes v @ w; }\n"},
        "line 1, column 19: unexpected character '@'"),
    "unterminated": input_error(
        ["check", "unterminated.sketch"],
        {"unterminated.sketch": 'graph A { nodes v; }\n\ngraph "B { }\n'},
        "line 3, column 7: unterminated quoted name"),
    # deduce scripts: a repeated result name and an unknown constraint
    # name, which the parser locates, and a step that does not apply,
    # which is reported at its line
    "deduce_repeat": input_error(
        DEDUCE_GPRIME + ["repeat.txt"],
        {"repeat.txt": "assume phi3 initial as a\nassume phi3 initial as a\n"},
        "line 2, column 24: duplicate constraint name 'a'"),
    "deduce_unknown": input_error(
        DEDUCE_GPRIME + ["unknown.txt"],
        {"unknown.txt": "elim nothere via t3 as x\n"},
        "line 1, column 6: unknown deduced constraint 'nothere'"),
    "deduce_anchor": input_error(
        DEDUCE_GPRIME + ["anchor.txt"],
        {"anchor.txt": "assume phi2 t1 as a\n"},
        "line 1: anchor domain differs from the condition context"),
})


def main():
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, files, code, out, err) in CASES.items():
            for path, text in files.items():
                with open(os.path.join(tmp, path), "w", encoding="utf-8") as f:
                    f.write(text)
            for seed in ("0", "1"):
                proc = subprocess.run(
                    ["gsketch", *argv], cwd=tmp, capture_output=True,
                    env=dict(os.environ, PYTHONHASHSEED=seed))
                ok = (proc.returncode, proc.stdout, proc.stderr) == (
                    code, out, err)
                print("%s, PYTHONHASHSEED=%s: exit %d, stdout %s, stderr %r"
                      % (name, seed, proc.returncode,
                         "as expected" if proc.stdout == out else "differs",
                         proc.stderr.decode(errors="replace")))
                if not ok:
                    failed.append("%s (PYTHONHASHSEED=%s)" % (name, seed))
    sys.exit("failed: %s" % ", ".join(failed) if failed else 0)


if __name__ == "__main__":
    main()
