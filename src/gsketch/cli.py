"""Command-line interface.

Exit codes: 0 success, 1 a checked constraint fails, 2 input/usage error,
3 the repair step bound was exhausted while rules still matched, 4 the
evaluation step budget was exhausted.  ``check`` resolves every constraint,
its target sketch and its anchor, before it prints anything, so an input
error leaves stdout empty.

:func:`main` builds its argument parser on its first call and reuses it in
later calls; :func:`build_parser` returns a new one on each call.  Nothing
else is kept across calls: each reads and parses its files afresh.
"""
from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from typing import List, Optional, Tuple

from .category import initial_morphism
from .conditions import (Constraint, EvaluationBudgetExceeded, Forall,
                         Verdict, check_constraint, iter_violations)
from .deduction import (ConstrainedSketch, conj_elim, conj_intro,
                        modus_ponens, repair_to_fixpoint, skolemize,
                        statement_to_constraint, universal_elim)
from .dsl import (ConstraintDecl, Document, ParseError, Parser,
                  ResolutionError, ValidationError, format_condition,
                  parse_files, print_document, read_source)
from .graphs import GraphMorphism, MismatchError
from .sketches import Sketch, SketchMorphism, sketch_pullback, sketch_pushout
from .translation import translate_condition


class InputError(ValueError):
    pass


def _morphism_json(m: GraphMorphism) -> dict:
    return {"nodes": dict(sorted(m.node_map.items())),
            "edges": dict(sorted(m.edge_map.items()))}


def _morphism_table(m: GraphMorphism) -> str:
    entries = ["%s -> %s" % kv for kv in sorted(m.node_map.items())]
    entries += ["%s -> %s" % kv for kv in sorted(m.edge_map.items())]
    return "{%s}" % ", ".join(entries)


def _sketch_document(doc: Document, name: str, sketch: Sketch) -> str:
    """A printed document of ``sketch`` over the footprints of ``doc``."""
    return print_document(Document(footprints=dict(doc.footprints),
                                   sketches={name: sketch}))


def _target_sketch(doc: Document, args,
                   decl: Optional[ConstraintDecl] = None) -> Tuple[str, Sketch]:
    """The name and value of the sketch given by ``--sketch`` or else the
    only one that the anchor of the constraint ``decl`` lands in, or else
    the only one.  The errors leave naming the constraint to the caller."""
    if getattr(args, "sketch", None):
        return args.sketch, doc.lookup("sketch", args.sketch)
    if decl is not None and decl.anchor is not None:
        fits = [(name, sk) for name, sk in doc.sketches.items()
                if sk.context == decl.anchor.cod]
        if len(fits) != 1:
            raise InputError("%s the constraint anchor; pass --sketch" % (
                "several sketches match" if fits else "no sketch matches"))
        return fits[0]
    if len(doc.sketches) == 1:
        return next(iter(doc.sketches.items()))
    raise InputError("document has %d sketches; pass --sketch"
                     % len(doc.sketches))


def cmd_check(doc: Document, args) -> int:
    names = args.constraint or list(doc.constraints)
    if not names:
        raise InputError("document declares no constraints")
    targets = []
    for name in names:
        decl = doc.lookup("constraint", name)
        try:
            sketch_name, sketch = _target_sketch(doc, args, decl)
            if decl.anchor is not None and decl.anchor.cod != sketch.context:
                raise InputError("anchor does not land in sketch %r"
                                 % sketch_name)
        except InputError as exc:
            raise InputError("constraint %r: %s" % (name, exc)) from None
        targets.append((name, sketch, decl.resolve(sketch.context)))
    reports = []
    all_hold = True
    for name, sketch, k in targets:
        if isinstance(k.condition, Forall):
            # one draw: its first violation is the counterexample
            draws = iter_violations(k.anchor, sketch, k.condition)
            first = next(draws, None)
            verdict = Verdict(first is None, counterexample=first)
            violations = () if first is None else chain((first,), draws)
        else:
            verdict, violations = check_constraint(sketch, k), ()
        all_hold = all_hold and verdict.holds
        report = {"constraint": name, "holds": verdict.holds,
                  "anchor": _morphism_json(k.anchor)}
        if verdict.witness is not None:
            report["witness"] = _morphism_json(verdict.witness)
        if verdict.counterexample is not None:
            report["counterexample"] = _morphism_json(verdict.counterexample)
        reports.append(report)
        if not args.json:
            print("%s: %s" % (name, "holds" if verdict.holds else "FAILS"))
            if verdict.witness is not None:
                print("  witness %s" % _morphism_table(verdict.witness))
            if verdict.counterexample is not None:
                print("  counterexample %s"
                      % _morphism_table(verdict.counterexample))
            for r in violations:
                print("  violating extension %s" % _morphism_table(r))
    if args.json:
        print(json.dumps(reports, indent=2))
    return 0 if all_hold else 1


def cmd_repair(doc: Document, args) -> int:
    if args.max_steps < 0:
        raise InputError("--max-steps must be non-negative")
    rules = [doc.lookup("rule", name) for name in args.rules]
    _, sketch = _target_sketch(doc, args)
    final, trace, exhausted = repair_to_fixpoint(rules, sketch, args.max_steps)
    for i, step in enumerate(trace, start=1):
        print("step %d: match %s" % (i, _morphism_table(step.match)))
    text = _sketch_document(doc, "repaired", final)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    if exhausted:
        print("step bound exhausted with rules still applicable",
              file=sys.stderr)
        return 3
    return 0


def cmd_translate(doc: Document, args) -> int:
    cond = doc.lookup("condition", args.condition)
    c = doc.lookup("morphism", args.along)
    if c.dom != cond.context:
        raise InputError("morphism %r does not start at the condition context"
                         % args.along)
    print(format_condition(translate_condition(c, cond), doc), end="")
    return 0


def _sketch_for_graph(doc: Document, graph, what: str) -> Sketch:
    fits = [sk for sk in doc.sketches.values() if sk.context == graph]
    if len(fits) > 1:
        raise InputError("several sketches share the %s context" % what)
    return fits[0] if fits else Sketch(graph)


def _span(doc: Document, names: List[str], cospan: bool):
    if len(names) != 2:
        raise InputError("expected exactly two morphism names")
    ms = [doc.lookup("morphism", name) for name in names]
    shared = "codomain" if cospan else "domain"
    a, b = ms
    if (a.cod != b.cod) if cospan else (a.dom != b.dom):
        raise InputError("the two morphisms do not share a %s" % shared)
    return ms


def cmd_pushout(doc: Document, args) -> int:
    m, r = _span(doc, args.span, cospan=False)
    apex = _sketch_for_graph(doc, m.dom, "shared domain")
    left = SketchMorphism(apex, _sketch_for_graph(doc, m.cod, "codomain"), m)
    right = SketchMorphism(apex, _sketch_for_graph(doc, r.cod, "codomain"), r)
    d, r_star, m_star = sketch_pushout(left, right)
    print(_sketch_document(doc, "pushout", d), end="")
    print("# left leg %s" % _morphism_table(r_star.morphism))
    print("# right leg %s" % _morphism_table(m_star.morphism))
    return 0


def cmd_pullback(doc: Document, args) -> int:
    m, r = _span(doc, args.cospan, cospan=True)
    base = _sketch_for_graph(doc, m.cod, "shared codomain")
    left = SketchMorphism(_sketch_for_graph(doc, m.dom, "domain"), base, m)
    right = SketchMorphism(_sketch_for_graph(doc, r.dom, "domain"), base, r)
    d, m_star, r_star = sketch_pullback(left, right)
    print(_sketch_document(doc, "pullback", d), end="")
    print("# left projection %s" % _morphism_table(m_star.morphism))
    print("# right projection %s" % _morphism_table(r_star.morphism))
    return 0


def _run_deduce_script(doc: Document, sketch: Sketch, lines) -> dict:
    """Run a deduction script against a sketch; returns the constraint store.

    Commands (one per line, ``#`` comments):
      assume COND (MORPH|initial) as NAME
      elim NAME via MORPH as NAME
      mp NAME with NAME as NAME
      skolem NAME as NAME
      intro NAME... as NAME
      split NAME as PREFIX
      inst PRED via {x -> y, ...} def COND as NAME
    A DSL :class:`Parser` reads each line and locates syntax errors, unknown
    names and bound result names (``split`` binds PREFIX_1, PREFIX_2, ...);
    a step that does not apply is reported at its line.
    """
    store: dict = {}
    state = ConstrainedSketch(sketch)

    def constraint(p):
        """Read the name of a deduced constraint."""
        with p.building(p.pos):
            name = p.expect_name()
            if name not in store:
                raise InputError("unknown deduced constraint %r" % name)
        return store[name]

    def bind(name, k):
        nonlocal state
        state = state.with_constraint(k)
        store[name] = k

    def result_name(p):
        """Read the closing ``as NAME`` of a command line; NAME is new."""
        p.expect("as")
        name = p.new_name(store, "constraint")
        if not p.at(""):
            p.unexpected("end of line")
        return name

    for lineno, raw in enumerate(lines, start=1):
        try:
            p = Parser(raw, doc, lineno)
            if p.at(""):
                continue
            op = p.expect_name()
            if op == "assume":
                cond = p.resolve("condition")
                if p.accept("initial"):
                    anchor = initial_morphism(state.sketch.context)
                else:
                    anchor = p.resolve("morphism")
                bind(result_name(p), Constraint(cond, anchor))
            elif op == "elim":
                k = constraint(p)
                p.expect("via")
                t = p.resolve("morphism")
                bind(result_name(p), universal_elim(k, t))
            elif op == "mp":
                k = constraint(p)
                p.expect("with")
                guard = constraint(p)
                bind(result_name(p), modus_ponens(k, guard))
            elif op == "skolem":
                k = constraint(p)
                new_name = result_name(p)
                # the working sketch changes; earlier certifications stay in
                # the store but concern the pre-skolemization sketch
                h, new, _ = skolemize(k, state.sketch)
                state = ConstrainedSketch(h)
                bind(new_name, new)
            elif op == "intro":
                parts = [constraint(p)]
                while not p.at("as"):
                    parts.append(constraint(p))
                bind(result_name(p), conj_intro(parts))
            elif op == "split":
                k = constraint(p)
                p.expect("as")
                at = p.pos
                prefix = p.expect_name()
                if not p.at(""):
                    p.unexpected("end of line")
                for i, part in enumerate(conj_elim(k), start=1):
                    name = "%s_%d" % (prefix, i)
                    with p.building(at):
                        if name in store:
                            raise InputError("duplicate constraint name %r"
                                             % name)
                    bind(name, part)
            elif op == "inst":
                s = p.parse_statement(state.sketch.context)
                p.expect("def")
                definition = p.resolve("condition")
                if not state.sketch.holds(s.predicate, s.key):
                    raise InputError("statement is not in the sketch")
                bind(result_name(p), statement_to_constraint(s, definition))
            else:
                raise InputError("unknown deduction command %r" % op)
        except ValueError as exc:
            # every input error is one; the parser locates its errors already
            message = str(exc)
            if not message.startswith("line %d, column " % lineno):
                message = "line %d: %s" % (lineno, message)
            raise InputError(message) from exc
    return store


def cmd_deduce(doc: Document, args) -> int:
    _, sketch = _target_sketch(doc, args)
    store = _run_deduce_script(doc, sketch,
                               read_source(args.script).split("\n"))
    for name, k in store.items():
        print("%s: anchor %s" % (name, _morphism_table(k.anchor)))
        print(format_condition(k.condition, doc), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """A new argument parser for the command line."""
    parser = argparse.ArgumentParser(
        prog="gsketch",
        description="Check, repair, translate and deduce constraints on "
                    "generalized sketches.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sketch=True):
        p.add_argument("files", nargs="+", help="DSL source files")
        if sketch:
            p.add_argument("--sketch", help="target sketch name")

    p = sub.add_parser("check", help="check declared constraints")
    common(p)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--constraint", action="append",
                       help="constraint to check (repeatable)")
    which.add_argument("--all", action="store_true",
                       help="check every declared constraint (the default)")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("repair", help="apply repair rules to a fixpoint")
    common(p)
    p.add_argument("--rules", nargs="+", required=True, help="rule names")
    p.add_argument("--max-steps", type=int, default=100)
    p.add_argument("--out", help="write the repaired sketch to a file")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("translate", help="translate a condition along a morphism")
    common(p, sketch=False)
    p.add_argument("--condition", required=True)
    p.add_argument("--along", required=True, help="morphism name")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("deduce", help="run a deduction script")
    common(p)
    p.add_argument("--script", required=True, help="deduction script path")
    p.set_defaults(func=cmd_deduce)

    p = sub.add_parser("pushout", help="sketch pushout of a span")
    common(p, sketch=False)
    p.add_argument("--span", nargs=2, required=True, metavar="MORPHISM")
    p.set_defaults(func=cmd_pushout)

    p = sub.add_parser("pullback", help="sketch pullback of a cospan")
    common(p, sketch=False)
    p.add_argument("--cospan", nargs=2, required=True, metavar="MORPHISM")
    p.set_defaults(func=cmd_pullback)
    return parser


# main's parser, built by its first call: parsing arguments leaves a parser
# as it was, and its program name is fixed
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[List[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        doc = parse_files(args.files)
        return args.func(doc, args)
    except (OSError, ParseError, ResolutionError, ValidationError,
            InputError, MismatchError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except EvaluationBudgetExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
