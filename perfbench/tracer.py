"""In-memory span tracer for the traced benchmark run.

The tracer replaces each traced gsketch function, in every gsketch module
namespace that binds it, by a wrapper that records a span: name, start,
end, parent span, operation id and an optional count taken from the call.
Nothing under ``src/`` is edited; ``uninstall`` puts the originals back.

A span opened directly inside a span of the same name (recursion) is not
recorded: the inner call folds into its parent.
"""
from __future__ import annotations

import functools
import sys
import time


def _len_result(args, kwargs, ret):
    return len(ret)


def _repair_steps(args, kwargs, ret):
    return len(ret[1])


def _text_bytes(args, kwargs, ret):
    text = args[0] if args else kwargs["text"]
    return len(text.encode("utf-8"))


# (defining module, function) -> count taken from the call, or None
TRACED = {
    ("graphs", "enumerate_morphisms"): _len_result,
    ("graphs", "enumerate_morphisms_extending"): _len_result,
    ("graphs", "enumerate_extensions"): _len_result,
    ("deduction", "find_matches"): _len_result,
    ("deduction", "apply_rule"): None,
    ("deduction", "repair_to_fixpoint"): _repair_steps,
    ("conditions", "satisfies"): None,
    ("conditions", "well_formed"): None,
    ("conditions", "check_constraint"): None,
    ("category", "pushout"): None,
    ("category", "pullback"): None,
    ("sketches", "sketch_pushout"): None,
    ("sketches", "sketch_pullback"): None,
    ("sketches", "translate_statement"): None,
    ("translation", "translate_condition"): None,
    ("translation", "chosen_pushout"): None,
    ("ct", "limit_condition"): None,
    ("ct", "colimit_condition"): None,
    ("ct", "unfold"): None,
    ("dsl", "parse"): _text_bytes,
    ("dsl", "parse_files"): None,
    ("dsl", "print_document"): None,
    ("dsl", "format_condition"): None,
    ("cli", "main"): None,
}

# span fields
NAME, START, END, PARENT, OP, COUNT = range(6)


class Tracer:
    """Records spans while installed; ``spans`` holds them as lists, one
    list per span, across installs."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patched = []

    def install(self, op):
        """Wrap the traced functions; spans record ``op`` as operation id."""
        self.op = op
        originals = {}
        for (mod, fn), count in TRACED.items():
            func = getattr(sys.modules["gsketch." + mod], fn)
            originals[id(func)] = self._wrap("%s.%s" % (mod, fn), func, count)
        for modname, module in list(sys.modules.items()):
            if modname != "gsketch" and not modname.startswith("gsketch."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched = []
        self.op = None

    def _wrap(self, name, func, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == name:
                return func(*args, **kwargs)
            span = [name, clock(), None, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                ret = func(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, kwargs, ret)
            return ret

        return wrapper

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]


def layer_metrics(spans, self_times, op_wall_s):
    """The per-layer metrics of one traced pass; ``op_wall_s`` is the summed
    wall time of the traced operations."""
    calls, incl, own, counts = {}, {}, {}, {}
    layer_self = {}
    for s, st in zip(spans, self_times):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + s[END] - s[START]
        own[name] = own.get(name, 0.0) + st
        counts[name] = counts.get(name, 0) + (s[COUNT] or 0)
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + st

    def c(name):
        return calls.get(name, 0)

    search = ("graphs.enumerate_morphisms", "graphs.enumerate_morphisms_extending",
              "graphs.enumerate_extensions")
    # morphisms that find_matches enumerated itself (direct children)
    fm_enumerated = sum(s[COUNT] or 0 for s in spans
                        if s[NAME] in search and s[PARENT] is not None
                        and spans[s[PARENT]][NAME] == "deduction.find_matches")
    # outermost printing spans only: format_condition calls print_document
    printing = ("dsl.print_document", "dsl.format_condition")
    print_s = sum((s[END] - s[START] for s in spans if s[NAME] in printing
                   and (s[PARENT] is None or spans[s[PARENT]][NAME] not in printing)), 0.0)
    parse_s = incl.get("dsl.parse", 0.0)
    m = {
        "graphs.search_calls": (sum(c(n) for n in search), "count"),
        "graphs.morphisms_out": (sum(counts.get(n, 0) for n in search), "count"),
        "graphs.self_s": (layer_self.get("graphs", 0.0), "s"),
        "graphs.self_share": (layer_self.get("graphs", 0.0) / op_wall_s, "ratio"),
        "deduction.find_matches_calls": (c("deduction.find_matches"), "count"),
        "deduction.find_matches_self_s": (own.get("deduction.find_matches", 0.0), "s"),
        "deduction.find_matches_share": (incl.get("deduction.find_matches", 0.0)
                                         / op_wall_s, "ratio"),
        "deduction.apply_rule_calls": (c("deduction.apply_rule"), "count"),
        "deduction.apply_rule_self_s": (own.get("deduction.apply_rule", 0.0), "s"),
        "deduction.repair_steps": (counts.get("deduction.repair_to_fixpoint", 0), "count"),
        "deduction.match_yield": ((counts.get("deduction.find_matches", 0) / fm_enumerated)
                                  if fm_enumerated else 0.0, "ratio"),
        "conditions.satisfies_calls": (c("conditions.satisfies"), "count"),
        "conditions.self_s": (layer_self.get("conditions", 0.0), "s"),
        "conditions.well_formed_calls": (c("conditions.well_formed"), "count"),
        "conditions.well_formed_s": (incl.get("conditions.well_formed", 0.0), "s"),
        "category.pushout_calls": (c("category.pushout"), "count"),
        "category.pushout_self_s": (own.get("category.pushout", 0.0), "s"),
        "category.pullback_calls": (c("category.pullback"), "count"),
        "category.pullback_self_s": (own.get("category.pullback", 0.0), "s"),
        "sketches.pushout_calls": (c("sketches.sketch_pushout"), "count"),
        "sketches.pullback_calls": (c("sketches.sketch_pullback"), "count"),
        "sketches.translate_statement_calls": (c("sketches.translate_statement"), "count"),
        "sketches.self_s": (layer_self.get("sketches", 0.0), "s"),
        "translation.translate_calls": (c("translation.translate_condition"), "count"),
        "translation.chosen_pushout_calls": (c("translation.chosen_pushout"), "count"),
        "translation.self_s": (layer_self.get("translation", 0.0), "s"),
        "ct.self_s": (layer_self.get("ct", 0.0), "s"),
        "dsl.parse_s": (parse_s, "s"),
        "dsl.parse_kib_per_s": ((counts.get("dsl.parse", 0) / 1024.0 / parse_s)
                                if parse_s else 0.0, "KiB/s"),
        "dsl.print_s": (print_s, "s"),
        "cli.self_s": (layer_self.get("cli", 0.0), "s"),
    }
    return m
