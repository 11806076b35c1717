"""The four benchmark workloads.

Each workload has ``setup(gs, seed)``, which builds gsketch inputs from the
seeded specs and returns a state holding ``rounds`` (lists of operations);
``run(gs, state, op)``, the timed call, whose outputs compare with ``==``;
and ``check(gs, state, op, out)``, which returns a list of problems found
against the reference.

``gs`` is a namespace of the gsketch modules.  Every gsketch
call goes through a module attribute (``gs.deduction.repair_to_fixpoint``)
so that the tracer's wrappers see it.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import os
import random
from types import SimpleNamespace

import gen
import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CORPUS = [os.path.join(ROOT, "fixtures", "ct", f) for f in
          ("base.sketch", "example.sketch", "conditions.sketch",
           "rules.sketch", "deduce.sketch")]
# check-scaled checks the closed conditions that search the whole sketch on
# the chains, and the anchored ones and phi4 on the random sketches.
CHAIN_PHIS = ("phi2", "phi3", "phi5", "phi6")
RANDOM_PHIS = ("phi1", "phi4", "phi7", "phi8")
MODULES = ("graphs", "category", "sketches", "conditions", "translation",
           "deduction", "ct", "dsl", "cli")


def gsketch_modules():
    """The gsketch modules as a namespace, importing them if needed."""
    return SimpleNamespace(**{m: importlib.import_module("gsketch." + m)
                              for m in MODULES})


def _shuffled(seed, r, items):
    items = list(items)
    random.Random("%s/%d" % (seed, r)).shuffle(items)
    return items


def build_sketch(gs, spec, footprint):
    g = gs.graphs.Graph(spec.nodes, [e for e, _, _ in spec.edges],
                        {e: s for e, s, _ in spec.edges},
                        {e: t for e, _, t in spec.edges})
    stmts = []
    for pred, binding in spec.statements:
        p = footprint[pred]
        b = dict(binding)
        stmts.append(gs.sketches.Statement(p, gs.graphs.morphism_of(
            p.arity, g, {k: v for k, v in b.items() if k in p.arity.nodes},
            {k: v for k, v in b.items() if k in p.arity.edges})))
    return gs.sketches.Sketch(g, stmts)


class RepairChain:
    """repair_to_fixpoint([merge_composites, monic_first_factor], S, 4n)."""
    name = "repair-chain"

    def setup(self, gs, seed):
        doc = gs.dsl.parse_files(CORPUS[:4])
        rules = [doc.rules["merge_composites"], doc.rules["monic_first_factor"]]
        fp = doc.footprints["CT"]
        rounds = [[(spec, build_sketch(gs, spec.spec(), fp)) for spec in specs]
                  for specs in gen.repair_rounds(seed)]
        return SimpleNamespace(rules=rules, rounds=rounds)

    def run(self, gs, state, op):
        spec, sketch = op
        final, trace, exhausted = gs.deduction.repair_to_fixpoint(
            state.rules, sketch, 4 * spec.n)
        return final, len(trace), exhausted

    def check(self, gs, state, op, out):
        return reference.check_repaired_chain(op[0], *out)


def check_anchors(rng, spec):
    """Seeded anchors for phi1 (a composable pair, half of the time one
    with a composite), phi7 (an edge) and phi8 (a node)."""
    src = {e: s for e, s, _ in spec.edges}
    tgt = {e: t for e, _, t in spec.edges}
    pairs = sorted((x, y) for x in src for y in src if tgt[x] == src[y])
    composed = sorted({(dict(b)["e1"], dict(b)["e2"])
                       for p, b in spec.statements if p == "comp"})
    pool = composed if composed and rng.random() < 0.5 else pairs
    return {"phi1": ("pair",) + rng.choice(pool),
            "phi7": ("edge", rng.choice(sorted(src))),
            "phi8": ("node", rng.choice(spec.nodes))}


class CheckScaled:
    """check_constraint of phi2, phi3, phi5 and phi6 on fixed chains and of
    phi1, phi4, phi7 and phi8 on random sketches."""
    name = "check-scaled"

    def setup(self, gs, seed):
        doc = gs.dsl.parse_files(CORPUS[:3])
        fp = doc.footprints["CT"]
        chains, smalls = gen.check_targets(seed)
        rng = random.Random(seed)
        ops = []
        for kind, spec in ([("chain", c) for c in chains]
                           + [("random", s) for s in smalls]):
            sspec = spec.spec() if kind == "chain" else spec
            sketch = build_sketch(gs, sspec, fp)
            anchors = check_anchors(rng, sspec) if kind == "random" else {}
            for phi in (CHAIN_PHIS if kind == "chain" else RANDOM_PHIS):
                cond = doc.conditions[phi]
                anchor = anchors.get(phi)
                if anchor is None:
                    m = gs.category.initial_morphism(sketch.context)
                elif anchor[0] == "pair":
                    m = gs.graphs.morphism_of(cond.context, sketch.context,
                                              edges={"e1": anchor[1], "e2": anchor[2]})
                elif anchor[0] == "edge":
                    m = gs.graphs.morphism_of(cond.context, sketch.context,
                                              edges={"e": anchor[1]})
                else:
                    m = gs.graphs.morphism_of(cond.context, sketch.context,
                                              nodes={"v": anchor[1]})
                key = (kind, spec, phi, anchor)
                ops.append((key, sketch, gs.conditions.Constraint(cond, m)))
        state = SimpleNamespace(ops=ops, expected={})
        state.rounds = [_shuffled(seed, r, ops) for r in range(3)]
        return state

    def run(self, gs, state, op):
        return gs.conditions.check_constraint(op[1], op[2])

    def expected(self, op):
        (kind, spec, phi, anchor), sketch, k = op
        if kind == "chain":
            return reference.chain_verdict(spec.spec(), phi, anchor)
        return reference.holds(reference.maps_of(k.anchor),
                               reference.Target(sketch), k.condition)

    def check(self, gs, state, op, out):
        key = op[0]
        if key not in state.expected:
            state.expected[key] = self.expected(op)
        if out.holds != state.expected[key]:
            return ["%s on a %s sketch: verdict %s, expected %s"
                    % (key[2], key[0], out.holds, state.expected[key])]
        return []


class TranslateLimits:
    """(co)limit_condition(shape), translate_condition along c, unfold comp."""
    name = "translate-limits"

    def setup(self, gs, seed):
        doc = gs.dsl.parse_files(CORPUS[:1] + [os.path.join(HERE, "defs.sketch")])
        fp = doc.footprints["CT"]
        defs = {fp["comp"]: doc.conditions["comp_unique"]}
        ops = []
        for i, (spec, sample) in enumerate(gen.translate_inputs(seed)):
            Graph = gs.graphs.Graph
            shape = Graph(spec.shape_nodes, [e for e, _, _ in spec.shape_edges],
                          {e: s for e, s, _ in spec.shape_edges},
                          {e: t for e, _, t in spec.shape_edges})
            nodes, edges = spec.base()
            base = Graph(nodes, [e for e, _, _ in edges],
                         {e: s for e, s, _ in edges}, {e: t for e, _, t in edges})
            h = Graph(spec.h_nodes, [e for e, _, _ in spec.h_edges],
                      {e: s for e, s, _ in spec.h_edges},
                      {e: t for e, _, t in spec.h_edges})
            c = gs.graphs.GraphMorphism(base, h, dict(spec.node_map), dict(spec.edge_map))
            ops.append((i, spec, shape, c, build_sketch(gs, sample, fp)))
        state = SimpleNamespace(defs=defs, verified={}, seed=seed)
        state.rounds = [_shuffled(seed, r, ops) for r in range(3)]
        return state

    @staticmethod
    def condition(gs, spec, shape):
        make = gs.ct.colimit_condition if spec.colimit else gs.ct.limit_condition
        return make(shape)

    def run(self, gs, state, op):
        _, spec, shape, c, _ = op
        translated = gs.translation.translate_condition(c, self.condition(gs, spec, shape))
        return translated, gs.ct.unfold(translated, state.defs)

    def check(self, gs, state, op, out):
        i, spec, shape, c, sample = op
        if i in state.verified:
            return [] if state.verified[i] == out else ["output differs from the verified one"]
        translated, unfolded = out
        problems = []
        if translated.context != c.cod or unfolded.context != c.cod:
            problems.append("result does not live over the target context")
        if not (reference.well_formed(translated) and reference.well_formed(unfolded)):
            problems.append("result is not well formed")
        if problems:
            return problems
        # the original condition, recomputed outside the timed region
        original = self.condition(gs, spec, shape)
        if original.context != c.dom:
            return ["condition context is not the cone base"]
        target = reference.Target(sample)
        anchors = list(reference.homs(c.cod, target))
        if not anchors:
            return ["no anchor into the sample sketch"]
        rng = random.Random("%s/anchors/%d" % (state.seed, i))
        defs = {p.name: d for p, d in state.defs.items()}
        for t in rng.sample(anchors, min(2, len(anchors))):
            # shift property: t |= translate(c, phi)  iff  c;t |= phi
            c_t = reference.compose(reference.maps_of(c), t)
            if reference.holds(t, target, translated) != reference.holds(c_t, target, original):
                problems.append("translation breaks the shift property")
            if reference.holds(t, target, unfolded) != reference.holds(
                    c_t, target, original, defs):
                problems.append("unfolding changes the meaning")
        if not problems:
            state.verified[i] = out
        return problems


# (name, argv after the corpus, expected exit code, calls per round); the
# expected stdout is golden/<name>.out, reviewed by hand against the README's
# description.  The calls fall into three cost tiers: pushout, pullback and
# translate (about 10 ms here), check --json (about 12.5 ms), and check,
# repair and deduce (about 15 ms).  With check --json called four times per
# round and the rest once, the tiers hold 30 %, 40 % and 30 % of the calls,
# so the 50th percentile lands in the middle of the check --json calls and
# the 90th among the costliest tier, not on the steep edge between two tiers
# where a small shift in any one command's cost would move it.
CLI_COMMANDS = (
    ("check_text", ["check", "--all", "--sketch", "G"], 1, 1),
    ("check_json", ["check", "--all", "--sketch", "G", "--json"], 1, 4),
    ("repair", ["repair", "--sketch", "G", "--rules", "merge_composites",
                "monic_first_factor", "--max-steps", "100"], 0, 1),
    ("translate", ["translate", "--condition", "phi1", "--along", "t1"], 0, 1),
    ("pushout", ["pushout", "--span", "alpha3", "t3"], 0, 1),
    ("pullback", ["pullback", "--cospan", "t1", "t2"], 0, 1),
    ("deduce", ["deduce", "--sketch", "Gprime", "--script",
                os.path.join(ROOT, "fixtures", "ct", "deduce.txt")], 0, 1),
)


def cli_argv(args):
    """Insert the corpus files after the subcommand."""
    return [args[0]] + CORPUS + args[1:]


class CliCorpus:
    """In-process gsketch.cli.main over the README commands."""
    name = "cli-corpus"

    def setup(self, gs, seed):
        ops, mix = [], []
        for name, args, code, calls in CLI_COMMANDS:
            with open(os.path.join(HERE, "golden", name + ".out"), encoding="utf-8") as f:
                ops.append((name, cli_argv(args), code, f.read()))
            mix += [ops[-1]] * calls
        state = SimpleNamespace(ops=ops)
        state.rounds = [_shuffled(seed, r, mix * 2) for r in range(3)]
        return state

    def run(self, gs, state, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = gs.cli.main(op[1])
        return code, out.getvalue(), err.getvalue()

    def check(self, gs, state, op, out):
        name, _, code, stdout = op
        problems = []
        if out[0] != code:
            problems.append("%s: exit code %r, expected %r" % (name, out[0], code))
        if out[1] != stdout:
            problems.append("%s: stdout differs from golden/%s.out" % (name, name))
        if out[2]:
            problems.append("%s: unexpected stderr %r" % (name, out[2][:200]))
        return problems


WORKLOADS = {w.name: w for w in (RepairChain(), CheckScaled(), TranslateLimits(),
                                 CliCorpus())}
