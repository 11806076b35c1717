"""Reference answers that do not come from gsketch's output.

* ``Target`` / ``holds``: a brute-force evaluator of the condition AST.
  Quantifier extensions are all maps built with ``itertools.product`` (node
  images first, then every edge over the codomain edges with matching
  endpoints) and filtered by the extension equation; there is no search
  order, pruning or early materialisation shared with ``gsketch.graphs``.
  It reads only the public fields of gsketch values and dispatches on class
  names, so it works across re-imports of the package.
* ``chain_verdict``: verdicts of phi1-phi8 on a generated sketch, derived by
  hand from the meaning of each condition and computed from the spec.
* ``check_repaired_chain``: the step count and final shape of repairing a
  duplicate-composite chain, known by construction.
* ``well_formed``: the context discipline of a condition tree.
"""
from __future__ import annotations

import itertools


class Target:
    """A sketch as plain sets: the codomain of brute-force evaluation."""

    def __init__(self, sketch):
        g = sketch.context
        self.nodes = sorted(g.nodes)
        self.edges = sorted(g.edges)
        self.src, self.tgt = dict(g.src), dict(g.tgt)
        self.keys = {stmt_key(s.predicate.name, s.binding.node_map,
                              s.binding.edge_map) for s in sketch.statements}


def stmt_key(name, node_map, edge_map):
    return name, frozenset(node_map.items()), frozenset(edge_map.items())


def maps_of(m):
    return dict(m.node_map), dict(m.edge_map)


def compose(first, second):
    """(node_map, edge_map) of first;second, given as map pairs."""
    return ({k: second[0][v] for k, v in first[0].items()},
            {k: second[1][v] for k, v in first[1].items()})


def homs(dom, target, node_seed=None, edge_seed=None):
    """Every graph homomorphism dom -> target extending the seeds, as map
    pairs, by product over node images and then over edge images."""
    node_seed, edge_seed = node_seed or {}, edge_seed or {}
    free_nodes = sorted(dom.nodes - node_seed.keys())
    edges = sorted(dom.edges)
    for images in itertools.product(target.nodes, repeat=len(free_nodes)):
        nm = dict(node_seed)
        nm.update(zip(free_nodes, images))
        choices = []
        for e in edges:
            s, t = nm[dom.src[e]], nm[dom.tgt[e]]
            cands = [x for x in ([edge_seed[e]] if e in edge_seed else target.edges)
                     if target.src[x] == s and target.tgt[x] == t]
            choices.append(cands)
        for picked in itertools.product(*choices):
            yield nm, dict(zip(edges, picked))


def extensions(shift, t, target):
    """All r: M -> G with shift;r = t, for shift: K -> M and t: K -> G."""
    node_seed, edge_seed = {}, {}
    for k, m in shift.node_map.items():
        if node_seed.setdefault(m, t[0][k]) != t[0][k]:
            return
    for k, m in shift.edge_map.items():
        if edge_seed.setdefault(m, t[1][k]) != t[1][k]:
            return
    yield from homs(shift.cod, target, node_seed, edge_seed)


def holds(t, target, c, defs=None):
    """Whether the anchor t (a map pair) satisfies condition c in target.

    ``defs`` maps predicate names to defining conditions over their arity:
    a statement of such a predicate holds when its binding satisfies the
    definition (the meaning ``gsketch.ct.unfold`` must preserve).
    """
    kind = type(c).__name__
    if kind == "Stmt":
        s = c.statement
        b = compose(maps_of(s.binding), t)
        if defs and s.predicate.name in defs:
            return holds(b, target, defs[s.predicate.name])
        return stmt_key(s.predicate.name, *b) in target.keys
    if kind == "Top":
        return True
    if kind == "Bottom":
        return False
    if kind == "And":
        return all(holds(t, target, x, defs) for x in c.children)
    if kind == "Or":
        return any(holds(t, target, x, defs) for x in c.children)
    if kind == "Not":
        return not holds(t, target, c.child, defs)
    if kind in ("Exists", "Forall"):
        # a guarded quantifier is vacuously true when its guard fails
        if not holds(t, target, c.guard, defs):
            return True
        results = (holds(r, target, c.body, defs)
                   for r in extensions(c.shift, t, target))
        return any(results) if kind == "Exists" else all(results)
    raise TypeError("unknown condition node %s" % kind)


def well_formed(c) -> bool:
    """Every child lives over its parent's context; quantifier shifts start
    at the context and bodies live over the shift codomain."""
    kind = type(c).__name__
    if kind == "Stmt":
        return c.statement.binding.cod == c.context
    if kind in ("Top", "Bottom"):
        return True
    if kind in ("And", "Or"):
        return all(x.context == c.context and well_formed(x) for x in c.children)
    if kind == "Not":
        return c.child.context == c.context and well_formed(c.child)
    if kind in ("Exists", "Forall"):
        return (c.shift.dom == c.context and c.guard.context == c.context
                and c.body.context == c.shift.cod
                and well_formed(c.guard) and well_formed(c.body))
    return False


# verdicts by construction ---------------------------------------------------

def chain_verdict(spec, phi, anchor):
    """Verdict of a ct sample condition on a generated sketch spec.

    ``anchor`` is ("pair", e1, e2) for phi1, ("edge", e) for phi7,
    ("node", v) for phi8 and None for the closed conditions.  Each case is
    the condition's meaning written out over the statement lists.
    """
    src = {e: s for e, s, _ in spec.edges}
    tgt = {e: t for e, _, t in spec.edges}
    comps = [dict(b) for p, b in spec.statements if p == "comp"]
    comps = [(b["e1"], b["e2"], b["e3"]) for b in comps]
    monic = {dict(b)["e"] for p, b in spec.statements if p == "monic"}
    final = {dict(b)["v"] for p, b in spec.statements if p == "final"}
    if phi == "phi1":      # the pair has a composite
        return any((x, y) == anchor[1:] for x, y, _ in comps)
    if phi == "phi2":      # every composable pair has a composite
        return all(any((x, y) == (a, b) for a, b, _ in comps)
                   for x in src for y in src if tgt[x] == src[y])
    if phi == "phi3":      # composites are unique
        return all(z1 == z2 for x1, y1, z1 in comps for x2, y2, z2 in comps
                   if (x1, y1) == (x2, y2))
    if phi == "phi4":      # arrows out of a final node are monic
        return all(e in monic for e in src if src[e] in final)
    if phi == "phi5":      # monics compose
        return all(z in monic for x, y, z in comps if x in monic and y in monic)
    if phi == "phi6":      # first factor of a monic composite is monic
        return all(x in monic for x, y, z in comps if z in monic)
    if phi == "phi7":      # e is right-cancellable among composites
        e = anchor[1]
        return all(x1 == x2 for x1, y1, z1 in comps for x2, y2, z2 in comps
                   if y1 == y2 == e and z1 == z2)
    if phi == "phi8":      # exactly one arrow from every node into v
        v = anchor[1]
        return all(sum(1 for e in src if src[e] == u and tgt[e] == v) == 1
                   for u in spec.nodes)
    raise ValueError("unknown condition %r" % phi)


def check_repaired_chain(spec, final, steps, exhausted):
    """Check ``repair_to_fixpoint([merge_composites, monic_first_factor])``
    on a duplicate-composite chain.  Returns a list of problems.

    Expected: every duplicate merged, then a_i marked monic for each pair
    whose composite is monic, nothing else; the result is recognised up to
    renaming by walking its comp statements.
    """
    n = spec.n
    pairs = sorted({int(x[1:]) for x in spec.monic_comps})
    want_steps = (n - 1) + len(pairs)
    problems = []
    if exhausted:
        problems.append("step bound exhausted")
    if steps != want_steps:
        problems.append("%d steps, expected %d" % (steps, want_steps))
    g = final.context
    if (len(g.nodes), len(g.edges)) != (n + 1, 2 * n - 1):
        problems.append("%d nodes/%d edges, expected %d/%d"
                        % (len(g.nodes), len(g.edges), n + 1, 2 * n - 1))
    by_pred = {}
    for s in final.statements:
        by_pred.setdefault(s.predicate.name, []).append(s.binding.edge_map)
    comps = {b["e1"]: (b["e2"], b["e3"]) for b in by_pred.pop("comp", [])}
    monic = {b["e"] for b in by_pred.pop("monic", [])}
    if by_pred:
        problems.append("unexpected predicates %s" % sorted(by_pred))
    starts = set(comps) - {e2 for e2, _ in comps.values()}
    if len(comps) != n - 1 or len(starts) != 1:
        problems.append("comp statements do not form a chain")
        return problems
    arrows, composites = [starts.pop()], []
    while arrows[-1] in comps:
        nxt, z = comps[arrows[-1]]
        arrows.append(nxt)
        composites.append(z)
    path = [g.src[arrows[0]]] + [g.tgt[a] for a in arrows]
    ok = (len(arrows) == n and len(set(path)) == n + 1
          and set(arrows) | set(composites) == g.edges
          and all(g.src[a] == p for a, p in zip(arrows, path))
          and all(g.src[z] == path[i] and g.tgt[z] == path[i + 2]
                  for i, z in enumerate(composites)))
    if not ok:
        problems.append("graph is not the merged chain")
        return problems
    want_monic = ({composites[i] for i in pairs} | {arrows[i] for i in pairs})
    if monic != want_monic:
        problems.append("monic set differs from the expected one")
    return problems
