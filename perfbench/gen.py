"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` (or a seed) and returns plain
Python data: node names, ``(edge, src, tgt)`` triples and statement specs
``(predicate, {arity element: context element})``.  Nothing here imports
gsketch, so the same seed gives the same inputs whatever the engine does,
and the reference checks can reason about the specs directly.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, Tuple

# repair-chain: one round of (arrows, monic pairs).  Work grows steeply with
# n and linearly with the step count (n-1) + monic pairs.  Each quantile the
# benchmark reports lands inside a block of same-size inputs, not on the
# edge between two sizes: the 50th percentile inside the six (9, 3), the
# 90th inside the four (13, 3).  So each is about the median of its block,
# and neither jumps when a few operations run slow.
REPAIR_ROUND = ((6, 1), (6, 3), (7, 1), (7, 3), (7, 5), (8, 1), (8, 3),
                (9, 3), (9, 3), (9, 3), (9, 3), (9, 3), (9, 3),
                (10, 3), (10, 6), (11, 5),
                (13, 3), (13, 3), (13, 3), (13, 3))
# Rounds of distinct inputs generated up front; longer runs cycle through them.
REPAIR_ROUNDS = 5

# check-scaled: chain targets (arrows, duplicate composites?) and the sizes
# (nodes, edges) of the random small sketches.  Sizes are fixed so that the
# seed changes the inputs, not the mix.  The closed conditions cost about
# n^3 on a chain of n arrows, nearly the same for all four of them and for
# every seed, so each chain is a block of four equal-cost operations.  The
# 24 checks on random sketches and the 8 on the 4- and 8-arrow chains cost
# under 5 ms; above them the blocks climb, paired by cost: (12, 14), (16,
# 18), (20, 22), (24, 26), (28, 31), then 32.  The 50th percentile lands
# inside the (12, 14) pair and the 90th inside the (28, 31) pair, 31 arrows
# without duplicates costing about as much as 28 with them.
CHECK_CHAINS = tuple((n, i % 2 == 0) for i, n in enumerate(
    (4, 8, 12, 14, 16, 18, 20, 22, 24, 26, 28, 31, 32)))
CHECK_RANDOM = ((3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (4, 7))

# translate-limits: one input per (shape nodes, shape edges, colimit?,
# inclusion?); the seed picks the edges' endpoints, the extra elements of
# inclusions and the elements merged by the other morphisms.
TRANSLATE_KINDS = tuple((k, e, colimit, injective) for k in (1, 2, 3)
                        for e in range(min(k, 2) + 1) for colimit in (False, True)
                        for injective in (True, False))


@dataclass(frozen=True)
class SketchSpec:
    nodes: Tuple[str, ...]
    edges: Tuple[Tuple[str, str, str], ...]          # (name, src, tgt)
    statements: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...]

    def composable(self) -> bool:
        return any(t == s for _, _, t in self.edges for _, s, _ in self.edges)


@dataclass(frozen=True)
class ChainSpec:
    """n composable arrows a_i: i -> i+1; for each adjacent pair a composite
    c_i: i -> i+2 (and a parallel duplicate d_i when ``dup``), each with a
    ``comp`` statement; seeded ``monic`` and ``final`` statements."""
    n: int
    dup: bool
    monic_arrows: FrozenSet[int]
    monic_comps: FrozenSet[str]   # composite edge names, e.g. "c3", "d5"
    final_nodes: FrozenSet[int]

    @staticmethod
    def node(i):
        return "n%d" % i

    def composites(self, i):
        return ("c%d" % i, "d%d" % i) if self.dup else ("c%d" % i,)

    def spec(self) -> SketchSpec:
        nodes = tuple(self.node(i) for i in range(self.n + 1))
        edges = [("a%d" % i, self.node(i), self.node(i + 1)) for i in range(self.n)]
        stmts = []
        for i in range(self.n - 1):
            for x in self.composites(i):
                edges.append((x, self.node(i), self.node(i + 2)))
                stmts.append(("comp", (("e1", "a%d" % i), ("e2", "a%d" % (i + 1)),
                                       ("e3", x))))
        stmts += [("monic", (("e", "a%d" % i),)) for i in sorted(self.monic_arrows)]
        stmts += [("monic", (("e", x),)) for x in sorted(self.monic_comps)]
        stmts += [("final", (("v", self.node(i)),)) for i in sorted(self.final_nodes)]
        return SketchSpec(nodes, tuple(edges), tuple(stmts))


def repair_chain(rng: random.Random, n: int, k: int) -> ChainSpec:
    """A duplicate-composite chain with k seeded pairs made monic, on c_i,
    d_i or both.  Repair merges every duplicate, then marks a_i monic for
    each monic pair: (n-1) + k steps."""
    pairs = rng.sample(range(n - 1), k)
    comps = set()
    for i in pairs:
        comps.update(rng.choice((("c%d" % i,), ("d%d" % i,), ("c%d" % i, "d%d" % i))))
    return ChainSpec(n, True, frozenset(), frozenset(comps), frozenset())


def repair_rounds(seed: int):
    """REPAIR_ROUNDS rounds of chains, each round in a seeded order."""
    rng = random.Random(seed)
    rounds = []
    for _ in range(REPAIR_ROUNDS):
        sizes = list(REPAIR_ROUND)
        rng.shuffle(sizes)
        rounds.append([repair_chain(rng, n, k) for n, k in sizes])
    return rounds


def check_chain(rng: random.Random, n: int, dup: bool) -> ChainSpec:
    """A chain with seeded monic arrows, monic composites and final nodes."""
    arrows = frozenset(i for i in range(n) if rng.random() < 0.6)
    comps = frozenset(x for i in range(n - 1)
                      for x in (("c%d" % i, "d%d" % i) if dup else ("c%d" % i,))
                      if rng.random() < 0.5)
    final = frozenset(rng.sample(range(n + 1), rng.choice((0, 1))))
    return ChainSpec(n, dup, arrows, comps, final)


def random_sketch(rng: random.Random, n_nodes: int, n_edges: int,
                  loop_node: bool = False) -> SketchSpec:
    """A random multigraph with random comp/monic/final statements.

    With ``loop_node`` the first node carries a loop, so every graph maps
    into the sketch.
    """
    nodes = tuple("x%d" % i for i in range(n_nodes))
    edges = []
    if loop_node:
        edges.append(("loop", nodes[0], nodes[0]))
    while len(edges) < n_edges:
        edges.append(("f%d" % len(edges), rng.choice(nodes), rng.choice(nodes)))
    triples = [(e1, e2, e3) for e1, s1, t1 in edges for e2, s2, t2 in edges
               for e3, s3, t3 in edges if t1 == s2 and s3 == s1 and t3 == t2]
    stmts = [("comp", (("e1", e1), ("e2", e2), ("e3", e3)))
             for e1, e2, e3 in rng.sample(triples, min(len(triples), rng.randint(2, 4)))]
    stmts += [("monic", (("e", e),)) for e, _, _ in edges if rng.random() < 0.4]
    stmts += [("final", (("v", v),)) for v in nodes if rng.random() < 0.2]
    return SketchSpec(nodes, tuple(edges), tuple(sorted(set(stmts))))


def check_targets(seed: int):
    """The fixed check-scaled targets: chains, then random small sketches."""
    rng = random.Random(seed)
    chains = [check_chain(rng, n, dup) for n, dup in CHECK_CHAINS]
    smalls = []
    for n_nodes, n_edges in CHECK_RANDOM:
        spec = random_sketch(rng, n_nodes, n_edges)
        while not spec.composable():   # phi1 needs a composable pair
            spec = random_sketch(rng, n_nodes, n_edges)
        smalls.append(spec)
    return chains, smalls


@dataclass(frozen=True)
class TranslateSpec:
    """A cone shape, limit or colimit, and a context morphism c: base -> H.

    ``base`` is the shape plus an apex ``apex`` and one projection
    ``p_<node>`` per shape node (out of the apex for limits, into it for
    colimits), as ``ct.cone_contexts`` names them.  ``node_map``/``edge_map``
    give c; ``h_nodes``/``h_edges`` give its codomain H.
    """
    shape_nodes: Tuple[str, ...]
    shape_edges: Tuple[Tuple[str, str, str], ...]
    colimit: bool
    node_map: Tuple[Tuple[str, str], ...]
    edge_map: Tuple[Tuple[str, str], ...]
    h_nodes: Tuple[str, ...]
    h_edges: Tuple[Tuple[str, str, str], ...]

    def base(self):
        nodes = self.shape_nodes + ("apex",)
        edges = list(self.shape_edges)
        for v in self.shape_nodes:
            edges.append(("p_" + v, v, "apex") if self.colimit else ("p_" + v, "apex", v))
        return nodes, tuple(edges)


def translate_spec(rng: random.Random, k: int, n_edges: int, colimit: bool,
                   injective: bool) -> TranslateSpec:
    """A shape of k nodes and n_edges seeded edges.  Inclusions add a node
    and two edges around the base; the other morphisms merge two seeded base
    nodes and, where that makes edges parallel, one such pair of edges too."""
    shape_nodes = tuple("s%d" % i for i in range(k))
    shape_edges = tuple(("k%d" % j, rng.choice(shape_nodes), rng.choice(shape_nodes))
                        for j in range(n_edges))
    proto = TranslateSpec(shape_nodes, shape_edges, colimit, (), (), (), ())
    nodes, edges = proto.base()
    if injective:
        node_map = {v: v for v in nodes}
        edge_map = {e: e for e, _, _ in edges}
        h_nodes = list(nodes) + ["h0"]
        h_edges = list(edges)
        for j in range(2):
            h_edges.append(("g%d" % j, rng.choice(h_nodes), rng.choice(h_nodes)))
    else:
        a, b = rng.sample(nodes, 2)
        node_map = {v: ("%s_%s" % tuple(sorted((a, b))) if v in (a, b) else v)
                    for v in nodes}
        h_nodes = sorted(set(node_map.values()))
        ends = {}
        for e, s, t in edges:
            ends.setdefault((node_map[s], node_map[t]), []).append(e)
        parallel = [es for es in ends.values() if len(es) > 1]
        merged = set(rng.choice(parallel)[:2]) if parallel else set()
        edge_map = {e: ("+".join(sorted(merged)) if e in merged else e)
                    for e, _, _ in edges}
        h_edges = sorted({(edge_map[e], node_map[s], node_map[t]) for e, s, t in edges})
    return TranslateSpec(shape_nodes, shape_edges, colimit,
                         tuple(sorted(node_map.items())), tuple(sorted(edge_map.items())),
                         tuple(h_nodes), tuple(h_edges))


def translate_inputs(seed: int):
    """One spec per TRANSLATE_KINDS entry, each with a small sample sketch
    (with a loop node) for the shift check."""
    rng = random.Random(seed)
    return [(translate_spec(rng, *kind), random_sketch(rng, 3, 5, loop_node=True))
            for kind in TRANSLATE_KINDS]
