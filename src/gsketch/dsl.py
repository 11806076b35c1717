"""The specification DSL: parser with diagnostics and canonical printer.

Declarations (graphs, footprints, morphisms, sketches, conditions,
constraints, rules) are named and cross-reference each other by name.
``parse(print(doc))`` is structurally the identity on documents produced by
``parse``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .category import initial_morphism
from .conditions import (And, Bottom, Condition, Constraint, Exists, Forall,
                         Junction, Not, Or, Quantifier, Stmt, Top, implication,
                         stmt, well_formed)
from .deduction import Rule
from .graphs import (Graph, GraphMorphism, MismatchError, graph_of, identity,
                     morphism_of, validate_graph)
from .sketches import (Footprint, PredicateSymbol, Sketch, SketchMorphism,
                       Statement, statement_key, translate_statement)


class ParseError(ValueError):
    def __init__(self, message, line, col, expected=()):
        self.line, self.col, self.expected = line, col, tuple(expected)
        suffix = ""
        if expected:
            suffix = " (expected %s)" % ", ".join(expected)
        super().__init__("line %d, column %d: %s%s" % (line, col, message, suffix))


class ResolutionError(ValueError):
    pass


class ValidationError(ValueError):
    pass


@dataclass(frozen=True)
class ConstraintDecl:
    """A named constraint: a condition plus an anchor morphism or ``initial``.

    An ``initial`` anchor is resolved against a target sketch at check time.
    """
    condition_name: str
    condition: Condition
    anchor_name: Optional[str]          # None means "initial"
    anchor: Optional[GraphMorphism]

    def resolve(self, target_context: Graph) -> Constraint:
        if self.anchor is not None:
            if self.anchor.cod != target_context:
                raise ResolutionError(
                    "constraint anchor does not land in the target context")
            return Constraint(self.condition, self.anchor)
        return Constraint(self.condition, initial_morphism(target_context))


@dataclass
class Document:
    graphs: Dict[str, Graph] = field(default_factory=dict)
    footprints: Dict[str, Footprint] = field(default_factory=dict)
    morphisms: Dict[str, GraphMorphism] = field(default_factory=dict)
    sketches: Dict[str, Sketch] = field(default_factory=dict)
    conditions: Dict[str, Condition] = field(default_factory=dict)
    constraints: Dict[str, ConstraintDecl] = field(default_factory=dict)
    rules: Dict[str, Rule] = field(default_factory=dict)
    order: List[Tuple[str, str]] = field(default_factory=list)  # (kind, name)

    def predicate(self, name: str) -> PredicateSymbol:
        found = [fp[name] for fp in self.footprints.values() if name in fp]
        if not found:
            raise ResolutionError("unknown predicate %r" % name)
        if any(p != found[0] for p in found[1:]):
            raise ResolutionError("predicate %r is ambiguous between footprints"
                                  % name)
        return found[0]

    def merge(self, other: "Document") -> "Document":
        for kind in ("graphs", "footprints", "morphisms", "sketches",
                     "conditions", "constraints", "rules"):
            mine, theirs = getattr(self, kind), getattr(other, kind)
            for name in theirs:
                if name in mine:
                    raise ResolutionError("duplicate %s name %r"
                                          % (kind[:-1], name))
            mine.update(theirs)
        self.order.extend(other.order)
        return self

    def __eq__(self, other):
        if not isinstance(other, Document):
            return NotImplemented
        return (self.graphs == other.graphs
                and self.footprints == other.footprints
                and self.morphisms == other.morphisms
                and self.sketches == other.sketches
                and self.conditions == other.conditions
                and self.constraints == other.constraints
                and self.rules == other.rules)


KEYWORDS = {"graph", "footprint", "pred", "arity", "morphism", "nodes",
            "edges", "sketch", "over", "on", "stmt", "via", "condition",
            "true", "false", "and", "or", "not", "exists", "forall",
            "implies", "given", "extend", "constraint", "initial", "rule",
            "from", "to"}

_SYMBOLS = ("->", "{", "}", "(", ")", ":", ";", ",", ".", "=")

_CONNECTIVES = {"and": And, "or": Or, "exists": Exists, "forall": Forall}
_KEYWORD_OF = {cls: keyword for keyword, cls in _CONNECTIVES.items()}


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "sym", "eof"
    value: str
    line: int
    col: int


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            tokens.append(_Token("sym", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in "{}():;,.=":
            tokens.append(_Token("sym", ch, line, col))
            i += 1
            col += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 1
            if j >= n or text[j] != '"':
                raise ParseError("unterminated quoted name", line, col)
            tokens.append(_Token("quoted", text[i + 1:j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class Parser:
    """Recursive-descent parser over the DSL tokens; one method per construct.

    Declarations are entered into ``doc``, which also resolves names.
    """

    def __init__(self, text: str, doc: Optional[Document] = None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.doc = doc if doc is not None else Document()

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, expected=()):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col, expected)

    def expect(self, value: str) -> _Token:
        tok = self.peek()
        if tok.kind == "quoted" or tok.value != value:
            self.error("found %r" % (tok.value or "end of input"), [repr(value)])
        return self.next()

    def expect_name(self) -> str:
        tok = self.peek()
        if tok.kind not in ("ident", "quoted"):
            self.error("found %r" % (tok.value or "end of input"), ["a name"])
        return self.next().value

    def at(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind != "quoted" and tok.value == value

    # declarations ---------------------------------------------------------

    def parse_document(self) -> Document:
        while self.peek().kind != "eof":
            tok = self.peek()
            handler = {
                "graph": self.parse_graph_decl,
                "footprint": self.parse_footprint_decl,
                "morphism": self.parse_morphism_decl,
                "sketch": self.parse_sketch_decl,
                "condition": self.parse_condition_decl,
                "constraint": self.parse_constraint_decl,
                "rule": self.parse_rule_decl,
            }.get(tok.value if tok.kind == "ident" else None)
            if handler is None:
                self.error("found %r" % (tok.value or "end of input"),
                           ["a declaration keyword"])
            handler()
        return self.doc

    def _declare(self, kind: str, name: str, value):
        table = getattr(self.doc, kind)
        if name in table:
            raise ResolutionError("duplicate %s name %r" % (kind[:-1], name))
        table[name] = value
        self.doc.order.append((kind, name))

    def parse_graph_decl(self):
        self.expect("graph")
        name = self.expect_name()
        g = self.parse_graph_body()
        problems = validate_graph(g)
        if problems:
            raise ValidationError("graph %r: %s" % (name, "; ".join(problems)))
        self._declare("graphs", name, g)

    def parse_graph_body(self, declared_only: bool = True) -> Graph:
        """Parse ``{ nodes ...; edges ... }``.

        With ``declared_only`` every edge endpoint must appear in a nodes
        section; ``extend`` bodies relax this because endpoints may come from
        the surrounding context.
        """
        self.expect("{")
        nodes: List[str] = []
        edges: List[Tuple[str, str, str]] = []
        spots: Dict[str, Tuple[int, int]] = {}
        while not self.at("}"):
            if self.at("nodes"):
                self.next()
                while (self.peek().kind == "quoted"
                       or (self.peek().kind == "ident"
                           and self.peek().value not in ("nodes", "edges"))):
                    nodes.append(self.next().value)
                if self.at(";"):
                    self.next()
            elif self.at("edges"):
                self.next()
                while True:
                    e = self.expect_name()
                    self.expect(":")
                    tok = self.peek()
                    s = self.expect_name()
                    spots.setdefault(s, (tok.line, tok.col))
                    self.expect("->")
                    tok = self.peek()
                    t = self.expect_name()
                    spots.setdefault(t, (tok.line, tok.col))
                    edges.append((e, s, t))
                    if self.at(","):
                        self.next()
                        continue
                    break
                if self.at(";"):
                    self.next()
            else:
                self.error("found %r" % self.peek().value, ["'nodes'", "'edges'"])
        self.expect("}")
        node_set = set(nodes)
        for _, s, t in edges:
            if declared_only:
                for end in (s, t):
                    if end not in node_set:
                        line, col = spots[end]
                        raise ResolutionError(
                            "line %d, column %d: edge endpoint %r is not a "
                            "declared node" % (line, col, end))
            node_set.update((s, t))
        return Graph(node_set, [e for e, _, _ in edges],
                     {e: s for e, s, _ in edges}, {e: t for e, _, t in edges})

    def graph_ref(self) -> Graph:
        if self.at("{"):
            return self.parse_graph_body()
        name = self.expect_name()
        if name not in self.doc.graphs:
            raise ResolutionError("unknown graph %r" % name)
        return self.doc.graphs[name]

    def parse_footprint_decl(self):
        self.expect("footprint")
        name = self.expect_name()
        self.expect("{")
        preds = []
        while not self.at("}"):
            self.expect("pred")
            pname = self.expect_name()
            self.expect("arity")
            arity = self.graph_ref()
            preds.append(PredicateSymbol(pname, arity))
            if self.at(";"):
                self.next()
        self.expect("}")
        self._declare("footprints", name, Footprint(preds))

    def parse_pairs(self) -> List[Tuple[str, str]]:
        """Parse ``x -> y, ...`` up to the first token that is not a name."""
        pairs: List[Tuple[str, str]] = []
        while self.peek().kind in ("ident", "quoted"):
            a = self.next().value
            self.expect("->")
            pairs.append((a, self.expect_name()))
            if self.at(","):
                self.next()
        return pairs

    def parse_assignments(self) -> List[Tuple[str, str]]:
        """Parse ``{ x -> y, ... }`` into an ordered association list."""
        self.expect("{")
        pairs = self.parse_pairs()
        self.expect("}")
        return pairs

    def _split_assignments(self, pairs, dom: Graph, what: str):
        nodes, edges = {}, {}
        for a, b in pairs:
            if a in dom.nodes:
                nodes[a] = b
            elif a in dom.edges:
                edges[a] = b
            else:
                raise ResolutionError(
                    "%s: %r is neither a node nor an edge of the domain"
                    % (what, a))
        return nodes, edges

    def parse_morphism_decl(self):
        self.expect("morphism")
        name = self.expect_name()
        self.expect(":")
        dom = self.graph_ref()
        self.expect("->")
        cod = self.graph_ref()
        self.expect("{")
        sections = {"nodes": {}, "edges": {}}
        while not self.at("}"):
            tok = self.peek()
            if tok.kind != "ident" or tok.value not in sections:
                self.error("found %r" % tok.value, ["'nodes'", "'edges'"])
            self.next()
            sections[tok.value].update(self.parse_pairs())
            if self.at(";"):
                self.next()
        self.expect("}")
        try:
            m = morphism_of(dom, cod, sections["nodes"], sections["edges"])
        except MismatchError as exc:
            raise ValidationError("morphism %r: %s" % (name, exc)) from exc
        self._declare("morphisms", name, m)

    def parse_statement(self, context: Graph) -> Statement:
        """Parse ``PRED via { x -> y, ... }`` into a statement over context."""
        pname = self.expect_name()
        pred = self.doc.predicate(pname)
        self.expect("via")
        nodes, edges = self._split_assignments(self.parse_assignments(),
                                               pred.arity,
                                               "statement %r" % pname)
        try:
            binding = morphism_of(pred.arity, context, nodes, edges)
        except MismatchError as exc:
            raise ValidationError("statement %r: %s" % (pname, exc)) from exc
        return Statement(pred, binding)

    def parse_sketch_decl(self):
        self.expect("sketch")
        name = self.expect_name()
        self.expect("over")
        fp_name = self.expect_name()
        if fp_name not in self.doc.footprints:
            raise ResolutionError("unknown footprint %r" % fp_name)
        self.expect("on")
        context = self.graph_ref()
        self.expect("{")
        statements = []
        while not self.at("}"):
            self.expect("stmt")
            statements.append(self.parse_statement(context))
            if self.at(";"):
                self.next()
        self.expect("}")
        self._declare("sketches", name, Sketch(context, statements))

    def parse_condition_decl(self):
        self.expect("condition")
        name = self.expect_name()
        self.expect("over")
        context = self.graph_ref()
        self.expect("=")
        cond = self.parse_expr(context)
        problems = well_formed(cond)
        if problems:
            raise ValidationError("condition %r: %s" % (name, "; ".join(problems)))
        self._declare("conditions", name, cond)

    def parse_shift(self, context: Graph) -> GraphMorphism:
        if self.at("extend"):
            self.next()
            ext = self.parse_graph_body(declared_only=False)
            nodes = set(context.nodes) | set(ext.nodes)
            edges = set(context.edges) | set(ext.edges)
            src = dict(context.src)
            tgt = dict(context.tgt)
            for e in ext.edges:
                if e in context.edges:
                    raise ResolutionError("extend redeclares edge %r" % e)
                src[e], tgt[e] = ext.src[e], ext.tgt[e]
            for e in ext.edges:
                for end in (src[e], tgt[e]):
                    if end not in nodes:
                        raise ResolutionError(
                            "extend: endpoint %r is not declared" % end)
            big = Graph(nodes, edges, src, tgt)
            return GraphMorphism(context, big,
                                 {n: n for n in context.nodes},
                                 {e: e for e in context.edges})
        name = self.expect_name()
        if name not in self.doc.morphisms:
            raise ResolutionError("unknown morphism %r" % name)
        m = self.doc.morphisms[name]
        if m.dom != context:
            raise ValidationError(
                "morphism %r does not start at the current context" % name)
        return m

    def parse_expr(self, context: Graph) -> Condition:
        tok = self.peek()
        # a quoted token is a name, never a keyword
        keyword = tok.value if tok.kind == "ident" else None
        if keyword == "true":
            self.next()
            return Top(context)
        if keyword == "false":
            self.next()
            return Bottom(context)
        if keyword == "stmt":
            self.next()
            return stmt(self.parse_statement(context))
        if keyword in ("and", "or"):
            self.next()
            self.expect("(")
            children = []
            while not self.at(")"):
                children.append(self.parse_expr(context))
                if self.at(","):
                    self.next()
            self.expect(")")
            return _CONNECTIVES[keyword](context, tuple(children))
        if keyword == "not":
            self.next()
            return Not(context, self.parse_expr(context))
        if keyword == "implies":
            self.next()
            self.expect("(")
            lhs = self.parse_expr(context)
            self.expect(",")
            rhs = self.parse_expr(context)
            self.expect(")")
            return implication(lhs, rhs)
        if keyword in ("exists", "forall"):
            self.next()
            guard = Top(context)
            if self.at("given"):
                self.next()
                guard = self.parse_expr(context)
            self.expect("(")
            shift = self.parse_shift(context)
            self.expect(")")
            self.expect(".")
            body = self.parse_expr(shift.cod)
            return _CONNECTIVES[keyword](context, guard, shift, body)
        self.error("found %r" % (tok.value or "end of input"),
                   ["a condition expression"])

    def parse_constraint_decl(self):
        self.expect("constraint")
        name = self.expect_name()
        self.expect("=")
        self.expect("(")
        cond_name = self.expect_name()
        if cond_name not in self.doc.conditions:
            raise ResolutionError("unknown condition %r" % cond_name)
        cond = self.doc.conditions[cond_name]
        self.expect(",")
        if self.at("initial"):
            self.next()
            if not cond.context.is_empty():
                raise ValidationError(
                    "constraint %r: an initial anchor needs a closed condition"
                    % name)
            anchor_name, anchor = None, None
        else:
            anchor_name = self.expect_name()
            if anchor_name not in self.doc.morphisms:
                raise ResolutionError("unknown morphism %r" % anchor_name)
            anchor = self.doc.morphisms[anchor_name]
            if anchor.dom != cond.context:
                raise ValidationError(
                    "constraint %r: anchor does not start at the condition context"
                    % name)
        self.expect(")")
        self._declare("constraints", name,
                      ConstraintDecl(cond_name, cond, anchor_name, anchor))

    def parse_rule_decl(self):
        self.expect("rule")
        name = self.expect_name()
        self.expect("=")
        self.expect("morphism")
        mname = self.expect_name()
        if mname not in self.doc.morphisms:
            raise ResolutionError("unknown morphism %r" % mname)
        self.expect("from")
        lhs_name = self.expect_name()
        self.expect("to")
        rhs_name = self.expect_name()
        for sk in (lhs_name, rhs_name):
            if sk not in self.doc.sketches:
                raise ResolutionError("unknown sketch %r" % sk)
        lhs = self.doc.sketches[lhs_name]
        rhs = self.doc.sketches[rhs_name]
        m = self.doc.morphisms[mname]
        try:
            SketchMorphism(lhs, rhs, m)
        except MismatchError as exc:
            raise ValidationError("rule %r: %s" % (name, exc)) from exc
        image = {translate_statement(m, s) for s in lhs.statements}
        self._declare("rules", name,
                      Rule(lhs, rhs, m, frozenset(rhs.statements - image)))


def parse(text: str, doc: Optional[Document] = None) -> Document:
    """Parse a document; an existing document provides names to extend."""
    return Parser(text, doc).parse_document()


def parse_files(paths) -> Document:
    """Parse several files into one document; later files may reference
    declarations from earlier ones."""
    doc = Document()
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            parse(handle.read(), doc)
    return doc


# printing -----------------------------------------------------------------


_PLAIN_NAME = re.compile(r"[A-Za-z0-9_]+")


def _q(name: str) -> str:
    """Quote a name unless it is a plain identifier outside the keyword set."""
    if _PLAIN_NAME.fullmatch(name) and name not in KEYWORDS:
        return name
    return '"%s"' % name


def _format_graph_body(g: Graph, indent: str = "  ") -> str:
    lines = []
    if g.nodes:
        lines.append("%snodes %s;"
                     % (indent, " ".join(_q(n) for n in sorted(g.nodes))))
    if g.edges:
        entries = ", ".join("%s: %s -> %s" % (_q(e), _q(g.src[e]), _q(g.tgt[e]))
                            for e in sorted(g.edges))
        lines.append("%sedges %s;" % (indent, entries))
    return "{\n%s\n}" % "\n".join(lines) if lines else "{ }"


def _is_inclusion(m: GraphMorphism) -> bool:
    return (all(m.node_map[n] == n for n in m.dom.nodes)
            and all(m.edge_map[e] == e for e in m.dom.edges))


class _Printer:
    def __init__(self, doc: Document, graph_hints=None, morphism_hints=None):
        self.doc = doc
        self.graph_names = {g: name for name, g in reversed(doc.graphs.items())}
        self.morphism_names = {m: name
                               for name, m in reversed(doc.morphisms.items())}
        self.graph_hints = graph_hints or {}
        self.morphism_hints = morphism_hints or {}
        self.used_names = (set(doc.graphs) | set(doc.morphisms)
                           | set(self.graph_names.values())
                           | set(self.morphism_names.values()))
        self.counter = 0
        self.extra: List[str] = []

    def _fresh(self, hint, prefix):
        if hint is not None and hint not in self.used_names:
            name = hint
        else:
            self.counter += 1
            name = "%s_%d" % (prefix, self.counter)
            while name in self.used_names:
                self.counter += 1
                name = "%s_%d" % (prefix, self.counter)
        self.used_names.add(name)
        return name

    def graph_name(self, g: Graph) -> str:
        if g not in self.graph_names:
            name = self._fresh(self.graph_hints.get(g), "graph")
            self.graph_names[g] = name
            self.extra.append("graph %s %s" % (name, _format_graph_body(g)))
        return self.graph_names[g]

    def morphism_name(self, m: GraphMorphism) -> str:
        if m not in self.morphism_names:
            name = self._fresh(self.morphism_hints.get(m), "morphism")
            self.morphism_names[m] = name
            self.extra.append(self.format_morphism(name, m))
        return self.morphism_names[m]

    def format_morphism(self, name: str, m: GraphMorphism) -> str:
        dom = self.graph_name(m.dom)
        cod = self.graph_name(m.cod)
        lines = []
        covered = set()
        for e in m.dom.edges:
            covered.update((m.dom.src[e], m.dom.tgt[e]))
        loose = sorted(m.dom.nodes - covered)
        if loose:
            lines.append("  nodes %s;" % ", ".join(
                "%s -> %s" % (_q(n), _q(m.node_map[n])) for n in loose))
        if m.dom.edges:
            lines.append("  edges %s;" % ", ".join(
                "%s -> %s" % (_q(e), _q(m.edge_map[e]))
                for e in sorted(m.dom.edges)))
        body = "{\n%s\n}" % "\n".join(lines) if lines else "{ }"
        return "morphism %s : %s -> %s %s" % (name, dom, cod, body)

    def format_statement(self, s: Statement) -> str:
        entries = []
        covered = set()
        arity = s.predicate.arity
        for e in sorted(arity.edges):
            entries.append("%s -> %s" % (_q(e), _q(s.binding.edge_map[e])))
            covered.update((arity.src[e], arity.tgt[e]))
        for n in sorted(arity.nodes - covered):
            entries.append("%s -> %s" % (_q(n), _q(s.binding.node_map[n])))
        return "stmt %s via { %s }" % (s.predicate.name, ", ".join(entries))

    def format_shift(self, m: GraphMorphism) -> str:
        if _is_inclusion(m):
            new_nodes = m.cod.nodes - m.dom.nodes
            new_edges = m.cod.edges - m.dom.edges
            lines = []
            if new_nodes:
                lines.append("nodes %s;"
                             % " ".join(_q(n) for n in sorted(new_nodes)))
            if new_edges:
                lines.append("edges %s;" % ", ".join(
                    "%s: %s -> %s" % (_q(e), _q(m.cod.src[e]), _q(m.cod.tgt[e]))
                    for e in sorted(new_edges)))
            return "extend { %s }" % " ".join(lines)
        return self.morphism_name(m)

    def format_expr(self, c: Condition) -> str:
        if isinstance(c, Top):
            return "true"
        if isinstance(c, Bottom):
            return "false"
        if isinstance(c, Stmt):
            return self.format_statement(c.statement)
        if isinstance(c, Junction):
            children = ", ".join(self.format_expr(x) for x in c.children)
            return "%s(%s)" % (_KEYWORD_OF[type(c)], children)
        if isinstance(c, Not):
            return "not %s" % self.format_expr(c.child)
        if isinstance(c, Exists) and c.shift == identity(c.context) \
                and not isinstance(c.guard, Top):
            return "implies(%s, %s)" % (self.format_expr(c.guard),
                                        self.format_expr(c.body))
        if isinstance(c, Quantifier):
            guard = ""
            if not isinstance(c.guard, Top):
                guard = " given %s" % self.format_expr(c.guard)
            return "%s%s (%s) . %s" % (_KEYWORD_OF[type(c)], guard,
                                       self.format_shift(c.shift),
                                       self.format_expr(c.body))
        raise TypeError("unknown condition node %r" % type(c).__name__)

    def format_footprint(self, name: str, fp: Footprint) -> str:
        lines = ["  pred %s arity %s;" % (p.name, self.graph_name(p.arity))
                 for p in fp]
        return "footprint %s {\n%s\n}" % (name, "\n".join(lines))

    def format_sketch(self, name: str, sk: Sketch) -> str:
        fp_name = None
        preds = {s.predicate for s in sk.statements}
        for fname, fp in self.doc.footprints.items():
            if preds <= fp.predicates:
                fp_name = fname
                break
        if fp_name is None:
            fp_name = "footprint_%s" % name
            self.extra.append(self.format_footprint(fp_name, Footprint(preds)))
        lines = ["  %s;" % self.format_statement(s)
                 for s in sk.sorted_statements()]
        body = "{\n%s\n}" % "\n".join(lines) if lines else "{ }"
        return "sketch %s over %s on %s %s" % (name, fp_name,
                                               self.graph_name(sk.context), body)


def print_document(doc: Document, printer: Optional[_Printer] = None) -> str:
    if printer is None:
        printer = _Printer(doc)
    chunks: List[str] = []

    def emit(text):
        chunks.extend(printer.extra)
        printer.extra = []
        chunks.append(text)

    for name in doc.graphs:
        printer.graph_names.setdefault(doc.graphs[name], name)
    for name, g in doc.graphs.items():
        emit("graph %s %s" % (name, _format_graph_body(g)))
    for name, fp in doc.footprints.items():
        emit(printer.format_footprint(name, fp))
    for name, m in doc.morphisms.items():
        emit(printer.format_morphism(name, m))
    for name, sk in doc.sketches.items():
        emit(printer.format_sketch(name, sk))
    for name, cond in doc.conditions.items():
        text = "condition %s over %s = %s" % (
            name, printer.graph_name(cond.context), printer.format_expr(cond))
        emit(text)
    for name, decl in doc.constraints.items():
        anchor = decl.anchor_name if decl.anchor_name is not None else "initial"
        emit("constraint %s = (%s, %s)" % (name, decl.condition_name, anchor))
    for name, rule in doc.rules.items():
        mname = printer.morphism_name(rule.morphism)
        lhs_name = rhs_name = None
        for sname, sk in doc.sketches.items():
            if sk == rule.lhs and lhs_name is None:
                lhs_name = sname
            if sk == rule.rhs and rhs_name is None:
                rhs_name = sname
        if lhs_name is None:
            lhs_name = "sketch_%s_lhs" % name
            printer.extra.append(printer.format_sketch(lhs_name, rule.lhs))
        if rhs_name is None:
            rhs_name = "sketch_%s_rhs" % name
            printer.extra.append(printer.format_sketch(rhs_name, rule.rhs))
        emit("rule %s = morphism %s from %s to %s"
             % (name, mname, lhs_name, rhs_name))
    chunks.extend(printer.extra)
    return "\n\n".join(chunks) + "\n"


def format_condition(cond: Condition, doc: Optional[Document] = None) -> str:
    """Render a single condition as a self-contained document.

    Only the graphs and morphisms the condition actually references are
    emitted; names from ``doc`` are reused where possible.
    """
    scratch = Document()
    graph_hints, morphism_hints = {}, {}
    if doc is not None:
        graph_hints = {g: name for name, g in reversed(doc.graphs.items())}
        morphism_hints = {m: name
                          for name, m in reversed(doc.morphisms.items())}
    preds = set()

    def collect(node):
        if isinstance(node, Stmt):
            preds.add(node.statement.predicate)
        for sub in node.subconditions():
            collect(sub)

    collect(cond)
    if preds:
        named = None
        if doc is not None:
            named = next(((name, fp) for name, fp in doc.footprints.items()
                          if preds <= fp.predicates), None)
        if named is not None:
            scratch.footprints[named[0]] = named[1]
        else:
            scratch.footprints["fp"] = Footprint(preds)
    scratch.conditions["result"] = cond
    return print_document(scratch,
                          _Printer(scratch, graph_hints, morphism_hints))
