"""The specification DSL: parser with diagnostics and canonical printer.

Declarations (graphs, footprints, morphisms, sketches, conditions,
constraints, rules) are named and cross-reference each other by name.
``parse(print(doc))`` is structurally the identity on documents produced by
``parse``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from .category import initial_morphism
from .conditions import (And, Bottom, Condition, Constraint, Exists, Forall,
                         Junction, Not, Or, Quantifier, Stmt, Top, implication,
                         stmt, well_formed)
from .deduction import Rule
from .graphs import (EMPTY_GRAPH, Graph, GraphMorphism, MismatchError,
                     identity, inclusion, morphism_of, validate_graph)
from .sketches import Footprint, PredicateSymbol, Sketch, Statement


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


# declaration kind -> the Document table holding it
_TABLES = {"graph": "graphs", "footprint": "footprints",
           "morphism": "morphisms", "sketch": "sketches",
           "condition": "conditions", "constraint": "constraints",
           "rule": "rules"}


@dataclass
class Document:
    graphs: Dict[str, Graph] = field(default_factory=dict)
    footprints: Dict[str, Footprint] = field(default_factory=dict)
    morphisms: Dict[str, GraphMorphism] = field(default_factory=dict)
    sketches: Dict[str, Sketch] = field(default_factory=dict)
    conditions: Dict[str, Condition] = field(default_factory=dict)
    constraints: Dict[str, ConstraintDecl] = field(default_factory=dict)
    rules: Dict[str, Rule] = field(default_factory=dict)

    def predicate(self, name: str) -> PredicateSymbol:
        found = [fp[name] for fp in self.footprints.values() if name in fp]
        if not found:
            raise ResolutionError("unknown predicate %r" % name)
        if any(p != found[0] for p in found[1:]):
            raise ResolutionError("predicate %r is ambiguous between footprints"
                                  % name)
        return found[0]

    def lookup(self, kind: str, name: str):
        """The declaration of ``kind`` (``"graph"``, ``"sketch"``, ...)
        called ``name``."""
        table = getattr(self, _TABLES[kind])
        if name not in table:
            raise ResolutionError("unknown %s %r" % (kind, name))
        return table[name]


KEYWORDS = {"graph", "footprint", "pred", "arity", "morphism", "nodes",
            "edges", "sketch", "over", "on", "stmt", "via", "condition",
            "true", "false", "and", "or", "not", "exists", "forall",
            "implies", "given", "extend", "constraint", "initial", "rule",
            "from", "to"}

# Deepest nesting of connectives and quantifiers a condition may have.  The
# parser, the evaluator, translation and the printer recurse once or twice
# per level, so this keeps them all well inside Python's recursion limit.
MAX_NESTING = 200

_CONNECTIVES = {"and": And, "or": Or, "exists": Exists, "forall": Forall}
_KEYWORD_OF = {cls: keyword for keyword, cls in _CONNECTIVES.items()}


class _Token(NamedTuple):
    kind: str  # "ident", "quoted", "sym", "eof"
    value: str
    line: int
    col: int


# One alternative per lexical class; the first that matches wins.
_LEXEME = re.compile(r"""
    (?P<newline>\n)
  | (?P<skip>[ \t\r]+|\#[^\n]*)
  | (?P<sym>->|[{}():;,.=])
  | (?P<quoted>"[^"\n]*")
  | (?P<ident>\w+)
  | (?P<unterminated>")
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    line, line_start = 1, 0
    for m in _LEXEME.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind != "skip":
            col = m.start() - line_start + 1
            if kind == "unterminated":
                raise ParseError("unterminated quoted name", line, col)
            if kind == "bad":
                raise ParseError("unexpected character %r" % m.group(), line, col)
            value = m.group()[1:-1] if kind == "quoted" else m.group()
            tokens.append(_Token(kind, value, line, col))
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


def _located(tok: _Token, message: str) -> str:
    return "line %d, column %d: %s" % (tok.line, tok.col, message)


class Parser:
    """Recursive-descent parser over the DSL tokens; one method per construct.

    Declarations are entered into ``doc``, which also resolves names.
    """

    def __init__(self, text: str, doc: Optional[Document] = None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # parse_expr calls open at the current token
        self.doc = doc if doc is not None else Document()

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def unexpected(self, *expected: str):
        """Reject the next token, naming what would have been legal there."""
        tok = self.peek()
        found = "end of input" if tok.kind == "eof" else tok.value
        raise ParseError("found %r" % found, tok.line, tok.col, expected)

    def at(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind != "quoted" and tok.value == value

    def accept(self, value: str) -> bool:
        """Consume the next token if it is ``value``."""
        if self.at(value):
            self.pos += 1
            return True
        return False

    def expect(self, value: str) -> _Token:
        if not self.at(value):
            self.unexpected(repr(value))
        return self.next()

    def expect_name(self) -> str:
        if self.peek().kind not in ("ident", "quoted"):
            self.unexpected("a name")
        return self.next().value

    def resolve(self, kind: str):
        """Read a name and resolve it as a declaration of ``kind`` or, for
        ``"predicate"``, a footprint predicate; errors name its position."""
        tok = self.peek()
        name = self.expect_name()
        try:
            return (self.doc.predicate(name) if kind == "predicate"
                    else self.doc.lookup(kind, name))
        except ResolutionError as exc:
            raise ResolutionError(_located(tok, str(exc))) from None

    def section(self) -> str:
        """Read the ``nodes`` or ``edges`` keyword that opens a body section."""
        tok = self.peek()
        if tok.kind != "ident" or tok.value not in ("nodes", "edges"):
            self.unexpected("'nodes'", "'edges'")
        return self.next().value

    # declarations ---------------------------------------------------------

    def parse_document(self) -> Document:
        while self.peek().kind != "eof":
            tok = self.peek()
            # the declaration keywords are exactly the kinds of declaration
            if tok.kind != "ident" or tok.value not in _TABLES:
                self.unexpected("a declaration keyword")
            getattr(self, "parse_%s_decl" % tok.value)()
        return self.doc

    def _declare(self, kind: str, name: str, value):
        table = getattr(self.doc, _TABLES[kind])
        if name in table:
            raise ResolutionError("duplicate %s name %r" % (kind, name))
        table[name] = value

    def parse_graph_decl(self):
        self.expect("graph")
        self._declare("graph", self.expect_name(), self.parse_graph_body())

    def parse_graph_body(self, base: Graph = EMPTY_GRAPH) -> Graph:
        """Parse ``{ nodes ...; edges ... }``; returns ``base`` plus the
        declared nodes and edges.

        Node and edge names must be new, also to the context of ``extend``,
        and every edge endpoint must be a node of the result: declared in
        the body or, for ``extend``, in the context.
        """
        brace = self.expect("{")
        nodes = set(base.nodes)
        src, tgt = dict(base.src), dict(base.tgt)
        ends: List[_Token] = []
        while not self.at("}"):
            if self.section() == "nodes":
                while (self.peek().kind == "quoted"
                       or (self.peek().kind == "ident"
                           and self.peek().value not in ("nodes", "edges"))):
                    tok = self.next()
                    if tok.value in nodes:
                        raise ResolutionError(
                            _located(tok, "duplicate node name %r" % tok.value))
                    nodes.add(tok.value)
            else:
                while True:
                    tok = self.peek()
                    e = self.expect_name()
                    if e in src:
                        raise ResolutionError(
                            _located(tok, "duplicate edge name %r" % e))
                    self.expect(":")
                    ends.append(self.peek())
                    src[e] = self.expect_name()
                    self.expect("->")
                    ends.append(self.peek())
                    tgt[e] = self.expect_name()
                    if not self.accept(","):
                        break
            self.accept(";")
        self.expect("}")
        for tok in ends:
            if tok.value not in nodes:
                raise ResolutionError(_located(
                    tok, "edge endpoint %r is not a declared node" % tok.value))
        g = Graph(nodes, src.keys(), src, tgt)
        problems = validate_graph(g)
        if problems:
            raise ValidationError(_located(brace, "; ".join(problems)))
        return g

    def graph_ref(self) -> Graph:
        if self.at("{"):
            return self.parse_graph_body()
        return self.resolve("graph")

    def parse_footprint_decl(self):
        self.expect("footprint")
        name = self.expect_name()
        self.expect("{")
        preds = {}
        while not self.at("}"):
            self.expect("pred")
            tok = self.peek()
            pname = self.expect_name()
            if pname in preds:
                raise ResolutionError(
                    _located(tok, "duplicate predicate name %r" % pname))
            self.expect("arity")
            preds[pname] = PredicateSymbol(pname, self.graph_ref())
            self.accept(";")
        self.expect("}")
        self._declare("footprint", name, Footprint(preds.values()))

    def parse_pairs(self) -> List[Tuple[_Token, str]]:
        """Parse ``x -> y, ...`` up to the first token that is not a name;
        each pair keeps the token of its left name."""
        pairs: List[Tuple[_Token, str]] = []
        while self.peek().kind in ("ident", "quoted"):
            a = self.next()
            self.expect("->")
            pairs.append((a, self.expect_name()))
            self.accept(",")
        return pairs

    def parse_assignments(self) -> List[Tuple[str, str]]:
        """Parse ``{ x -> y, ... }`` into an ordered association list."""
        self.expect("{")
        pairs = self.parse_pairs()
        self.expect("}")
        return pairs

    def _split_assignments(self, pairs, dom: Graph, what: str):
        nodes, edges = {}, {}
        for tok, b in pairs:
            if tok.value in dom.nodes:
                nodes[tok.value] = b
            elif tok.value in dom.edges:
                edges[tok.value] = b
            else:
                raise ResolutionError(_located(
                    tok, "%s: %r is neither a node nor an edge of the domain"
                    % (what, tok.value)))
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
            sections[self.section()].update(
                (tok.value, b) for tok, b in self.parse_pairs())
            self.accept(";")
        self.expect("}")
        try:
            m = morphism_of(dom, cod, sections["nodes"], sections["edges"])
        except MismatchError as exc:
            raise ValidationError("morphism %r: %s" % (name, exc)) from exc
        self._declare("morphism", name, m)

    def parse_statement(self, context: Graph) -> Statement:
        """Parse ``PRED via { x -> y, ... }`` into a statement over context."""
        pred = self.resolve("predicate")
        self.expect("via")
        nodes, edges = self._split_assignments(self.parse_assignments(),
                                               pred.arity,
                                               "statement %r" % pred.name)
        try:
            binding = morphism_of(pred.arity, context, nodes, edges)
        except MismatchError as exc:
            raise ValidationError("statement %r: %s" % (pred.name, exc)) from exc
        return Statement(pred, binding)

    def parse_sketch_decl(self):
        self.expect("sketch")
        name = self.expect_name()
        self.expect("over")
        self.resolve("footprint")
        self.expect("on")
        context = self.graph_ref()
        self.expect("{")
        statements = []
        while not self.at("}"):
            self.expect("stmt")
            statements.append(self.parse_statement(context))
            self.accept(";")
        self.expect("}")
        self._declare("sketch", name, Sketch(context, statements))

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
        self._declare("condition", name, cond)

    def parse_shift(self, context: Graph) -> GraphMorphism:
        if self.accept("extend"):
            return inclusion(context, self.parse_graph_body(context))
        name = self.peek().value
        m = self.resolve("morphism")
        if m.dom != context:
            raise ValidationError(
                "morphism %r does not start at the current context" % name)
        return m

    def parse_expr(self, context: Graph) -> Condition:
        if self.depth == MAX_NESTING:
            tok = self.peek()
            raise ParseError("condition nested more than %d deep" % MAX_NESTING,
                             tok.line, tok.col)
        self.depth += 1
        try:
            return self.parse_operand(context)
        finally:
            self.depth -= 1

    def parse_operand(self, context: Graph) -> Condition:
        """One condition expression, its operands read by ``parse_expr``."""
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
                self.accept(",")
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
            guard = self.parse_expr(context) if self.accept("given") \
                else Top(context)
            self.expect("(")
            shift = self.parse_shift(context)
            self.expect(")")
            self.expect(".")
            body = self.parse_expr(shift.cod)
            return _CONNECTIVES[keyword](context, guard, shift, body)
        self.unexpected("a condition expression")

    def parse_constraint_decl(self):
        self.expect("constraint")
        name = self.expect_name()
        self.expect("=")
        self.expect("(")
        cond_name = self.peek().value
        cond = self.resolve("condition")
        self.expect(",")
        if self.accept("initial"):
            if not cond.context.is_empty():
                raise ValidationError(
                    "constraint %r: an initial anchor needs a closed condition"
                    % name)
            anchor_name, anchor = None, None
        else:
            anchor_name = self.peek().value
            anchor = self.resolve("morphism")
            if anchor.dom != cond.context:
                raise ValidationError(
                    "constraint %r: anchor does not start at the condition context"
                    % name)
        self.expect(")")
        self._declare("constraint", name,
                      ConstraintDecl(cond_name, cond, anchor_name, anchor))

    def parse_rule_decl(self):
        self.expect("rule")
        name = self.expect_name()
        self.expect("=")
        self.expect("morphism")
        m = self.resolve("morphism")
        self.expect("from")
        lhs = self.resolve("sketch")
        self.expect("to")
        rhs = self.resolve("sketch")
        try:
            rule = Rule(lhs, rhs, m)
        except MismatchError as exc:
            raise ValidationError("rule %r: %s" % (name, exc)) from exc
        self._declare("rule", name, rule)


def parse(text: str, doc: Optional[Document] = None) -> Document:
    """Parse a document; an existing document provides names to extend."""
    return Parser(text, doc).parse_document()


def parse_files(paths) -> Document:
    """Parse several files into one document; later files may reference
    declarations from earlier ones."""
    doc = Document()
    for path in paths:
        parse(read_source(path), doc)
    return doc


def read_source(path) -> str:
    """The text of a UTF-8 file, with universal newlines as in text mode.  A
    byte that is not UTF-8 raises a ParseError at its line and column."""
    with open(path, "rb") as handle:
        # no multi-byte UTF-8 sequence contains the bytes of \r or \n
        data = handle.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start].decode("utf-8")
        raise ParseError(
            "%s: byte 0x%02x is not UTF-8" % (path, data[exc.start]),
            before.count("\n") + 1, len(before) - before.rfind("\n")) from None


# printing -----------------------------------------------------------------


_PLAIN_NAME = re.compile(r"[A-Za-z0-9_]+")


def _q(name: str) -> str:
    """Quote a name unless it is a plain identifier outside the keyword set."""
    if _PLAIN_NAME.fullmatch(name) and name not in KEYWORDS:
        return name
    return '"%s"' % name


def _declarations(g: Graph, base: Graph = EMPTY_GRAPH) -> List[str]:
    """The ``nodes ...;`` and ``edges ...;`` lines that add ``g`` to
    ``base``; the inverse of ``Parser.parse_graph_body``."""
    nodes, edges = sorted(g.nodes - base.nodes), sorted(g.edges - base.edges)
    lines = []
    if nodes:
        lines.append("nodes %s;" % " ".join(_q(n) for n in nodes))
    if edges:
        lines.append("edges %s;" % ", ".join(
            "%s: %s -> %s" % (_q(e), _q(g.src[e]), _q(g.tgt[e])) for e in edges))
    return lines


def _format_graph_body(g: Graph) -> str:
    lines = _declarations(g)
    return "{\n%s\n}" % "\n".join("  " + x for x in lines) if lines else "{ }"


def _named(table: dict, test) -> Optional[str]:
    """The first name in ``table`` whose declaration passes ``test``."""
    return next((name for name, value in table.items() if test(value)), None)


def _first_names(table: dict) -> dict:
    """Each declaration in ``table`` mapped to the first of its names."""
    return {value: name for name, value in reversed(table.items())}


def _is_inclusion(m: GraphMorphism) -> bool:
    return (all(m.node_map[n] == n for n in m.dom.nodes)
            and all(m.edge_map[e] == e for e in m.dom.edges))


class _Printer:
    """Names graphs and morphisms of ``doc`` by their declarations; others
    are declared on first use, named after ``hints`` where possible."""

    def __init__(self, doc: Document, hints: Optional[Document] = None):
        hints = hints or Document()
        self.doc = doc
        self.graph_names = _first_names(doc.graphs)
        self.morphism_names = _first_names(doc.morphisms)
        self.graph_hints = _first_names(hints.graphs)
        self.morphism_hints = _first_names(hints.morphisms)
        self.used_names = set(doc.graphs) | set(doc.morphisms)
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
            self.extra.append("graph %s %s" % (_q(name), _format_graph_body(g)))
        return _q(self.graph_names[g])

    def morphism_name(self, m: GraphMorphism) -> str:
        if m not in self.morphism_names:
            name = self._fresh(self.morphism_hints.get(m), "morphism")
            self.morphism_names[m] = name
            self.extra.append(self.format_morphism(name, m))
        return _q(self.morphism_names[m])

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
        return "morphism %s : %s -> %s %s" % (_q(name), dom, cod, body)

    def format_statement(self, s: Statement) -> str:
        entries = []
        covered = set()
        arity = s.predicate.arity
        for e in sorted(arity.edges):
            entries.append("%s -> %s" % (_q(e), _q(s.binding.edge_map[e])))
            covered.update((arity.src[e], arity.tgt[e]))
        for n in sorted(arity.nodes - covered):
            entries.append("%s -> %s" % (_q(n), _q(s.binding.node_map[n])))
        return "stmt %s via { %s }" % (_q(s.predicate.name), ", ".join(entries))

    def format_shift(self, m: GraphMorphism) -> str:
        if _is_inclusion(m):
            return "extend { %s }" % " ".join(_declarations(m.cod, m.dom))
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
        lines = ["  pred %s arity %s;" % (_q(p.name), self.graph_name(p.arity))
                 for p in fp]
        return "footprint %s {\n%s\n}" % (_q(name), "\n".join(lines))

    def format_sketch(self, name: str, sk: Sketch) -> str:
        preds = {s.predicate for s in sk.statements}
        fp_name = _named(self.doc.footprints,
                         lambda fp: preds <= fp.predicates)
        if fp_name is None:
            fp_name = "footprint_%s" % name
            self.extra.append(self.format_footprint(fp_name, Footprint(preds)))
        lines = ["  %s;" % self.format_statement(s)
                 for s in sk.sorted_statements()]
        body = "{\n%s\n}" % "\n".join(lines) if lines else "{ }"
        return "sketch %s over %s on %s %s" % (_q(name), _q(fp_name),
                                               self.graph_name(sk.context), body)


def print_document(doc: Document, printer: Optional[_Printer] = None) -> str:
    printer = printer or _Printer(doc)
    chunks: List[str] = []

    def emit(text):
        chunks.extend(printer.extra)
        printer.extra = []
        chunks.append(text)

    for name, g in doc.graphs.items():
        emit("graph %s %s" % (_q(name), _format_graph_body(g)))
    for name, fp in doc.footprints.items():
        emit(printer.format_footprint(name, fp))
    for name, m in doc.morphisms.items():
        emit(printer.format_morphism(name, m))
    for name, sk in doc.sketches.items():
        emit(printer.format_sketch(name, sk))
    for name, cond in doc.conditions.items():
        emit("condition %s over %s = %s" % (
            _q(name), printer.graph_name(cond.context), printer.format_expr(cond)))
    for name, decl in doc.constraints.items():
        anchor = "initial" if decl.anchor_name is None else _q(decl.anchor_name)
        emit("constraint %s = (%s, %s)"
             % (_q(name), _q(decl.condition_name), anchor))
    for name, rule in doc.rules.items():
        mname = printer.morphism_name(rule.morphism)
        sides = []
        for side, sk in (("lhs", rule.lhs), ("rhs", rule.rhs)):
            sname = _named(doc.sketches, lambda other: other == sk)
            if sname is None:
                sname = "sketch_%s_%s" % (name, side)
                printer.extra.append(printer.format_sketch(sname, sk))
            sides.append(_q(sname))
        emit("rule %s = morphism %s from %s to %s"
             % (_q(name), mname, *sides))
    chunks.extend(printer.extra)
    return "\n\n".join(chunks) + "\n"


def format_condition(cond: Condition, doc: Optional[Document] = None) -> str:
    """Render a single condition as a self-contained document.

    Only the graphs and morphisms the condition actually references are
    emitted; names from ``doc`` are reused where possible.
    """
    doc = doc or Document()
    scratch = Document()
    preds = set()

    def collect(node):
        if isinstance(node, Stmt):
            preds.add(node.statement.predicate)
        for sub in node.subconditions():
            collect(sub)

    collect(cond)
    if preds:
        name = _named(doc.footprints, lambda fp: preds <= fp.predicates)
        if name is None:
            scratch.footprints["fp"] = Footprint(preds)
        else:
            scratch.footprints[name] = doc.footprints[name]
    scratch.conditions["result"] = cond
    return print_document(scratch, _Printer(scratch, doc))
