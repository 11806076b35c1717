"""The specification DSL: parser with diagnostics and canonical printer.

Lexical rules: a name is ``\\w+`` (Unicode letters, digits and ``_``) or a
double-quoted name without ``"`` or a line break; ``#`` starts a comment
that runs to the end of the line; the symbols are ``-> { } ( ) : ; , . =``.
The lexer returns each lexeme as a string, a quoted name with its quotes,
so no quoted name equals a keyword; a token's line and column are computed
only when an error names it.

Declarations (graphs, footprints, morphisms, sketches, conditions,
constraints, rules) are named and cross-reference each other by name.  A
sketch's statements use its footprint's predicates.  Morphism bodies and
statement bindings are element maps: each ``x -> y`` names a domain element
once, in a morphism body in the section of its kind.
Every rejected input is reported with its line and column: syntax errors,
unknown and repeated names, and each construction whose value cannot be
built, located at the token that opened it (:meth:`Parser.building`).
``parse(print(doc))`` is structurally the identity on a document that
declares every graph and morphism it references.  The printer declares an
inline graph body as ``graph_N``, so any other document round-trips exactly
after one print/parse pass.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional, Tuple

from .category import initial_morphism
from .conditions import (And, Bottom, Condition, Constraint, Exists, Forall,
                         Junction, Not, Or, Quantifier, Stmt, Top, implication,
                         stmt)
from .deduction import Rule
from .graphs import (EMPTY_GRAPH, Graph, GraphMorphism, MismatchError,
                     identity, inclusion, morphism_of)
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


# the errors whose messages carry their line and column
_LOCATED = (ParseError, ResolutionError, ValidationError)


@dataclass(frozen=True)
class ConstraintDecl:
    """A named constraint: a condition plus an anchor morphism or ``initial``.

    An ``initial`` anchor is resolved against a target sketch at check time,
    so it needs a closed condition; any other anchor starts at the
    condition's context.
    """
    condition_name: str
    condition: Condition
    anchor_name: Optional[str]          # None means "initial"
    anchor: Optional[GraphMorphism]

    def __post_init__(self):
        if self.anchor is None:
            if not self.condition.context.is_empty():
                raise MismatchError("an initial anchor needs a closed condition")
        elif self.anchor.dom != self.condition.context:
            raise MismatchError(
                "anchor does not start at the condition context")

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
        """The predicate ``name`` of every footprint that declares it."""
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
# the keywords that open a condition expression
_OPERATORS = {"true", "false", "stmt", "not", "implies", *_CONNECTIVES}


# One match per lexeme: the blanks and comments before it, then the lexeme
# (group 1), its alternatives tried in order.  ``.`` takes any other single
# character, a lone '"' among them, and ``$`` the end of the text, so findall
# returns every lexeme as a string, a quoted name with its quotes, and "" for
# the end.  Blanks that end the text match once more before the end does.
# Nothing follows the blanks that can fail, so they never backtrack.
_LEXER = re.compile(r'(?:[ \t\r\n]|#[^\n]*)*'
                    r'(->|[{}():;,.=]|"[^"\n]*"|\w+|.|$)', re.DOTALL)

_SYMBOLS = frozenset(["->", *"{}():;,.="])
_NOT_NAMES = _SYMBOLS | {""}  # the tokens that are not names
# the tokens that end the names of a ``nodes`` section
_SECTION_ENDS = _NOT_NAMES | {"nodes", "edges"}


def _tokenize(text: str, line: int = 1) -> List[str]:
    """The lexemes of ``text``, ending in "" for the end of input; ``line``,
    the number of the text's first line, locates an illegal character."""
    tokens = _LEXER.findall(text)
    if len(tokens) > 1 and not tokens[-2]:
        del tokens[-1]
    # the illegal lexemes are the one-character ones that are neither a
    # symbol nor a name (\w): a lone '"' or a character outside the DSL
    bad = [t for t in set(tokens) if len(t) == 1 and t not in _SYMBOLS
           and not t.isalnum() and t != "_"]
    if bad:
        i = min(map(tokens.index, bad))
        raise ParseError("unterminated quoted name" if tokens[i] == '"'
                         else "unexpected character %r" % tokens[i],
                         *_where(text, i, line))
    return tokens


def _where(text: str, i: int, line: int) -> Tuple[int, int]:
    """The line and column of token ``i`` of ``text``, whose first line is
    ``line``.  Only errors ask, so tokens keep no position: this runs the
    lexer again up to that token."""
    start = next(islice(_LEXER.finditer(text), i, None)).start(1)
    return (line + text.count("\n", 0, start),
            start - text.rfind("\n", 0, start))


def _name(tok: str) -> str:
    """The name a token spells: a quoted name without its quotes."""
    return tok[1:-1] if tok[:1] == '"' else tok


class _Building:
    """The context manager of :meth:`Parser.building`."""

    __slots__ = ("parser", "i", "kind")

    def __init__(self, parser: "Parser", i: int, kind: Optional[str]):
        self.parser, self.i, self.kind = parser, i, kind

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        if (exc is None or not isinstance(exc, ValueError)
                or isinstance(exc, _LOCATED)):
            return False
        p, i = self.parser, self.i
        what = ("" if self.kind is None
                else "%s %r: " % (self.kind, _name(p.tokens[i])))
        raise ValidationError(p.located(i, what + str(exc))) from exc


class Parser:
    """Recursive-descent parser over the DSL tokens; one method per construct.

    Declarations are entered into ``doc``, which also resolves names.
    ``line`` is the line number of the first line of ``text``.  The parser
    reads ``tokens[pos]`` directly: a token is its lexeme, so a quoted name
    never equals a keyword or a symbol, and "" is the end of input.  Errors
    name a token by its index, which :meth:`where` locates.
    """

    def __init__(self, text: str, doc: Optional[Document] = None,
                 line: int = 1):
        self.text, self.line = text, line
        self.tokens = _tokenize(text, line)
        self.pos = 0
        self.depth = 0  # parse_expr calls open at the current token
        self.doc = doc if doc is not None else Document()

    def where(self, i: int) -> Tuple[int, int]:
        """The line and column of token ``i``."""
        return _where(self.text, i, self.line)

    def located(self, i: int, message: str) -> str:
        """``message`` prefixed with the position of token ``i``."""
        return "line %d, column %d: %s" % (*self.where(i), message)

    def unexpected(self, *expected: str):
        """Reject the next token, naming what would have been legal there."""
        tok = self.tokens[self.pos]
        found = _name(tok) if tok else "end of input"
        raise ParseError("found %r" % found, *self.where(self.pos), expected)

    def at(self, value: str) -> bool:
        return self.tokens[self.pos] == value

    def accept(self, value: str) -> bool:
        """Consume the next token if it is ``value``."""
        if self.tokens[self.pos] == value:
            self.pos += 1
            return True
        return False

    def expect(self, value: str):
        if self.tokens[self.pos] != value:
            self.unexpected(repr(value))
        self.pos += 1

    def expect_name(self) -> str:
        tok = self.tokens[self.pos]
        if tok in _NOT_NAMES:
            self.unexpected("a name")
        self.pos += 1
        return _name(tok)

    def resolve(self, kind: str):
        """Read a name and resolve it as a declaration of ``kind`` or a
        ``"predicate"`` of any footprint; errors name its position."""
        name = self.expect_name()
        try:
            return (self.doc.predicate(name) if kind == "predicate"
                    else self.doc.lookup(kind, name))
        except ResolutionError as exc:
            raise ResolutionError(
                self.located(self.pos - 1, str(exc))) from None

    def building(self, i: int, kind: Optional[str] = None) -> "_Building":
        """Report a ValueError raised in the block, unless it is located
        already, as a ValidationError located at token ``i``, which opened
        the construction, and, given ``kind``, prefixed with the kind and
        the token's name."""
        return _Building(self, i, kind)

    def new_name(self, taken, kind: str) -> str:
        """Read a name that ``taken`` does not hold yet; a repeat is a
        duplicate ``kind`` name, located at the name."""
        name = self.expect_name()
        if name in taken:
            raise ResolutionError(self.located(
                self.pos - 1, "duplicate %s name %r" % (kind, name)))
        return name

    def section(self) -> str:
        """Read the ``nodes`` or ``edges`` keyword that opens a body section."""
        tok = self.tokens[self.pos]
        if tok != "nodes" and tok != "edges":
            self.unexpected("'nodes'", "'edges'")
        self.pos += 1
        return tok

    # declarations ---------------------------------------------------------

    def parse_document(self) -> Document:
        """Parse each ``KIND NAME ...`` declaration with
        ``parse_KIND_decl(NAME)``, which reads what follows the name and
        returns the declared value."""
        tokens = self.tokens
        while tokens[self.pos]:
            kind = tokens[self.pos]
            # the declaration keywords are exactly the kinds of declaration
            if kind not in _TABLES:
                self.unexpected("a declaration keyword")
            self.pos += 1
            table = getattr(self.doc, _TABLES[kind])
            name = self.new_name(table, kind)
            with self.building(self.pos - 1, kind):
                table[name] = getattr(self, "parse_%s_decl" % kind)(name)
        return self.doc

    def parse_graph_decl(self, name: str) -> Graph:
        return self.parse_graph_body()

    def parse_graph_body(self, base: Graph = EMPTY_GRAPH) -> Graph:
        """Parse ``{ nodes ...; edges ... }``; returns ``base`` plus the
        declared nodes and edges.

        Node and edge names must be new, also to the context of ``extend``,
        and every edge endpoint must be a node of the result: declared in
        the body or, for ``extend``, in the context.
        """
        brace = self.pos
        self.expect("{")
        tokens, nodes = self.tokens, set(base.nodes)
        src, tgt = dict(base.src), dict(base.tgt)
        ends: List[int] = []  # the tokens naming edge endpoints
        while not self.at("}"):
            if self.section() == "nodes":
                while tokens[self.pos] not in _SECTION_ENDS:
                    nodes.add(self.new_name(nodes, "node"))
            else:
                while True:
                    e = self.new_name(src, "edge")
                    self.expect(":")
                    ends.append(self.pos)
                    src[e] = self.expect_name()
                    self.expect("->")
                    ends.append(self.pos)
                    tgt[e] = self.expect_name()
                    if not self.accept(","):
                        break
            self.accept(";")
        self.expect("}")
        for i in ends:
            end = _name(tokens[i])
            if end not in nodes:
                raise ResolutionError(self.located(
                    i, "edge endpoint %r is not a declared node" % end))
        with self.building(brace):
            return Graph(nodes, src.keys(), src, tgt)

    def graph_ref(self) -> Graph:
        if self.at("{"):
            return self.parse_graph_body()
        return self.resolve("graph")

    def parse_footprint_decl(self, name: str) -> Footprint:
        self.expect("{")
        preds = {}
        while not self.at("}"):
            self.expect("pred")
            pname = self.new_name(preds, "predicate")
            self.expect("arity")
            preds[pname] = PredicateSymbol(pname, self.graph_ref())
            self.accept(";")
        self.expect("}")
        return Footprint(preds.values())

    def parse_element_map(self, dom: Graph, cod: Graph, what: str = "",
                          sectioned: bool = False) -> GraphMorphism:
        """Parse ``{ x -> y, ... }`` or, if ``sectioned``, a morphism body
        ``{ nodes x -> y, ...; edges ...; }`` into a morphism dom -> cod.
        Each ``x`` must be a new element of ``dom``, in a section of its
        kind; errors are located at it and prefixed with ``what``."""
        self.expect("{")
        tokens = self.tokens
        entries = {"nodes": {}, "edges": {}}
        section = None
        while not self.at("}"):
            if sectioned:
                section = self.section()
            while tokens[self.pos] not in _NOT_NAMES:
                x = self.expect_name()
                kind = "edges" if x in dom.edges else "nodes"
                if kind == "nodes" and x not in dom.nodes:
                    problem = "is neither a node nor an edge of the domain"
                elif section not in (None, kind):
                    problem = "belongs in %s, not in %s" % (kind, section)
                elif x in entries[kind]:
                    problem = "is mapped twice"
                else:
                    self.expect("->")
                    entries[kind][x] = self.expect_name()
                    self.accept(",")
                    continue
                raise ResolutionError(self.located(
                    self.pos - 1, "%s%r %s" % (what, x, problem)))
            if not sectioned:
                break
            self.accept(";")
        self.expect("}")
        return morphism_of(dom, cod, entries["nodes"], entries["edges"])

    def parse_morphism_decl(self, name: str) -> GraphMorphism:
        self.expect(":")
        dom = self.graph_ref()
        self.expect("->")
        return self.parse_element_map(dom, self.graph_ref(),
                                      "morphism %r: " % name, sectioned=True)

    def parse_statement(self, context: Graph,
                        footprint: Optional[str] = None) -> Statement:
        """Parse ``PRED via { x -> y, ... }`` into a statement over context.
        Given ``footprint``, PRED must be one of its predicates; else every
        footprint that declares PRED must agree on it."""
        start = self.pos
        declared = self.doc.footprints.get(footprint, {})
        pred = (declared[self.expect_name()]
                if _name(self.tokens[start]) in declared
                else self.resolve("predicate"))
        with self.building(start, "statement"):
            if footprint is not None and pred.name not in declared:
                raise MismatchError("the predicate is not in footprint %r"
                                    % footprint)
            self.expect("via")
            return Statement(pred, self.parse_element_map(
                pred.arity, context, "statement %r: " % pred.name))

    def parse_sketch_decl(self, name: str) -> Sketch:
        self.expect("over")
        footprint = _name(self.tokens[self.pos])
        self.resolve("footprint")
        self.expect("on")
        context = self.graph_ref()
        self.expect("{")
        statements = []
        while not self.at("}"):
            self.expect("stmt")
            statements.append(self.parse_statement(context, footprint))
            self.accept(";")
        self.expect("}")
        return Sketch(context, statements)

    def parse_condition_decl(self, name: str) -> Condition:
        self.expect("over")
        context = self.graph_ref()
        self.expect("=")
        return self.parse_expr(context)

    def parse_shift(self, context: Graph) -> GraphMorphism:
        if self.accept("extend"):
            return inclusion(context, self.parse_graph_body(context))
        m = self.resolve("morphism")
        with self.building(self.pos - 1, "morphism"):
            if m.dom != context:
                raise MismatchError("does not start at the current context")
        return m

    def parse_expr(self, context: Graph) -> Condition:
        if self.depth == MAX_NESTING:
            raise ParseError("condition nested more than %d deep" % MAX_NESTING,
                             *self.where(self.pos))
        self.depth += 1
        try:
            return self.parse_operand(context)
        finally:
            self.depth -= 1

    def parse_operand(self, context: Graph) -> Condition:
        """One condition expression, its operands read by ``parse_expr``."""
        keyword = self.tokens[self.pos]
        if keyword not in _OPERATORS:
            self.unexpected("a condition expression")
        self.pos += 1
        if keyword == "true":
            return Top(context)
        if keyword == "false":
            return Bottom(context)
        if keyword == "stmt":
            return stmt(self.parse_statement(context))
        if keyword in ("and", "or"):
            self.expect("(")
            children = []
            while not self.at(")"):
                children.append(self.parse_expr(context))
                self.accept(",")
            self.expect(")")
            return _CONNECTIVES[keyword](context, tuple(children))
        if keyword == "not":
            return Not(context, self.parse_expr(context))
        if keyword == "implies":
            self.expect("(")
            lhs = self.parse_expr(context)
            self.expect(",")
            rhs = self.parse_expr(context)
            self.expect(")")
            return implication(lhs, rhs)
        # exists or forall
        guard = self.parse_expr(context) if self.accept("given") \
            else Top(context)
        self.expect("(")
        shift = self.parse_shift(context)
        self.expect(")")
        self.expect(".")
        body = self.parse_expr(shift.cod)
        return _CONNECTIVES[keyword](context, guard, shift, body)

    def parse_constraint_decl(self, name: str) -> ConstraintDecl:
        self.expect("=")
        self.expect("(")
        cond_name = _name(self.tokens[self.pos])
        cond = self.resolve("condition")
        self.expect(",")
        anchor_name, anchor = None, None
        if not self.accept("initial"):
            anchor_name = _name(self.tokens[self.pos])
            anchor = self.resolve("morphism")
        self.expect(")")
        return ConstraintDecl(cond_name, cond, anchor_name, anchor)

    def parse_rule_decl(self, name: str) -> Rule:
        self.expect("=")
        self.expect("morphism")
        m = self.resolve("morphism")
        self.expect("from")
        lhs = self.resolve("sketch")
        self.expect("to")
        rhs = self.resolve("sketch")
        return Rule(lhs, rhs, m)


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


def _entries(m: GraphMorphism) -> Tuple[List[str], List[str]]:
    """The ``x -> y`` entries of ``m`` that parse back to it, each part
    sorted: those of the nodes that no edge forces, and of the edges."""
    dom = m.dom
    forced = {*dom.src.values(), *dom.tgt.values()}
    return (["%s -> %s" % (_q(n), _q(m.node_map[n]))
             for n in sorted(dom.nodes - forced)],
            ["%s -> %s" % (_q(e), _q(m.edge_map[e]))
             for e in sorted(dom.edges)])


def _braced(lines: List[str]) -> str:
    """``lines`` indented inside braces, or ``{ }`` if there are none."""
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
            self.extra.append("graph %s %s"
                              % (_q(name), _braced(_declarations(g))))
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
        lines = ["%s %s;" % (section, ", ".join(entries))
                 for section, entries in zip(("nodes", "edges"), _entries(m))
                 if entries]
        return "morphism %s : %s -> %s %s" % (_q(name), dom, cod,
                                              _braced(lines))

    def format_statement(self, s: Statement) -> str:
        loose, edges = _entries(s.binding)
        return "stmt %s via { %s }" % (_q(s.predicate.name),
                                       ", ".join(edges + loose))

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
        preds = set(sk.index)
        fp_name = _named(self.doc.footprints,
                         lambda fp: preds <= fp.predicates)
        if fp_name is None:
            fp_name = "footprint_%s" % name
            self.extra.append(self.format_footprint(fp_name, Footprint(preds)))
        lines = ["%s;" % self.format_statement(s)
                 for s in sk.sorted_statements()]
        return "sketch %s over %s on %s %s" % (_q(name), _q(fp_name),
                                               self.graph_name(sk.context),
                                               _braced(lines))


def print_document(doc: Document, printer: Optional[_Printer] = None) -> str:
    printer = printer or _Printer(doc)
    chunks: List[str] = []

    def emit(text):
        chunks.extend(printer.extra)
        printer.extra = []
        chunks.append(text)

    for name, g in doc.graphs.items():
        emit("graph %s %s" % (_q(name), _braced(_declarations(g))))
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
