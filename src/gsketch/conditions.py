"""First-order conditions over contexts, their satisfaction, and constraints.

The AST follows the guarded-quantifier syntax: a quantifier carries a guard
over its own context K, a shift morphism a: K -> M, and a body over M.  The
semantics is classical and two-valued; quantifiers range over the extensions
r: M -> G with a;r = t.  Empty conjunction is true, empty disjunction false.

A condition is well formed by construction: each node checks, when built,
that its statement or children sit over its context and, for a quantifier,
that the shift starts there and the body sits over the shift's codomain.  A
mismatch raises :class:`IllFormedConditionError`, so no use re-checks a tree.

Every node speaks one traversal protocol.  ``subconditions()`` returns the
direct children in a fixed order: ``()`` for the leaves ``Stmt``, ``Top`` and
``Bottom``, ``children`` for the junctions ``And``/``Or``, ``(child,)`` for
``Not`` and ``(guard, body)`` for the quantifiers ``Exists``/``Forall``.
``rebuild(context, subs)`` returns the same kind of node over ``context``
with ``subs`` in place of the children; a quantifier keeps its shift and a
statement leaf its statement.  Walkers that treat the connectives uniformly
(translation, unfolding, printing) recurse only through these two methods
and special-case statements and quantifiers alone; the evaluator has one
case per node family (``Junction``, ``Quantifier``).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional, Tuple

from .category import initial_morphism
from .graphs import (Graph, GraphMorphism, MismatchError, enumerate_extensions,
                     identity, iter_extensions)
from .sketches import (Sketch, SketchMorphism, Statement, statement_key,
                       translate_index, translate_key)


class EvaluationBudgetExceeded(RuntimeError):
    """The evaluator's step budget ran out; the verdict is unknown."""


class IllFormedConditionError(ValueError):
    """A condition node whose parts sit over contexts other than its own."""


@dataclass(frozen=True)
class Condition:
    """Base class; every condition node knows its context graph, and a node
    with parts checks their contexts, identity first, in ``__post_init__``."""
    context: Graph

    def __post_init__(self):
        pass

    def subconditions(self) -> Tuple["Condition", ...]:
        """The direct subconditions, in a fixed order; leaves have none."""
        return ()

    def rebuild(self, context: Graph, subs) -> "Condition":
        """The same kind of node over ``context``, with ``subs`` in place of
        its subconditions."""
        return replace(self, context=context)


@dataclass(frozen=True)
class Stmt(Condition):
    statement: Statement

    def __post_init__(self):
        bound = self.statement.context
        if bound is not self.context and bound != self.context:
            raise IllFormedConditionError("statement bound outside its context")


@dataclass(frozen=True)
class Top(Condition):
    pass


@dataclass(frozen=True)
class Bottom(Condition):
    pass


@dataclass(frozen=True)
class Junction(Condition):
    """Base class of the n-ary connectives."""
    children: Tuple[Condition, ...]

    def __post_init__(self):
        context = self.context
        for child in self.children:
            if child.context is not context and child.context != context:
                raise IllFormedConditionError("child context differs from parent")

    def subconditions(self):
        return self.children

    def rebuild(self, context, subs):
        return type(self)(context, tuple(subs))


class And(Junction):
    pass


class Or(Junction):
    pass


@dataclass(frozen=True)
class Not(Condition):
    child: Condition

    def __post_init__(self):
        inner = self.child.context
        if inner is not self.context and inner != self.context:
            raise IllFormedConditionError("child context differs from parent")

    def subconditions(self):
        return (self.child,)

    def rebuild(self, context, subs):
        (child,) = subs
        return Not(context, child)


@dataclass(frozen=True)
class Quantifier(Condition):
    """Base class of the guarded quantifiers along a shift K -> M."""
    guard: Condition
    shift: GraphMorphism  # K -> M
    body: Condition

    def __post_init__(self):
        context, shift = self.context, self.shift
        if shift.dom is not context and shift.dom != context:
            raise IllFormedConditionError("shift domain differs from context")
        if self.guard.context is not context and self.guard.context != context:
            raise IllFormedConditionError("guard context differs from context")
        if self.body.context is not shift.cod and self.body.context != shift.cod:
            raise IllFormedConditionError("body not over the shift codomain")

    def subconditions(self):
        return (self.guard, self.body)

    def rebuild(self, context, subs):
        guard, body = subs
        return type(self)(context, guard, self.shift, body)


class Exists(Quantifier):
    pass


class Forall(Quantifier):
    pass


def stmt(s: Statement) -> Stmt:
    return Stmt(s.context, s)


def conj(context: Graph, children) -> Condition:
    return And(context, tuple(children))


def statements_conj(context: Graph, statements) -> Condition:
    """Canonically ordered conjunction of statement leaves."""
    return conj(context, (stmt(s) for s in sorted(statements, key=statement_key)))


def implication(lhs: Condition, rhs: Condition) -> Condition:
    """Propositional implication: the degenerate guarded quantification at id."""
    return Exists(lhs.context, lhs, identity(lhs.context), rhs)


def unguarded_exists(shift: GraphMorphism, body: Condition) -> Condition:
    return Exists(shift.dom, Top(shift.dom), shift, body)


def unguarded_forall(shift: GraphMorphism, body: Condition) -> Condition:
    return Forall(shift.dom, Top(shift.dom), shift, body)


def well_formed(c: Condition) -> list:
    """The context mismatches of the node ``c``: the check its construction
    ran, so ``[]`` for every node built normally."""
    try:
        c.__post_init__()
    except IllFormedConditionError as exc:
        return [str(exc)]
    return []


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: Optional[GraphMorphism] = None         # satisfying extension
    counterexample: Optional[GraphMorphism] = None  # violating extension
    inner: Optional["Verdict"] = None

    def __bool__(self):
        return self.holds


@dataclass(frozen=True)
class Constraint:
    condition: Condition
    anchor: GraphMorphism  # condition context -> target context

    def __post_init__(self):
        if self.anchor.dom != self.condition.context:
            raise MismatchError("anchor domain differs from the condition context")


class _Budget:
    __slots__ = ("left",)

    def __init__(self, steps):
        self.left = steps

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise EvaluationBudgetExceeded("evaluation step budget exhausted")


DEFAULT_BUDGET = 10_000_000


def satisfies(t: GraphMorphism, g: Sketch, c: Condition, *,
              budget: Optional[int] = None) -> Verdict:
    """Evaluate t |= c relative to the sketch g within ``budget`` steps;
    ``DEFAULT_BUDGET`` as it reads at the call when none is given."""
    _validate(t, g, c)
    return _eval(t, g, c, _Budget(DEFAULT_BUDGET if budget is None else budget))


def _validate(t, g, c):
    if t.dom != c.context or t.cod != g.context:
        raise MismatchError("anchor endpoints differ from condition/sketch contexts")


def _eval(t, g, c, budget) -> Verdict:
    budget.spend()
    if isinstance(c, Stmt):
        s = c.statement
        return Verdict(g.holds(s.predicate, translate_key(t, s.key)))
    if isinstance(c, Top):
        return Verdict(True)
    if isinstance(c, Bottom):
        return Verdict(False)
    if isinstance(c, Junction):
        decisive = isinstance(c, Or)  # the child value that settles the node
        for child in c.children:
            v = _eval(t, g, child, budget)
            if v.holds == decisive:
                return Verdict(decisive, inner=v)
        return Verdict(not decisive)
    if isinstance(c, Not):
        return Verdict(not _eval(t, g, c.child, budget).holds)
    if isinstance(c, Quantifier):
        if not _eval(t, g, c.guard, budget).holds:
            return Verdict(True)
        decisive = isinstance(c, Exists)  # the body value that settles it
        for r in enumerate_extensions(c.shift, t):
            v = _eval(r, g, c.body, budget)
            if v.holds == decisive:
                return (Verdict(True, witness=r, inner=v) if decisive
                        else Verdict(False, counterexample=r, inner=v))
        return Verdict(not decisive)
    raise TypeError("unknown condition node %r" % type(c).__name__)


def check_constraint(g: Sketch, k: Constraint) -> Verdict:
    """Whether ``k`` holds on ``g``: :func:`satisfies` at its anchor, which
    must land in the sketch context."""
    return satisfies(k.anchor, g, k.condition)


def iter_violations(t: GraphMorphism, g: Sketch,
                    c: Forall) -> Iterator[GraphMorphism]:
    """The counterexample extensions r: M -> G, a;r = t, of a universal
    condition, drawn one at a time in canonical order; none if the guard
    fails at t.  The shape and the endpoints are checked at once, before
    the first draw; the guard and every extension drawn are evaluated under
    one step budget.  Extensions past the last one drawn are never searched
    for."""
    if not isinstance(c, Forall):
        raise TypeError("expected a universally quantified condition")
    _validate(t, g, c)
    return _violations(t, g, c)


def _violations(t, g, c):
    """The draws of :func:`iter_violations`, after its checks."""
    budget = _Budget(DEFAULT_BUDGET)
    if not _eval(t, g, c.guard, budget).holds:
        return
    for r in iter_extensions(c.shift, t):
        if not _eval(r, g, c.body, budget).holds:
            yield r


def _conclusion(rule: SketchMorphism) -> Condition:
    """The statements of R outside the image a(S1) of the premise, over R.
    Where the premise holds at t, every r with a;r = t maps a(S1) onto
    t(S1), which holds already, so only these are left to check."""
    image, rhs = translate_index(rule.morphism, rule.dom.index), rule.cod
    return statements_conj(rhs.context, [
        s for s in rhs.statements if s.key not in image.get(s.predicate, ())])


def uc(rule: SketchMorphism) -> Condition:
    """Closed encoding of a positive universal constraint for a: L -> R."""
    l = rule.dom
    body = Exists(l.context, statements_conj(l.context, l.statements),
                  rule.morphism, _conclusion(rule))
    return unguarded_forall(initial_morphism(l.context), body)


def nuc(rule: SketchMorphism) -> Condition:
    """Closed encoding of a negative universal constraint for a: L -> R."""
    l = rule.dom
    inner = unguarded_exists(rule.morphism, _conclusion(rule))
    body = implication(statements_conj(l.context, l.statements),
                       Not(l.context, inner))
    return unguarded_forall(initial_morphism(l.context), body)


def is_closed(c: Condition) -> bool:
    return c.context.is_empty()

