"""Rule application by sketch pushout with negative application conditions,
the repair loop, and the constraint deduction steps (universal elimination,
modus ponens, Skolemization, conjunction rules, statement instantiation and
constraint translation along sketch morphisms).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .category import initial_morphism
from .conditions import (And, Condition, Constraint, Exists, Forall, Stmt,
                         Top, _check_well_formed, _violations,
                         check_constraint, conj, iter_violations, satisfies,
                         statements_conj, uc, unguarded_exists)
from .graphs import GraphMorphism, MismatchError, compose, identity
from .sketches import (Sketch, SketchMorphism, Statement, sketch_pushout,
                       translate_index, unchecked)


class RuleShapeError(ValueError):
    """A condition is not of the universally-constrained shape rules require."""


class CertificationError(ValueError):
    """A constraint offered as certified does not hold on its sketch."""


class Rule(SketchMorphism):
    """A transformation rule: the sketch morphism a: (L, S1) -> (R, S2 + a(S1))
    whose matches are the violations of its universal constraint."""

    @classmethod
    def build(cls, lhs: Sketch, morphism: GraphMorphism,
              added: Iterable[Statement]) -> "Rule":
        """The rule along ``morphism`` whose rhs holds the ``added`` statements
        and the lhs image."""
        if morphism.dom != lhs.context:
            raise MismatchError("rule morphism endpoints differ from the sketches")
        rhs = translate_index(morphism, lhs.index,
                              Sketch(morphism.cod, added).index)
        return unchecked(cls, dom=lhs, morphism=morphism,
                         cod=Sketch._from_index(morphism.cod, rhs))

    @property
    def lhs(self) -> Sketch:
        return self.dom

    @property
    def rhs(self) -> Sketch:
        return self.cod

    # Built on first use and kept on the instance; equality and hashing
    # still see only the fields.
    @cached_property
    def universal_constraint(self) -> Condition:
        """``uc`` of the rule: its matches are the violations of this closed
        condition."""
        return uc(self)


def _statement_set(cond: Condition):
    """Statements of a statement-conjunction node; None if not of that shape."""
    if isinstance(cond, Top):
        return frozenset()
    if isinstance(cond, Stmt):
        return frozenset([cond.statement])
    if isinstance(cond, And) and all(isinstance(c, Stmt) for c in cond.children):
        return frozenset(c.statement for c in cond.children)
    return None


def rule_from_condition(cond: Condition) -> Rule:
    """Extract a rule from a universally-constrained closed condition.

    Accepted shapes (S1, S2 statement conjunctions):
      - forall(L: exists(S1, a, S2))
      - forall(L: (S1 -> exists(a, S2)))   [implication encoded at identity]
      - forall(L: (S1 -> S2))              [rule morphism is the identity]
    """
    if not (isinstance(cond, Forall) and isinstance(cond.guard, Top)
            and cond.context.is_empty()):
        raise RuleShapeError("expected an unguarded closed universal condition")
    body = cond.body
    if not isinstance(body, Exists):
        raise RuleShapeError("universal body must be a guarded existential")
    premise = _statement_set(body.guard)
    if premise is None:
        raise RuleShapeError("existential guard must be a statement conjunction")
    l_ctx = body.context
    lhs = Sketch(l_ctx, premise)
    inner = body.body
    if body.shift == identity(l_ctx) and isinstance(inner, Exists) \
            and isinstance(inner.guard, Top):
        conclusion = _statement_set(inner.body)
        if conclusion is None:
            raise RuleShapeError(
                "inner existential body must be a statement conjunction")
        return Rule.build(lhs, inner.shift, conclusion)
    conclusion = _statement_set(inner)
    if conclusion is None:
        raise RuleShapeError("existential body must be a statement conjunction")
    return Rule.build(lhs, body.shift, conclusion)


def find_matches(rule: Rule, g: Sketch) -> list:
    """All matches of the rule in canonical order: the violations of its
    universal constraint ``uc(rule)``, i.e. the t: L -> G at which the premise
    statements hold and no completion along the rule morphism exists (the
    negative application condition)."""
    return list(iter_violations(initial_morphism(g.context), g,
                                rule.universal_constraint))


def apply_rule(rule: Rule, match: GraphMorphism, g: Sketch):
    """Apply the rule at a match by a sketch pushout.

    Returns ``(H, a_star: G -> H, t_star: R -> H)``.  The match must be one
    that :func:`find_matches` would return: a morphism L -> G at which the
    body of ``uc(rule)`` fails.
    """
    if (match.dom != rule.lhs.context or match.cod != g.context
            or satisfies(match, g, rule.universal_constraint.body).holds):
        raise MismatchError("morphism is not a valid match for this rule")
    return _apply(rule, match, g)


def _apply(rule: Rule, match: GraphMorphism, g: Sketch):
    """:func:`apply_rule` at a morphism known to be a match."""
    # the body of uc(rule) fails only where its guard, the premise, holds,
    # so the match preserves the lhs statements
    h, t_star, a_star = sketch_pushout(
        rule, unchecked(SketchMorphism, dom=rule.lhs, cod=g, morphism=match))
    return h, a_star, t_star


@dataclass(frozen=True)
class RepairStep:
    rule: Rule
    match: GraphMorphism
    result: Sketch
    a_star: SketchMorphism  # previous sketch -> result
    t_star: SketchMorphism  # rule rhs -> result


def repair_to_fixpoint(rules, g: Sketch, max_steps: int):
    """Repeatedly apply the first matching rule (rule order, then canonical
    match order), one application per iteration.  Only that first match is
    searched for: a rule's matches are drawn until one is found, and later
    rules are not tried once one has matched.  Each rule's universal
    constraint is checked once, before the first draw, and a drawn match is
    applied without being evaluated again.

    Returns ``(final sketch, steps, exhausted)``: ``steps`` is the list of
    :class:`RepairStep` in firing order, and ``exhausted`` is True when the
    step bound was reached while some rule still matched.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    constrained = [(rule, rule.universal_constraint) for rule in rules]
    for _, c in constrained:
        _check_well_formed(c)
    steps = []
    current = g
    while True:
        t = initial_morphism(current.context)
        fired = next(((rule, match) for rule, c in constrained
                      if (match := next(_violations(t, current, c), None))
                      is not None), None)
        if fired is None or len(steps) == max_steps:
            return current, steps, fired is not None
        rule, match = fired
        h, a_star, t_star = _apply(rule, match, current)
        steps.append(RepairStep(rule, match, h, a_star, t_star))
        current = h


def universal_elim(k: Constraint, t: GraphMorphism) -> Constraint:
    """From an unguarded universal constraint and an extension of its anchor,
    deduce the body constraint at the extension."""
    cond = k.condition
    if not (isinstance(cond, Forall) and isinstance(cond.guard, Top)):
        raise RuleShapeError("universal elimination needs an unguarded forall")
    if t.dom != cond.shift.cod or t.cod != k.anchor.cod:
        raise MismatchError("extension endpoints do not fit the constraint")
    if compose(cond.shift, t) != k.anchor:
        raise MismatchError("morphism is not an extension of the anchor")
    return Constraint(cond.body, t)


def modus_ponens(k: Constraint, g: Constraint) -> Constraint:
    """From (exists(guard, a, body), t) and the certified guard (guard, t),
    deduce the unguarded existential (exists(a, body), t)."""
    cond = k.condition
    if not isinstance(cond, Exists):
        raise RuleShapeError("modus ponens needs a guarded existential")
    if g.anchor != k.anchor:
        raise MismatchError("guard constraint must share the anchor")
    if g.condition != cond.guard:
        raise MismatchError("guard constraint must match the existential guard")
    return Constraint(unguarded_exists(cond.shift, cond.body), k.anchor)


def skolemize(k: Constraint, g: Sketch):
    """Materialize an unguarded existential constraint by a sketch pushout.

    The condition must be exists(a: L -> R, S2) with S2 a statement
    conjunction.  Returns ``(H, (S2, t_star), a_star: G -> H)``; the new
    constraint is certified on H by construction.
    """
    cond = k.condition
    if not (isinstance(cond, Exists) and isinstance(cond.guard, Top)):
        raise RuleShapeError("skolemization needs an unguarded existential")
    added = _statement_set(cond.body)
    if added is None:
        raise RuleShapeError("existential body must be a statement conjunction")
    if k.anchor.cod != g.context:
        raise MismatchError("constraint is not anchored in the sketch context")
    lhs = Sketch(cond.shift.dom)
    rule = Rule.build(lhs, cond.shift, added)
    t = SketchMorphism(lhs, g, k.anchor)
    h, t_star, a_star = sketch_pushout(rule, t)
    new = Constraint(statements_conj(rule.rhs.context, added), t_star.morphism)
    return h, new, a_star


def conj_intro(ks) -> Constraint:
    """Conjoin constraints sharing an anchor."""
    ks = list(ks)
    if not ks:
        raise ValueError("conjunction introduction needs a known anchor; "
                         "pass at least one constraint")
    anchor = ks[0].anchor
    for k in ks[1:]:
        if k.anchor != anchor:
            raise MismatchError("conjunction introduction needs a common anchor")
    return Constraint(conj(anchor.dom, (k.condition for k in ks)), anchor)


def conj_elim(k: Constraint) -> list:
    if not isinstance(k.condition, And):
        raise RuleShapeError("conjunction elimination needs a conjunction root")
    return [Constraint(child, k.anchor) for child in k.condition.children]


def statement_to_constraint(s: Statement, definition: Condition,
                            c: GraphMorphism) -> Constraint:
    """Instantiate a predicate's defining condition at a statement's binding.

    Returns (definition, c;binding).  Not automatically certified: this is
    the step that injects predicate meaning and may surface implicit
    knowledge, so the caller checks.
    """
    if definition.context != c.dom:
        raise MismatchError("defining condition must live over the morphism domain")
    if c.cod != s.predicate.arity:
        raise MismatchError("morphism must land in the predicate arity")
    return Constraint(definition, compose(c, s.binding))


def cstr_translate(phi: SketchMorphism, k: Constraint) -> Constraint:
    """Translate a constraint along a sketch morphism by post-composition."""
    if k.anchor.cod != phi.dom.context:
        raise MismatchError("constraint is not anchored in the morphism domain")
    return Constraint(k.condition, compose(k.anchor, phi.morphism))


class ConstrainedSketch:
    """A sketch with a store of constraints certified to hold on it."""

    __slots__ = ("sketch", "constraints", "certified")

    def __init__(self, sketch: Sketch, constraints: Iterable[Constraint] = (),
                 *, _certified: bool = True):
        constraints = frozenset(constraints)
        for k in constraints:
            if k.anchor.cod != sketch.context:
                raise MismatchError("constraint is not anchored in the sketch")
            if _certified and not check_constraint(sketch, k).holds:
                raise CertificationError("constraint does not hold on the sketch")
        object.__setattr__(self, "sketch", sketch)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "certified", _certified)

    @classmethod
    def unchecked(cls, sketch: Sketch,
                  constraints: Iterable[Constraint] = ()) -> "ConstrainedSketch":
        """Hypothesis store: constraints are NOT certified to hold."""
        return cls(sketch, constraints, _certified=False)

    def __setattr__(self, name, value):
        raise AttributeError("ConstrainedSketch is immutable")

    def with_constraint(self, k: Constraint) -> "ConstrainedSketch":
        """The store plus ``k``; only ``k`` is checked, the rest already was."""
        out = ConstrainedSketch(self.sketch, [k], _certified=self.certified)
        object.__setattr__(out, "constraints", self.constraints | {k})
        return out
