"""Translation of conditions along context morphisms via chosen pushouts.

Statement leaves translate by post-composition, connectives homomorphically,
and quantifiers via the chosen pushout of the span H <- K -> M: the shift is
replaced by the opposite injection and the body is translated along the other
one.  When the translating morphism is an isomorphism the chosen pushout is
the degenerate cospan (c^-1;a, id), which keeps translated conditions
readable and makes identity translation structurally trivial.
"""
from __future__ import annotations

from .category import pushout
from .conditions import Condition, Quantifier, Stmt
from .graphs import (GraphMorphism, MismatchError, compose, identity, invert,
                     is_isomorphism)
from .sketches import translate_statement


def chosen_pushout(c: GraphMorphism, a: GraphMorphism):
    """Chosen pushout of the span H <-c- K -a-> M.

    Returns ``(a_star: H -> M_c, c_star: M -> M_c)``.
    """
    if c.dom != a.dom:
        raise MismatchError("chosen pushout needs a span with a common domain")
    if is_isomorphism(c):
        return compose(invert(c), a), identity(a.cod)
    po = pushout(c, a)  # left: H -> D, right: M -> D
    return po.left, po.right


def translate_condition(c: GraphMorphism, cond: Condition) -> Condition:
    """Translate a condition over K into a condition over H along c: K -> H."""
    if c.dom != cond.context:
        raise MismatchError("translation morphism must start at the condition context")
    h = c.cod
    if isinstance(cond, Stmt):
        return Stmt(h, translate_statement(c, cond.statement))
    if isinstance(cond, Quantifier):
        a_star, c_star = chosen_pushout(c, cond.shift)
        return type(cond)(h, translate_condition(c, cond.guard), a_star,
                          translate_condition(c_star, cond.body))
    return cond.rebuild(h, [translate_condition(c, x)
                            for x in cond.subconditions()])

