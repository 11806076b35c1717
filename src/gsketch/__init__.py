"""Constraint engine for generalized sketches over finite directed multigraphs."""

from types import ModuleType as _ModuleType

from .graphs import (Graph, GraphMorphism, MismatchError, NotInvertibleError,
                     compose, enumerate_extensions, enumerate_morphisms,
                     graph_of, identity, invert, is_isomorphism,
                     is_monomorphism, iter_extensions, morphism_of)
from .category import (PullbackResult, PushoutResult, initial_morphism,
                       pullback, pushout)
from .sketches import (Footprint, PredicateSymbol, Sketch, SketchMorphism,
                       Statement, is_sketch_morphism, sketch_pullback,
                       sketch_pushout, translate_statement)
from .conditions import (And, Bottom, Condition, Constraint, Exists, Forall,
                         Junction, Not, Or, Quantifier, Stmt, Top, Verdict,
                         check_constraint, conj, implication, is_closed,
                         iter_violations, nuc, satisfies, statements_conj,
                         stmt, uc, unguarded_exists, unguarded_forall,
                         well_formed)
from .translation import chosen_pushout, translate_condition
from .deduction import (CertificationError, ConstrainedSketch, Rule,
                        RuleShapeError, apply_rule, conj_elim, conj_intro,
                        cstr_translate, find_matches, modus_ponens,
                        repair_to_fixpoint, rule_from_condition, skolemize,
                        statement_to_constraint, universal_elim)
from .ct import (CT_FOOTPRINT, colimit_condition, comp_stmt, cone_contexts,
                 final_stmt, limit_condition, monic_stmt, unfold)
from .dsl import (Document, ParseError, ResolutionError, ValidationError,
                  format_condition, parse, parse_files, print_document)

# the names imported above; the submodules are attributes of the package too
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]

__version__ = "0.1.0"
