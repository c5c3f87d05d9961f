"""Semantic static analysis: containment, minimization, optimizer verification.

Three layers (ISSUE: chase-based semantic analyzer):

* :mod:`containment` — chase-based containment / equivalence of conjunctive
  queries with Skolem terms, null / non-null conditions and safe
  (negation-as-subset) bodies, in the style of Calì & Torlone's containment
  of schema mappings for data exchange;
* :mod:`minimize` — a mapping / program minimizer that removes rules and
  unitary mappings provably subsumed by the containment engine (the
  semantic generalization of the paper's §5 subsumption / implication
  pruning), emitting ``SEM001`` / ``SEM002`` diagnostics with witness
  homomorphisms;
* :mod:`verifier` — a differential verifier certifying the rewrites of
  :mod:`repro.datalog.optimize` and :mod:`repro.core.resolution` on
  canonical instances (``SEM003`` / ``SEM004``).
"""

from .containment import (
    ConjunctiveQuery,
    ContainmentEngine,
    Witness,
    contained_in,
    cq_from_rule,
    cq_from_tableau,
    cq_from_unitary,
    equivalent,
    mapping_implies,
    reset_default_engine,
)
from .minimize import MinimizationResult, minimize_program, minimize_unitary_mappings
from .verifier import VerificationReport, verify_result

__all__ = [
    "ConjunctiveQuery",
    "ContainmentEngine",
    "MinimizationResult",
    "VerificationReport",
    "Witness",
    "contained_in",
    "cq_from_rule",
    "cq_from_tableau",
    "cq_from_unitary",
    "equivalent",
    "mapping_implies",
    "minimize_program",
    "minimize_unitary_mappings",
    "reset_default_engine",
    "verify_result",
]
