"""Rules as pair-checker clauses, and negation refutation over a freeze.

The key certifier asks of two target rules what Algorithm 4's
functionality and key-conflict checks ask of two unitary mappings: can
two firings agree on a target key but disagree elsewhere?  The answer is
the chase of the pair under the source key → row FDs of §3.1, after
asserting the key equalities: a contradiction (the firings never collide)
or full row agreement (collisions coincide).  One code chases a pair,
:class:`repro.core.functionality.PairChecker`; :func:`rule_clause` makes
a rule its clause, which the single-rule passes load through the same
:func:`~repro.core.functionality.premise_closure`.
:func:`negation_refutation` refutes negated premises over the frozen
combined body (:meth:`~repro.logic.satisfiability.EgdClosure.freeze`).
"""

from __future__ import annotations

from typing import Iterable

from ...datalog.program import DatalogProgram, Rule
from ...logic.atoms import RelationalAtom
from ...logic.mappings import Premise, UnitaryMapping
from ...logic.satisfiability import (
    EgdClosure,
    bind_structurally,
    conditioned_homomorphisms,
    conditions_hold,
)
from ...logic.terms import Term, Variable


def rule_clause(rule: Rule) -> UnitaryMapping:
    """``rule`` as a pair-checker clause: its head over a premise of its
    body and conditions (its negated atoms stay with the rule)."""
    conditions = rule.null_vars, rule.nonnull_vars, rule.equalities, rule.disequalities
    return UnitaryMapping(Premise(rule.body, *conditions), rule.head)


def negation_refutation(
    closure: EgdClosure,
    negated_atoms: Iterable[RelationalAtom],
    program: DatalogProgram,
) -> str | None:
    """A proof that some ``not N(args)`` premise fails on the combined body.

    ``negated_atoms`` are the negated premises of the rules loaded into
    ``closure``, over the closure's variables.  For every one, evaluate
    ``N`` over the frozen combined body: a condition-respecting
    homomorphism from one of ``N``'s defining rules whose head maps onto
    ``args`` shows ``N(args)`` holds whenever the combined body does —
    contradicting the negation, so the combination never fires.  Returns
    the rendered proof, or ``None``.

    Sound because freezing only *instantiates* the combined body: anything
    derivable from the frozen atoms is derivable from every instance the
    body matches.  Defining rules with their own negations are skipped
    (conservative).
    """
    if closure.contradiction is not None:
        return None
    frozen_atoms, substitution = closure.freeze()
    for negated in negated_atoms:
        frozen_args = [t.substitute(substitution) for t in negated.terms]
        for defining in program.rules_for(negated.relation):
            if defining.negated:
                continue  # nested negation: stay conservative
            fixed: dict[Variable, Term] = {}
            if not bind_structurally(defining.head.terms, frozen_args, fixed):
                continue
            if any(
                conditions_hold(theta, defining.equalities, defining.disequalities)
                for theta in conditioned_homomorphisms(
                    defining.body,
                    frozen_atoms,
                    defining.null_vars,
                    defining.nonnull_vars,
                    fixed,
                )
            ):
                return (
                    f"¬{negated.relation}({', '.join(map(repr, negated.terms))})"
                    f" is contradicted: {negated.relation} is derivable "
                    f"from the combined bodies via "
                    f"{defining.head.relation} <- "
                    + ", ".join(repr(a) for a in defining.body)
                )
    return None
