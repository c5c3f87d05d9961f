"""Rule bodies in the egd closure, and negation refutation over its freeze.

The key certifier asks: can two firings of target rules agree on a target
key but disagree elsewhere?  The classical way to answer is to *chase* the
pair with the available equality-generating dependencies — here the source
key → row functional dependencies of §3.1 — after asserting the key
equalities, and look for either a contradiction (the firings can never
collide) or full row agreement (collisions always coincide).

The chase is :class:`repro.logic.satisfiability.EgdClosure`, the same
closure the functionality and key-conflict checks of Algorithm 4 use.  This
module loads Datalog rules into it (:func:`add_rule`) and refutes negated
premises over the frozen combined body (:func:`negation_refutation`, via
:meth:`~repro.logic.satisfiability.EgdClosure.freeze`).  For the pair
analysis a :attr:`~repro.logic.satisfiability.EgdClosure.contradiction`
*is* the proof that the two firings can never share a key.
"""

from __future__ import annotations

from ...datalog.program import DatalogProgram, Rule
from ...logic.satisfiability import (
    EgdClosure,
    bind_structurally,
    conditioned_homomorphisms,
    conditions_hold,
)
from ...logic.terms import Term, Variable


def add_rule(closure: EgdClosure, rule: Rule) -> None:
    """Load one rule's body atoms and conditions into the closure."""
    closure.load(
        rule.body,
        rule.null_vars,
        rule.nonnull_vars,
        rule.equalities,
        rule.disequalities,
    )


def rename_rule(rule: Rule) -> Rule:
    """A copy of ``rule`` over fresh variables (for self-pair analysis)."""
    mapping: dict[Variable, Term] = {}
    for var in rule.body_variables():
        mapping.setdefault(var, Variable(var.name + "'"))
    for term in rule.head.terms:
        for var in term.variables():
            mapping.setdefault(var, Variable(var.name + "'"))
    return Rule(
        head=rule.head.substitute(mapping),
        body=tuple(a.substitute(mapping) for a in rule.body),
        negated=tuple(a.substitute(mapping) for a in rule.negated),
        null_vars=tuple(mapping.get(v, v) for v in rule.null_vars),
        nonnull_vars=tuple(mapping.get(v, v) for v in rule.nonnull_vars),
        equalities=tuple(e.substitute(mapping) for e in rule.equalities),
        disequalities=tuple(d.substitute(mapping) for d in rule.disequalities),
    )


def negation_refutation(
    closure: EgdClosure,
    rules: "tuple[Rule, ...] | list",
    program: DatalogProgram,
) -> str | None:
    """A proof that some ``not N(args)`` premise fails on the combined body.

    For every negated premise of the given rules, evaluate ``N`` over the
    frozen combined body: a condition-respecting homomorphism from one of
    ``N``'s defining rules whose head maps onto ``args`` shows ``N(args)``
    holds whenever the combined body does — contradicting the negation, so
    the combination never fires.  Returns the rendered proof, or ``None``.

    Sound because freezing only *instantiates* the combined body: anything
    derivable from the frozen atoms is derivable from every instance the
    body matches.  Defining rules with their own negations are skipped
    (conservative).
    """
    if closure.contradiction is not None:
        return None
    frozen_atoms, substitution = closure.freeze()
    for rule in rules:
        for negated in rule.negated:
            frozen_args = [t.substitute(substitution) for t in negated.terms]
            for defining in program.rules_for(negated.relation):
                if defining.negated:
                    continue  # nested negation: stay conservative
                fixed: dict[Variable, Term] = {}
                if not bind_structurally(defining.head.terms, frozen_args, fixed):
                    continue
                if any(
                    conditions_hold(
                        theta, defining.equalities, defining.disequalities
                    )
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
