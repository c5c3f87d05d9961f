"""The NOT NULL pass (CER003): a thin client of the nullability fixpoint.

Every mandatory target attribute is PROVED when the solved nullability
environment assigns its position ``NO`` (never null) or ``BOTTOM`` (no row
ever reaches it — vacuously satisfied).  Otherwise the pass hunts for a
concrete demonstration: for each rule that can place a null at the
position, it builds the egd closure of the rule body with the offending
head variable constrained null, realizes it as a valid source instance and
replays it through both engines.  A confirmed violation is a REFUTED
verdict with the minimized counterexample; an unconfirmed hunt stays
UNKNOWN — the fixpoint over-approximates, so ``MAYBE`` alone never refutes.
"""

from __future__ import annotations

from ...core.functionality import premise_closure
from ...datalog.program import DatalogProgram, Rule
from ...logic.terms import NullTerm, Variable
from ...model.instance import Instance
from ...obs import count
from ..flow.lattice import BOTTOM, NO
from ..flow.nullability import NullabilityAnalysis
from ..flow.solver import FlowResult, solve
from .closure import negation_refutation, rule_clause
from .counterexample import confirmed_counterexample, null_violation_check
from .report import PROVED, REFUTED, UNKNOWN, ConstraintVerdict


def certify_not_null(
    program: DatalogProgram,
    flow: FlowResult | None = None,
) -> list[ConstraintVerdict]:
    """One verdict per mandatory attribute of every target relation."""
    schema = program.target_schema
    if schema is None:
        return []
    if flow is None:
        flow = solve(program, NullabilityAnalysis(program))
    verdicts = []
    for relation in schema:
        for position, attribute in enumerate(relation.attributes):
            if attribute.nullable:
                continue
            verdict = _certify_attribute(
                program, flow, relation.name, attribute.name, position
            )
            verdict.span = attribute.span or relation.span
            count("certify.verdicts", 1, kind="not-null", verdict=verdict.verdict)
            verdicts.append(verdict)
    return verdicts


def _certify_attribute(
    program: DatalogProgram,
    flow: FlowResult,
    relation: str,
    attribute: str,
    position: int,
) -> ConstraintVerdict:
    constraint = f"NOT NULL {relation}.{attribute}"
    value = flow.value(relation, position)
    if value == NO:
        return ConstraintVerdict(
            kind="not-null",
            constraint=constraint,
            relation=relation,
            verdict=PROVED,
            witness=(
                f"nullability fixpoint proves {relation}.{attribute} is "
                f"never null (value NO)"
            ),
        )
    if value == BOTTOM:
        return ConstraintVerdict(
            kind="not-null",
            constraint=constraint,
            relation=relation,
            verdict=PROVED,
            witness=(
                f"no rule ever derives a row reaching {relation}.{attribute} "
                f"(value ⊥); the constraint holds vacuously"
            ),
        )
    # The fixpoint says MAYBE/YES — hunt for a concrete refutation.
    check = null_violation_check(relation, attribute)
    for rule in program.rules_for(relation):
        counterexample = _null_counterexample(program, rule, position, check)
        if counterexample is not None:
            return ConstraintVerdict(
                kind="not-null",
                constraint=constraint,
                relation=relation,
                verdict=REFUTED,
                reason=(
                    f"rule {rule!r} places null at {relation}.{attribute}; "
                    f"confirmed on both engines"
                ),
                counterexample=counterexample,
            )
    return ConstraintVerdict(
        kind="not-null",
        constraint=constraint,
        relation=relation,
        verdict=UNKNOWN,
        reason=(
            f"nullability fixpoint reports {value!r} at "
            f"{relation}.{attribute} but no counterexample could be "
            f"confirmed on both engines"
        ),
    )


def _null_counterexample(
    program: DatalogProgram,
    rule: Rule,
    position: int,
    check,
) -> Instance | None:
    """A valid source instance making this rule emit null at ``position``."""
    term = rule.head.terms[position]
    closure = premise_closure(rule_clause(rule).premise, program.source_schema)
    if isinstance(term, Variable):
        closure.equate(term, NullTerm())
    elif not isinstance(term, NullTerm):
        return None  # constants and Skolem terms are never the unlabeled null
    closure.saturate()
    if closure.contradiction is not None:
        return None
    if negation_refutation(closure, rule.negated, program) is not None:
        return None  # the rule body can never fire under this constraint
    return confirmed_counterexample(program, closure, check)
