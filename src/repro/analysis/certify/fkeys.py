"""The foreign-key pass (CER002): referential integrity as CQ containment.

A target foreign key ``R.a → S`` holds iff every non-null value the program
places at ``R.a`` also shows up as the key of some ``S`` row *of the same
chase result*.  Per delivering rule ``r`` of ``R`` this is a containment of
conjunctive queries (the Calì–Torlone reduction):

    Q_fk  =  { r.head[a] | body(r), r.head[a] ≠ null }
    Q_key =  { s.head[key(S)] | body(s) }        for some rule s of S

``Q_fk ⊆ Q_key`` means each firing of ``r`` is matched by a firing of ``s``
emitting the referenced key — the PR 3 containment engine produces the
homomorphism witness.  Rules that place ``null`` (or an always-null
variable) at the position satisfy the constraint trivially; the paper's
data model lets null foreign keys dangle (§3.1).

Both queries are enriched with *schema-derived* non-null marks — a variable
bound at a mandatory source position can never be null in a valid source
instance — which is exactly the extra knowledge the generic containment
engine does not assume.  When no referenced rule contains ``Q_fk`` the pass
hunts for a counterexample (rule body realized with the FK value non-null,
replayed through both engines); confirmation refutes, otherwise UNKNOWN.
"""

from __future__ import annotations

from dataclasses import replace

from ...core.functionality import premise_closure
from ...datalog.program import DatalogProgram, Rule
from ...logic.terms import NullTerm, Variable
from ...obs import count
from ..semantic.containment import (
    ConjunctiveQuery,
    ContainmentEngine,
    Witness,
    cq_from_rule,
)
from .closure import negation_refutation, rule_clause
from .counterexample import confirmed_counterexample, fk_violation_check
from .report import PROVED, REFUTED, UNKNOWN, ConstraintVerdict

#: A private head label shared by both sides of every FK containment check
#: (the engine requires equal labels; FK projections have no relation name).
_HEAD_LABEL = "__certify_fk__"


def certify_foreign_keys(program: DatalogProgram) -> list[ConstraintVerdict]:
    """One verdict per foreign key of the target schema."""
    schema = program.target_schema
    if schema is None:
        return []
    engine = ContainmentEngine()
    verdicts = []
    for fk in schema.foreign_keys:
        verdict = _certify_foreign_key(program, engine, fk)
        verdict.span = fk.span
        count("certify.verdicts", 1, kind="foreign-key", verdict=verdict.verdict)
        verdicts.append(verdict)
    return verdicts


def _certify_foreign_key(
    program: DatalogProgram, engine: ContainmentEngine, fk
) -> ConstraintVerdict:
    schema = program.target_schema
    constraint = f"{fk.relation}.{fk.attribute} -> {fk.referenced}"
    position = schema.relation(fk.relation).position(fk.attribute)
    key_position = schema.relation(fk.referenced).position(
        schema.relation(fk.referenced).key[0]
    )
    referenced_rules = program.rules_for(fk.referenced)
    proofs: list[str] = []
    unknowns: list[str] = []

    for index, rule in enumerate(program.rules_for(fk.relation)):
        term = rule.head.terms[position]
        if isinstance(term, NullTerm) or (
            isinstance(term, Variable) and term in rule.null_vars
        ):
            proofs.append(
                f"rule {index}: always places null at {fk.attribute} — "
                f"null foreign keys satisfy the constraint (§3.1)"
            )
            continue
        witness = _containment_proof(
            engine, rule, term, referenced_rules, key_position, program
        )
        if witness is not None:
            proofs.append(f"rule {index}: {witness}")
            continue
        counterexample = _fk_counterexample(program, rule, term, fk)
        if counterexample is not None:
            return ConstraintVerdict(
                kind="foreign-key",
                constraint=constraint,
                relation=fk.relation,
                verdict=REFUTED,
                reason=(
                    f"rule {index} ({rule!r}) emits a dangling "
                    f"{fk.attribute} value; confirmed on both engines"
                ),
                counterexample=counterexample,
            )
        unknowns.append(
            f"rule {index}: FK projection not provably contained in any "
            f"{fk.referenced} key query, no counterexample confirmed"
        )

    if unknowns:
        return ConstraintVerdict(
            kind="foreign-key",
            constraint=constraint,
            relation=fk.relation,
            verdict=UNKNOWN,
            reason="; ".join(unknowns),
        )
    if not proofs:
        proofs.append(
            f"no rule derives {fk.relation}; the constraint holds vacuously"
        )
    return ConstraintVerdict(
        kind="foreign-key",
        constraint=constraint,
        relation=fk.relation,
        verdict=PROVED,
        witness="; ".join(proofs),
    )


def _schema_nonnull_vars(rule: Rule, program: DatalogProgram) -> set[Variable]:
    """Variables bound at mandatory source positions (never null when the
    body matches a valid source instance)."""
    schema = program.source_schema
    found: set[Variable] = set()
    if schema is None:
        return found
    for atom in rule.body:
        if atom.relation not in schema:
            continue
        relation = schema.relation(atom.relation)
        for index, term in enumerate(atom.terms):
            if (
                isinstance(term, Variable)
                and index < relation.arity
                and not relation.attributes[index].nullable
            ):
                found.add(term)
    return found


def _fk_query(
    rule: Rule, term, program: DatalogProgram
) -> ConjunctiveQuery:
    """The FK-projection query of one delivering rule, restricted non-null."""
    query = cq_from_rule(rule)
    nonnull = set(query.nonnull_vars) | _schema_nonnull_vars(rule, program)
    if isinstance(term, Variable):
        nonnull.add(term)
    return replace(
        query, head_label=_HEAD_LABEL, head=(term,), nonnull_vars=frozenset(nonnull)
    )


def _key_query(rule: Rule, key_position: int) -> ConjunctiveQuery:
    """The referenced-key projection query of one referenced-relation rule."""
    return replace(
        cq_from_rule(rule),
        head_label=_HEAD_LABEL,
        head=(rule.head.terms[key_position],),
    )


def _containment_proof(
    engine: ContainmentEngine,
    rule: Rule,
    term,
    referenced_rules: list[Rule],
    key_position: int,
    program: DatalogProgram,
) -> str | None:
    fk_query = _fk_query(rule, term, program)
    for ref_index, referenced in enumerate(referenced_rules):
        witness: Witness | None = engine.contained_in(
            fk_query, _key_query(referenced, key_position)
        )
        if witness is not None:
            return (
                f"FK projection contained in {referenced.head_relation} key "
                f"query of rule {ref_index} — witness {witness.render()}"
            )
    return None


def _fk_counterexample(program: DatalogProgram, rule: Rule, term, fk):
    """A valid source instance making ``rule`` emit a dangling FK value."""
    closure = premise_closure(rule_clause(rule).premise, program.source_schema)
    if isinstance(term, Variable):
        # The FK constraint only bites for non-null values.
        if closure.info(term).null:
            return None
        closure.mark_nonnull(term)
    closure.saturate()
    if closure.contradiction is not None:
        return None
    if negation_refutation(closure, rule.negated, program) is not None:
        return None
    return confirmed_counterexample(
        program, closure, fk_violation_check(fk.relation, fk.attribute)
    )
