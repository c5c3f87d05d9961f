"""The key pass (CER001): egd-style proofs that target keys hold.

A target key ``key(R)`` holds in every chase result iff no two rule
firings (of the same rule or of two different rules for ``R``) can agree on
the key positions yet produce different rows.  The pass decomposes the
proof obligation accordingly:

* *within one rule* — the PR 4 key-origin functionality records
  (Algorithm 4, step 2 lifted to a static FD closure): a confirmed record
  proves any two firings of that rule agreeing on the key emit the same
  row.  Unconfirmed records fall back to the pair analysis against a
  renamed copy of the rule.

* *across two rules* — the combined bodies are loaded into an
  :class:`~repro.logic.satisfiability.EgdClosure`, the key head terms
  are equated, and the closure is saturated under the source FDs.  The pair
  is then harmless when one of these holds, each yielding a one-line proof:

  1. the constraints are contradictory (disjoint Skolem ranges, an
     invented-vs-ground clash, a null condition against a non-null one, a
     violated disequality, two distinct constants) — the firings can never
     share a key;
  2. some negated premise of either rule is contradicted: the negated
     intermediate relation is derivable from the combined bodies
     themselves, so the combination never fires (the paper's key-conflict
     resolution installs exactly these negations, §6);
  3. all head positions are provably equal — colliding firings emit
     identical rows, which set semantics deduplicates.

Any pair surviving all three is a *suspected* violation: the closure is
realized as a concrete valid source instance and replayed through both
engines (:mod:`.counterexample`); only a confirmed, minimized
counterexample refutes the key, otherwise the verdict is UNKNOWN.
"""

from __future__ import annotations

from ...datalog.program import DatalogProgram, Rule
from ...logic.satisfiability import EgdClosure
from ...obs import count
from ..flow.keyorigin import FunctionalityRecord, functionality_records
from .closure import add_rule, negation_refutation, rename_rule
from .counterexample import confirmed_counterexample, key_violation_check
from .report import PROVED, REFUTED, UNKNOWN, ConstraintVerdict


def certify_keys(program: DatalogProgram) -> list[ConstraintVerdict]:
    """One verdict per target-relation key."""
    schema = program.target_schema
    if schema is None:
        return []
    records = {
        id(record.rule): record for record in functionality_records(program)
    }
    verdicts = []
    for relation in schema:
        verdict = _certify_relation_key(program, relation, records)
        verdict.span = relation.span
        count("certify.verdicts", 1, kind="key", verdict=verdict.verdict)
        verdicts.append(verdict)
    return verdicts


def _certify_relation_key(
    program: DatalogProgram,
    relation,
    records: dict[int, FunctionalityRecord],
) -> ConstraintVerdict:
    name = relation.name
    constraint = f"key of {name} ({', '.join(relation.key)})"
    rules = program.rules_for(name)
    key_positions = relation.key_positions()
    proofs: list[str] = []
    unknowns: list[str] = []

    if not rules:
        return ConstraintVerdict(
            kind="key",
            constraint=constraint,
            relation=name,
            verdict=PROVED,
            witness=f"no rule derives {name}; the key holds vacuously",
        )

    # Within-rule functionality (two firings of the same rule).
    for index, rule in enumerate(rules):
        record = records.get(id(rule))
        if record is not None and record.confirmed:
            proofs.append(
                f"rule {index}: key functionally determines the row "
                f"(static FD closure, Algorithm 4 step 2)"
            )
            continue
        outcome = _analyze_pair(
            program, rule, rename_rule(rule), key_positions, name
        )
        if outcome.proof is not None:
            proofs.append(f"rule {index} (self-pair): {outcome.proof}")
        elif outcome.counterexample is not None:
            return _refuted(constraint, name, f"rule {index}", outcome)
        else:
            unknowns.append(
                f"rule {index}: functionality not statically confirmed "
                f"and no counterexample confirmed"
            )

    # Cross-rule pairs.
    for i, first in enumerate(rules):
        for j in range(i + 1, len(rules)):
            outcome = _analyze_pair(
                program, first, rename_rule(rules[j]), key_positions, name
            )
            if outcome.proof is not None:
                proofs.append(f"rules {i}+{j}: {outcome.proof}")
            elif outcome.counterexample is not None:
                return _refuted(constraint, name, f"rules {i}+{j}", outcome)
            else:
                unknowns.append(
                    f"rules {i}+{j}: neither disjointness nor row agreement "
                    f"provable, no counterexample confirmed"
                )

    if unknowns:
        return ConstraintVerdict(
            kind="key",
            constraint=constraint,
            relation=name,
            verdict=UNKNOWN,
            reason="; ".join(unknowns),
        )
    return ConstraintVerdict(
        kind="key",
        constraint=constraint,
        relation=name,
        verdict=PROVED,
        witness="; ".join(proofs),
    )


class _PairOutcome:
    __slots__ = ("proof", "counterexample")

    def __init__(self, proof=None, counterexample=None):
        self.proof = proof
        self.counterexample = counterexample


def _refuted(constraint, name, which, outcome) -> ConstraintVerdict:
    return ConstraintVerdict(
        kind="key",
        constraint=constraint,
        relation=name,
        verdict=REFUTED,
        reason=(
            f"{which} can emit two rows agreeing on the key but differing "
            f"elsewhere; confirmed on both engines"
        ),
        counterexample=outcome.counterexample,
    )


def _analyze_pair(
    program: DatalogProgram,
    first: Rule,
    second: Rule,
    key_positions: tuple[int, ...],
    relation: str,
) -> _PairOutcome:
    """Can firings of ``first`` and ``second`` collide on the key?

    ``second`` must already be variable-disjoint from ``first`` (renamed).
    """
    closure = EgdClosure(schema=program.source_schema)
    add_rule(closure, first)
    add_rule(closure, second)
    for position in key_positions:
        closure.equate(first.head.terms[position], second.head.terms[position])
    closure.saturate()
    if closure.contradiction is not None:
        return _PairOutcome(proof=f"key-equal firings impossible: {closure.contradiction}")
    negation_proof = negation_refutation(closure, (first, second), program)
    if negation_proof is not None:
        return _PairOutcome(
            proof=f"key-equal firings impossible: {negation_proof}"
        )
    disagreeing = [
        position
        for position in range(len(first.head.terms))
        if not closure.terms_equal(
            first.head.terms[position], second.head.terms[position]
        )
    ]
    if not disagreeing:
        return _PairOutcome(
            proof=(
                "key-equal firings provably emit identical rows "
                "(FD closure over the combined bodies)"
            )
        )
    counterexample = confirmed_counterexample(
        program, closure, key_violation_check(relation)
    )
    return _PairOutcome(counterexample=counterexample)
