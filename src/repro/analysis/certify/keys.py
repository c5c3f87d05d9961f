"""The key pass (CER001): egd-style proofs that target keys hold.

A target key ``key(R)`` holds in every chase result iff no two rule
firings (of the same rule or of two different rules for ``R``) can agree on
the key positions yet produce different rows.  The pass decomposes the
proof obligation accordingly:

* *within one rule* — the key-origin functionality records (Algorithm 4,
  step 2 lifted to a static FD closure): a confirmed record proves any two
  firings of that rule agreeing on the key emit the same row.  Unconfirmed
  records fall back to the pair analysis of the rule's self pair.

* *across two rules* — the pair analysis of the two rules.

The pair analysis is Algorithm 4's own: one
:class:`~repro.core.functionality.PairChecker` per target relation holds
its rules (:func:`~.closure.rule_clause`), renames each rule once and
closes each body once per side.  A pair's closure joins the two closed
bodies, equates the key head terms and saturates under the source FDs.
The pair is then harmless when one of these holds, each yielding a
one-line proof:

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

from functools import partial

from ...core.functionality import PairChecker
from ...datalog.program import DatalogProgram, Rule
from ...model.instance import Instance
from ...obs import count
from ..flow.keyorigin import FunctionalityRecord, functionality_records
from .closure import negation_refutation, rule_clause
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
    key_verdict = partial(
        ConstraintVerdict,
        kind="key",
        constraint=f"key of {name} ({', '.join(relation.key)})",
        relation=name,
    )
    rules = program.rules_for(name)
    if not rules:
        return key_verdict(
            verdict=PROVED,
            witness=f"no rule derives {name}; the key holds vacuously",
        )

    checker = PairChecker(
        [rule_clause(rule) for rule in rules],
        program.source_schema,
        program.target_schema,
    )
    proofs: list[str] = []
    unknowns: list[str] = []
    # Within-rule functionality (two firings of the same rule).
    for index, rule in enumerate(rules):
        record = records.get(id(rule))
        if record is not None and record.confirmed:
            proofs.append(
                f"rule {index}: key functionally determines the row "
                f"(static FD closure, Algorithm 4 step 2)"
            )
            continue
        proof, counterexample = _pair_outcome(program, checker, rules, index, index)
        if proof is not None:
            proofs.append(f"rule {index} (self-pair): {proof}")
        elif counterexample is not None:
            return _refuted(key_verdict, f"rule {index}", counterexample)
        else:
            unknowns.append(
                f"rule {index}: functionality not statically confirmed "
                f"and no counterexample confirmed"
            )

    # Cross-rule pairs.
    for i in range(len(rules)):
        for j in range(i + 1, len(rules)):
            proof, counterexample = _pair_outcome(program, checker, rules, i, j)
            if proof is not None:
                proofs.append(f"rules {i}+{j}: {proof}")
            elif counterexample is not None:
                return _refuted(key_verdict, f"rules {i}+{j}", counterexample)
            else:
                unknowns.append(
                    f"rules {i}+{j}: neither disjointness nor row agreement "
                    f"provable, no counterexample confirmed"
                )

    if unknowns:
        return key_verdict(verdict=UNKNOWN, reason="; ".join(unknowns))
    return key_verdict(verdict=PROVED, witness="; ".join(proofs))


def _refuted(key_verdict, which: str, counterexample: Instance) -> ConstraintVerdict:
    return key_verdict(
        verdict=REFUTED,
        reason=(
            f"{which} can emit two rows agreeing on the key but differing "
            f"elsewhere; confirmed on both engines"
        ),
        counterexample=counterexample,
    )


def _pair_outcome(
    program: DatalogProgram,
    checker: PairChecker,
    rules: list[Rule],
    left: int,
    right: int,
) -> tuple[str | None, Instance | None]:
    """Can firings of ``rules[left]`` and ``rules[right]`` collide on the key?

    ``rules`` are the checker's rules; ``right`` is taken renamed apart, so
    ``left == right`` is the self pair.  Returns a one-line proof that they
    cannot, or else a confirmed counterexample, or neither.
    """
    contradiction = checker.clash(left, right)
    if contradiction is not None:
        return f"key-equal firings impossible: {contradiction}", None
    closure, pairs = checker.pair(left, right)
    if closure.contradiction is not None:
        return f"key-equal firings impossible: {closure.contradiction}", None
    renaming = checker.renaming(right)
    negated = rules[left].negated + tuple(
        atom.substitute(renaming) for atom in rules[right].negated
    )
    negation_proof = negation_refutation(closure, negated, program)
    if negation_proof is not None:
        return f"key-equal firings impossible: {negation_proof}", None
    if all(closure.terms_equal(*terms) for terms in pairs):
        return (
            "key-equal firings provably emit identical rows "
            "(FD closure over the combined bodies)",
            None,
        )
    check = key_violation_check(rules[left].head_relation)
    return None, confirmed_counterexample(program, closure, check)
