"""Standard query optimization on generated programs.

The paper's Example 6.8 notes that "it is then possible to perform some
standard query optimization, e.g., the second rule can be dropped, since it
is subsumed by the first rule".  :func:`remove_subsumed_rules` implements
exactly that: a rule ``r`` is dropped when another rule ``r'`` with the same
head relation derives every tuple ``r`` derives — witnessed by a
homomorphism θ with ``θ(head') = head``, ``θ(body') ⊆ body``, the conditions
of ``r'`` implied by those of ``r``, and ``θ(negations') ⊆ negations``.
The scan (:func:`repro.logic.redundancy.redundant`) compares rules of one
head relation and arity only, and keeps the earlier of two duplicates.
"""

from __future__ import annotations

from ..logic.atoms import RelationalAtom
from ..logic.homomorphism import (
    Marks,
    PreparedClause,
    condition_check,
    dominated,
    find_homomorphism,
    pattern_marks,
)
from ..logic.redundancy import redundant
from ..obs import count
from .program import DatalogProgram, Rule

_HEAD = "__head__"


def _with_head_marker(rule: Rule) -> list[RelationalAtom]:
    return [RelationalAtom(_HEAD, rule.head.terms), *rule.body]


def prepared_rule(rule: Rule) -> PreparedClause:
    """``rule``'s head (under a marker relation) and body, prepared once."""
    return PreparedClause(_with_head_marker(rule), rule.null_vars, rule.nonnull_vars)


def subsumes_rule(
    general: Rule,
    specific: Rule,
    clauses: tuple[PreparedClause, PreparedClause] | None = None,
) -> bool:
    """True iff every tuple derived by ``specific`` is derived by ``general``.

    ``clauses`` are the two rules' :func:`prepared_rule`, when the caller
    compares each rule more than once.
    """
    if general.head_relation != specific.head_relation:
        return False
    if general.head.arity != specific.head.arity:
        return False
    pattern, target = clauses or (prepared_rule(general), prepared_rule(specific))
    check = condition_check(general.null_vars, general.nonnull_vars, target)
    assignment = find_homomorphism(pattern.atoms, target, var_check=check)
    if assignment is None:
        return False
    specific_equalities = {
        (repr(e.left), repr(e.right)) for e in specific.equalities
    } | {(repr(e.right), repr(e.left)) for e in specific.equalities}
    for equality in general.equalities:
        left = equality.left.substitute(assignment)
        right = equality.right.substitute(assignment)
        if repr(left) == repr(right):
            continue
        if (repr(left), repr(right)) not in specific_equalities:
            return False
    specific_disequalities = {
        (repr(d.left), repr(d.right)) for d in specific.disequalities
    } | {(repr(d.right), repr(d.left)) for d in specific.disequalities}
    for disequality in general.disequalities:
        left = disequality.left.substitute(assignment)
        right = disequality.right.substitute(assignment)
        if (repr(left), repr(right)) not in specific_disequalities:
            return False
    specific_negated = {repr(a) for a in specific.negated}
    for atom in general.negated:
        if repr(atom.substitute(assignment)) not in specific_negated:
            return False
    return True


def remove_subsumed_rules(program: DatalogProgram) -> DatalogProgram:
    """Drop rules subsumed by other rules (and exact duplicates).

    Each rule compared is prepared once; a pair whose marks rule out the
    homomorphism (:func:`~repro.logic.homomorphism.dominated`) is not
    searched, and is counted as ``signature.dominance_skips``.
    """
    rules = program.rules
    prepared: dict[int, tuple[PreparedClause, Marks]] = {}

    def prepare(index: int) -> tuple[PreparedClause, Marks]:
        if index not in prepared:
            rule = rules[index]
            clause = prepared_rule(rule)
            prepared[index] = clause, pattern_marks(
                clause.atoms, rule.null_vars, rule.nonnull_vars
            )
        return prepared[index]

    def covers(general: int, specific: int) -> bool:
        (pattern, marks), (target, _) = prepare(general), prepare(specific)
        if not dominated(marks, target):
            count("signature.dominance_skips")
            return False
        return subsumes_rule(rules[general], rules[specific], (pattern, target))

    removed = redundant(
        range(len(rules)),
        covers,
        key=lambda index: (rules[index].head_relation, rules[index].head.arity),
    )
    kept = [rule for i, rule in enumerate(rules) if i not in removed]
    return drop_dead_intermediates(program, kept)


def drop_dead_intermediates(
    program: DatalogProgram, kept: list[Rule]
) -> DatalogProgram:
    """Rebuild ``program`` from ``kept``, dropping unreferenced intermediates.

    Shared by :func:`remove_subsumed_rules` and the semantic minimizer
    (:mod:`repro.analysis.semantic.minimize`).
    """
    referenced = {
        a.relation for r in kept for a in list(r.body) + list(r.negated)
    }
    final = [
        r
        for r in kept
        if r.head_relation not in program.intermediates
        or r.head_relation in referenced
    ]
    intermediates = {
        name: arity
        for name, arity in program.intermediates.items()
        if name in referenced
    }
    return DatalogProgram(
        rules=final,
        source_schema=program.source_schema,
        target_schema=program.target_schema,
        intermediates=intermediates,
    )
