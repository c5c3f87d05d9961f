"""The functionality check of Algorithm 4 (step 2).

A unitary logical mapping ``m = φ(x) → R(t_key, t_v1, ...)`` is *functional*
when it cannot, on its own, violate the key constraint of ``R``: for every
non-key position ``v`` the query ``φ(k, v) ∧ φ(k', v') ∧ k = k' ∧ v ≠ v'``
must be unsatisfiable over instances satisfying the source constraints.

The check doubles the premise with fresh variables, equates the two copies'
key terms (decomposing Skolem terms via injectivity), closes the pair once
under the source key dependencies, and probes each non-key position against
that closure.  The key-conflict check of :mod:`repro.core.conflicts` probes
two different mappings the same way (:func:`differing_positions`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..analysis.diagnostics import Diagnostic, diagnostic
from ..logic.mappings import Premise, UnitaryMapping
from ..logic.satisfiability import EgdClosure
from ..logic.terms import Term, Variable
from ..model.schema import Schema
from ..obs import count, span


def rename_premise(premise: Premise) -> tuple[Premise, dict[Variable, Term]]:
    """A copy of a premise with fresh variables, plus the renaming used."""
    renaming: dict[Variable, Term] = {}
    for var in premise.variables():
        renaming[var] = Variable(var.name + "'")
    # Null / non-null condition variables are premise variables already; a
    # defensive pass covers conditions on variables missing from the atoms.
    for var in list(premise.null_vars) + list(premise.nonnull_vars):
        renaming.setdefault(var, Variable(var.name + "'"))
    return premise.substitute(renaming), renaming


def rename_unitary(mapping: UnitaryMapping) -> UnitaryMapping:
    """A copy of a unitary mapping with fresh premise (and consequent) variables."""
    premise, renaming = rename_premise(mapping.premise)
    return UnitaryMapping(
        premise=premise,
        consequent=mapping.consequent.substitute(renaming),
        origin=mapping.origin,
        name=mapping.name,
    )


@dataclass
class FunctionalityViolation:
    """A witness that a unitary mapping is not functional."""

    mapping: UnitaryMapping
    attribute: str

    def __str__(self) -> str:
        return (
            f"mapping {self.mapping.name or self.mapping.origin} can produce two "
            f"{self.mapping.consequent.relation} tuples with the same key but "
            f"different values for {self.attribute!r}"
        )

    def diagnostic(self) -> Diagnostic:
        """This violation as a ``MAP003`` finding."""
        return diagnostic(
            "MAP003", str(self), subject=self.mapping.name or self.mapping.origin
        )


def differing_positions(
    left: UnitaryMapping,
    right: UnitaryMapping,
    source_schema: Schema,
    target_schema: Schema,
) -> Iterator[tuple[str, Term, Term]]:
    """The non-key attributes where two key-equal consequents can differ.

    ``right`` is renamed apart first (the paper assumes pairwise-disjoint
    variable sets).  Both premises with their conditions and the key
    equalities of the two consequents are closed once under the source key
    dependencies; each non-key position is then one probe of that closure,
    yielding ``(attribute, left term, renamed right term)`` iff the closure
    has no contradiction and does not force the two terms equal.
    """
    renamed = rename_unitary(right)
    relation = target_schema.relation(left.consequent.relation)
    key_positions = relation.key_positions()
    closure = EgdClosure(source_schema)
    for premise in (left.premise, renamed.premise):
        closure.load(
            premise.atoms,
            premise.null_vars,
            premise.nonnull_vars,
            premise.equalities,
            premise.disequalities,
        )
    pairs = list(zip(left.consequent.terms, renamed.consequent.terms))
    for position in key_positions:
        closure.equate(*pairs[position])
    closure.saturate()
    for position, attribute in enumerate(relation.attributes):
        if position in key_positions:
            continue
        count("satisfiability.checks")
        if closure.contradiction is None and not closure.terms_equal(*pairs[position]):
            yield (attribute.name, *pairs[position])


def check_functionality(
    mapping: UnitaryMapping,
    source_schema: Schema,
    target_schema: Schema,
) -> FunctionalityViolation | None:
    """Return a violation witness, or ``None`` when the mapping is functional."""
    count("functionality.checks")
    for attribute, _, _ in differing_positions(
        mapping, mapping, source_schema, target_schema
    ):
        return FunctionalityViolation(mapping, attribute)
    return None


def functionality_violations(
    mappings: list[UnitaryMapping],
    source_schema: Schema,
    target_schema: Schema,
) -> list[FunctionalityViolation]:
    """Every functionality violation among ``mappings``, in mapping order."""
    with span("qgen.functionality", mappings=len(mappings)):
        checked = (
            check_functionality(mapping, source_schema, target_schema)
            for mapping in mappings
        )
        return [violation for violation in checked if violation is not None]
