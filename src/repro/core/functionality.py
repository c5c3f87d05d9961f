"""The functionality check of Algorithm 4 (step 2), and the pair closure.

A unitary logical mapping ``m = φ(x) → R(t_key, t_v1, ...)`` is *functional*
when it cannot, on its own, violate the key constraint of ``R``: for every
non-key position ``v`` the query ``φ(k, v) ∧ φ(k', v') ∧ k = k' ∧ v ≠ v'``
must be unsatisfiable over instances satisfying the source constraints.

The check doubles the premise with fresh variables, equates the two copies'
key terms (decomposing Skolem terms via injectivity), closes the pair under
the source key dependencies, and probes each non-key position against that
closure.  The key-conflict check of :mod:`repro.core.conflicts` probes two
different mappings the same way, and the certifier's key pass
(:mod:`repro.analysis.certify.keys`) asks the same question of two target
rules, each taken as its head over a premise of its body and conditions.

All three run on :class:`PairChecker`, the one code that renames, loads,
closes and joins a pair of key-producing clauses.  It closes each clause's
premise once, and its renamed-apart copy once, each in its own
:class:`~repro.logic.satisfiability.EgdClosure` (:func:`premise_closure`
is the one loader); a pair joins two closed sides
(:meth:`~repro.logic.satisfiability.EgdClosure.joined`) instead of renaming
and reloading both premises, so the per-pair cost is the copy and the
saturation of the cross-side key equalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from ..analysis.diagnostics import Diagnostic, diagnostic
from ..logic.atoms import RelationalAtom
from ..logic.mappings import Premise, UnitaryMapping
from ..logic.satisfiability import NULL_CLASH, EgdClosure, KeyPaths
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


def premise_closure(premise: Premise, source_schema: Schema | None) -> EgdClosure:
    """A closure with the premise's atoms and conditions loaded, unsaturated."""
    closure = EgdClosure(source_schema)
    closure.load(
        premise.atoms,
        premise.null_vars,
        premise.nonnull_vars,
        premise.equalities,
        premise.disequalities,
    )
    return closure


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


class _RightSide(NamedTuple):
    """A clause renamed apart: its consequent, closed premise and renaming."""

    consequent: RelationalAtom
    closure: EgdClosure
    renaming: dict[Variable, Term]


class PairChecker:
    """Algorithm 4's pair checks over one list of unitary mappings.

    Every mapping gets two sides, each built on first use and indexed by
    the mapping's position in :attr:`mappings`: its premise loaded and
    closed in an :class:`EgdClosure` (the left side of a pair), and its
    renamed-apart copy (:func:`rename_premise`, called once) loaded and
    closed in a second one (the right side).  A pair (:meth:`pair`) joins
    the left side of one mapping with the right side of another — the two
    share no variable, so the join copies their classes instead of
    reloading the premises — equates the two consequents' key terms and
    saturates.  A target rule enters as the mapping of its head over a
    premise of its body and conditions.
    """

    def __init__(
        self,
        mappings: list[UnitaryMapping],
        source_schema: Schema,
        target_schema: Schema,
    ) -> None:
        self.mappings = mappings
        self.source_schema = source_schema
        self.target_schema = target_schema
        self._left: dict[int, EgdClosure] = {}
        self._right: dict[int, _RightSide] = {}
        self._key_paths: dict[int, KeyPaths | None] = {}

    def _closed(self, premise: Premise) -> EgdClosure:
        closure = premise_closure(premise, self.source_schema)
        closure.saturate()
        return closure

    def _left_side(self, index: int) -> EgdClosure:
        side = self._left.get(index)
        if side is None:
            side = self._left[index] = self._closed(self.mappings[index].premise)
        return side

    def _right_side(self, index: int) -> _RightSide:
        side = self._right.get(index)
        if side is None:
            mapping = self.mappings[index]
            premise, renaming = rename_premise(mapping.premise)
            side = self._right[index] = _RightSide(
                mapping.consequent.substitute(renaming),
                self._closed(premise),
                renaming,
            )
        return side

    def renaming(self, index: int) -> dict[Variable, Term]:
        """The renaming that takes mapping ``index`` to its right side."""
        return self._right_side(index).renaming

    def _key_paths_of(self, index: int) -> KeyPaths | None:
        """Mapping ``index``'s key paths (the same on both of its sides)."""
        if index not in self._key_paths:
            consequent = self.mappings[index].consequent
            relation = self.target_schema.relation(consequent.relation)
            self._key_paths[index] = self._left_side(index).key_paths(
                consequent.terms, relation.key_positions()
            )
        return self._key_paths[index]

    def clash(self, left: int, right: int) -> str | None:
        """What :meth:`pair` would find contradictory, if the key paths show it.

        Returns :data:`~repro.logic.satisfiability.NULL_CLASH` when the two
        mappings' :class:`~repro.logic.satisfiability.KeyPaths` clash: the
        pair's closure then ends in that contradiction, the only one such a
        pair can reach, so callers ask this before joining the pair and
        skip the join.  Each such answer is counted as
        ``signature.clash_skips``.  ``None`` decides nothing.
        """
        if left == right:
            return None  # a clause never clashes with its own copy
        if not (self._left_side(left).has_null() or self._left_side(right).has_null()):
            return None  # a clash needs a null class on one side
        left_paths = self._key_paths_of(left)
        if left_paths is None:
            return None
        right_paths = self._key_paths_of(right)
        if right_paths is None or not left_paths.clashes(right_paths):
            return None
        count("signature.clash_skips")
        return NULL_CLASH

    def pair(
        self, left: int, right: int
    ) -> tuple[EgdClosure, list[tuple[Term, Term]]]:
        """The saturated closure of one pair with its key terms equated.

        ``left`` and ``right`` are positions in :attr:`mappings`; ``right``
        is taken renamed apart (the paper assumes pairwise-disjoint
        variable sets), so ``left == right`` is a self pair.  Also returns
        the two consequents' terms position by position, as ``(left term,
        renamed right term)``.
        """
        consequent = self.mappings[left].consequent
        right_side = self._right_side(right)
        closure = self._left_side(left).joined(right_side.closure)
        pairs = list(zip(consequent.terms, right_side.consequent.terms))
        relation = self.target_schema.relation(consequent.relation)
        for position in relation.key_positions():
            closure.equate(*pairs[position])
        closure.saturate()
        return closure, pairs

    def differing_positions(
        self, left: int, right: int
    ) -> Iterator[tuple[str, Term, Term]]:
        """The non-key attributes where the two mappings' consequents can
        differ while their keys agree.

        Each non-key position is one probe of the :meth:`pair` closure,
        yielding ``(attribute, left term, renamed right term)`` iff the
        closure has no contradiction and does not force the two terms
        equal.  A pair whose key paths :meth:`clash` is not joined, and
        yields nothing.
        """
        relation = self.target_schema.relation(self.mappings[left].consequent.relation)
        key_positions = relation.key_positions()
        if self.clash(left, right) is not None:
            probes = relation.arity - len(key_positions)
            if probes:
                count("satisfiability.checks", probes)
            return
        closure, pairs = self.pair(left, right)
        for position, attribute in enumerate(relation.attributes):
            if position in key_positions:
                continue
            count("satisfiability.checks")
            if closure.contradiction is None and not closure.terms_equal(
                *pairs[position]
            ):
                yield (attribute.name, *pairs[position])

    def violation(self, index: int) -> FunctionalityViolation | None:
        """A witness that mapping ``index`` is not functional, or ``None``."""
        count("functionality.checks")
        for attribute, _, _ in self.differing_positions(index, index):
            return FunctionalityViolation(self.mappings[index], attribute)
        return None


def functionality_violations(checker: PairChecker) -> list[FunctionalityViolation]:
    """Every functionality violation among the checker's mappings, in order."""
    with span("qgen.functionality", mappings=len(checker.mappings)):
        checked = (checker.violation(index) for index in range(len(checker.mappings)))
        return [violation for violation in checked if violation is not None]
