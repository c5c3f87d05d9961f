"""Key-conflict identification between unitary logical mappings (Algorithm 4).

Two unitary mappings over the same target relation ``R`` are *key
conflicting* over a non-key attribute ``v`` when they can generate two
tuples with the same key but different ``v`` values:
``φ(k, v) ∧ φ'(k', v') ∧ k = k' ∧ v ≠ v'`` is satisfiable.

Each side contributes a *kind* for ``v`` — ``c`` (copies a source value),
``n`` (a null), ``i`` (invents a value via a Skolem functor) — and the
paper's resolution strategy prefers ``c ≻ n ≻ i``:

* ``c`` vs ``c`` — a **hard** conflict: two source values may compete;
* mixed kinds — a **soft** conflict, the higher kind preferred;
* ``i`` vs ``i`` — equally preferable; resolved by unifying the functors.

Every pair of one conflicting set is probed on the stage-2 run's
:class:`~repro.core.functionality.PairChecker`, the one the functionality
check used: the premises are already renamed apart and closed, so a pair
costs one join of two closed sides, one saturation and one probe per
non-key attribute.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.diagnostics import Diagnostic, diagnostic
from ..logic.mappings import UnitaryMapping
from ..logic.terms import Constant, NullTerm, SkolemTerm, Term, Variable
from ..obs import count
from .functionality import PairChecker

COPY = "c"
NULL_KIND = "n"
INVENT = "i"

_KIND_RANK = {COPY: 2, NULL_KIND: 1, INVENT: 0}


def term_kind(term: Term) -> str:
    """Classify a consequent term: copy / null / invent."""
    if isinstance(term, NullTerm):
        return NULL_KIND
    if isinstance(term, SkolemTerm):
        return INVENT
    if isinstance(term, (Variable, Constant)):
        return COPY
    raise TypeError(f"unexpected consequent term {term!r}")  # pragma: no cover


@dataclass(frozen=True)
class KeyConflict:
    """A key conflict between two unitary mappings over one attribute."""

    left: UnitaryMapping
    right: UnitaryMapping
    attribute: str
    left_kind: str
    right_kind: str

    @property
    def is_hard(self) -> bool:
        return self.left_kind == COPY and self.right_kind == COPY

    @property
    def preferred(self) -> str:
        """``"left"``, ``"right"`` or ``"equal"`` (two invented values)."""
        left_rank = _KIND_RANK[self.left_kind]
        right_rank = _KIND_RANK[self.right_kind]
        if left_rank > right_rank:
            return "left"
        if right_rank > left_rank:
            return "right"
        return "equal"

    def __str__(self) -> str:
        return (
            f"{self.left.name or self.left.origin} {self.left_kind} vs "
            f"{self.right.name or self.right.origin} {self.right_kind} "
            f"on {self.left.consequent.relation}.{self.attribute}"
        )

    def diagnostic(self) -> Diagnostic:
        """This (hard) conflict as a ``MAP002`` finding."""
        where = f"{self.left.consequent.relation}.{self.attribute}"
        return diagnostic(
            "MAP002",
            f"unresolvable hard key conflict: {self}; both mappings copy "
            f"source values into {where}",
            subject=where,
        )


def pair_conflicts(checker: PairChecker, left: int, right: int) -> list[KeyConflict]:
    """The key conflicts between the checker's mappings ``left`` and ``right``."""
    conflicts: list[KeyConflict] = []
    for attribute, left_term, right_term in checker.differing_positions(left, right):
        conflict = KeyConflict(
            left=checker.mappings[left],
            right=checker.mappings[right],
            attribute=attribute,
            left_kind=term_kind(left_term),
            right_kind=term_kind(right_term),
        )
        count("conflicts.hard" if conflict.is_hard else "conflicts.soft")
        conflicts.append(conflict)
    return conflicts


def conflicting_sets(
    mappings: list[UnitaryMapping],
) -> dict[str, list[UnitaryMapping]]:
    """Group unitary mappings by target relation (the paper's ``CS_R``)."""
    groups: dict[str, list[UnitaryMapping]] = {}
    for mapping in mappings:
        groups.setdefault(mapping.consequent.relation, []).append(mapping)
    return groups


def find_all_conflicts(checker: PairChecker) -> list[KeyConflict]:
    """All pairwise key conflicts inside every conflicting set.

    The one place that probes pairs of unitary mappings: conflicts come
    grouped by conflicting set, then by pair ``(i, j)`` with ``i < j``.
    """
    groups: dict[str, list[int]] = {}
    for index, mapping in enumerate(checker.mappings):
        groups.setdefault(mapping.consequent.relation, []).append(index)
    conflicts: list[KeyConflict] = []
    for group in groups.values():
        for i, left in enumerate(group):
            for right in group[i + 1:]:
                conflicts.extend(pair_conflicts(checker, left, right))
    return conflicts
