"""Instance diffing: what changed between two instances of one schema.

Useful when comparing transformation outputs (engine vs SQLite, basic vs
novel, output vs expected figure) — the tests and CLI use it to show *which*
tuples differ instead of a bare inequality.  It also holds the backtracking
search for homomorphisms between instances, which decides whether two
instances are equal up to a renaming of invented values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import InstanceError
from .instance import Instance, Row
from .values import LabeledNull, format_value, is_labeled_null, is_null


@dataclass
class RelationDiff:
    """Tuples only in the left / only in the right instance, per relation."""

    relation: str
    only_left: list[Row] = field(default_factory=list)
    only_right: list[Row] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.only_left and not self.only_right


@dataclass
class InstanceDiff:
    """A full diff between two instances over the same schema."""

    relations: dict[str, RelationDiff] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return all(d.empty for d in self.relations.values())

    def changed_relations(self) -> list[str]:
        return [name for name, d in self.relations.items() if not d.empty]

    def __len__(self) -> int:
        return sum(
            len(d.only_left) + len(d.only_right) for d in self.relations.values()
        )

    def to_text(self) -> str:
        """A unified-diff-style rendering (``-`` left only, ``+`` right only)."""
        if self.empty:
            return "(instances are equal)"
        lines: list[str] = []
        for name in self.changed_relations():
            diff = self.relations[name]
            lines.append(f"@@ {name} @@")
            for row in diff.only_left:
                lines.append("- (" + ", ".join(format_value(v) for v in row) + ")")
            for row in diff.only_right:
                lines.append("+ (" + ", ".join(format_value(v) for v in row) + ")")
        return "\n".join(lines)


def _invented_masked_key(row: Row) -> tuple[str, ...]:
    """A sort key that is stable under renaming of invented values."""
    return tuple(
        "\x00?" if is_labeled_null(v) else ("\x00null" if is_null(v) else repr(v))
        for v in row
    )


def canonicalize_invented(instance: Instance) -> Instance:
    """Rename invented values to ``inv(0), inv(1), ...`` by first appearance.

    The traversal is deterministic (relations in schema order, rows sorted
    with invented values masked).  Rows that differ only in invented values
    tie under that sort and keep their insertion order, so two instances
    that differ only by a bijective renaming of their labeled nulls may
    still canonicalize differently.
    """
    mapping: dict[LabeledNull, LabeledNull] = {}

    def rename(value):
        if is_labeled_null(value):
            canonical = mapping.get(value)
            if canonical is None:
                canonical = LabeledNull("inv", (len(mapping),))
                mapping[value] = canonical
            return canonical
        return value

    clone = Instance(instance.schema)
    for name in instance.schema.relation_names():
        rows = sorted(instance.relation(name).rows, key=_invented_masked_key)
        clone.add_all(name, [tuple(map(rename, row)) for row in rows])
    return clone


Assignment = dict[LabeledNull, Any]


def _match_value(
    pattern: Any, value: Any, assignment: Assignment, injective: bool
) -> Assignment | None:
    """Extend the assignment so ``pattern`` maps onto ``value``."""
    if is_labeled_null(pattern):
        bound = assignment.get(pattern)
        if bound is None:
            if injective and (
                not is_labeled_null(value) or value in assignment.values()
            ):
                return None
            extended = dict(assignment)
            extended[pattern] = value
            return extended
        return assignment if bound == value else None
    return assignment if pattern == value else None


def find_instance_homomorphism(
    a: Instance, b: Instance, injective: bool = False
) -> Assignment | None:
    """A homomorphism from ``a`` into ``b`` (labeled nulls as variables).

    Ground facts (no labeled nulls) map only to themselves, so they are
    checked by set membership; backtracking search is limited to the facts
    that actually contain labeled nulls, keeping the search shallow even on
    large instances.  ``injective`` maps distinct labeled nulls onto
    distinct labeled nulls.
    """
    open_facts: list[tuple[str, tuple]] = []
    for relation, row in a.facts():
        if any(is_labeled_null(v) for v in row):
            open_facts.append((relation, row))
        else:
            try:
                present = row in b.relation(relation)
            except InstanceError:  # schema mismatch
                return None
            if not present:
                return None

    def search(index: int, assignment: Assignment) -> Assignment | None:
        if index == len(open_facts):
            return assignment
        relation, row = open_facts[index]
        try:
            candidates = b.relation(relation).rows
        except InstanceError:  # pragma: no cover - schema mismatch
            return None
        for candidate in candidates:
            extended: Assignment | None = assignment
            for pattern, value in zip(row, candidate):
                extended = _match_value(pattern, value, extended, injective)
                if extended is None:
                    break
            if extended is None:
                continue
            final = search(index + 1, extended)
            if final is not None:
                return final
        return None

    return search(0, {})


def diff_up_to_invented(left: Instance, right: Instance) -> InstanceDiff:
    """Diff two instances up to a bijective renaming of invented values.

    Exactly equal instances short-circuit to the (empty) plain diff; the
    differential-testing harness uses this so engines only have to agree on
    target tuples *up to LabeledNull isomorphism*, not on how Skolem
    functors spell their invented values.  When the canonical forms
    differ, an isomorphism search settles it: relations of equal sizes plus
    an injective homomorphism that maps labeled nulls onto labeled nulls.
    """
    plain = diff_instances(left, right)
    if plain.empty:
        return plain
    canonical = diff_instances(
        canonicalize_invented(left), canonicalize_invented(right)
    )
    if canonical.empty or not _isomorphic(left, right):
        return canonical
    return InstanceDiff({name: RelationDiff(name) for name in canonical.relations})


def _isomorphic(left: Instance, right: Instance) -> bool:
    sizes_agree = all(
        len(relation) == len(right.relation(name))
        for name, relation in left.relations.items()
    )
    return sizes_agree and (
        find_instance_homomorphism(left, right, injective=True) is not None
    )


def diff_instances(left: Instance, right: Instance) -> InstanceDiff:
    """Compute the per-relation symmetric difference of two instances."""
    if left.schema.relation_names() != right.schema.relation_names():
        raise InstanceError(
            "cannot diff instances over different schemas: "
            f"{left.schema.name!r} vs {right.schema.name!r}"
        )
    result = InstanceDiff()
    for name in left.schema.relation_names():
        left_rows = set(left.relation(name).rows)
        right_rows = set(right.relation(name).rows)
        result.relations[name] = RelationDiff(
            relation=name,
            only_left=sorted(left_rows - right_rows, key=repr),
            only_right=sorted(right_rows - left_rows, key=repr),
        )
    return result
