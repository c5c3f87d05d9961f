"""Integrity-constraint checking for instances.

Validates an :class:`Instance` against the three constraint kinds of the
paper: mandatory (non-nullable) attributes, primary keys, and foreign keys.
Violations are reported as structured objects so the benchmarks can count,
e.g., how many key violations the *basic* algorithms produce on Figure 2.

A null foreign-key value satisfies the referential constraint (the paper's
CARS2 target stores cars without an owner as ``person = null``).  Invented
values (labeled nulls) participate in keys and foreign keys like constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .instance import Instance, Row
from .values import is_null


@dataclass(frozen=True)
class NullViolation:
    """A null (or missing) value in a mandatory attribute."""

    relation: str
    attribute: str
    row: Row

    def __str__(self) -> str:
        return f"{self.relation}.{self.attribute} is mandatory but null in {self.row!r}"


@dataclass(frozen=True)
class KeyViolation:
    """Two or more tuples of a relation sharing the same key value."""

    relation: str
    key_value: tuple[Any, ...]
    rows: tuple[Row, ...]

    def __str__(self) -> str:
        return (
            f"{self.relation}: key {self.key_value!r} is shared by "
            f"{len(self.rows)} tuples"
        )


@dataclass(frozen=True)
class ForeignKeyViolation:
    """A non-null foreign-key value with no matching referenced key."""

    relation: str
    attribute: str
    referenced: str
    value: Any
    row: Row

    def __str__(self) -> str:
        return (
            f"{self.relation}.{self.attribute} = {self.value!r} has no match "
            f"in {self.referenced}"
        )


@dataclass
class ValidationReport:
    """All constraint violations found in an instance.

    ``schema`` is the schema the instance was validated against; it lets
    :attr:`diagnostics` attach the DSL declaration spans of the violated
    constraints, so runtime violations render with locations (and export to
    SARIF) like static lint findings.
    """

    null_violations: list[NullViolation]
    key_violations: list[KeyViolation]
    foreign_key_violations: list[ForeignKeyViolation]
    schema: Any = None

    @property
    def ok(self) -> bool:
        return not (
            self.null_violations or self.key_violations or self.foreign_key_violations
        )

    def all_violations(self) -> list[object]:
        return [
            *self.null_violations,
            *self.key_violations,
            *self.foreign_key_violations,
        ]

    def __len__(self) -> int:
        return len(self.all_violations())

    @property
    def diagnostics(self) -> list:
        """The violations as structured ``INS*`` diagnostics.

        ``INS001`` per null violation, ``INS002`` per key violation,
        ``INS003`` per foreign-key violation (see :mod:`repro.analysis`).
        When :attr:`schema` is set, each diagnostic carries the declaration
        span of the violated constraint — the attribute for ``INS001``, the
        relation for ``INS002``, the foreign key for ``INS003``.
        """
        from ..analysis.diagnostics import diagnostic

        found = [
            diagnostic(
                "INS001",
                str(item),
                subject=f"{item.relation}.{item.attribute}",
                span=self._attribute_span(item.relation, item.attribute),
            )
            for item in self.null_violations
        ]
        found.extend(
            diagnostic(
                "INS002",
                str(item),
                subject=item.relation,
                span=self._relation_span(item.relation),
            )
            for item in self.key_violations
        )
        found.extend(
            diagnostic(
                "INS003",
                str(item),
                subject=f"{item.relation}.{item.attribute}",
                span=self._foreign_key_span(item.relation, item.attribute),
            )
            for item in self.foreign_key_violations
        )
        return found

    def _relation_span(self, relation: str):
        if self.schema is None or relation not in self.schema:
            return None
        return self.schema.relation(relation).span

    def _attribute_span(self, relation: str, attribute: str):
        if self.schema is None or relation not in self.schema:
            return None
        rel_schema = self.schema.relation(relation)
        if not rel_schema.has_attribute(attribute):
            return None
        return rel_schema.attribute(attribute).span or rel_schema.span

    def _foreign_key_span(self, relation: str, attribute: str):
        if self.schema is None:
            return None
        for fk in self.schema.foreign_keys:
            if fk.relation == relation and fk.attribute == attribute:
                return fk.span
        return self._attribute_span(relation, attribute)

    def summary(self) -> str:
        if self.ok:
            return "instance satisfies all constraints"
        return (
            f"{len(self.null_violations)} null violation(s), "
            f"{len(self.key_violations)} key violation(s), "
            f"{len(self.foreign_key_violations)} foreign-key violation(s)"
        )


def validate_instance(instance: Instance) -> ValidationReport:
    """Check ``instance`` against every constraint of its schema."""
    schema = instance.schema
    nulls: list[NullViolation] = []
    keys: list[KeyViolation] = []
    fks: list[ForeignKeyViolation] = []

    for rel_schema in schema:
        relation = instance.relation(rel_schema.name)

        for attr in rel_schema.attributes:
            if attr.nullable:
                continue
            position = rel_schema.position(attr.name)
            for row in relation:
                if is_null(row[position]):
                    nulls.append(NullViolation(rel_schema.name, attr.name, row))

        key_positions = rel_schema.key_positions()
        groups: dict[tuple[Any, ...], list[Row]] = {}
        for row in relation:
            groups.setdefault(tuple(row[p] for p in key_positions), []).append(row)
        for key_value, rows in groups.items():
            if len(rows) > 1:
                keys.append(KeyViolation(rel_schema.name, key_value, tuple(rows)))

    for fk in schema.foreign_keys:
        source = instance.relation(fk.relation)
        target_schema = schema.relation(fk.referenced)
        referenced_keys = instance.relation(fk.referenced).project([target_schema.key[0]])
        position = schema.relation(fk.relation).position(fk.attribute)
        for row in source:
            value = row[position]
            if is_null(value):
                continue
            if (value,) not in referenced_keys:
                fks.append(
                    ForeignKeyViolation(fk.relation, fk.attribute, fk.referenced, value, row)
                )

    return ValidationReport(nulls, keys, fks, schema=schema)
