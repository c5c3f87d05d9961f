"""Database instances: relations as sets of tuples over a schema.

Tuples are plain Python tuples whose components are constants, :data:`NULL`,
or :class:`LabeledNull` invented values.  A :class:`Relation` preserves
insertion order (useful for readable output) while enforcing set semantics.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Iterable, Iterator, Mapping

from ..errors import InstanceError
from .schema import RelationSchema, Schema
from .values import format_value

Row = tuple[Any, ...]


class Relation:
    """A set of tuples over a :class:`RelationSchema`, insertion-ordered."""

    def __init__(self, schema: RelationSchema):
        self.schema = schema
        self._rows: dict[Row, None] = {}

    def add(self, row: Iterable[Any]) -> bool:
        """Add a tuple; returns True iff it was not already present."""
        row = tuple(row)
        if len(row) != self.schema.arity:
            raise self._wrong_arity(row)
        if row in self._rows:
            return False
        self._rows[row] = None
        return True

    def _wrong_arity(self, row: Row) -> InstanceError:
        return InstanceError(
            f"relation {self.schema.name}: tuple {row!r} has arity {len(row)}, "
            f"expected {self.schema.arity}"
        )

    def discard(self, row: Iterable[Any]) -> bool:
        """Remove a tuple if present; returns True iff it was removed."""
        row = tuple(row)
        if row in self._rows:
            del self._rows[row]
            return True
        return False

    @property
    def rows(self) -> tuple[Row, ...]:
        return tuple(self._rows)

    def project(self, attributes: Iterable[str]) -> set[Row]:
        """The set of projections of all rows onto the named attributes."""
        positions = [self.schema.position(a) for a in attributes]
        return {tuple(row[p] for p in positions) for row in self._rows}

    def value(self, row: Row, attribute: str) -> Any:
        return row[self.schema.position(attribute)]

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: object) -> bool:
        return row in self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.schema == other.schema and set(self._rows) == set(other._rows)

    def __hash__(self) -> int:  # pragma: no cover - relations are mutable
        raise TypeError("Relation is not hashable")

    def __repr__(self) -> str:
        return f"Relation<{self.schema.name}, {len(self)} rows>"

    def to_text(self) -> str:
        """Render the relation as a small aligned table, paper-style."""
        header = list(self.schema.attribute_names)
        body = [[format_value(v) for v in row] for row in self._rows]
        widths = [len(h) for h in header]
        for line in body:
            for i, cell in enumerate(line):
                widths[i] = max(widths[i], len(cell))
        lines = [self.schema.name]
        lines.append("  " + "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
        for line in body:
            lines.append("  " + "  ".join(c.ljust(widths[i]) for i, c in enumerate(line)))
        return "\n".join(lines)


class Instance:
    """A database instance over a :class:`Schema`: one relation per schema relation."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.relations: dict[str, Relation] = {
            r.name: Relation(r) for r in schema
        }

    def relation(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise InstanceError(f"instance has no relation {name!r}") from None

    def add(self, relation: str, row: Iterable[Any]) -> bool:
        return self.relation(relation).add(row)

    def add_all(self, relation: str, rows: Iterable[Iterable[Any]]) -> None:
        """The one bulk load: every tuple's arity is checked before any is
        added, then one dictionary update adds them in first-seen order."""
        target = self.relation(relation)
        rows = list(map(tuple, rows))
        arity = target.schema.arity
        wrong = next((row for row in rows if len(row) != arity), None)
        if wrong is not None:
            raise target._wrong_arity(wrong)
        target._rows.update(zip(rows, repeat(None)))

    def total_size(self) -> int:
        """Total number of tuples over all relations."""
        return sum(len(r) for r in self.relations.values())

    def copy(self) -> "Instance":
        return instance_from_dict(self.schema, self.relations)

    def facts(self) -> Iterator[tuple[str, Row]]:
        """All tuples as (relation name, row) pairs."""
        for name, relation in self.relations.items():
            for row in relation:
                yield name, row

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        if self.schema.relation_names() != other.schema.relation_names():
            return False
        return all(
            set(self.relations[n].rows) == set(other.relations[n].rows)
            for n in self.relations
        )

    def __repr__(self) -> str:
        sizes = ", ".join(f"{n}:{len(r)}" for n, r in self.relations.items())
        return f"Instance<{self.schema.name}: {sizes}>"

    def to_text(self) -> str:
        """Render every non-empty relation as a table."""
        parts = [r.to_text() for r in self.relations.values() if len(r) > 0]
        return "\n\n".join(parts) if parts else "(empty instance)"


def instance_from_dict(schema: Schema, data: Mapping[str, Iterable[Iterable[Any]]]) -> Instance:
    """Build an instance from ``{relation: [rows]}``, validating relation names."""
    instance = Instance(schema)
    for name, rows in data.items():
        instance.add_all(name, rows)
    return instance
