"""Relational schemas with primary keys, foreign keys and nullable attributes.

This follows the paper's data model (section 3.1):

* a relation schema is a named, ordered set of attributes;
* every relation has a primary key made of non-nullable attributes; a key is
  *simple* if it has one attribute, *composite* otherwise;
* attributes are mandatory by default and may be declared nullable;
* a foreign key is a single attribute referencing the *simple* key of another
  relation (the paper restricts foreign keys to reference simple keys only);
* the set of foreign keys must be weakly acyclic (checked in
  :mod:`repro.model.graph`, enforced by :meth:`Schema.validate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from ..errors import SchemaError

if TYPE_CHECKING:  # pragma: no cover
    from ..analysis.diagnostics import SourceSpan


@dataclass(frozen=True)
class Attribute:
    """A named attribute of a relation, possibly nullable.

    ``span`` records where the attribute was declared when it came from the
    text DSL; it is excluded from equality and hashing, so two schemas that
    differ only in source locations still compare equal.
    """

    name: str
    nullable: bool = False
    span: "SourceSpan | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError(f"attribute name must be a non-empty string, got {self.name!r}")

    def __repr__(self) -> str:
        return f"{self.name}^null" if self.nullable else self.name


@dataclass(frozen=True)
class ForeignKey:
    """A referential constraint ``relation.attribute ⊆ referenced.key``.

    Only single-attribute foreign keys referencing simple keys are supported,
    per the paper's restriction ("we consider foreign keys used to reference
    simple keys only").  ``span`` carries the DSL declaration site (excluded
    from equality/hashing).
    """

    relation: str
    attribute: str
    referenced: str
    span: "SourceSpan | None" = field(default=None, compare=False, repr=False)

    def __repr__(self) -> str:
        return f"{self.relation}.{self.attribute} -> {self.referenced}"


class RelationSchema:
    """A relation schema: name, ordered attributes, and a primary key."""

    def __init__(
        self,
        name: str,
        attributes: Iterable[Attribute | str],
        key: Iterable[str] | str | None = None,
        span: "SourceSpan | None" = None,
    ):
        if not name:
            raise SchemaError("relation name must be non-empty")
        self.name = name
        self.span = span  # DSL declaration site; not part of equality
        attrs: list[Attribute] = []
        for a in attributes:
            attrs.append(Attribute(a) if isinstance(a, str) else a)
        if not attrs:
            raise SchemaError(f"relation {name} must have at least one attribute")
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            raise SchemaError(f"relation {name} has duplicate attribute names: {names}")
        self.attributes: tuple[Attribute, ...] = tuple(attrs)
        self._by_name = {a.name: a for a in attrs}
        self._positions = {a.name: i for i, a in enumerate(attrs)}
        if key is None:
            key_names: tuple[str, ...] = (attrs[0].name,)
        elif isinstance(key, str):
            key_names = (key,)
        else:
            key_names = tuple(key)
        if not key_names:
            raise SchemaError(f"relation {name} must have a non-empty key")
        for k in key_names:
            if k not in self._by_name:
                raise SchemaError(f"relation {name}: key attribute {k!r} is not an attribute")
            if self._by_name[k].nullable:
                raise SchemaError(f"relation {name}: key attribute {k!r} cannot be nullable")
        self.key: tuple[str, ...] = key_names
        self._key_positions = tuple(self._positions[k] for k in key_names)

    # -- queries ---------------------------------------------------------

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    @property
    def arity(self) -> int:
        return len(self.attributes)

    @property
    def has_simple_key(self) -> bool:
        """True iff the primary key consists of a single attribute."""
        return len(self.key) == 1

    def has_attribute(self, name: str) -> bool:
        return name in self._by_name

    def attribute(self, name: str) -> Attribute:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"relation {self.name} has no attribute {name!r}") from None

    def position(self, name: str) -> int:
        """0-based position of attribute ``name`` in the relation."""
        try:
            return self._positions[name]
        except KeyError:
            raise SchemaError(f"relation {self.name} has no attribute {name!r}") from None

    def is_key_attribute(self, name: str) -> bool:
        self.attribute(name)
        return name in self.key

    def is_nullable(self, name: str) -> bool:
        return self.attribute(name).nullable

    def key_positions(self) -> tuple[int, ...]:
        return self._key_positions

    def __repr__(self) -> str:
        parts = []
        for a in self.attributes:
            text = a.name
            if a.name in self.key:
                text = f"{text}*"
            if a.nullable:
                text = f"{text}^null"
            parts.append(text)
        return f"{self.name}({', '.join(parts)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return (
            self.name == other.name
            and self.attributes == other.attributes
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash((self.name, self.attributes, self.key))


class Schema:
    """A relational schema: a set of relation schemas plus integrity constraints.

    The constraints carried here are the three kinds the paper considers:
    primary keys (on :class:`RelationSchema`), nullable attributes (on
    :class:`Attribute`), and foreign keys (:class:`ForeignKey` objects).
    """

    def __init__(
        self,
        relations: Iterable[RelationSchema],
        foreign_keys: Iterable[ForeignKey] = (),
        name: str = "schema",
    ):
        self.name = name
        self.relations: dict[str, RelationSchema] = {}
        for r in relations:
            if r.name in self.relations:
                raise SchemaError(f"duplicate relation name {r.name!r}")
            self.relations[r.name] = r
        self.foreign_keys: tuple[ForeignKey, ...] = tuple(foreign_keys)
        self._fk_index: dict[tuple[str, str], ForeignKey] = {}
        for fk in self.foreign_keys:
            self._check_foreign_key(fk)
            pos = (fk.relation, fk.attribute)
            if pos in self._fk_index:
                from ..analysis.schema_lint import duplicate_foreign_key_diagnostic

                raise SchemaError(
                    f"duplicate foreign key on {fk.relation}.{fk.attribute}",
                    diagnostic=duplicate_foreign_key_diagnostic(fk),
                )
            self._fk_index[pos] = fk

    def _check_foreign_key(self, fk: ForeignKey) -> None:
        """Raise on the first structural defect, carrying its diagnostic.

        Routed through :func:`repro.analysis.schema_lint.foreign_key_diagnostics`
        so constructor raises and the linter agree on codes and messages.
        """
        from ..analysis.schema_lint import foreign_key_diagnostics

        found = foreign_key_diagnostics(self.relations, fk)
        if found:
            raise SchemaError(found[0].message, diagnostic=found[0])

    # -- queries ---------------------------------------------------------

    def relation(self, name: str) -> RelationSchema:
        try:
            return self.relations[name]
        except KeyError:
            raise SchemaError(f"schema {self.name!r} has no relation {name!r}") from None

    def relation_names(self) -> tuple[str, ...]:
        return tuple(self.relations)

    def foreign_key_from(self, relation: str, attribute: str) -> ForeignKey | None:
        """The foreign key defined on ``relation.attribute``, if any."""
        return self._fk_index.get((relation, attribute))

    def has_foreign_key_from(self, relation: str, attribute: str) -> bool:
        return (relation, attribute) in self._fk_index

    def foreign_keys_of(self, relation: str) -> tuple[ForeignKey, ...]:
        """All foreign keys originating in ``relation``, in attribute order."""
        rel = self.relation(relation)
        found = []
        for attr in rel.attribute_names:
            fk = self._fk_index.get((relation, attr))
            if fk is not None:
                found.append(fk)
        return tuple(found)

    def validate(self) -> None:
        """Check structural well-formedness plus weak acyclicity of the FKs."""
        from .graph import check_weak_acyclicity

        check_weak_acyclicity(self)

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self.relations.values())

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def __len__(self) -> int:
        return len(self.relations)

    def __repr__(self) -> str:
        rels = "; ".join(repr(r) for r in self.relations.values())
        return f"Schema<{self.name}: {rels}>"
