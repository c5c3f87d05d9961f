"""A small line-oriented DSL for schemas, correspondences and instances.

Mapping problems can be written as plain text, close to how the paper draws
them::

    source schema CARS3:
      relation P3 (person key, name, email)
      relation C3 (car key, model)
      relation O3 (car key -> C3, person -> P3)

    target schema CARS2:
      relation P2 (person key, name, email)
      relation C2 (car key, model, person? -> P2)

    correspondences:
      P3.person -> P2.person [p1]
      P3.name -> P2.name [p2]

Attribute syntax: ``name`` (mandatory), ``name?`` (nullable), ``name key``
(part of the primary key; the first attribute is the key by default), and an
optional ``-> Relation`` foreign-key suffix.  Correspondence sources and
targets are referenced attributes: ``O3.person > P3.name -> C1.name [cn']``.

Instances use one line per relation, ``null`` for the null value::

    P3: (p21, John, j@...), (p22, MJ, mj@...)
    O3: (c85, p22)

``#`` starts a comment — except inside a single-quoted value, where it is
literal (``P3.name = '#1'`` in a filter, or ``(x, '#tag')`` in an instance).

Every parsed object (relations, attributes, foreign keys, correspondences)
carries a :class:`~repro.analysis.diagnostics.SourceSpan` naming the line it
was declared on, so static-analysis findings point back into the input.
:func:`parse_problem` raises on the first defect; :func:`parse_problem_lenient`
drops defective foreign keys and correspondences instead and reports them as
diagnostics — the form the ``repro lint`` CLI uses, so one broken file can
surface several findings at once.
"""

from __future__ import annotations

import re

from ..analysis.diagnostics import Diagnostic, SourceSpan, diagnostic
from ..analysis.schema_lint import (
    duplicate_foreign_key_diagnostic,
    foreign_key_diagnostics,
    weak_acyclicity_diagnostic,
)
from ..core.pipeline import MappingProblem
from ..errors import InstanceError, ParseError, ReproError, SchemaError
from ..model.builder import SchemaBuilder
from ..model.instance import Instance
from ..model.schema import Attribute, Schema
from ..model.values import NULL

_SCHEMA_HEADER = re.compile(r"^(source|target)\s+schema\s+([A-Za-z_][\w-]*)\s*:\s*$")
_RELATION_LINE = re.compile(r"^relation\s+([A-Za-z_]\w*)\s*\((.*)\)\s*$")
_CORRESPONDENCES_HEADER = re.compile(r"^correspondences\s*:\s*$")
_LABEL = re.compile(r"\[([^\]]*)\]\s*$")


def _strip_comment(line: str) -> str:
    """Drop a ``#`` comment — unless the ``#`` sits inside a quoted value."""
    if "#" not in line:
        return line.strip()
    in_quote = False
    for position, char in enumerate(line):
        if char == "'":
            in_quote = not in_quote
        elif char == "#" and not in_quote:
            return line[:position].strip()
    return line.strip()


def _located(error: ReproError, line_number: int) -> ReproError:
    """``error`` with a ``line N:`` prefix, keeping its class and diagnostic."""
    return type(error)(f"line {line_number}: {error}", diagnostic=error.diagnostic)


def _parse_attribute_spec(spec: str, line_number: int, span: SourceSpan | None = None):
    """Parse one attribute spec; returns (Attribute, is_key, fk_target | None)."""
    spec = spec.strip()
    fk_target = None
    if "->" in spec:
        spec, _, fk_target = (p.strip() for p in spec.partition("->"))
        if not fk_target:
            raise ParseError(f"empty foreign-key target in {spec!r}", line_number)
    tokens = spec.split()
    if not tokens:
        raise ParseError("empty attribute specification", line_number)
    name = tokens[0]
    is_key = False
    for token in tokens[1:]:
        if token == "key":
            is_key = True
        else:
            raise ParseError(f"unknown attribute modifier {token!r}", line_number)
    nullable = name.endswith("?")
    if nullable:
        name = name[:-1]
    if not name.isidentifier():
        raise ParseError(f"bad attribute name {name!r}", line_number)
    return Attribute(name, nullable=nullable, span=span), is_key, fk_target


class _SchemaSection:
    def __init__(self, name: str, file: str | None = None):
        self.builder = SchemaBuilder(name)
        self.file = file
        self.pending_fks: list[tuple[str, str, str, SourceSpan]] = []
        self.names: set[str] = set()

    def add_relation(self, name: str, body: str, line_number: int) -> None:
        span = SourceSpan(line_number, file=self.file)
        attributes: list[Attribute] = []
        keys: list[str] = []
        for spec in body.split(","):
            attribute, is_key, fk_target = _parse_attribute_spec(
                spec, line_number, span=span
            )
            attributes.append(attribute)
            if is_key:
                keys.append(attribute.name)
            if fk_target:
                self.pending_fks.append((name, attribute.name, fk_target, span))
        if name in self.names:
            raise ParseError(f"duplicate relation name {name!r}", line_number)
        try:
            self.builder.relation(name, *attributes, key=keys or None, span=span)
        except SchemaError as error:
            raise _located(error, line_number) from error
        self.names.add(name)

    def build(self) -> Schema:
        for relation, attribute, target, span in self.pending_fks:
            self.builder.foreign_key(relation, attribute, target, span=span)
        try:
            return self.builder.build()
        except SchemaError as error:
            span = error.diagnostic.span if error.diagnostic else None
            if span is None:
                raise
            raise _located(error, span.line) from error

    def build_lenient(self) -> tuple[Schema, list[Diagnostic]]:
        """Build, dropping defective foreign keys and reporting them.

        Structural foreign-key defects (``SCH001``/``SCH002``/``SCH003``)
        become diagnostics and the offending declarations are dropped, so a
        schema object always comes back; a weak-acyclicity violation
        (``SCH010``) is reported but leaves the foreign keys in place.
        """
        from ..model.schema import ForeignKey

        probe = self.builder.build_relations()
        found: list[Diagnostic] = []
        seen: set[tuple[str, str]] = set()
        for relation, attribute, target, span in self.pending_fks:
            fk = ForeignKey(relation, attribute, target, span=span)
            problems = foreign_key_diagnostics(probe, fk)
            if not problems and (relation, attribute) in seen:
                problems = [duplicate_foreign_key_diagnostic(fk)]
            if problems:
                found.extend(problems)
                continue
            seen.add((relation, attribute))
            self.builder.foreign_key(relation, attribute, target, span=span)
        schema = self.builder.build(validate=False)
        cycle = weak_acyclicity_diagnostic(schema)
        if cycle is not None:
            found.append(cycle)
        return schema, found


def _parse_structure(
    text: str, file: str | None = None
) -> tuple[dict[str, _SchemaSection], list[tuple[str, str, str, str, int]]]:
    """The shared parse loop: schema sections plus raw correspondence tuples."""
    sections: dict[str, _SchemaSection] = {}
    correspondences: list[tuple[str, str, str, str, int]] = []
    current: _SchemaSection | None = None
    in_correspondences = False

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        header = _SCHEMA_HEADER.match(line)
        if header:
            role, schema_name = header.groups()
            if role in sections:
                raise ParseError(f"duplicate {role} schema", line_number)
            current = _SchemaSection(schema_name, file=file)
            sections[role] = current
            in_correspondences = False
            continue
        if _CORRESPONDENCES_HEADER.match(line):
            in_correspondences = True
            current = None
            continue
        relation = _RELATION_LINE.match(line)
        if relation:
            if current is None:
                raise ParseError("relation outside a schema section", line_number)
            current.add_relation(relation.group(1), relation.group(2), line_number)
            continue
        if in_correspondences:
            label = ""
            match = _LABEL.search(line)
            if match:
                label = match.group(1).strip()
                line = line[: match.start()].strip()
            where = ""
            if " where " in line:
                line, _, where = line.partition(" where ")
                line = line.strip()
                where = where.strip()
            if "->" not in line:
                raise ParseError(f"expected 'source -> target', got {line!r}", line_number)
            source, _, target = line.rpartition("->")
            correspondences.append(
                (source.strip(), target.strip(), label, where, line_number)
            )
            continue
        raise ParseError(f"unrecognized line {line!r}", line_number)

    if "source" not in sections or "target" not in sections:
        raise ParseError("a problem needs both a source and a target schema")
    return sections, correspondences


def parse_problem(
    text: str, name: str = "parsed-problem", file: str | None = None
) -> MappingProblem:
    """Parse a full mapping problem (two schemas plus correspondences).

    ``file`` only labels the source spans attached to the parsed objects; the
    text itself is always taken from ``text``.
    """
    sections, correspondences = _parse_structure(text, file=file)
    problem = MappingProblem(
        sections["source"].build(), sections["target"].build(), name=name
    )
    for source, target, label, where, line_number in correspondences:
        try:
            problem.add_correspondence(
                source,
                target,
                label,
                where=where,
                span=SourceSpan(line_number, file=file),
            )
        except ReproError as error:
            raise ParseError(str(error), line_number) from error
    return problem


def parse_problem_lenient(
    text: str, name: str = "parsed-problem", file: str | None = None
) -> tuple[MappingProblem, list[Diagnostic]]:
    """Parse a problem, reporting semantic defects instead of raising.

    Syntax errors still raise :class:`~repro.errors.ParseError` (there is no
    structure to recover); defective foreign keys and correspondences are
    dropped with diagnostics (``SCH00x`` / ``SCH010`` / ``MAP004``), so the
    linter can report every finding in a broken file at once.
    """
    sections, correspondences = _parse_structure(text, file=file)
    source_schema, found = sections["source"].build_lenient()
    target_schema, more = sections["target"].build_lenient()
    found.extend(more)
    problem = MappingProblem(source_schema, target_schema, name=name)
    for source, target, label, where, line_number in correspondences:
        span = SourceSpan(line_number, file=file)
        try:
            problem.add_correspondence(source, target, label, where=where, span=span)
        except ReproError as error:
            found.append(
                diagnostic(
                    "MAP004",
                    f"invalid correspondence {source!r} -> {target!r}: {error}",
                    span=span,
                    subject=f"{source} -> {target}",
                )
            )
    return problem, found


def parse_schema(text: str, name: str = "parsed-schema", file: str | None = None) -> Schema:
    """Parse a bare list of ``relation ...`` lines into a schema."""
    section = _SchemaSection(name, file=file)
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        relation = _RELATION_LINE.match(line)
        if not relation:
            raise ParseError(f"expected a relation line, got {line!r}", line_number)
        section.add_relation(relation.group(1), relation.group(2), line_number)
    if not section.names:
        raise ParseError("no relations found")
    return section.build()


_TUPLE = re.compile(r"\(([^()]*)\)")


def parse_instance(text: str, schema: Schema) -> Instance:
    """Parse ``Relation: (v1, v2), (v3, v4)`` lines into an instance.

    Values may be single-quoted to protect special characters (``'#tag'``,
    ``'with, comma'`` is *not* supported — commas still split); surrounding
    quotes are stripped.
    """
    instance = Instance(schema)
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"expected 'Relation: tuples', got {line!r}", line_number)
        relation, _, body = line.partition(":")
        relation = relation.strip()
        if relation not in schema:
            raise ParseError(f"unknown relation {relation!r}", line_number)
        for match in _TUPLE.finditer(body):
            values = []
            for piece in match.group(1).split(","):
                piece = piece.strip()
                if piece.startswith("'") and piece.endswith("'") and len(piece) >= 2:
                    piece = piece[1:-1]
                    values.append(piece)
                else:
                    values.append(NULL if piece == "null" else piece)
            try:
                instance.add(relation, tuple(values))
            except InstanceError as error:
                raise _located(error, line_number) from error
    return instance
