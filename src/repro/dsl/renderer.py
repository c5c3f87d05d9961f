"""Paper-style rendering of mappings, programs and schemas.

The generators name Skolem functors ``f_<attribute>@<label>`` to keep them
globally distinct; the renderer abbreviates them back to the paper's look
(``fP``, ``fN``, ...) while keeping distinct functions distinguishable with
numeric suffixes.
"""

from __future__ import annotations

import re

from ..logic.mappings import LogicalMapping, SchemaMapping
from ..logic.terms import Term, Variable
from ..datalog.program import DatalogProgram, Rule
from ..model.schema import Schema

_FUNCTOR = re.compile(r"f_([A-Za-z_]\w*?)@([\w.+-]+)")


class FunctorAbbreviator:
    """Consistently shortens ``f_person@m2`` to ``fP`` (with suffixes on clashes)."""

    def __init__(self) -> None:
        self._names: dict[str, str] = {}
        self._used: dict[str, int] = {}

    def shorten(self, text: str) -> str:
        def replace(match: re.Match) -> str:
            full = match.group(0)
            if full not in self._names:
                base = "f" + match.group(1)[0].upper()
                count = self._used.get(base, 0)
                self._used[base] = count + 1
                self._names[full] = base if count == 0 else f"{base}{count + 1}"
            return self._names[full]

        return _FUNCTOR.sub(replace, text)


def render_schema(schema: Schema) -> str:
    """Render a schema as DSL ``relation`` lines."""
    lines = []
    for relation in schema:
        specs = []
        for attribute in relation.attributes:
            spec = attribute.name + ("?" if attribute.nullable else "")
            if attribute.name in relation.key:
                spec += " key"
            fk = schema.foreign_key_from(relation.name, attribute.name)
            if fk is not None:
                spec += f" -> {fk.referenced}"
            specs.append(spec)
        lines.append(f"relation {relation.name} ({', '.join(specs)})")
    return "\n".join(lines)


def render_problem(problem) -> str:
    """Render a whole mapping problem as DSL text.

    The output round-trips: :func:`repro.dsl.parser.parse_problem` on the
    rendered text reproduces the schemas and correspondences (source spans
    aside).  This is how generated scenarios are persisted for replay.
    """
    lines = [f"source schema {problem.source_schema.name}:"]
    lines += [f"  {line}" for line in render_schema(problem.source_schema).splitlines()]
    lines.append("")
    lines.append(f"target schema {problem.target_schema.name}:")
    lines += [f"  {line}" for line in render_schema(problem.target_schema).splitlines()]
    lines.append("")
    lines.append("correspondences:")
    for item in problem.correspondences:
        text = f"  {item.source!r} -> {item.target!r}"
        if item.filters:
            text += " where " + " and ".join(repr(f) for f in item.filters)
        if item.label:
            text += f" [{item.label}]"
        lines.append(text)
    return "\n".join(lines) + "\n"


def _render_value(value: object) -> str:
    from ..model.values import is_null

    if is_null(value):
        return "null"
    text = str(value)
    if "#" in text or " " in text:
        return f"'{text}'"
    return text


def render_instance(instance) -> str:
    """Render an instance as ``Relation: (v1, v2), ...`` DSL lines.

    The counterpart of :func:`repro.dsl.parser.parse_instance` — unlike
    ``Instance.to_text()``, which renders human-oriented tables, this output
    parses back.  Empty relations are omitted, matching the parser's view
    that unmentioned relations are empty.
    """
    lines = []
    for relation in instance.schema:
        rows = instance.relation(relation.name).rows
        if not rows:
            continue
        rendered = ", ".join(
            "(" + ", ".join(_render_value(v) for v in row) + ")" for row in rows
        )
        lines.append(f"{relation.name}: {rendered}")
    return "\n".join(lines) + ("\n" if lines else "")


def _display_renaming(mapping: LogicalMapping) -> dict[Variable, Term]:
    """Disambiguate variables that share a display name.

    Premise and consequent tableaux are built with independent variable
    namespaces, so an existential consequent variable may carry the same
    display name as a premise variable (both named from the attribute's
    initial).  The paper distinguishes existentials with primes (``n'``,
    ``e'``); this builds the same renaming for display.
    """
    used: dict[str, Variable] = {}
    renaming: dict[Variable, Term] = {}

    def visit(variable: Variable) -> None:
        if variable in renaming:
            return
        name = variable.name
        owner = used.get(name)
        if owner is None:
            used[name] = variable
            return
        if owner is variable:
            return
        candidate = name + "'"
        while candidate in used and used[candidate] is not variable:
            candidate += "'"
        used[candidate] = variable
        renaming[variable] = Variable(candidate)

    for atom in mapping.premise.atoms:
        for variable in atom.variables():
            visit(variable)
    for atom in mapping.consequent:
        for variable in atom.variables():
            visit(variable)
    return renaming


def _displayed(mapping: LogicalMapping) -> LogicalMapping:
    renaming = _display_renaming(mapping)
    if not renaming:
        return mapping
    return LogicalMapping(
        premise=mapping.premise.substitute(renaming),
        consequent=tuple(a.substitute(renaming) for a in mapping.consequent),
        label=mapping.label,
    )


def render_schema_mapping(mapping: SchemaMapping, shorten: bool = True) -> str:
    """Render a schema mapping, one tgd per line, right-aligned arrows."""
    abbreviator = FunctorAbbreviator() if shorten else None
    lines = []
    for logical in mapping:
        displayed = _displayed(logical)
        premise = repr(displayed.premise)
        consequent = ", ".join(repr(a) for a in displayed.consequent)
        text = f"{premise}  ->  {consequent}"
        if abbreviator is not None:
            text = abbreviator.shorten(text)
        lines.append(text)
    width = max((line.index("->") for line in lines), default=0)
    aligned = []
    for line in lines:
        left, _, right = line.partition("->")
        aligned.append(f"{left.rstrip().rjust(width)} -> {right.strip()}")
    return "\n".join(aligned)


def render_rule(rule: Rule, abbreviator: FunctorAbbreviator | None = None) -> str:
    parts = [repr(a) for a in rule.body]
    parts.extend(f"{v!r}=null" for v in rule.null_vars)
    parts.extend(f"{v!r}!=null" for v in rule.nonnull_vars)
    parts.extend(repr(e) for e in rule.equalities)
    parts.extend(f"not {a!r}" for a in rule.negated)
    text = f"{rule.head!r} <- {', '.join(parts)}"
    if abbreviator is not None:
        text = abbreviator.shorten(text)
    return text


def render_program(program: DatalogProgram, shorten: bool = True) -> str:
    """Render a Datalog program, one rule per line, aligned on ``<-``."""
    abbreviator = FunctorAbbreviator() if shorten else None
    lines = [render_rule(rule, abbreviator) for rule in program.rules]
    if not lines:
        return "(empty program)"
    width = max(line.index("<-") for line in lines)
    aligned = []
    for line in lines:
        left, _, right = line.partition("<-")
        aligned.append(f"{left.rstrip().rjust(width)} <- {right.strip()}")
    return "\n".join(aligned)
