"""Run all flow analyses over one program and turn the fixpoints into
a per-relation dump (``repro flow``), golden-snapshot state, and the
``FLW*`` diagnostics (``repro lint --flow``, ``MappingSystem.compile``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...datalog.program import DatalogProgram
from ...logic.terms import Variable
from ..diagnostics import Diagnostic, SourceSpan, diagnostic
from .keyorigin import FunctionalityRecord, KeyOriginAnalysis, functionality_records
from .nullability import NullabilityAnalysis
from .provenance import NULL_ORIGIN, ProvenanceAnalysis
from .solver import FlowResult, evaluation_order, solve


def _correspondence_targets(problem) -> dict[tuple[str, str], SourceSpan | None]:
    """Target positions some correspondence delivers a value into.

    Maps ``(relation, attribute)`` to the first declaring correspondence's
    DSL span (``None`` for programmatic problems).
    """
    targets: dict[tuple[str, str], SourceSpan | None] = {}
    if problem is None:
        return targets
    for item in problem.correspondences:
        key = (item.target.relation, item.target.attribute)
        if key not in targets or (targets[key] is None and item.span is not None):
            targets[key] = item.span
    return targets


def _attribute_span(program: DatalogProgram, relation: str, position: int):
    target = program.target_schema
    if target is None or relation not in target:
        return None
    attributes = target.relation(relation).attributes
    if position < len(attributes):
        return attributes[position].span
    return None


@dataclass
class FlowReport:
    """The solved abstract states of all flow analyses over one program."""

    program: DatalogProgram
    nullability: FlowResult
    provenance: FlowResult
    keyorigin: FlowResult
    functionality: list[FunctionalityRecord] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def results(self) -> tuple[FlowResult, FlowResult, FlowResult]:
        return (self.nullability, self.provenance, self.keyorigin)

    def stats(self) -> dict[str, dict[str, int]]:
        return {result.name: result.stats.to_dict() for result in self.results}

    def states(self) -> dict[str, dict[str, list[str]]]:
        """Per-analysis, per-relation formatted position values.

        The shape is stable and JSON-friendly; the golden snapshot tests
        compare it verbatim across runs.
        """
        relations = evaluation_order(self.program)
        out: dict[str, dict[str, list[str]]] = {}
        for result in self.results:
            lattice = result.analysis.lattice
            per_relation: dict[str, list[str]] = {}
            for relation in relations:
                per_relation[relation] = [
                    lattice.format(value)
                    for value in result.relation_values(relation)
                ]
            out[result.name] = per_relation
        return out

    def _position_label(self, relation: str, position: int) -> str:
        for schema in (self.program.target_schema, self.program.source_schema):
            if schema is not None and relation in schema:
                rel = schema.relation(relation)
                if position < rel.arity:
                    name = rel.attributes[position].name
                    if position in rel.key_positions():
                        name += "*"
                    return name
        return str(position)

    def render(self) -> str:
        """The ``repro flow`` dump: one block per defined relation."""
        lines: list[str] = []
        relations = evaluation_order(self.program)
        iterations = sum(r.stats.iterations for r in self.results)
        lines.append(
            f"flow fixpoint over {len(relations)} relation(s) in "
            f"{iterations} iteration(s)"
        )
        for relation in relations:
            kind = (
                "intermediate"
                if relation in self.program.intermediates
                else "target"
            )
            arity = self.program.relation_arity(relation) or 0
            lines.append(f"relation {relation} ({kind}, arity {arity})")
            for position in range(arity):
                label = self._position_label(relation, position)
                null = self.nullability.value(relation, position)
                origin = self.provenance.analysis.lattice.format(
                    self.provenance.value(relation, position)
                )
                key = self.keyorigin.value(relation, position)
                lines.append(
                    f"  [{position}] {label:<16} null={null:<7} key={key:<7} "
                    f"origins={origin}"
                )
        if self.functionality:
            lines.append("functionality (Algorithm 4, static):")
            for record in self.functionality:
                if record.confirmed:
                    lines.append(f"  {record.relation}: confirmed for {record.rule!r}")
                else:
                    attrs = ", ".join(record.undetermined)
                    lines.append(
                        f"  {record.relation}: NOT confirmed for {record.rule!r} "
                        f"(undetermined: {attrs})"
                    )
        if self.diagnostics:
            lines.append("diagnostics:")
            lines.extend(f"  {item.render()}" for item in self.diagnostics)
        return "\n".join(lines)


def _flw_diagnostics(
    program: DatalogProgram,
    report: FlowReport,
    problem,
) -> list[Diagnostic]:
    found: list[Diagnostic] = []
    target = program.target_schema
    if target is None:
        return found
    targets = _correspondence_targets(problem)
    render_origins = report.provenance.analysis.lattice.format
    for relation in program.defined_relations():
        if relation not in target:
            continue
        rel = target.relation(relation)
        key_positions = set(rel.key_positions())
        for position, attribute in enumerate(rel.attributes):
            origins = report.provenance.value(relation, position)
            if not origins:
                continue  # nothing reaches the position: a coverage concern
            corr_span = targets.get((relation, attribute.name))
            targeted = (relation, attribute.name) in targets
            span = corr_span or attribute.span
            if targeted and origins <= {NULL_ORIGIN}:
                found.append(
                    diagnostic(
                        "FLW001",
                        f"correspondence into {relation}.{attribute.name} is "
                        f"dead: only null can reach it "
                        f"(origins {render_origins(origins)})",
                        subject=f"{relation}.{attribute.name}",
                        span=span,
                    )
                )
                continue
            if (
                not attribute.nullable
                and position not in key_positions
                and all(origin[0] == "skolem" for origin in origins)
            ):
                functors = ", ".join(sorted(origin[1] for origin in origins))
                found.append(
                    diagnostic(
                        "FLW002",
                        f"mandatory attribute {relation}.{attribute.name} is "
                        f"fed only by invented values ({functors}); no "
                        "source value ever reaches it",
                        subject=f"{relation}.{attribute.name}",
                        span=span,
                    )
                )
    for record in report.functionality:
        if record.confirmed:
            continue
        attrs = ", ".join(record.undetermined)
        first_span = None
        rel = target.relation(record.relation) if record.relation in target else None
        if rel is not None:
            for name in record.undetermined:
                if rel.has_attribute(name) and rel.attribute(name).span is not None:
                    first_span = rel.attribute(name).span
                    break
        found.append(
            diagnostic(
                "FLW003",
                f"functionality of rule {record.rule!r} is not statically "
                f"confirmed: {record.relation}.{{{attrs}}} not determined by "
                "the key",
                subject=record.relation,
                span=first_span,
            )
        )
    return found


def analyze_flow(program: DatalogProgram, problem=None) -> FlowReport:
    """Solve all three analyses over ``program`` and attach diagnostics.

    ``problem`` (a :class:`~repro.core.pipeline.MappingProblem`) supplies
    correspondence targets and DSL spans; without it ``FLW001`` is skipped
    (no way to know which positions a correspondence promises to feed).
    """
    from ...obs import span as obs_span

    with obs_span("flow.analyze", rules=len(program.rules)):
        report = FlowReport(
            program=program,
            nullability=solve(program, NullabilityAnalysis(program)),
            provenance=solve(program, ProvenanceAnalysis(program)),
            keyorigin=solve(program, KeyOriginAnalysis(program)),
        )
        report.functionality = functionality_records(program)
        report.diagnostics = _flw_diagnostics(program, report, problem)
    return report

