"""Schema mapping generation — Algorithm 1 (basic) and Algorithm 3 (novel).

Both algorithms share the same skeleton: chase each schema into logical
relations, pair them into skeletons, build candidate logical mappings from
covered correspondences, prune, and emit one source-to-target tgd per
surviving candidate.  The differences (paper section 5.3, underlined steps)
are configuration:

* the basic algorithm uses the **standard** chase and only
  subsumption/implication pruning;
* the novel algorithm uses the **modified** chase (partial tableaux), the
  refined coverage notions, nullable-related pruning and non-null-extension
  pruning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import MappingGenerationError
from ..logic.atoms import Disequality, Equality
from ..logic.mappings import LogicalMapping, Premise, SchemaMapping
from ..logic.tableau import PartialTableau
from ..model.schema import Schema
from ..obs import RunReport, count, span, stage_report
from .candidates import (
    CandidateGeneration,
    CandidateMapping,
    PruneRecord,
    generate_candidates,
)
from .chase import MODIFIED, STANDARD, logical_relations
from .correspondences import Correspondence
from .pruning import prune_candidates

BASIC = "basic"
NOVEL = "novel"


@dataclass
class SchemaMappingReport:
    """Everything the generation run decided, for inspection and tests."""

    source_tableaux: list[PartialTableau] = field(default_factory=list)
    target_tableaux: list[PartialTableau] = field(default_factory=list)
    skeleton_count: int = 0
    candidates: list[CandidateMapping] = field(default_factory=list)
    pruned: list[PruneRecord] = field(default_factory=list)
    kept: list[CandidateMapping] = field(default_factory=list)


@dataclass
class SchemaMappingResult:
    """The generated schema mapping together with its report."""

    schema_mapping: SchemaMapping
    report: SchemaMappingReport
    #: stage telemetry, populated when an obs tracer is active (see repro.obs)
    run_report: RunReport | None = None


def candidate_to_logical_mapping(
    candidate: CandidateMapping, label: str
) -> LogicalMapping:
    """Interpret a surviving candidate as a source-to-target tgd.

    Covered correspondences become shared variables: each covered target
    variable is replaced by its source term.  The target tableau's null and
    non-null conditions are dropped (paper section 5.2, "Actual Schema
    Mapping Generation"); the source conditions are kept in the premise.
    """
    theta, extra_equalities = candidate.binding()
    source_tableau = candidate.source_tableau
    target_tableau = candidate.target_tableau
    equalities = [Equality(a, b) for a, b in extra_equalities]
    disequalities = []
    for term, operator, constant in candidate.filter_conditions():
        if operator == "=":
            equalities.append(Equality(term, constant))
        else:
            disequalities.append(Disequality(term, constant))
    premise = Premise(
        atoms=tuple(source_tableau.atoms),
        null_vars=tuple(
            sorted(source_tableau.null_vars, key=lambda v: v.index)
        ),
        nonnull_vars=tuple(
            sorted(source_tableau.nonnull_vars, key=lambda v: v.index)
        ),
        equalities=tuple(equalities),
        disequalities=tuple(disequalities),
    )
    consequent = tuple(atom.substitute(theta) for atom in target_tableau.atoms)
    return LogicalMapping(
        premise=premise,
        consequent=consequent,
        label=label,
        covered=candidate.selection,
        source_tableau=source_tableau,
        target_tableau=target_tableau,
    )


def generate_schema_mapping(
    source_schema: Schema,
    target_schema: Schema,
    correspondences: list[Correspondence],
    algorithm: str = NOVEL,
    semantic_pruning: bool = False,
) -> SchemaMappingResult:
    """Run schema-mapping generation end to end.

    ``algorithm`` is :data:`BASIC` (Algorithm 1) or :data:`NOVEL`
    (Algorithm 3).  ``semantic_pruning`` additionally routes pruning pairs
    the syntactic tests miss through the chase-based containment engine
    (see :func:`repro.core.pruning.prune_candidates`).
    """
    if algorithm not in (BASIC, NOVEL):
        raise MappingGenerationError(f"unknown algorithm {algorithm!r}")
    for correspondence in correspondences:
        correspondence.validate(source_schema, target_schema)

    with span(
        "stage.schema_mapping",
        algorithm=algorithm,
        correspondences=len(correspondences),
    ) as trace:
        chase_mode = MODIFIED if algorithm == NOVEL else STANDARD
        report = SchemaMappingReport()
        with span("chase.source"):
            report.source_tableaux = logical_relations(source_schema, mode=chase_mode)
        with span("chase.target"):
            report.target_tableaux = logical_relations(target_schema, mode=chase_mode)

        generation: CandidateGeneration = generate_candidates(
            report.source_tableaux,
            report.target_tableaux,
            correspondences,
            apply_nullable_pruning=(algorithm == NOVEL),
        )
        report.skeleton_count = generation.skeleton_count
        report.candidates = generation.candidates
        report.pruned.extend(generation.pruned)

        pruning = prune_candidates(
            generation.candidates,
            use_nonnull_extension=(algorithm == NOVEL),
            semantic=semantic_pruning,
        )
        report.pruned.extend(pruning.pruned)
        report.kept = pruning.kept

        mapping = SchemaMapping(source_schema, target_schema)
        for index, candidate in enumerate(pruning.kept, start=1):
            mapping.mappings.append(
                candidate_to_logical_mapping(candidate, label=f"m{index}")
            )
        count("mapping.tgds", len(mapping.mappings))
        trace.set(mappings=len(mapping.mappings))
    return SchemaMappingResult(
        schema_mapping=mapping,
        report=report,
        run_report=stage_report(trace, "schema-mapping"),
    )
