"""Query generation — Algorithm 2 (basic) and Algorithm 4 (novel).

Both algorithms skolemize the schema mapping, rewrite it into unitary
mappings and "reverse the arrows" into a non-recursive Datalog program.  The
novel algorithm inserts the key-management step in between: the
functionality check and the identification / resolution of key conflicts
(see :mod:`repro.core.functionality`, :mod:`repro.core.conflicts`,
:mod:`repro.core.resolution`).  Negated subqueries introduced by resolution
become intermediate ``tmp`` relations, shared between mappings negating the
same premise projection (the paper's ``OCtmp``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import NonFunctionalMappingError, QueryGenerationError
from ..logic.atoms import NegatedPremise, RelationalAtom
from ..logic.mappings import LogicalMapping, SchemaMapping, UnitaryMapping
from ..logic.terms import Variable
from ..model.schema import Schema
from ..obs import RunReport, count, span, stage_report
from ..datalog.optimize import remove_subsumed_rules
from ..datalog.program import DatalogProgram, Rule
from .conflicts import find_all_conflicts
from .functionality import PairChecker, functionality_violations
from .resolution import ResolutionReport, resolve_key_conflicts
from .schema_mapping import BASIC, NOVEL
from .skolem import (
    ALL_SOURCE_OR_KEY_VARS,
    SOURCE_AND_RHS_VARS,
    skolemize_schema_mapping,
)


def rewrite_to_unitary(mappings: list[LogicalMapping]) -> list[UnitaryMapping]:
    """Split each skolemized mapping into one mapping per consequent atom.

    The paper's subscripted implication arrows — each unitary mapping
    remembers its original logical mapping, because conflict resolution must
    rewrite all siblings together.
    """
    unitary: list[UnitaryMapping] = []
    for mapping in mappings:
        label = mapping.label or "m"
        for index, atom in enumerate(mapping.consequent, start=1):
            unitary.append(
                UnitaryMapping(
                    premise=mapping.premise,
                    consequent=atom,
                    origin=label,
                    name=f"{label}.{index}",
                )
            )
    return unitary


def _tmp_name(negation: NegatedPremise, taken: set[str]) -> str:
    """A readable intermediate-relation name, paper-style (``OCtmp``)."""
    letters = "".join(a.relation[0] for a in negation.atoms[:2]) or "N"
    base = f"{letters}tmp"
    name = base
    suffix = 2
    while name in taken:
        name = f"{base}{suffix}"
        suffix += 1
    return name


@dataclass
class QueryGenerationResult:
    """The emitted program plus the intermediate artifacts of Algorithm 4."""

    program: DatalogProgram
    #: the program before ``qgen.optimize`` (``program`` when it is off)
    unoptimized: DatalogProgram
    skolemized: list[LogicalMapping] = field(default_factory=list)
    unitary: list[UnitaryMapping] = field(default_factory=list)
    final: list[UnitaryMapping] = field(default_factory=list)
    resolution: ResolutionReport | None = None
    #: stage telemetry, populated when an obs tracer is active (see repro.obs)
    run_report: RunReport | None = None


def build_program(
    mappings: list[UnitaryMapping],
    source_schema: Schema,
    target_schema: Schema,
) -> DatalogProgram:
    """Reverse the (modified) unitary mappings into Datalog rules.

    Negated premises become intermediate relations: mappings negating the
    same premise projection (same structural signature) share one ``tmp``
    relation and its defining rule.
    """
    program = DatalogProgram(source_schema=source_schema, target_schema=target_schema)
    tmp_by_signature: dict[tuple, str] = {}
    tmp_rules: list[Rule] = []
    taken: set[str] = set(source_schema.relation_names()) | set(
        target_schema.relation_names()
    )

    main_rules: list[Rule] = []
    for mapping in mappings:
        negated_atoms: list[RelationalAtom] = []
        for negation in mapping.premise.negated:
            signature = negation.signature()
            name = tmp_by_signature.get(signature)
            if name is None:
                name = _tmp_name(negation, taken)
                taken.add(name)
                tmp_by_signature[signature] = name
                program.intermediates[name] = len(negation.correlated)
                tmp_rules.append(
                    Rule(
                        head=RelationalAtom(name, negation.correlated),
                        body=negation.atoms,
                        null_vars=tuple(
                            v for v in negation.null_vars if isinstance(v, Variable)
                        ),
                        nonnull_vars=tuple(
                            v for v in negation.nonnull_vars if isinstance(v, Variable)
                        ),
                        equalities=negation.equalities,
                        disequalities=negation.disequalities,
                    )
                )
            negated_atoms.append(RelationalAtom(name, negation.correlated))
        main_rules.append(
            Rule(
                head=mapping.consequent,
                body=mapping.premise.atoms,
                negated=tuple(negated_atoms),
                null_vars=mapping.premise.null_vars,
                nonnull_vars=mapping.premise.nonnull_vars,
                equalities=mapping.premise.equalities,
                disequalities=mapping.premise.disequalities,
            )
        )
    program.rules = main_rules + tmp_rules
    program.validate()
    return program


def generate_queries(
    schema_mapping: SchemaMapping,
    algorithm: str = NOVEL,
    optimize: bool = True,
) -> QueryGenerationResult:
    """Run query generation end to end (Algorithm 2 or 4).

    Each algorithm skolemizes with its own strategy: Algorithm 4 with
    All-Source-Or-Key-Vars, Algorithm 2 with Clio's Source-And-RHS-Vars.

    Algorithm 4 stops with one error carrying every ``MAP003``, then every
    ``MAP002`` finding: a :class:`NonFunctionalMappingError` if any mapping
    is non-functional, else resolution's ``HardKeyConflictError``.
    """
    if algorithm not in (BASIC, NOVEL):
        raise QueryGenerationError(f"unknown algorithm {algorithm!r}")
    source_schema = schema_mapping.source_schema
    target_schema = schema_mapping.target_schema
    assert isinstance(source_schema, Schema) and isinstance(target_schema, Schema)

    skolem_strategy = (
        ALL_SOURCE_OR_KEY_VARS if algorithm == NOVEL else SOURCE_AND_RHS_VARS
    )
    with span(
        "stage.query_generation",
        algorithm=algorithm,
        mappings=len(schema_mapping),
    ) as trace:
        skolemized = skolemize_schema_mapping(
            list(schema_mapping),
            target_schema,
            strategy=skolem_strategy,
            use_null_for_nullable=(algorithm == NOVEL),
        )
        unitary = rewrite_to_unitary(skolemized)
        count("qgen.unitary_mappings", len(unitary))

        resolution: ResolutionReport | None = None
        if algorithm == NOVEL:
            checker = PairChecker(unitary, source_schema, target_schema)
            violations = functionality_violations(checker)
            if violations:
                conflicts = find_all_conflicts(checker)
                hard = [conflict for conflict in conflicts if conflict.is_hard]
                findings = [item.diagnostic() for item in [*violations, *hard]]
                raise NonFunctionalMappingError(
                    findings[0].message, diagnostics=findings
                )
            final, resolution = resolve_key_conflicts(checker)
        else:
            final = unitary

        with span("qgen.build_program", mappings=len(final)):
            program = unoptimized = build_program(
                final, source_schema, target_schema
            )
        if optimize:
            before = len(program.rules)
            with span("qgen.optimize"):
                program = remove_subsumed_rules(program)
            count("qgen.rules_optimized_away", before - len(program.rules))
        count("qgen.rules", len(program.rules))
        trace.set(rules=len(program.rules))
    return QueryGenerationResult(
        program=program,
        unoptimized=unoptimized,
        skolemized=skolemized,
        unitary=unitary,
        final=final,
        resolution=resolution,
        run_report=stage_report(trace, "query-generation"),
    )
