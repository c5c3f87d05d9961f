"""Mapping-level checks (the ``MAP*`` codes, §4–§6).

Two layers, by cost:

* *static* checks read only the problem — correspondence well-formedness
  (``MAP004``) and coverage of mandatory target attributes (``MAP001``);
* *deep* checks run the paper's query-generation machinery without raising —
  Algorithm 4's functionality check per unitary mapping (``MAP003``) and its
  hard key-conflict identification (``MAP002``).  A pipeline stage that fails
  outright is reported as ``MAP005`` instead of propagating.  They read
  stage 1 from a :class:`~repro.core.pipeline.MappingSystem`'s cache, so
  the analyzer and every ``repro lint`` pass share one run of it.
"""

from __future__ import annotations

from ..core.conflicts import find_all_conflicts
from ..core.functionality import check_functionality
from ..core.pipeline import MappingProblem, MappingSystem
from ..core.query_generation import rewrite_to_unitary
from ..core.schema_mapping import NOVEL
from ..core.skolem import skolemize_schema_mapping
from ..errors import ReproError
from .diagnostics import Diagnostic, diagnostic


def correspondence_diagnostics(problem: MappingProblem) -> list[Diagnostic]:
    """``MAP004`` for every correspondence that fails validation."""
    found: list[Diagnostic] = []
    for item in problem.correspondences:
        try:
            item.validate(problem.source_schema, problem.target_schema)
        except ReproError as error:
            found.append(
                diagnostic(
                    "MAP004",
                    f"invalid correspondence {item!r}: {error}",
                    span=getattr(item, "span", None),
                    subject=repr(item),
                )
            )
    return found


def coverage_diagnostics(problem: MappingProblem) -> list[Diagnostic]:
    """``MAP001`` for mandatory target attributes no correspondence reaches.

    Only relations some correspondence targets are considered — a target
    relation with no correspondences at all simply stays empty (no mapping is
    generated for it), which is not a defect.  Key attributes are exempt:
    inventing key values with Skolem functors is the intended mechanism for
    object identity (§5.1), not a coverage gap.
    """
    reached: dict[str, set[str]] = {}
    for item in problem.correspondences:
        for relation, attribute in item.target.steps:
            reached.setdefault(relation, set()).add(attribute)
    found: list[Diagnostic] = []
    for relation_name in sorted(reached):
        if relation_name not in problem.target_schema:
            continue  # MAP004 already reports the unknown relation
        relation = problem.target_schema.relation(relation_name)
        key = set(relation.key)
        for attribute in relation.attributes:
            if attribute.nullable or attribute.name in key:
                continue
            if attribute.name in reached[relation_name]:
                continue
            found.append(
                diagnostic(
                    "MAP001",
                    f"mandatory target attribute {relation_name}."
                    f"{attribute.name} is not covered by any correspondence; "
                    "every generated mapping must invent its value",
                    span=getattr(attribute, "span", None),
                    subject=f"{relation_name}.{attribute.name}",
                )
            )
    return found


def key_management_diagnostics(system: MappingSystem) -> list[Diagnostic]:
    """``MAP002`` / ``MAP003`` / ``MAP005`` via Algorithm 4's own machinery.

    Skolemizes the system's (cached) schema mapping and rewrites it to
    unitary mappings, then — instead of Algorithm 4's "signal an error and
    stop" — reports every functionality violation and every hard key
    conflict found.
    """
    source = system.problem.source_schema
    target = system.problem.target_schema
    try:
        skolemized = skolemize_schema_mapping(
            list(system.schema_mapping),
            target,
            use_null_for_nullable=(system.algorithm == NOVEL),
        )
        unitary = rewrite_to_unitary(skolemized)
    except ReproError as error:
        name = system.problem.name
        return [
            diagnostic(
                "MAP005",
                f"schema-mapping generation failed for {name!r}: {error}",
                subject=name,
            )
        ]

    found: list[Diagnostic] = []
    for item in unitary:
        violation = check_functionality(item, source, target)
        if violation is not None:
            found.append(
                diagnostic("MAP003", str(violation), subject=item.name)
            )
    for conflict in find_all_conflicts(unitary, source, target):
        if conflict.is_hard:
            found.append(
                diagnostic(
                    "MAP002",
                    f"unresolvable hard key conflict: {conflict}; both "
                    "mappings copy source values into "
                    f"{conflict.left.consequent.relation}.{conflict.attribute}",
                    subject=f"{conflict.left.consequent.relation}."
                    f"{conflict.attribute}",
                )
            )
    return found

