"""Mapping-level checks (the ``MAP*`` codes, §4–§6).

The checks here are the *static* ones: they read only the problem —
correspondence well-formedness (``MAP004``) and coverage of mandatory target
attributes (``MAP001``).  The *deep* checks are Algorithm 4's own: stage 2 of
a :class:`~repro.core.pipeline.MappingSystem` stops with one error carrying
every non-functional unitary mapping (``MAP003``), then every hard key
conflict (``MAP002``), and :func:`repro.analysis.analyzer.analyze_problem`
reports those findings.  So they reflect the system's algorithm (none under
the basic one), and no check runs twice; a failing stage that carries no
finding is ``MAP005``.
"""

from __future__ import annotations

from ..core.pipeline import MappingProblem
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
