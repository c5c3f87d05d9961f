"""Correspondence discovery: a simple name-based schema matcher.

The paper notes that "a mapping system may have further components, e.g., a
matching algorithm to automatically discover correspondences between the
source and target schemas" (section 1) and leaves that component out of
scope.  This module provides such a component so the library is usable when
no correspondences are drawn yet: it ranks candidate (referenced-)attribute
correspondences by name similarity and can bootstrap a
:class:`~repro.core.pipeline.MappingProblem` directly.

The matcher is deliberately simple (string similarity over attribute and
relation names, with foreign-key paths explored for referenced-attribute
suggestions); it is a convenience, not a research contribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from difflib import SequenceMatcher

from ..model.schema import Schema
from .correspondences import Correspondence, ReferencedAttribute
from .pipeline import MappingProblem

#: The longest foreign-key prefix path the matcher explores, in FK steps.
MAX_PATH_DEPTH = 2


def name_similarity(left: str, right: str) -> float:
    """Similarity in [0, 1]: exact (case-insensitive) match scores 1."""
    left_l, right_l = left.lower(), right.lower()
    if left_l == right_l:
        return 1.0
    return SequenceMatcher(None, left_l, right_l).ratio()


@dataclass(frozen=True)
class MatchSuggestion:
    """A ranked candidate correspondence."""

    correspondence: Correspondence
    score: float
    reason: str

    def __repr__(self) -> str:
        return f"{self.correspondence!r}  [{self.score:.2f}: {self.reason}]"


def _plain_references(schema: Schema) -> list[ReferencedAttribute]:
    return [
        ReferencedAttribute(((relation.name, attribute.name),))
        for relation in schema
        for attribute in relation.attributes
    ]


def _path_references(schema: Schema) -> list[ReferencedAttribute]:
    """Referenced attributes behind 1 to :data:`MAX_PATH_DEPTH` FK steps."""
    results: list[ReferencedAttribute] = []

    def extend(steps: tuple[tuple[str, str], ...], relation: str, depth: int) -> None:
        if depth > MAX_PATH_DEPTH:
            return
        for fk in schema.foreign_keys_of(relation):
            prefix = steps + ((relation, fk.attribute),)
            target = schema.relation(fk.referenced)
            for attribute in target.attribute_names:
                results.append(
                    ReferencedAttribute(prefix + ((fk.referenced, attribute),))
                )
            extend(prefix, fk.referenced, depth + 1)

    for relation in schema.relation_names():
        extend((), relation, 1)
    return results


def _score(source: ReferencedAttribute, target: ReferencedAttribute) -> tuple[float, str]:
    attribute_score = name_similarity(source.attribute, target.attribute)
    relation_score = name_similarity(source.relation, target.relation)
    score = 0.7 * attribute_score + 0.3 * relation_score
    # Penalize path length: prefer the simplest realization of a match.
    length_penalty = 0.05 * (len(source.steps) - 1 + len(target.steps) - 1)
    score = max(0.0, score - length_penalty)
    if attribute_score == 1.0:
        reason = "attribute names match"
    else:
        reason = f"attribute similarity {attribute_score:.2f}"
    return score, reason


def suggest_correspondences(
    source_schema: Schema,
    target_schema: Schema,
    threshold: float = 0.55,
) -> list[MatchSuggestion]:
    """Rank candidate correspondences between two schemas.

    Returns at most one suggestion per *target* attribute occurrence (the
    best-scoring source endpoint), sorted by descending score.  The source
    side also explores foreign-key paths, so the matcher can propose
    referenced-attribute correspondences like ``O.person ▹ P.name → C.name``.
    """
    source_refs = _plain_references(source_schema) + _path_references(source_schema)
    target_refs = _plain_references(target_schema)

    best: dict[ReferencedAttribute, MatchSuggestion] = {}
    for target_ref in target_refs:
        for source_ref in source_refs:
            score, reason = _score(source_ref, target_ref)
            if score < threshold:
                continue
            suggestion = MatchSuggestion(
                Correspondence(source_ref, target_ref), score, reason
            )
            current = best.get(target_ref)
            if current is None or suggestion.score > current.score:
                best[target_ref] = suggestion
    ranked = sorted(best.values(), key=lambda s: (-s.score, repr(s.correspondence)))
    return ranked


def bootstrap_problem(
    source_schema: Schema,
    target_schema: Schema,
    threshold: float = 0.55,
    name: str = "matched-problem",
) -> tuple[MappingProblem, list[MatchSuggestion]]:
    """Build a MappingProblem from the matcher's suggestions.

    Returns the problem plus the accepted suggestions, so a caller (or the
    CLI) can show what was auto-drawn and let the user adjust.
    """
    suggestions = suggest_correspondences(source_schema, target_schema, threshold)
    problem = MappingProblem(source_schema, target_schema, name=name)
    for index, suggestion in enumerate(suggestions, start=1):
        correspondence = Correspondence(
            suggestion.correspondence.source,
            suggestion.correspondence.target,
            label=f"auto{index}",
        )
        correspondence.validate(source_schema, target_schema)
        problem.correspondences.append(correspondence)
    return problem, suggestions
