"""Skeletons and candidate logical mappings (Algorithm 1 / 3, step 2).

A *skeleton* pairs a source logical relation with a target logical relation.
For each skeleton we analyse every correspondence (see
:mod:`repro.core.coverage`); a skeleton with at least one covered
correspondence yields candidate logical mappings — one per selection of a
coverage-mapping pair for each coverable correspondence (the paper's
"coverage" of a skeleton).

Nullable-related pruning (section 5.2) is applied here, during generation:

1. a skeleton exhibiting a *poison* coverage degree — ``(mand, null)``,
   ``(nonnull, null)`` or ``(null, nonnull)`` — is discarded entirely;
2. a candidate whose target tableau has a nullable, non-null attribute
   occurrence with no outgoing foreign key that is not bound by any covered
   correspondence is discarded (a sibling tableau assigning null is
   preferable).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial

from ..logic.tableau import PartialTableau
from ..logic.terms import Constant, Term, Variable
from ..obs import count, span
from .correspondences import Correspondence, Filter
from .coverage import (
    CoverageMapping,
    CoveredCorrespondence,
    SkeletonCoverage,
    analyse_correspondence,
    analysis_counts,
    coverage_walk,
    level_counts,
    walked_mappings,
)


@dataclass
class CandidateMapping:
    """A candidate logical mapping ``(T1, T2, V)`` with a selected coverage."""

    name: str
    source_tableau: PartialTableau
    target_tableau: PartialTableau
    selection: tuple[CoveredCorrespondence, ...]
    #: the correspondences the selection covers (fixed with the selection)
    covered: frozenset[Correspondence] = field(init=False)

    def __post_init__(self) -> None:
        self.covered = frozenset(c.correspondence for c in self.selection)

    def selection_by_correspondence(self) -> dict[Correspondence, CoveredCorrespondence]:
        return {c.correspondence: c for c in self.selection}

    def source_term(self, covered: CoveredCorrespondence) -> Term:
        return covered.source.referenced_term(self.source_tableau)

    def target_variable(self, covered: CoveredCorrespondence) -> Variable:
        term = covered.target.referenced_term(self.target_tableau)
        assert isinstance(term, Variable)
        return term

    def binding(self) -> tuple[dict[Variable, Term], list[tuple[Term, Term]]]:
        """The substitution realizing the covered correspondences.

        Maps each covered target variable to its source term.  If two covered
        correspondences bind the same target variable to different source
        terms, the extra pairs are returned as source-side equalities.
        """
        theta: dict[Variable, Term] = {}
        extra: list[tuple[Term, Term]] = []
        for covered in self.selection:
            target_var = self.target_variable(covered)
            source_term = self.source_term(covered)
            if target_var in theta:
                if theta[target_var] is not source_term:
                    extra.append((theta[target_var], source_term))
            else:
                theta[target_var] = source_term
        return theta, extra

    def filter_conditions(self) -> list[tuple[Term, str, Constant]]:
        """Clio-style filter conditions realized on this candidate's premise.

        For every covered correspondence carrying filters, the filter's
        attribute is located on the selected source coverage path and its
        term compared against the constant: ``(term, operator, constant)``.
        """
        conditions: list[tuple[Term, str, Constant]] = []
        for covered in self.selection:
            for item in covered.correspondence.filters:
                term = self._filter_term(covered, item)
                conditions.append((term, item.operator, Constant(item.value)))
        return conditions

    def _filter_term(self, covered: CoveredCorrespondence, item: Filter) -> Term:
        tableau = self.source_tableau
        for step_index, (relation, _attr) in enumerate(
            covered.correspondence.source.steps
        ):
            if relation == item.relation:
                atom_index = covered.source.atom_indices[step_index]
                return tableau.term_at(atom_index, item.attribute)
        raise AssertionError(  # pragma: no cover - validated upstream
            f"filter relation {item.relation!r} not on the covered path"
        )

    def __repr__(self) -> str:
        covered = ", ".join(
            c.correspondence.label or repr(c.correspondence) for c in self.selection
        )
        return f"{self.name}: {self.source_tableau!r} / {self.target_tableau!r} / {covered}"


class _RenderedOnRead:
    """A text field that may be set to a callable, rendered on first read."""

    def __set_name__(self, owner, name: str) -> None:
        self.slot = f"_{name}"

    def __get__(self, record, owner=None) -> str:
        if record is None:
            raise AttributeError(self.slot)  # no class-level default
        text = record.__dict__[self.slot]
        if callable(text):
            text = record.__dict__[self.slot] = text()
        return text

    def __set__(self, record, text) -> None:
        record.__dict__[self.slot] = text


@dataclass
class PruneRecord:
    """Why a skeleton or candidate was discarded (for reports and tests).

    ``description`` and ``reason`` also take a callable returning the text,
    rendered when first read: few callers read a poisoned skeleton's text.
    """

    name: str
    description: str = _RenderedOnRead()  # type: ignore[assignment]
    reason: str = _RenderedOnRead()  # type: ignore[assignment]
    rule: str  # "poison", "unbound-nonnull", "subsumption", "implication", "nonnull-extension"
    by: str | None = None  # the name of the candidate that caused the pruning


@dataclass
class CandidateGeneration:
    """The result of candidate generation: survivors plus the prune log."""

    candidates: list[CandidateMapping] = field(default_factory=list)
    pruned: list[PruneRecord] = field(default_factory=list)
    skeleton_count: int = 0


def _unbound_nonnull_violation(candidate: CandidateMapping) -> str | None:
    """Nullable-related pruning, second rule.

    Returns the offending ``relation.attribute`` or ``None``.  An attribute
    occurrence is offending when it is nullable with a non-null condition, has
    no outgoing foreign key, and its term is not bound by any covered
    correspondence.
    """
    tableau = candidate.target_tableau
    schema = tableau.schema
    bound = {candidate.target_variable(c) for c in candidate.selection}
    for atom_index, atom in enumerate(tableau.atoms):
        relation = schema.relation(atom.relation)
        for attribute in relation.attribute_names:
            if not relation.is_nullable(attribute):
                continue
            term = tableau.term_at(atom_index, attribute)
            if term not in tableau.nonnull_vars:
                continue
            if schema.has_foreign_key_from(atom.relation, attribute):
                continue
            if term in bound:
                continue
            return f"{atom.relation}.{attribute}"
    return None


def _skeleton_text(source: PartialTableau, target: PartialTableau) -> str:
    return f"{source!r} / {target!r}"


def _poison_text(poisoned: list[Correspondence]) -> str:
    return "poison coverage degree for " + ", ".join(repr(c) for c in poisoned)


def generate_candidates(
    source_tableaux: list[PartialTableau],
    target_tableaux: list[PartialTableau],
    correspondences: list[Correspondence],
    apply_nullable_pruning: bool = True,
) -> CandidateGeneration:
    """Enumerate skeletons and build candidate logical mappings.

    With ``apply_nullable_pruning`` False (the basic Algorithm 1), poison
    degrees cannot arise (standard-chase tableaux have no null conditions) and
    the unbound-non-null rule is skipped.
    """
    with span(
        "mapping.candidates",
        source_tableaux=len(source_tableaux),
        target_tableaux=len(target_tableaux),
    ) as trace:
        result = _generate_candidates(
            source_tableaux, target_tableaux, correspondences, apply_nullable_pruning
        )
        count("candidates.skeletons", result.skeleton_count)
        trace.set(skeletons=result.skeleton_count, candidates=len(result.candidates))
        return result


class _CoverageMemo:
    """Coverage and skeleton analyses of one :func:`generate_candidates` call.

    A referenced attribute's coverage mappings depend only on the chase
    decisions its walk reads (:func:`coverage_walk`), so sibling tableaux
    share one result list; an analysis depends only on its correspondence
    and the two lists, so it is kept per distinct triple.  Each entry counts
    its hits, and :meth:`flush` counts the ``coverage.*`` counters the full
    computations would have made; every such name was first counted by a
    miss, so the counters keep their order.  The memo is dropped when the
    call returns.
    """

    def __init__(self, correspondences: list[Correspondence]) -> None:
        self.correspondences = correspondences
        #: (correspondence index, side, walk) -> [coverage mappings, hits]
        self._walks: dict[tuple, list] = {}
        #: (correspondence index, id(source cms), id(target cms))
        #: -> [analysis, hits]
        self._analyses: dict[tuple[int, int, int], list] = {}
        #: each correspondence's analysis when a side has no coverage
        #: mapping: nothing to pair, nothing counted
        self._uncovered = [SkeletonCoverage(c, [], False) for c in correspondences]

    def coverage(self, side: str, tableau: PartialTableau) -> list[list[CoverageMapping]]:
        """Each correspondence's coverage mappings on ``side`` of ``tableau``."""
        found = []
        walks = self._walks
        for index, correspondence in enumerate(self.correspondences):
            reference = getattr(correspondence, side)
            walk = coverage_walk(reference, tableau)
            entry = walks.setdefault((index, side, walk), [None, -1])
            if entry[1] < 0:
                entry[0] = walked_mappings(reference, walk)
            entry[1] += 1
            found.append(entry[0])
        return found

    def analyses(
        self,
        source_cms: list[list[CoverageMapping]],
        target_cms: list[list[CoverageMapping]],
    ) -> list[SkeletonCoverage]:
        """Each correspondence's analysis in the skeleton of these coverages."""
        found = []
        analyses = self._analyses
        for index, (source, target) in enumerate(zip(source_cms, target_cms)):
            if not (source and target):
                found.append(self._uncovered[index])
                continue
            entry = analyses.setdefault((index, id(source), id(target)), [None, -1])
            if entry[1] < 0:
                entry[0] = analyse_correspondence(
                    self.correspondences[index], source, target
                )
            entry[1] += 1
            found.append(entry[0])
        return found

    def flush(self) -> None:
        """Count what the hits skipped, and forget the hits."""
        replayed: dict[str, int] = {}
        hit_counts = [
            (level_counts(key[2]), entry)
            for key, entry in self._walks.items()
            if entry[1]
        ] + [
            (analysis_counts(entry[0]), entry)
            for entry in self._analyses.values()
            if entry[1]
        ]
        for counts, entry in hit_counts:
            for name, value in counts.items():
                replayed[name] = replayed.get(name, 0) + value * entry[1]
            entry[1] = 0
        for name, value in replayed.items():
            if value:
                count(name, value)


def _generate_candidates(
    source_tableaux: list[PartialTableau],
    target_tableaux: list[PartialTableau],
    correspondences: list[Correspondence],
    apply_nullable_pruning: bool,
) -> CandidateGeneration:
    result = CandidateGeneration()
    memo = _CoverageMemo(correspondences)
    coverage = memo.coverage

    # Each side's coverage depends on its own tableau only.  The target side
    # is kept across source tableaux only when there is more than one of
    # them: keeping it for a single pass would hold every target tableau's
    # coverage at once for nothing.
    target_coverage = (
        [coverage("target", t) for t in target_tableaux]
        if len(source_tableaux) > 1
        else None
    )
    for source_tableau in source_tableaux:
        source_cms = coverage("source", source_tableau)
        for target_index, target_tableau in enumerate(target_tableaux):
            result.skeleton_count += 1
            skeleton_name = f"S{result.skeleton_count}"
            target_cms = (
                coverage("target", target_tableau)
                if target_coverage is None
                else target_coverage[target_index]
            )
            analyses = memo.analyses(source_cms, target_cms)
            if apply_nullable_pruning:
                poisoned = [a for a in analyses if a.has_poison]
                if poisoned:
                    count("prune.poison")
                    result.pruned.append(
                        PruneRecord(
                            skeleton_name,
                            partial(_skeleton_text, source_tableau, target_tableau),
                            partial(
                                _poison_text, [a.correspondence for a in poisoned]
                            ),
                            rule="poison",
                        )
                    )
                    continue
            coverable = [a for a in analyses if a.covered_pairs]
            if not coverable:
                continue  # a skeleton covering nothing is simply not a candidate
            for selection_index, combo in enumerate(
                itertools.product(*(a.covered_pairs for a in coverable))
            ):
                # A skeleton with several coverage selections yields several
                # candidates, distinguished by a selection suffix.
                name = f"S{result.skeleton_count}"
                if selection_index:
                    name = f"{name}.{selection_index}"
                candidate = CandidateMapping(
                    name=name,
                    source_tableau=source_tableau,
                    target_tableau=target_tableau,
                    selection=tuple(combo),
                )
                count("candidates.generated")
                if apply_nullable_pruning:
                    offending = _unbound_nonnull_violation(candidate)
                    if offending is not None:
                        count("prune.unbound-nonnull")
                        result.pruned.append(
                            PruneRecord(
                                candidate.name,
                                repr(candidate),
                                f"nullable non-null attribute {offending} has no "
                                "foreign key and is not bound by any correspondence",
                                rule="unbound-nonnull",
                            )
                        )
                        continue
                result.candidates.append(candidate)
    memo.flush()
    return result
