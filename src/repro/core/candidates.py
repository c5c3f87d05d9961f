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
from .coverage import CoveredCorrespondence, analyse_correspondence, coverage_mappings


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


def _generate_candidates(
    source_tableaux: list[PartialTableau],
    target_tableaux: list[PartialTableau],
    correspondences: list[Correspondence],
    apply_nullable_pruning: bool,
) -> CandidateGeneration:
    result = CandidateGeneration()

    def coverage(side: str, tableau: PartialTableau):
        return [coverage_mappings(getattr(c, side), tableau) for c in correspondences]

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
            analyses = [
                analyse_correspondence(c, source, target)
                for c, source, target in zip(correspondences, source_cms, target_cms)
            ]
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
    return result
