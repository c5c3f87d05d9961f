"""Coverage of (referenced-attribute) correspondences by partial tableaux.

Implements the paper's notions (sections 4 and 5.2):

* a *coverage mapping* of a referenced attribute ``R1.A1 ▹ ... ▹ Rn.An`` by a
  tableau: a sequence of atoms, one per step, where each step's term equals
  the next atom's key term (i.e. the next atom is the FK child);
* the *coverage level* of a (referenced) attribute in a partial tableau:
  ``mand``, ``null``, ``nonnull``, or ``none`` — with the whole-path proviso
  that every prefix attribute must be covered at level mand or nonnull;
* the *coverage degree* of a correspondence by a skeleton: the pair of levels
  of its two referenced attributes.

Degrees are classified three ways (reconciling section 5.2 with the
case-by-case analysis of Appendix A):

* **covered** — both levels in ``{mand, nonnull}``: the correspondence
  contributes a value-flow condition to the candidate logical mapping;
* **poison** — ``(mand, null)``, ``(nonnull, null)`` or ``(null, nonnull)``:
  the skeleton must be pruned (nullable-related pruning, first rule);
* **neutral** — everything else (``(null, mand)``, ``(null, null)``, or any
  degree involving ``none``): the correspondence is simply not covered.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..logic.tableau import MAND, NONE, NONNULL, NULL, PartialTableau
from ..logic.terms import Term
from ..obs import count
from .correspondences import Correspondence, ReferencedAttribute

_VALUE_LEVELS = frozenset({MAND, NONNULL})
_POISON_DEGREES = frozenset({(MAND, NULL), (NONNULL, NULL), (NULL, NONNULL)})


@dataclass(frozen=True)
class CoverageMapping:
    """One way a referenced attribute is realized inside a tableau."""

    reference: ReferencedAttribute
    atom_indices: tuple[int, ...]
    level: str

    def referenced_term(self, tableau: PartialTableau) -> Term:
        """The term occurring at the referenced (last) attribute position."""
        return tableau.term_at(self.atom_indices[-1], self.reference.attribute)


#: a coverage search's outcome: per complete path, the atom indices it
#: visits and the level of its last attribute
Walk = tuple[tuple[tuple[int, ...], str], ...]


def coverage_walk(reference: ReferencedAttribute, tableau: PartialTableau) -> Walk:
    """Where the coverage mappings of ``reference`` lie in ``tableau``.

    Every complete path as its atom indices and last level, in the order
    :func:`coverage_mappings` returns them.  The walk reads only the
    tableau's chase decisions along each path (a level or a missing FK
    child ends it), so sibling tableaux that decided those alike share it;
    candidate generation keys its coverage memo on it.
    """
    steps = reference.steps
    walks = []
    for start in tableau.atoms_for(steps[0][0]):
        index = start
        indices = [start]
        for step, (_relation, attribute) in enumerate(steps[:-1]):
            if tableau.attribute_level(index, attribute) not in _VALUE_LEVELS:
                break
            child = tableau.child_of(index, attribute)
            if child is None or tableau.atoms[child].relation != steps[step + 1][0]:
                break
            index = child
            indices.append(child)
        else:
            level = tableau.attribute_level(index, reference.attribute)
            walks.append((tuple(indices), level))
    return tuple(walks)


def level_counts(walk: Walk) -> dict[str, int]:
    """The ``coverage.level.*`` counts of one walk (``none`` when it found
    nothing)."""
    if not walk:
        return {f"coverage.level.{NONE}": 1}
    counts: dict[str, int] = {}
    for _indices, level in walk:
        name = f"coverage.level.{level}"
        counts[name] = counts.get(name, 0) + 1
    return counts


def coverage_mappings(
    reference: ReferencedAttribute, tableau: PartialTableau
) -> list[CoverageMapping]:
    """All coverage mappings of ``reference`` in ``tableau`` with their levels.

    Only complete paths are returned; a broken path (a step attribute at
    level null, or a missing FK child) contributes nothing, which realizes the
    ``none`` coverage level for that route.
    """
    return walked_mappings(reference, coverage_walk(reference, tableau))


def walked_mappings(reference: ReferencedAttribute, walk: Walk) -> list[CoverageMapping]:
    """The coverage mappings of ``reference`` that ``walk`` found, counted."""
    for name, value in level_counts(walk).items():
        count(name, value)
    return [CoverageMapping(reference, indices, level) for indices, level in walk]


def coverage_level(reference: ReferencedAttribute, tableau: PartialTableau) -> str:
    """The best coverage level of ``reference`` in ``tableau`` (``none`` if absent)."""
    levels = [cm.level for cm in coverage_mappings(reference, tableau)]
    for preferred in (MAND, NONNULL, NULL):
        if preferred in levels:
            return preferred
    return NONE


@dataclass(frozen=True)
class CoveredCorrespondence:
    """A correspondence with one selected coverage-mapping pair and its degree."""

    correspondence: Correspondence
    source: CoverageMapping
    target: CoverageMapping

    @property
    def degree(self) -> tuple[str, str]:
        return (self.source.level, self.target.level)


def is_covered_degree(degree: tuple[str, str]) -> bool:
    """Covered: both levels carry a value (mand or nonnull)."""
    return degree[0] in _VALUE_LEVELS and degree[1] in _VALUE_LEVELS


def is_poison_degree(degree: tuple[str, str]) -> bool:
    """Poison: the degrees that force pruning of the whole candidate."""
    return degree in _POISON_DEGREES


@dataclass
class SkeletonCoverage:
    """Per-skeleton coverage analysis of one correspondence."""

    correspondence: Correspondence
    covered_pairs: list[CoveredCorrespondence]
    has_poison: bool


def analyse_correspondence(
    correspondence: Correspondence,
    source_cms: list[CoverageMapping],
    target_cms: list[CoverageMapping],
) -> SkeletonCoverage:
    """Classify every coverage-mapping pair of one correspondence in a skeleton.

    ``source_cms`` and ``target_cms`` are the :func:`coverage_mappings` of the
    correspondence's two referenced attributes in the skeleton's source and
    target tableau.  Each depends on its tableau's :func:`coverage_walk`
    only, so candidate generation computes them once per distinct walk and
    this analysis once per distinct pair of them.
    """
    covered: list[CoveredCorrespondence] = []
    poison = False
    for source_cm in source_cms:
        for target_cm in target_cms:
            degree = (source_cm.level, target_cm.level)
            if is_covered_degree(degree):
                covered.append(CoveredCorrespondence(correspondence, source_cm, target_cm))
            elif is_poison_degree(degree):
                poison = True
    # A correspondence with at least one covered realization is not poisonous:
    # the covered pair is selected and the skeleton survives.
    analysis = SkeletonCoverage(correspondence, covered, poison and not covered)
    for name, value in analysis_counts(analysis).items():
        count(name, value)
    return analysis


def analysis_counts(analysis: SkeletonCoverage) -> dict[str, int]:
    """The counts of one skeleton analysis: its covered pairs, or its poison."""
    if analysis.covered_pairs:
        return {"coverage.covered_pairs": len(analysis.covered_pairs)}
    if analysis.has_poison:
        return {"coverage.poison_degrees": 1}
    return {}
