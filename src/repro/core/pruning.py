"""Pruning of candidate logical mappings (Algorithm 3, step 3).

Three structural pruning rules, applied in the paper's order after the
nullable-related pruning already performed during candidate generation:

* **subsumption**: ``m'`` is subsumed by ``m`` when both tableaux of ``m``
  embed into the corresponding tableaux of ``m'`` (so ``m'`` is "bigger"),
  at least one embedding is strict, and both cover the same correspondences;
* **implication**: ``m`` is implied by ``m'`` when both share the same source
  tableau and ``m``'s target tableau embeds into ``m'``'s (everything ``m``
  asserts, ``m'`` asserts too, with the same value bindings);
* **non-null extension**: for two candidates over the same source tableau
  whose target tableaux are chase siblings related by ``≺`` (the non-null
  extension of a nullable foreign key), the extension is pruned when it
  covers nothing more, and the null variant is pruned when the extension
  covers strictly more.

Embeddings respect null / non-null conditions (a condition of the smaller
tableau must be present in the bigger one) and the value bindings of the
covered correspondences (the data flow must be preserved, not just the
shape).

With ``semantic=True``, :func:`prune_candidates` additionally routes pairs
the syntactic tests cannot decide through the chase-based containment
engine (:mod:`repro.analysis.semantic.containment`): subsumption falls back
to condition-aware query containment with the covered flows as heads, and
implication falls back to tgd implication (``mapping_implies``) — which in
particular drops the requirement that the two candidates share the *same*
source tableau object, catching isomorphic-but-distinct chase results.
The flag is off by default: the syntactic rules are the paper's, and the
default pipeline behaviour must stay bit-for-bit identical.

Implication is the optimizer's redundancy scan over one bucket (semantic
implication crosses source tableaux); subsumption keeps its own scan, which
also prunes against candidates already pruned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from ..logic.homomorphism import (
    Marks,
    PreparedClause,
    condition_check,
    dominated,
    find_homomorphism,
    pattern_marks,
)
from ..logic.redundancy import redundant
from ..logic.tableau import PartialTableau
from ..logic.terms import Term, Variable
from ..obs import count, span
from .candidates import CandidateMapping, PruneRecord


class PreparedTableaux:
    """The prepared clauses of the tableaux one pruning run compares.

    Each tableau searched into is prepared once (:class:`~repro.logic.
    homomorphism.PreparedClause`: canonical buckets and position marks),
    and each candidate's pattern marks once per side, with the terms its
    covered correspondences reference left free: the subsumption
    embeddings pre-bind exactly those.  Kept for one
    :func:`prune_candidates` call.
    """

    def __init__(self) -> None:
        self._clauses: dict[int, tuple[PartialTableau, PreparedClause]] = {}
        self._patterns: dict[tuple[int, str], tuple[CandidateMapping, Marks]] = {}

    def clause(self, tableau: PartialTableau) -> PreparedClause:
        entry = self._clauses.get(id(tableau))
        if entry is None:
            clause = PreparedClause(tableau.atoms, tableau.null_vars, tableau.nonnull_vars)
            entry = self._clauses[id(tableau)] = (tableau, clause)
        return entry[1]

    def pattern(self, candidate: CandidateMapping, side: str) -> Marks:
        """``candidate``'s tableau on ``side`` as a subsumption pattern."""
        entry = self._patterns.get((id(candidate), side))
        if entry is None:
            tableau = getattr(candidate, f"{side}_tableau")
            referenced = {
                getattr(covered, side).referenced_term(tableau)
                for covered in candidate.selection
            }
            marks = pattern_marks(
                tableau.atoms, tableau.null_vars, tableau.nonnull_vars, free=referenced
            )
            entry = self._patterns[(id(candidate), side)] = (candidate, marks)
        return entry[1]

    def may_subsume(self, small: CandidateMapping, big: CandidateMapping) -> bool:
        """False when mark dominance rules out an embedding :func:`subsumes`
        needs (both candidates covering the same correspondences)."""
        return dominated(
            self.pattern(small, "source"), self.clause(big.source_tableau)
        ) and dominated(self.pattern(small, "target"), self.clause(big.target_tableau))


def _embed_tableau(
    small: PartialTableau,
    big: PartialTableau,
    fixed: dict[Variable, Term],
    prepared: PreparedTableaux,
) -> dict[Variable, Term] | None:
    """An embedding of ``small``'s atoms (and conditions) into ``big``'s."""
    target = prepared.clause(big)
    check = condition_check(small.null_vars, small.nonnull_vars, target)
    return find_homomorphism(small.atoms, target, fixed=fixed, var_check=check)


def _binding_fixed_pairs(
    smaller: CandidateMapping, bigger: CandidateMapping, side: str
) -> dict[Variable, Term] | None:
    """Fixed variable pairs forcing the embeddings to preserve covered flows.

    For every correspondence covered by both candidates, the smaller
    candidate's referenced term must map onto the bigger candidate's
    referenced term, on the requested side ("source" or "target").  Returns
    ``None`` on an inconsistency (same variable forced to two images).
    """
    fixed: dict[Variable, Term] = {}
    small_sel = smaller.selection_by_correspondence()
    big_sel = bigger.selection_by_correspondence()
    for correspondence, small_cov in small_sel.items():
        big_cov = big_sel.get(correspondence)
        if big_cov is None:
            continue
        if side == "source":
            small_term = small_cov.source.referenced_term(smaller.source_tableau)
            big_term = big_cov.source.referenced_term(bigger.source_tableau)
        else:
            small_term = small_cov.target.referenced_term(smaller.target_tableau)
            big_term = big_cov.target.referenced_term(bigger.target_tableau)
        if isinstance(small_term, Variable):
            if small_term in fixed and fixed[small_term] != big_term:
                return None
            fixed[small_term] = big_term
        elif small_term != big_term:  # pragma: no cover - tableau terms are variables
            return None
    return fixed


def subsumes(
    small: CandidateMapping,
    big: CandidateMapping,
    prepared: PreparedTableaux | None = None,
) -> bool:
    """True iff ``big`` is subsumed by ``small`` (paper: m' subsumed by m).

    ``prepared`` shares the tableaux' prepared clauses across the calls of
    one pruning run.  A pair that fails mark dominance is answered without
    searching and counted as ``signature.dominance_skips``.
    """
    if small.covered != big.covered:
        return False
    strict = len(big.source_tableau) > len(small.source_tableau) or len(
        big.target_tableau
    ) > len(small.target_tableau)
    if not strict:
        return False
    prepared = prepared or PreparedTableaux()
    if not prepared.may_subsume(small, big):
        count("signature.dominance_skips")
        return False
    fixed_source = _binding_fixed_pairs(small, big, "source")
    if fixed_source is None:
        return False
    g = _embed_tableau(small.source_tableau, big.source_tableau, fixed_source, prepared)
    if g is None:
        return False
    fixed_target = _binding_fixed_pairs(small, big, "target")
    if fixed_target is None:
        return False
    h = _embed_tableau(small.target_tableau, big.target_tableau, fixed_target, prepared)
    return h is not None


def implies(
    stronger: CandidateMapping,
    weaker: CandidateMapping,
    prepared: PreparedTableaux | None = None,
) -> bool:
    """True iff ``weaker`` is implied by ``stronger``.

    Requires the identical source tableau (the same chase result, hence the
    same premise and source variables) and an embedding of the weaker
    candidate's target tableau into the stronger one's that preserves every
    covered value flow of the weaker candidate.  ``prepared`` is as for
    :func:`subsumes`.
    """
    if stronger.source_tableau is not weaker.source_tableau:
        return False
    weak_sel = weaker.selection_by_correspondence()
    strong_sel = stronger.selection_by_correspondence()
    fixed: dict[Variable, Term] = {}
    for correspondence, weak_cov in weak_sel.items():
        strong_cov = strong_sel.get(correspondence)
        if strong_cov is None:
            return False  # the stronger mapping does not move this value
        # Same source term (the tableaux are the same object, so comparable).
        if weak_cov.source.referenced_term(weaker.source_tableau) is not (
            strong_cov.source.referenced_term(stronger.source_tableau)
        ):
            return False
        weak_var = weaker.target_variable(weak_cov)
        strong_var = stronger.target_variable(strong_cov)
        if weak_var in fixed and fixed[weak_var] != strong_var:
            return False
        fixed[weak_var] = strong_var
    h = _embed_tableau(
        weaker.target_tableau,
        stronger.target_tableau,
        fixed,
        prepared or PreparedTableaux(),
    )
    return h is not None


def semantic_subsumption_witnesses(
    small: CandidateMapping, big: CandidateMapping
):
    """The chase certificates that ``big`` is subsumed by ``small``.

    Returns ``(source_witness, target_witness)`` — containment witnesses of
    ``big``'s tableau queries in ``small``'s, with the covered flow terms
    (in a canonical correspondence order) as heads so the data flow is
    preserved by construction — or ``None`` when either side has no
    certificate or the structural preconditions (same covered set,
    strictness) fail.
    """
    from ..analysis.semantic.containment import ConjunctiveQuery, contained_in

    if small.covered != big.covered:
        return None
    strict = len(big.source_tableau) > len(small.source_tableau) or len(
        big.target_tableau
    ) > len(small.target_tableau)
    if not strict:
        return None

    shared = sorted(small.covered, key=repr)

    def flow_query(candidate: CandidateMapping, side: str) -> ConjunctiveQuery:
        selection = candidate.selection_by_correspondence()
        if side == "source":
            tableau = candidate.source_tableau
            head = tuple(
                selection[c].source.referenced_term(tableau) for c in shared
            )
        else:
            tableau = candidate.target_tableau
            head = tuple(
                selection[c].target.referenced_term(tableau) for c in shared
            )
        return ConjunctiveQuery(
            head_label=f"flows:{side}",
            head=head,
            atoms=tuple(tableau.atoms),
            null_vars=frozenset(tableau.null_vars),
            nonnull_vars=frozenset(tableau.nonnull_vars),
        )

    source = contained_in(flow_query(big, "source"), flow_query(small, "source"))
    if source is None:
        return None
    target = contained_in(flow_query(big, "target"), flow_query(small, "target"))
    if target is None:
        return None
    return source, target


def semantic_subsumes(small: CandidateMapping, big: CandidateMapping) -> bool:
    """The subsumption test, decided by the containment engine.

    Same covered set and strictness conditions as :func:`subsumes`, but the
    two embeddings become chase-based containment checks of the tableau
    queries whose heads are the covered flow terms — so reordered or renamed
    chase results still compare (see
    :func:`semantic_subsumption_witnesses`).
    """
    return semantic_subsumption_witnesses(small, big) is not None


def semantic_implication_witness(
    stronger: CandidateMapping, weaker: CandidateMapping
):
    """The chase certificate that ``stronger`` logically implies ``weaker``.

    Interprets both candidates as their induced logical mappings and asks
    whether the stronger one logically implies the weaker one
    (:func:`repro.analysis.semantic.containment.mapping_implies`).  Unlike
    :func:`implies`, this does not require the two candidates to share the
    same source-tableau *object* — isomorphic chase results compare equal.
    Returns the witness, or ``None``.
    """
    from ..analysis.semantic.containment import mapping_implies
    from .schema_mapping import candidate_to_logical_mapping

    def target_conditions(candidate: CandidateMapping):
        # candidate_to_logical_mapping substitutes covered target variables
        # by their source terms, so thread the target tableau's conditions
        # through the same binding before handing them to the engine.
        theta, _ = candidate.binding()

        def images(variables):
            return frozenset(
                image
                for var in variables
                for image in (theta.get(var, var),)
                if isinstance(image, Variable)
            )

        tableau = candidate.target_tableau
        return images(tableau.null_vars), images(tableau.nonnull_vars)

    strong = candidate_to_logical_mapping(stronger, label=stronger.name)
    weak = candidate_to_logical_mapping(weaker, label=weaker.name)
    return mapping_implies(
        strong,
        weak,
        stronger_consequent_conditions=target_conditions(stronger),
        weaker_consequent_conditions=target_conditions(weaker),
    )


def semantic_implies(stronger: CandidateMapping, weaker: CandidateMapping) -> bool:
    """The implication test, decided by tgd implication over the chase."""
    return semantic_implication_witness(stronger, weaker) is not None


@dataclass
class PruningResult:
    kept: list[CandidateMapping] = field(default_factory=list)
    pruned: list[PruneRecord] = field(default_factory=list)


def prune_candidates(
    candidates: list[CandidateMapping],
    use_nonnull_extension: bool = True,
    semantic: bool = False,
) -> PruningResult:
    """Apply subsumption, implication and non-null-extension pruning in order.

    ``semantic`` (compatibility flag, default off) additionally tries the
    containment-engine variants of subsumption and implication on pairs the
    syntactic tests reject; records gained this way carry a
    ``"... (semantic)"`` reason.
    """
    with span("mapping.pruning", candidates=len(candidates)) as trace:
        result = _prune_candidates(candidates, use_nonnull_extension, semantic)
        count("candidates.kept", len(result.kept))
        trace.set(kept=len(result.kept), pruned=len(result.pruned))
        return result


def _prune_candidates(
    candidates: list[CandidateMapping],
    use_nonnull_extension: bool,
    semantic: bool = False,
) -> PruningResult:
    result = PruningResult()

    def tested(syntactic, semantic_test):
        """A pair test answering "syntactic", "semantic" or ``None``."""

        def test(left: CandidateMapping, right: CandidateMapping) -> str | None:
            if syntactic(left, right):
                return "syntactic"
            if semantic and semantic_test(left, right):
                count("prune.semantic")
                return "semantic"
            return None

        return test

    def prune(candidate, rule: str, reason: str, by, how: str = "syntactic"):
        count(f"prune.{rule}")
        note = " (semantic)" if how == "semantic" else ""
        result.pruned.append(
            PruneRecord(
                candidate.name, repr(candidate), reason + note, rule=rule, by=by.name
            )
        )

    prepared = PreparedTableaux()
    subsumption_test = tested(partial(subsumes, prepared=prepared), semantic_subsumes)
    implication_test = tested(partial(implies, prepared=prepared), semantic_implies)

    # -- subsumption ------------------------------------------------------
    # Both subsumption tests reject candidates covering different
    # correspondences, so each candidate is compared within its bucket only;
    # a bucket keeps the candidates' order, so the first subsumer is the one
    # a scan of every candidate would find.
    buckets: dict[frozenset, list[CandidateMapping]] = {}
    for candidate in candidates:
        buckets.setdefault(candidate.covered, []).append(candidate)
    survivors: list[CandidateMapping] = []
    for candidate in candidates:
        record = next(
            (
                (other, how)
                for other in buckets[candidate.covered]
                for how in (subsumption_test(other, candidate),)
                if other is not candidate and how is not None
            ),
            None,
        )
        if record is not None:
            subsumer, how = record
            reason = f"subsumed by {subsumer.name}"
            prune(candidate, "subsumption", reason, subsumer, how)
        else:
            survivors.append(candidate)

    # -- implication (among remaining; one bucket) --------------------------
    implied_away = redundant(survivors, implication_test, key=lambda _: None)
    for i, (j, how) in implied_away.items():
        implier = survivors[j]
        prune(survivors[i], "implication", f"implied by {implier.name}", implier, how)
    after_implication = [m for i, m in enumerate(survivors) if i not in implied_away]

    # -- non-null extension -------------------------------------------------
    # Only candidates over the same source tableau object are compared, so
    # each candidate meets the others of its source tableau, in order.
    if not use_nonnull_extension:
        result.kept = after_implication
        return result
    by_source: dict[int, list[tuple[int, CandidateMapping]]] = {}
    for j, m_prime in enumerate(after_implication):
        by_source.setdefault(id(m_prime.source_tableau), []).append((j, m_prime))
    pruned_extension: set[int] = set()
    for i, m in enumerate(after_implication):
        for j, m_prime in by_source[id(m.source_tableau)]:
            if i == j or i in pruned_extension or j in pruned_extension:
                continue
            if not m_prime.target_tableau.is_nonnull_extension_of(m.target_tableau):
                continue
            if m.covered == m_prime.covered:
                pruned_extension.add(j)
                prune(
                    m_prime,
                    "nonnull-extension",
                    f"non-null extension of {m.name} covering no more correspondences",
                    m,
                )
            elif m.covered < m_prime.covered:
                pruned_extension.add(i)
                prune(
                    m,
                    "nonnull-extension",
                    f"its non-null extension {m_prime.name} covers strictly more",
                    m_prime,
                )
    result.kept = [
        m for i, m in enumerate(after_implication) if i not in pruned_extension
    ]
    return result
