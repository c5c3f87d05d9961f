"""Soft key-conflict resolution (Algorithm 4, step 3).

Given the unitary skolemized mappings and the key conflicts identified by
:func:`repro.core.conflicts.find_all_conflicts`, this module performs the
paper's rewriting:

* **hard conflicts** raise one :class:`HardKeyConflictError` carrying every
  one of them;
* **basic resolution**: a mapping with preferable competitors is partially
  disabled by conjoining, for each preferable mapping ``m'``, the negation of
  ``m'``'s premise projected on the target key, correlated on the mapping's
  own key variable; the same negations are added to every sibling unitary
  mapping derived from the same original logical mapping;
* **fusion**: for every subset ``M`` of a conflicting set in which each
  member is preferred over some other member on some attribute, a new
  mapping is added whose premise conjoins the members' premises with equated
  keys and whose consequent picks, per attribute, the most-preferred term;
* **Skolem unification**: two invented values in the same position
  (equal-preference invent/invent conflicts, or fusion positions whose
  winners invent with different functors) have their functors unified, and
  the renaming propagates to every mapping (Example 6.7).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..errors import HardKeyConflictError, QueryGenerationError
from ..logic.atoms import NegatedPremise, RelationalAtom
from ..logic.mappings import Premise, UnitaryMapping
from ..logic.terms import NULL_TERM, SkolemTerm, Term, Variable
from ..model.schema import Schema
from ..obs import count, span
from .conflicts import (
    COPY,
    INVENT,
    NULL_KIND,
    KeyConflict,
    conflicting_sets,
    find_all_conflicts,
    term_kind,
)
from .functionality import PairChecker


class FunctorUnifier:
    """Union-find over Skolem functor names with paper-style merged names.

    Functor names have the shape ``f_<attribute>@<label>``; a merged class is
    displayed as ``f_<attribute>@<label1>+<label2>`` (the paper's
    ``f^{1,3}_b``).
    """

    def __init__(self) -> None:
        self._parent: dict[str, str] = {}

    def _find(self, name: str) -> str:
        self._parent.setdefault(name, name)
        root = name
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[name] != root:
            self._parent[name], name = root, self._parent[name]
        return root

    def unify(self, left: str, right: str) -> None:
        left_root, right_root = self._find(left), self._find(right)
        if left_root != right_root:
            self._parent[right_root] = left_root

    def renaming(self) -> dict[str, str]:
        """The final renaming for every functor involved in a merge."""
        classes: dict[str, list[str]] = {}
        for name in self._parent:
            classes.setdefault(self._find(name), []).append(name)
        renaming: dict[str, str] = {}
        for members in classes.values():
            if len(members) < 2:
                continue
            merged = _merged_name(sorted(members))
            for member in members:
                renaming[member] = merged
        return renaming


def _merged_name(names: list[str]) -> str:
    bases: list[str] = []
    labels: list[str] = []
    for name in names:
        base, _, label = name.partition("@")
        if base not in bases:
            bases.append(base)
        for piece in label.split("+"):
            if piece and piece not in labels:
                labels.append(piece)
    if labels:
        return f"{bases[0]}@{'+'.join(sorted(labels))}"
    return bases[0]


def rename_functors_in_atom(atom: RelationalAtom, renaming: dict[str, str]) -> RelationalAtom:
    terms = [
        t.rename_functors(renaming) if isinstance(t, SkolemTerm) else t
        for t in atom.terms
    ]
    return RelationalAtom(atom.relation, terms)


def _key_variables(
    mapping: UnitaryMapping, target_schema: Schema
) -> list[Variable]:
    """The variables bound to the key positions of the mapping's consequent.

    Resolution only ever needs these for mappings that participate in a key
    conflict, whose key terms are necessarily source variables.
    """
    relation = target_schema.relation(mapping.consequent.relation)
    variables = []
    for position in relation.key_positions():
        term = mapping.consequent.terms[position]
        if not isinstance(term, Variable):
            raise QueryGenerationError(
                f"cannot correlate a negation on non-variable key term {term!r} "
                f"of mapping {mapping.name or mapping.origin}"
            )
        variables.append(term)
    return variables


def _negation_of(
    preferred: UnitaryMapping,
    correlate_to: list[Variable],
    target_schema: Schema,
) -> NegatedPremise:
    """``¬ φ_preferred^{key(R)}(k)`` correlated on ``correlate_to``."""
    preferred_keys = _key_variables(preferred, target_schema)
    if len(preferred_keys) != len(correlate_to):  # pragma: no cover - defensive
        raise QueryGenerationError("key arity mismatch while building a negation")
    renaming: dict[Variable, Term] = {}
    for var in preferred.premise.variables():
        renaming[var] = Variable(var.name + "~")
    for key_var, shared in zip(preferred_keys, correlate_to):
        renaming[key_var] = shared
    atoms = tuple(a.substitute(renaming) for a in preferred.premise.atoms)
    null_vars = tuple(renaming.get(v, v) for v in preferred.premise.null_vars)
    nonnull_vars = tuple(renaming.get(v, v) for v in preferred.premise.nonnull_vars)
    equalities = tuple(e.substitute(renaming) for e in preferred.premise.equalities)
    disequalities = tuple(
        d.substitute(renaming) for d in preferred.premise.disequalities
    )
    return NegatedPremise(
        atoms,
        correlated=correlate_to,
        null_vars=null_vars,  # type: ignore[arg-type]
        nonnull_vars=nonnull_vars,  # type: ignore[arg-type]
        equalities=equalities,
        disequalities=disequalities,
    )


@dataclass
class ResolutionReport:
    """What key-conflict resolution did."""

    conflicts: list[KeyConflict] = field(default_factory=list)
    fused: list[UnitaryMapping] = field(default_factory=list)
    functor_renaming: dict[str, str] = field(default_factory=dict)
    negations_by_origin: dict[str, int] = field(default_factory=dict)


def resolve_key_conflicts(
    checker: PairChecker,
    propagate_unification: bool = True,
) -> tuple[list[UnitaryMapping], ResolutionReport]:
    """Rewrite the checker's unitary mappings so target key constraints hold.

    ``propagate_unification`` selects between the paper's two (inconsistent)
    renderings of Skolem unification: Example 6.7 propagates the unified
    functor into every mapping (the default); Example C.4 keeps the original
    functors in the rewritten originals and uses the merged functor only in
    the fused mappings (``propagate_unification=False``).  The two differ
    only by a renaming of invented values.
    """
    with span("qgen.resolution", mappings=len(checker.mappings)) as trace:
        final, report = _resolve_key_conflicts(checker, propagate_unification)
        count("resolution.disabled-negations", sum(report.negations_by_origin.values()))
        count("resolution.fused", len(report.fused))
        count("resolution.unified-functors", len(report.functor_renaming))
        trace.set(conflicts=len(report.conflicts), fused=len(report.fused))
        return final, report


def _resolve_key_conflicts(
    checker: PairChecker, propagate_unification: bool
) -> tuple[list[UnitaryMapping], ResolutionReport]:
    mappings, target_schema = checker.mappings, checker.target_schema
    conflicts = find_all_conflicts(checker)
    hard = [conflict.diagnostic() for conflict in conflicts if conflict.is_hard]
    if hard:
        raise HardKeyConflictError(hard[0].message, diagnostics=hard)
    report = ResolutionReport(conflicts=conflicts)
    unifier = FunctorUnifier()
    negations: dict[str, list[NegatedPremise]] = {}
    fused_mappings: list[UnitaryMapping] = []
    groups = conflicting_sets(mappings)

    # find_all_conflicts lists conflicts set by set, in conflicting-set order.
    for relation_name, group_conflicts in itertools.groupby(
        conflicts, key=lambda conflict: conflict.left.consequent.relation
    ):
        group = groups[relation_name]
        # -- preferences between the group's members -----------------------
        relation = target_schema.relation(relation_name)
        index = {id(mapping): i for i, mapping in enumerate(group)}
        preferred_over: dict[tuple[int, int], set[str]] = {}
        for conflict in group_conflicts:
            i, j = index[id(conflict.left)], index[id(conflict.right)]
            if conflict.preferred == "left":
                preferred_over.setdefault((i, j), set()).add(conflict.attribute)
            elif conflict.preferred == "right":
                preferred_over.setdefault((j, i), set()).add(conflict.attribute)
            else:  # equal-preference invent/invent: unify the functors
                position = relation.position(conflict.attribute)
                left_term = conflict.left.consequent.terms[position]
                right_term = conflict.right.consequent.terms[position]
                assert isinstance(left_term, SkolemTerm)
                assert isinstance(right_term, SkolemTerm)
                unifier.unify(left_term.functor, right_term.functor)

        # -- basic resolution: disable less-preferred mappings ---------------
        for i, mapping in enumerate(group):
            preferable = [
                group[j]
                for j in range(len(group))
                if j != i and preferred_over.get((j, i))
            ]
            if not preferable:
                continue
            keys = _key_variables(mapping, target_schema)
            bucket = negations.setdefault(mapping.origin, [])
            for better in preferable:
                bucket.append(_negation_of(better, keys, target_schema))

        # -- fusion ----------------------------------------------------------
        fusible = _fusion_core(len(group), preferred_over)
        for size in range(2, len(fusible) + 1):
            for indices in itertools.combinations(fusible, size):
                if not _qualifies_for_fusion(indices, preferred_over):
                    continue
                members = [group[i] for i in indices]
                outsiders = [group[j] for j in range(len(group)) if j not in indices]
                fused = _build_fused_mapping(
                    members,
                    indices,
                    outsiders,
                    [g for g in range(len(group)) if g not in indices],
                    preferred_over,
                    target_schema,
                    unifier,
                )
                fused_mappings.append(fused)

    # -- assemble --------------------------------------------------------
    final: list[UnitaryMapping] = []
    for mapping in mappings:
        extra = _dedup_negations(negations.get(mapping.origin, []))
        if extra:
            final.append(mapping.with_premise(mapping.premise.with_negations(extra)))
        else:
            final.append(mapping)
    final.extend(fused_mappings)

    renaming = unifier.renaming()
    if renaming:
        first_fused_index = len(mappings)
        final = [
            m.with_consequent(rename_functors_in_atom(m.consequent, renaming))
            if propagate_unification or index >= first_fused_index
            else m
            for index, m in enumerate(final)
        ]
    # The fused mappings in the report are the (possibly renamed) final ones.
    report.fused = final[len(mappings):]
    report.functor_renaming = renaming
    report.negations_by_origin = {k: len(v) for k, v in negations.items()}
    return final, report


def _dedup_negations(items: list[NegatedPremise]) -> list[NegatedPremise]:
    seen: set[tuple] = set()
    unique: list[NegatedPremise] = []
    for item in items:
        key = (item.signature(), tuple(id(v) for v in item.correlated))
        if key not in seen:
            seen.add(key)
            unique.append(item)
    return unique


def _fusion_core(
    size: int, preferred_over: dict[tuple[int, int], set[str]]
) -> list[int]:
    """The sorted members of the largest set that could qualify for fusion.

    A member of a qualifying set needs a preference out-edge to another
    member, and that property survives unions of sets, so every qualifying
    set lies inside the largest one: repeatedly delete the members with no
    out-edge into the rest.
    """
    edges = [pair for pair, attributes in preferred_over.items() if attributes]
    core = set(range(size))
    while True:
        keep = {i for i, j in edges if i in core and j in core}
        if keep == core:
            return sorted(core)
        core = keep


def _qualifies_for_fusion(
    indices: tuple[int, ...], preferred_over: dict[tuple[int, int], set[str]]
) -> bool:
    """Every member must be preferred over some other member on some attribute."""
    members = set(indices)
    for i in members:
        if not any(
            preferred_over.get((i, j)) for j in members if j != i
        ):
            return False
    return True


def _build_fused_mapping(
    members: list[UnitaryMapping],
    member_indices: tuple[int, ...],
    outsiders: list[UnitaryMapping],
    outsider_indices: list[int],
    preferred_over: dict[tuple[int, int], set[str]],
    target_schema: Schema,
    unifier: FunctorUnifier,
) -> UnitaryMapping:
    relation = target_schema.relation(members[0].consequent.relation)
    key_positions = relation.key_positions()

    # Shared key variables, one per key position.
    shared_keys = [Variable(f"k{j}" if len(key_positions) > 1 else "k") for j in range(len(key_positions))]

    renamed_members: list[UnitaryMapping] = []
    for index, member in enumerate(members):
        member_keys = _key_variables(member, target_schema)
        renaming: dict[Variable, Term] = {}
        for var in member.premise.variables():
            renaming[var] = Variable(f"{var.name}_{index + 1}")
        for key_var, shared in zip(member_keys, shared_keys):
            renaming[key_var] = shared
        renamed_members.append(
            UnitaryMapping(
                premise=member.premise.substitute(renaming),
                consequent=member.consequent.substitute(renaming),
                origin=member.origin,
                name=member.name,
            )
        )

    # Premise: conjunction of the members' renamed premises.
    premise = Premise(
        atoms=tuple(a for m in renamed_members for a in m.premise.atoms),
        null_vars=tuple(v for m in renamed_members for v in m.premise.null_vars),
        nonnull_vars=tuple(v for m in renamed_members for v in m.premise.nonnull_vars),
        equalities=tuple(e for m in renamed_members for e in m.premise.equalities),
        disequalities=tuple(
            d for m in renamed_members for d in m.premise.disequalities
        ),
    )

    # Consequent: per non-key attribute, the term of a most-preferred member.
    consequent_terms: list[Term] = []
    for position in range(relation.arity):
        if position in key_positions:
            consequent_terms.append(shared_keys[key_positions.index(position)])
            continue
        attribute = relation.attributes[position].name
        winner_slots = [
            slot
            for slot, i in enumerate(member_indices)
            if not any(
                attribute in preferred_over.get((j, i), ())
                for j in member_indices
                if j != i
            )
        ]
        winners = [renamed_members[slot] for slot in winner_slots]
        winning_terms = [w.consequent.terms[position] for w in winners]
        kinds = {term_kind(t) for t in winning_terms}
        if kinds == {INVENT}:
            functors = {t.functor for t in winning_terms if isinstance(t, SkolemTerm)}
            first = functors and sorted(functors)[0]
            for functor in functors:
                if functor != first:
                    unifier.unify(first, functor)
            consequent_terms.append(winning_terms[0])
        elif NULL_KIND in kinds and COPY not in kinds:
            consequent_terms.append(NULL_TERM)
        else:
            # Prefer a copying winner when mixed (no conflict forced a choice).
            chosen = next(
                (t for t in winning_terms if term_kind(t) == COPY), winning_terms[0]
            )
            consequent_terms.append(chosen)

    consequent = RelationalAtom(relation.name, consequent_terms)

    # preferableTo(M): outsiders preferred over some member get negated.
    negation_list: list[NegatedPremise] = []
    for outsider, outsider_index in zip(outsiders, outsider_indices):
        if any(
            preferred_over.get((outsider_index, i)) for i in member_indices
        ):
            negation_list.append(_negation_of(outsider, shared_keys, target_schema))
    if negation_list:
        premise = premise.with_negations(_dedup_negations(negation_list))

    origin = "+".join(m.origin or m.name or "?" for m in members)
    return UnitaryMapping(
        premise=premise,
        consequent=consequent,
        origin=origin,
        name=origin,
    )
