"""Homomorphisms between sets of relational atoms.

Used for the sub-tableau relation of the pruning phase (a tableau ``T'`` is a
sub-tableau of ``T`` when ``T``'s atoms embed into ``T'``'s), for Datalog
rule subsumption, and — via :mod:`repro.analysis.semantic.containment` — for
chase-based containment checks.  A homomorphism maps every pattern atom onto
some target atom of the same relation, sending variables to terms
consistently; non-variable pattern terms must match the corresponding target
term exactly.

The search is deterministic: candidate target atoms are ordered by a
canonical structural key, so the witness returned for a given pattern/target
pair does not depend on the order in which the target atoms were supplied.
A constants/arity pre-filter removes incompatible targets before the
backtracking starts, which bounds the branching factor by the number of
*structurally* compatible atoms instead of the relation size.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Sequence

from .atoms import RelationalAtom
from .terms import Term, Variable

Assignment = dict[Variable, Term]


def _canonical_atom_key(atom: RelationalAtom) -> tuple:
    """A stable structural sort key: independent of list order, not of content."""
    return (atom.relation, len(atom.terms), tuple(repr(t) for t in atom.terms))


def _compatible(
    pattern_atom: RelationalAtom,
    target_atom: RelationalAtom,
    fixed: Mapping[Variable, Term],
) -> bool:
    """Cheap pre-filter: can ``pattern_atom`` possibly map onto ``target_atom``?

    Checks arity, positional equality of non-variable pattern terms, equality
    of target terms under repeated pattern variables, and consistency with
    the pre-bound ``fixed`` assignment.  No backtracking state is touched.
    """
    if len(pattern_atom.terms) != len(target_atom.terms):
        return False
    seen: dict[Variable, Term] = {}
    for p_term, t_term in zip(pattern_atom.terms, target_atom.terms):
        if isinstance(p_term, Variable):
            bound = fixed.get(p_term, seen.get(p_term))
            if bound is not None:
                if bound != t_term:
                    return False
            else:
                seen[p_term] = t_term
        elif p_term != t_term:
            return False
    return True


def iter_homomorphisms(
    pattern: Sequence[RelationalAtom],
    target: Sequence[RelationalAtom],
    fixed: Mapping[Variable, Term] | None = None,
    var_check: Callable[[Variable, Term], bool] | None = None,
) -> Iterator[Assignment]:
    """Enumerate homomorphisms from ``pattern`` into ``target``.

    ``fixed`` pre-binds pattern variables (e.g. shared source variables that
    must map to themselves).  ``var_check(v, t)`` can veto individual bindings
    (e.g. to require null-condition compatibility).  Yields each full
    assignment (a fresh dict per witness); the enumeration order is
    deterministic given the pattern order and the canonical target ordering.
    """
    assignment: Assignment = dict(fixed or {})
    by_relation: dict[str, list[RelationalAtom]] = {}
    for atom in target:
        by_relation.setdefault(atom.relation, []).append(atom)
    # Canonical candidate ordering: witnesses are stable under permutations
    # of the target atom list.
    for bucket in by_relation.values():
        bucket.sort(key=_canonical_atom_key)

    # Arity/constants pre-filter, computed once per pattern atom.
    candidates: list[list[RelationalAtom]] = [
        [
            target_atom
            for target_atom in by_relation.get(pattern_atom.relation, ())
            if _compatible(pattern_atom, target_atom, assignment)
        ]
        for pattern_atom in pattern
    ]

    # Most-constrained-first: atoms with fewer compatible targets first.
    order = sorted(range(len(pattern)), key=lambda i: (len(candidates[i]), i))

    def try_bind(pattern_atom: RelationalAtom, target_atom: RelationalAtom) -> list[Variable] | None:
        """Extend the assignment; return newly bound vars, or None on clash."""
        new_vars: list[Variable] = []
        for p_term, t_term in zip(pattern_atom.terms, target_atom.terms):
            if isinstance(p_term, Variable):
                bound = assignment.get(p_term)
                if bound is None:
                    if var_check is not None and not var_check(p_term, t_term):
                        for v in new_vars:
                            del assignment[v]
                        return None
                    assignment[p_term] = t_term
                    new_vars.append(p_term)
                elif bound != t_term:
                    for v in new_vars:
                        del assignment[v]
                    return None
            elif p_term != t_term:  # pragma: no cover - excluded by the pre-filter
                for v in new_vars:
                    del assignment[v]
                return None
        return new_vars

    def search(k: int) -> Iterator[Assignment]:
        if k == len(order):
            yield dict(assignment)
            return
        pattern_atom = pattern[order[k]]
        for target_atom in candidates[order[k]]:
            new_vars = try_bind(pattern_atom, target_atom)
            if new_vars is None:
                continue
            yield from search(k + 1)
            for v in new_vars:
                del assignment[v]

    yield from search(0)


def find_homomorphism(
    pattern: Sequence[RelationalAtom],
    target: Sequence[RelationalAtom],
    fixed: Mapping[Variable, Term] | None = None,
    var_check: Callable[[Variable, Term], bool] | None = None,
) -> Assignment | None:
    """The first (canonical) homomorphism from ``pattern`` into ``target``.

    Returns the full assignment, or ``None`` if no homomorphism exists.
    """
    for assignment in iter_homomorphisms(pattern, target, fixed, var_check):
        return assignment
    return None

