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
A target searched many times is a :class:`PreparedClause`, whose atoms are
bucketed by relation and put in that order once, on its first search; a
plain atom list is bucketed and ordered on every search.  A constants/arity
pre-filter removes incompatible targets before the backtracking starts,
which bounds the branching factor by the number of *structurally*
compatible atoms instead of the relation size.

A prepared clause also carries a *mark* per atom position: null or non-null
for a variable with that condition, free for any other variable, the term
itself for a constant, ``null`` or Skolem term.  A search whose variables
may only map onto terms with the same condition (:func:`condition_check`)
maps each pattern atom onto a target atom whose marks *dominate* its own
(:func:`pattern_marks`), so :func:`dominated` failing proves no
homomorphism exists without searching.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .atoms import RelationalAtom
from .terms import Term, Variable

Assignment = dict[Variable, Term]


#: Position marks; any other mark is the position's (non-variable) term,
#: and a term never equals a string.
FREE = None
NULL_MARK = "null"
NONNULL_MARK = "nonnull"
#: a target variable carrying both conditions (a contradictory clause)
BOTH_MARK = "null+nonnull"

#: per relation, the distinct mark tuples of its atoms
Marks = dict[str, set[tuple]]


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


class PreparedClause:
    """A clause prepared once for many searches: buckets, order and marks.

    ``buckets`` holds the atoms by relation, each bucket in the canonical
    order :func:`iter_homomorphisms` searches a target in; ``marks`` holds,
    per relation, the distinct mark tuples of its atoms as a target.  Each
    is built on first use: a clause every search skips is never sorted, and
    one no test reads is never marked.
    """

    def __init__(
        self,
        atoms: Iterable[RelationalAtom],
        null_vars: Collection[Variable] = frozenset(),
        nonnull_vars: Collection[Variable] = frozenset(),
    ) -> None:
        self.atoms = tuple(atoms)
        self.null_vars = frozenset(null_vars)
        self.nonnull_vars = frozenset(nonnull_vars)
        self._by_relation = _by_relation(self.atoms)

    @cached_property
    def buckets(self) -> dict[str, list[RelationalAtom]]:
        return _canonical_buckets(self._by_relation)

    @cached_property
    def marks(self) -> Marks:
        marked = dict.fromkeys(self.nonnull_vars, NONNULL_MARK)
        for var in self.null_vars:
            marked[var] = BOTH_MARK if var in marked else NULL_MARK
        return _marks(self._by_relation, marked)


def pattern_marks(
    atoms: Iterable[RelationalAtom],
    null_vars: Collection[Variable],
    nonnull_vars: Collection[Variable],
    free: Collection[Variable] = (),
) -> Marks:
    """A clause's marks as a search pattern, ``free`` variables unmarked.

    A variable's null condition wins over its non-null one, as in
    :func:`condition_check`; pass as ``free`` the variables a search
    pre-binds, whose images no condition check sees.
    """
    marked = dict.fromkeys(nonnull_vars, NONNULL_MARK)
    marked.update(dict.fromkeys(null_vars, NULL_MARK))
    for var in free:
        marked.pop(var, None)
    return _marks(_by_relation(atoms), marked)


def condition_check(
    null_vars: Collection[Variable],
    nonnull_vars: Collection[Variable],
    target: PreparedClause,
) -> Callable[[Variable, Term], bool]:
    """The search's side condition: a pattern's conditions persist.

    A null (non-null) pattern variable may only map onto a variable with
    the null (non-null) condition in ``target``.
    """

    def check(var: Variable, image: Term) -> bool:
        if var in null_vars:
            return image in target.null_vars
        if var in nonnull_vars:
            return image in target.nonnull_vars
        return True

    return check


def _marks(
    by_relation: Mapping[str, list[RelationalAtom]], marked: Mapping[Variable, str]
) -> Marks:
    """Each relation's distinct atom marks: a variable's from ``marked``
    (else free), any other term itself."""
    marks: Marks = {}
    for relation, atoms in by_relation.items():
        rows = marks[relation] = set()
        for atom in atoms:
            marks_of_atom = [
                marked.get(term, FREE) if isinstance(term, Variable) else term
                for term in atom.terms
            ]
            rows.add(tuple(marks_of_atom))
    return marks


def _mark_dominates(target_mark, pattern_mark) -> bool:
    if pattern_mark is FREE:
        return True
    if isinstance(pattern_mark, str):
        return target_mark == pattern_mark or target_mark == BOTH_MARK
    return target_mark == pattern_mark


def dominated(pattern: Marks, target: PreparedClause) -> bool:
    """Does every pattern atom meet a target atom whose marks dominate its own?

    Necessary for a homomorphism under :func:`condition_check` (variables
    pre-bound by ``fixed`` left free in ``pattern``): it maps each pattern
    atom onto a target atom of the same relation and arity, keeps every
    constant, and sends a null (non-null) variable onto a variable carrying
    that condition.
    """
    for relation, pattern_rows in pattern.items():
        target_rows = target.marks.get(relation)
        if target_rows is None:
            return False
        for row in pattern_rows:
            if row in target_rows:
                continue
            if not any(
                len(candidate) == len(row)
                and all(map(_mark_dominates, candidate, row))
                for candidate in target_rows
            ):
                return False
    return True


def _canonical_buckets(
    by_relation: Mapping[str, list[RelationalAtom]],
) -> dict[str, list[RelationalAtom]]:
    """The atoms by relation, each bucket in canonical order: witnesses are
    stable under permutations of the target atom list."""
    return {
        relation: sorted(atoms, key=_canonical_atom_key)
        for relation, atoms in by_relation.items()
    }


def _by_relation(atoms: Iterable[RelationalAtom]) -> dict[str, list[RelationalAtom]]:
    by_relation: dict[str, list[RelationalAtom]] = {}
    for atom in atoms:
        by_relation.setdefault(atom.relation, []).append(atom)
    return by_relation


def iter_homomorphisms(
    pattern: Sequence[RelationalAtom],
    target: Sequence[RelationalAtom] | PreparedClause,
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
    by_relation = (
        target.buckets
        if isinstance(target, PreparedClause)
        else _canonical_buckets(_by_relation(target))
    )

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
    target: Sequence[RelationalAtom] | PreparedClause,
    fixed: Mapping[Variable, Term] | None = None,
    var_check: Callable[[Variable, Term], bool] | None = None,
) -> Assignment | None:
    """The first (canonical) homomorphism from ``pattern`` into ``target``.

    Returns the full assignment, or ``None`` if no homomorphism exists.
    """
    for assignment in iter_homomorphisms(pattern, target, fixed, var_check):
        return assignment
    return None

