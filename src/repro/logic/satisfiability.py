"""Congruence closure under the source key dependencies.

Three checks ask whether a conjunctive query with equalities, null /
non-null conditions and one disequality is satisfiable under the source key
constraints: the functionality check and the key-conflict check of
Algorithm 4 (paper section 6: "the functionality check can be reduced to an
emptiness test for a conjunctive query with inequalities, under functional
and inclusion dependencies"), and the certifier's key proof, which asks
whether two firings of target rules can agree on a target key but disagree
elsewhere.  All three load the query into one :class:`EgdClosure`, saturate
it under the source key → row functional dependencies of §3.1, and read the
answer off the closure:

* rule equalities, asserted key equalities and Skolem-argument unifications
  (Skolem functors are injective, §6) merge variable classes;
* each class carries its pinned constant and null / non-null marks; a class
  bound at a non-nullable *source* position is marked non-null, because
  only valid source instances are considered;
* :meth:`EgdClosure.saturate` closes the atom set under the source FDs: two
  atoms of one relation whose key positions are provably equal denote the
  same row, so every remaining position unifies (inclusion dependencies
  never equate terms, so they play no part);
* Skolem terms denote *invented* values — distinct from every source value,
  every constant and ``null``; two Skolem terms are equal iff they have the
  same functor and pairwise-equal arguments, matching the paper's equality
  conditions for functor terms;
* contradictory constraints — null vs. non-null, two distinct constants, a
  ground (source-bound) value vs. an invented Skolem value, two Skolem
  terms with distinct functors, a violated disequality — mark the closure
  :attr:`~EgdClosure.contradiction`.

After :meth:`EgdClosure.saturate` the query is unsatisfiable iff
``closure.contradiction`` is set; a disequality ``t1 ≠ t2`` is additionally
satisfiable iff :meth:`EgdClosure.terms_equal` does not force the two terms
equal.

The closure assumes every variable ranges over *ground* source values
(constants or the unlabeled null): premises and bodies of generated target
rules are source atoms, and source instances never contain invented values.

The same closure freezes queries for homomorphism searches (the containment
engine's canonical instances, the certifier's negation refutations):
:meth:`EgdClosure.freeze` turns every class into one canonical term, and
:func:`conditioned_homomorphisms` matches a pattern into the frozen atoms
under null / non-null conditions, within :data:`MAX_WITNESS_CANDIDATES`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ..model.schema import Schema
from .atoms import Disequality, Equality, RelationalAtom
from .homomorphism import Assignment, iter_homomorphisms
from .terms import Constant, NullTerm, SkolemTerm, Term, Variable

#: Upper bound on homomorphisms examined per conditioned search; beyond it
#: the answer degrades to the conservative "not found".
MAX_WITNESS_CANDIDATES = 10_000

#: the contradiction of a class marked both null and non-null
NULL_CLASH = "a value is required to be both null and non-null"


@dataclass(frozen=True)
class FrozenValue(Term):
    """A canonical-instance constant: one per equivalence class of variables.

    Carries the class's null / non-null mark so condition compatibility can
    be decided locally during the homomorphism search.  Equality is by value,
    so two freezes of structurally equal queries agree.
    """

    index: int
    name: str
    null: bool = False
    nonnull: bool = False

    def __repr__(self) -> str:
        mark = "=null" if self.null else ("!=null" if self.nonnull else "")
        return f"<{self.name}#{self.index}{mark}>"


def _is_null_like(term: Term) -> bool:
    """Guaranteed to denote the null value in every instantiation."""
    return isinstance(term, NullTerm) or (isinstance(term, FrozenValue) and term.null)


def _is_nonnull_like(term: Term) -> bool:
    """Guaranteed to denote a non-null value in every instantiation."""
    if isinstance(term, (Constant, SkolemTerm)):
        return True
    return isinstance(term, FrozenValue) and term.nonnull


def _terms_agree(left: Term, right: Term) -> bool:
    """Equality of frozen terms, identifying all guaranteed-null terms."""
    if left == right:
        return True
    return _is_null_like(left) and _is_null_like(right)


def diseq_key(left: Term, right: Term) -> tuple[str, str]:
    """A frozen disequality as an order-free key (sorted repr pair)."""
    first, second = sorted((repr(left), repr(right)))
    return first, second


def diseq_entailed(
    left: Term, right: Term, known: Collection[tuple[str, str]] = ()
) -> bool:
    """Is ``left ≠ right`` guaranteed for every instantiation of a freeze?

    ``known`` holds the :func:`diseq_key` of every frozen disequality the
    frozen query itself asserts.
    """
    if isinstance(left, Constant) and isinstance(right, Constant):
        return left != right
    if (_is_null_like(left) and _is_nonnull_like(right)) or (
        _is_null_like(right) and _is_nonnull_like(left)
    ):
        return True
    if isinstance(left, SkolemTerm) and isinstance(right, SkolemTerm):
        if left.functor != right.functor:
            return True  # distinct functors have disjoint ranges (§6)
    elif isinstance(left, (Constant, SkolemTerm)) and isinstance(
        right, (Constant, SkolemTerm)
    ):
        return True  # invented values never equal source constants (§5)
    return diseq_key(left, right) in known


def conditions_hold(
    theta: Mapping[Variable, Term],
    equalities: Iterable[Equality],
    disequalities: Iterable[Disequality],
    known: Collection[tuple[str, str]] = (),
) -> bool:
    """Does a match into a freeze satisfy the pattern's (dis)equalities?"""
    return all(
        _terms_agree(eq.left.substitute(theta), eq.right.substitute(theta))
        for eq in equalities
    ) and all(
        diseq_entailed(d.left.substitute(theta), d.right.substitute(theta), known)
        for d in disequalities
    )


def bind_structurally(
    patterns: Iterable[Term], images: Iterable[Term], fixed: dict[Variable, Term]
) -> bool:
    """Bind pattern terms onto frozen terms position-wise, into ``fixed``.

    Skolem terms bind argument-wise under the same functor; every other
    pattern term must agree with its image.
    """
    patterns, images = tuple(patterns), tuple(images)
    if len(patterns) != len(images):
        return False
    for pattern, image in zip(patterns, images):
        if isinstance(pattern, Variable):
            if not _terms_agree(fixed.setdefault(pattern, image), image):
                return False
        elif isinstance(pattern, SkolemTerm):
            if not (
                isinstance(image, SkolemTerm)
                and pattern.functor == image.functor
                and bind_structurally(pattern.args, image.args, fixed)
            ):
                return False
        elif not _terms_agree(pattern, image):
            return False
    return True


def conditioned_homomorphisms(
    pattern: Iterable[RelationalAtom],
    target: Iterable[RelationalAtom],
    null_vars: Collection[Variable],
    nonnull_vars: Collection[Variable],
    fixed: Mapping[Variable, Term] | None = None,
) -> Iterator[Assignment]:
    """Homomorphisms from ``pattern`` into a freeze that respect conditions.

    A null-conditioned pattern variable may only map onto a guaranteed-null
    term and a non-null-conditioned one onto a guaranteed-non-null term;
    the pre-bound ``fixed`` images are held to the same rule.  At most
    :data:`MAX_WITNESS_CANDIDATES` homomorphisms are produced.
    """

    def var_check(var: Variable, image: Term) -> bool:
        if var in null_vars:
            return _is_null_like(image)
        if var in nonnull_vars:
            return _is_nonnull_like(image)
        return True

    fixed = fixed or {}
    if not all(var_check(var, image) for var, image in fixed.items()):
        return iter(())
    return islice(
        iter_homomorphisms(tuple(pattern), tuple(target), fixed, var_check),
        MAX_WITNESS_CANDIDATES,
    )


class _ClassInfo(NamedTuple):
    """Constraints accumulated on one equivalence class of variables.

    Immutable, so closures can share it: :meth:`EgdClosure.joined` copies
    the class map without copying its entries.
    """

    pin: Constant | None = None
    null: bool = False
    nonnull: bool = False


#: the constraints of unpinned classes, by (null, nonnull), built once:
#: marking a class rebinds it to one of these
_UNPINNED = {
    (null, nonnull): _ClassInfo(None, null, nonnull)
    for null in (False, True)
    for nonnull in (False, True)
}
_UNCONSTRAINED = _UNPINNED[False, False]


def _marked(info: _ClassInfo, null: bool, nonnull: bool) -> _ClassInfo:
    """``info`` with its null / non-null marks set to the given ones."""
    if info.pin is None:
        return _UNPINNED[null, nonnull]
    return _ClassInfo(info.pin, null, nonnull)


#: a key path: ``(position,)`` for a consequent's key term, or ``(row,
#: position)`` for a position of a source row, where ``row`` is the
#: relation and the key paths of its key classes
KeyPath = tuple


class KeyPaths(NamedTuple):
    """The key paths of a closed clause that end at a null or non-null class.

    A key path names a class of the clause from the consequent's key: a
    key term by its position, any other class by the source row it stands
    in and its position there, the row named by its relation and the key
    paths of its key classes.  When two clauses fire on one target key,
    the source key FDs make the classes at a path both clauses reach equal
    (induction on the path: the key terms are equated, and two rows of one
    relation whose key classes are equal agree everywhere).  So a path
    null on one side and non-null on the other proves the pair's closure
    contradictory (:meth:`clashes`).
    """

    null: frozenset[KeyPath]
    nonnull: frozenset[KeyPath]

    def clashes(self, other: "KeyPaths") -> bool:
        return not (
            self.null.isdisjoint(other.nonnull) and self.nonnull.isdisjoint(other.null)
        )


@dataclass
class EgdClosure:
    """A congruence closure over query variables under source FDs."""

    schema: Schema | None  # the source Schema (FDs + NOT NULL)
    #: why the constraint set is unsatisfiable, or None while it still is
    contradiction: str | None = None
    #: the loaded atoms, in loading order (see :meth:`add_atoms`)
    atoms: list[RelationalAtom] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        self._parent: dict[Variable, Variable] = {}
        self._info: dict[Variable, _ClassInfo] = {}
        self._diseqs: list[tuple[Term, Term]] = []
        #: the atoms over source relations, by relation: the FD chase's input
        self._by_relation: dict[str, list[RelationalAtom]] = {}

    def joined(self, other: "EgdClosure") -> "EgdClosure":
        """A new closure holding this closure's and ``other``'s constraints.

        The two must share no variable.  Their union-find forests and class
        constraints are copied side by side and their atoms concatenated,
        so nothing is loaded again; the copy closes under the key FDs of
        this closure's schema once :meth:`saturate` runs.
        """
        if not self._parent.keys().isdisjoint(other._parent):
            raise ValueError("joined closures must not share variables")
        joined = EgdClosure(self.schema, self.contradiction or other.contradiction)
        joined.atoms = self.atoms + other.atoms
        joined._parent = {**self._parent, **other._parent}
        joined._info = {**self._info, **other._info}
        joined._diseqs = self._diseqs + other._diseqs
        by_relation = {name: list(atoms) for name, atoms in self._by_relation.items()}
        for name, atoms in other._by_relation.items():
            by_relation.setdefault(name, []).extend(atoms)
        joined._by_relation = by_relation
        return joined

    # -- union-find --------------------------------------------------------

    def find(self, var: Variable) -> Variable:
        """The representative of ``var``'s class (registering ``var``)."""
        parent = self._parent
        if var not in parent:
            parent[var] = var
            self._info[var] = _UNCONSTRAINED
            return var
        while parent[var] is not var:
            parent[var] = parent[parent[var]]
            var = parent[var]
        return var

    def variables(self) -> list[Variable]:
        """Every registered variable, in registration order."""
        return list(self._parent)

    def info(self, var: Variable) -> _ClassInfo:
        return self._info[self.find(var)]

    def mark_null(self, var: Variable) -> None:
        """Assert that ``var`` holds the null value."""
        self._mark_null_root(self.find(var))

    def mark_nonnull(self, var: Variable) -> None:
        """Assert that ``var`` holds a non-null value."""
        self._mark_nonnull_root(self.find(var))

    def _fail(self, reason: str) -> None:
        if self.contradiction is None:
            self.contradiction = reason

    def _merge(self, a: Variable, b: Variable) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra is rb:
            return
        self._parent[ra] = rb
        merged = self._info.pop(ra)
        if merged.pin is not None:
            self._pin_root(rb, merged.pin)
        if merged.null:
            self._mark_null_root(rb)
        if merged.nonnull:
            self._mark_nonnull_root(rb)

    def _pin_root(self, root: Variable, constant: Constant) -> None:
        info = self._info[root]
        if info.pin is not None and info.pin != constant:
            self._fail(
                f"variable pinned to two distinct constants "
                f"({info.pin!r} and {constant!r})"
            )
            return
        if info.null:
            self._fail(f"null-constrained variable pinned to constant {constant!r}")
        self._info[root] = _ClassInfo(constant, info.null, True)

    def _mark_null_root(self, root: Variable) -> None:
        info = self._info[root]
        if info.nonnull or info.pin is not None:
            self._fail(NULL_CLASH)
        if not info.null:
            self._info[root] = _marked(info, True, info.nonnull)

    def _mark_nonnull_root(self, root: Variable) -> None:
        info = self._info[root]
        if info.null:
            self._fail(NULL_CLASH)
        if not info.nonnull:
            self._info[root] = _marked(info, info.null, True)

    # -- loading a query ---------------------------------------------------

    def load(
        self,
        atoms: Iterable[RelationalAtom],
        null_vars: Iterable[Variable] = (),
        nonnull_vars: Iterable[Variable] = (),
        equalities: Iterable[Equality] = (),
        disequalities: Iterable[Disequality] = (),
    ) -> None:
        """Load one conjunction: its atoms, then its conditions, in order."""
        self.add_atoms(atoms)
        for var in null_vars:
            self.mark_null(var)
        for var in nonnull_vars:
            self.mark_nonnull(var)
        for eq in equalities:
            self.equate(eq.left, eq.right)
        for diseq in disequalities:
            self._diseqs.append((diseq.left, diseq.right))

    def add_atoms(self, atoms: Iterable[RelationalAtom]) -> None:
        for atom in atoms:
            self.atoms.append(atom)
            rel = self._source_relation(atom.relation)
            attributes = () if rel is None else rel.attributes
            if rel is not None:
                self._by_relation.setdefault(rel.name, []).append(atom)
            for position, term in enumerate(atom.terms):
                if not isinstance(term, Variable):
                    continue
                root = self.find(term)
                if position < len(attributes) and not attributes[position].nullable:
                    # Valid source instances keep mandatory attributes
                    # non-null; only those are reasoned about.
                    self._mark_nonnull_root(root)

    def _source_relation(self, name: str):
        if self.schema is None or name not in self.schema:
            return None
        return self.schema.relation(name)

    # -- equating terms ----------------------------------------------------

    def equate(self, left: Term, right: Term) -> None:
        """Assert ``left = right``; records a contradiction when impossible."""
        if self.contradiction is not None:
            return
        if isinstance(left, Variable) and isinstance(right, Variable):
            self._merge(left, right)
            return
        if isinstance(left, Variable) or isinstance(right, Variable):
            var, other = (
                (left, right) if isinstance(left, Variable) else (right, left)
            )
            assert isinstance(var, Variable)
            if isinstance(other, Constant):
                self._pin_root(self.find(var), other)
            elif isinstance(other, NullTerm):
                self.mark_null(var)
            elif isinstance(other, SkolemTerm):
                # Source-bound variables hold ground values; Skolem terms
                # denote invented (labeled-null) values — disjoint domains.
                self._fail("a ground source value cannot equal an invented value")
            return
        if isinstance(left, SkolemTerm) and isinstance(right, SkolemTerm):
            if left.functor != right.functor or len(left.args) != len(right.args):
                self._fail(
                    f"Skolem functors {left.functor} and {right.functor} "
                    "have disjoint ranges"
                )
                return
            for a, b in zip(left.args, right.args):
                self.equate(a, b)  # functors are injective (§6)
            return
        if isinstance(left, SkolemTerm) or isinstance(right, SkolemTerm):
            self._fail("an invented value cannot equal a constant or null")
            return
        if not _terms_agree(left, right):
            self._fail(f"distinct fixed values {left!r} and {right!r}")

    # -- the FD chase ------------------------------------------------------

    def saturate(self) -> None:
        """Close under source key → row FDs, then re-check disequalities.

        Runs to fixpoint: every round that changes anything merges two
        classes, or pins or null-marks one, so the chase terminates.
        """
        while self.contradiction is None and self._saturate_once():
            pass
        if self.contradiction is not None:
            return
        for left, right in self._diseqs:
            if self.terms_equal(left, right):
                self._fail(f"disequality {left!r} != {right!r} is violated")
                return

    def _saturate_once(self) -> bool:
        """One round of the FD chase; True iff it changed the closure.

        Relation by relation, the atoms are grouped by the normal forms of
        their key terms, taken when the relation's turn comes, and every
        atom is unified with the first atom of its group.  Key equalities
        that a relation's own merges create are picked up by the next round.
        """
        changed = False
        for name, atoms in self._by_relation.items():
            if len(atoms) < 2:
                continue
            key_positions = self.schema.relation(name).key_positions()
            last = max(key_positions)
            groups: dict[tuple, list[RelationalAtom]] = {}
            for atom in atoms:
                terms = atom.terms
                if len(terms) <= last:
                    continue  # pragma: no cover - malformed atom
                key = tuple([self.normalize(terms[p]) for p in key_positions])
                groups.setdefault(key, []).append(atom)
            for first, *rest in groups.values():
                for second in rest:
                    for a, b in zip(first.terms, second.terms):
                        if not self.terms_equal(a, b):
                            self.equate(a, b)
                            changed = True
                        if self.contradiction is not None:
                            return False
        return changed

    # -- queries -----------------------------------------------------------

    def normalize(self, term: Term) -> tuple:
        """A hashable normal form deciding guaranteed equality of terms."""
        if isinstance(term, Variable):
            root = self.find(term)
            info = self._info[root]
            if info.pin is not None:
                return ("const", info.pin.value)
            if info.null:
                return ("null",)
            return ("class", id(root))
        if isinstance(term, NullTerm):
            return ("null",)
        if isinstance(term, Constant):
            return ("const", term.value)
        if isinstance(term, SkolemTerm):
            return ("skolem", term.functor, tuple(self.normalize(a) for a in term.args))
        return ("term", repr(term))  # pragma: no cover - defensive

    def terms_equal(self, left: Term, right: Term) -> bool:
        """True iff the closure proves the terms denote the same value."""
        return self.normalize(left) == self.normalize(right)

    def has_null(self) -> bool:
        """Does some class carry the null mark?"""
        return any(info.null for info in self._info.values())

    def key_paths(
        self, terms: Sequence[Term], key_positions: Sequence[int]
    ) -> KeyPaths | None:
        """This saturated clause's :class:`KeyPaths` from the key ``terms``.

        ``terms`` are the consequent's terms and ``key_positions`` its
        relation's key.  Classes are reached breadth first, each by its
        first path; a source row is entered once every class of its key has
        been reached.  ``None`` unless a pair closure with this clause can
        fail only as :data:`NULL_CLASH`: the clause must be consistent, pin
        no constant, and hold only variables in its source atoms and its key
        terms, so no constant, ``null`` or Skolem term is ever equated.
        """
        if self.contradiction is not None:
            return None
        for info in self._info.values():
            if info.pin is not None:
                return None
        find = self.find
        #: each class -> the distinct source rows holding it at a key position
        keyed: dict[Variable, list[tuple[str, tuple[int, ...], list[Variable]]]] = {}
        for name, atoms in self._by_relation.items():
            key = self.schema.relation(name).key_positions()
            seen: set[tuple[Variable, ...]] = set()
            for atom in atoms:
                roots = []
                for term in atom.terms:
                    if not isinstance(term, Variable):
                        return None
                    roots.append(find(term))
                if len(roots) <= max(key):
                    continue
                key_roots = tuple([roots[p] for p in key])
                if key_roots not in seen:
                    seen.add(key_roots)
                    for root in set(key_roots):
                        keyed.setdefault(root, []).append((name, key, roots))
        queue: list[tuple[KeyPath, Variable]] = []
        for position in key_positions:
            term = terms[position]
            if not isinstance(term, Variable):
                return None
            queue.append(((position,), find(term)))
        paths: dict[Variable, KeyPath] = {}
        null: list[KeyPath] = []
        nonnull: list[KeyPath] = []
        entered: set[tuple[str, tuple[Variable, ...]]] = set()
        for path, root in queue:  # the queue grows while it is read
            if root in paths:
                continue
            paths[root] = path
            info = self._info[root]
            if info.null:
                null.append(path)
            elif info.nonnull:
                nonnull.append(path)
            for name, key, roots in keyed.get(root, ()):
                key_roots = tuple([roots[p] for p in key])
                if (name, key_roots) in entered:
                    continue
                if len(key) > 1 and not all(r in paths for r in key_roots):
                    continue
                entered.add((name, key_roots))
                row = (name, tuple([paths[r] for r in key_roots]))
                for position, child in enumerate(roots):
                    if child not in paths:
                        queue.append(((row, position), child))
        return KeyPaths(frozenset(null), frozenset(nonnull))

    # -- the canonical instance ----------------------------------------------

    def freeze(self) -> tuple[list[RelationalAtom], dict[Variable, Term]]:
        """The atoms with every class frozen to one canonical term.

        A pinned class freezes to its constant; every other class becomes
        a :class:`FrozenValue` carrying its null / non-null mark, so
        condition checks during homomorphism searches stay local.  Classes
        are numbered in the order of their root variables' creation index
        and named after their earliest-created member.
        """
        classes: dict[Variable, list[Variable]] = {}
        for var in self._parent:
            classes.setdefault(self.find(var), []).append(var)
        substitution: dict[Variable, Term] = {}
        for number, root in enumerate(sorted(classes, key=lambda v: v.index)):
            info = self._info[root]
            members = classes[root]
            frozen: Term = info.pin if info.pin is not None else FrozenValue(
                number,
                min(members, key=lambda v: v.index).name,
                null=info.null,
                nonnull=info.nonnull,
            )
            for member in members:
                substitution[member] = frozen
        return [atom.substitute(substitution) for atom in self.atoms], substitution
