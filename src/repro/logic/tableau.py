"""(Partial) tableaux — the paper's logical relations.

A tableau is a set of relational atoms closed under foreign-key traversal,
obtained by chasing a single base relation; joins are represented by shared
variables.  A *partial* tableau (paper section 5.1) additionally carries null
conditions ``x = null`` and non-null conditions ``x ≠ null`` on variables
bound to nullable attributes.

Because every tableau is produced by chasing one base relation, its atoms form
a rooted tree: the root atom is the base relation and each other atom is
reached by traversing one foreign key.  Each atom therefore has a *path* — the
sequence of foreign-key attribute names traversed from the root — which is a
stable identity across the sibling tableaux produced by different null/non-null
decisions.  The chase records each decision as ``(atom path, attribute) ->
"null" | "nonnull"``; the *non-null extension* relation ``≺`` of section 5.2
is decided purely from these decision records.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..model.schema import Schema
from .atoms import RelationalAtom, atoms_variables
from .terms import Term, Variable

Path = tuple[str, ...]

#: Coverage levels (paper section 5.2).
MAND = "mand"
NULL = "null"
NONNULL = "nonnull"
NONE = "none"


def build_relation_index(atoms: Sequence[RelationalAtom]) -> dict[str, list[int]]:
    """The indices of ``atoms`` by relation."""
    index: dict[str, list[int]] = {}
    for i, atom in enumerate(atoms):
        index.setdefault(atom.relation, []).append(i)
    return index


class PartialTableau:
    """A partial tableau: rooted atoms plus null / non-null conditions."""

    def __init__(
        self,
        schema: Schema,
        root_relation: str,
        atoms: Sequence[RelationalAtom],
        paths: Sequence[Path],
        parents: Sequence[tuple[int, str] | None],
        null_vars: Sequence[Variable] = (),
        nonnull_vars: Sequence[Variable] = (),
        decisions: dict[tuple[Path, str], str] | None = None,
        relation_index: dict[str, list[int]] | None = None,
    ):
        if len(atoms) != len(paths) or len(atoms) != len(parents):
            raise ValueError("atoms, paths and parents must have equal length")
        self.schema = schema
        self.root_relation = root_relation
        self.atoms = tuple(atoms)
        self.paths = tuple(paths)
        self.parents = tuple(parents)
        self.null_vars = frozenset(null_vars)
        self.nonnull_vars = frozenset(nonnull_vars)
        self.decisions: dict[tuple[Path, str], str] = dict(decisions or {})
        self._children: dict[tuple[int, str], int] = {}
        for i, parent in enumerate(self.parents):
            if parent is not None:
                self._children[parent] = i
        #: the atom indices by relation (:func:`build_relation_index`); the chase
        #: shares one among siblings whose atoms are over the same relations
        self._by_relation = relation_index or build_relation_index(self.atoms)

    # -- basic queries ---------------------------------------------------

    @property
    def root_atom(self) -> RelationalAtom:
        return self.atoms[0]

    def variables(self) -> list[Variable]:
        return atoms_variables(self.atoms)

    def atoms_for(self, relation: str) -> list[int]:
        """Indices of all atoms over ``relation`` (a shared list: do not
        mutate it)."""
        return self._by_relation.get(relation, [])

    def term_at(self, atom_index: int, attribute: str) -> Term:
        atom = self.atoms[atom_index]
        position = self.schema.relation(atom.relation).position(attribute)
        return atom.terms[position]

    def child_of(self, atom_index: int, attribute: str) -> int | None:
        """The atom reached from ``atom_index`` by traversing FK ``attribute``."""
        return self._children.get((atom_index, attribute))

    # -- coverage levels (paper section 5.2) ------------------------------

    def attribute_level(self, atom_index: int, attribute: str) -> str:
        """Coverage level of one attribute occurrence: mand, null or nonnull."""
        atom = self.atoms[atom_index]
        relation = self.schema.relation(atom.relation)
        if not relation.is_nullable(attribute):
            return MAND
        term = atom.terms[relation.position(attribute)]
        if term in self.null_vars:
            return NULL
        if term in self.nonnull_vars:
            return NONNULL
        # A nullable attribute with no recorded condition: this only happens
        # in tableaux from the *standard* chase (basic algorithms), which
        # treats every present attribute as plainly covered.
        return MAND

    # -- structural relations (pruning support) ---------------------------

    def signature(self) -> tuple:
        """Identity of the tableau among all chase results of one schema."""
        return (
            self.root_relation,
            tuple(sorted(self.decisions.items())),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialTableau):
            return NotImplemented
        return self.schema is other.schema and self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash((id(self.schema), self.signature()))

    def is_nonnull_extension_of(self, other: "PartialTableau") -> bool:
        """True iff ``self ≺ other``: self is a non-null extension of other.

        Both tableaux must be chase results of the same base relation.  Then
        ``self`` extends ``other`` iff their decisions agree everywhere except
        on a non-empty set of *nullable foreign-key* attributes where ``other``
        chose null and ``self`` chose non-null; decisions inside the extra
        subtrees of ``self`` (paths through those foreign keys) are free.
        """
        if self.schema is not other.schema or self.root_relation != other.root_relation:
            return False
        other_paths = set(other.paths)
        difference_found = False
        for key, choice in other.decisions.items():
            path, attribute = key
            mine = self.decisions.get(key)
            if mine is None:
                return False  # other decided a point self never reached
            if mine == choice:
                continue
            # Decisions differ: allowed only null -> nonnull on a foreign key.
            relation = self._relation_at_path(path)
            if relation is None:
                return False
            is_fk = self.schema.has_foreign_key_from(relation, attribute)
            if not (is_fk and choice == NULL and mine == NONNULL):
                return False
            difference_found = True
        # Every extra decision of self must lie strictly inside new subtrees
        # (paths not present in other).
        for key in self.decisions:
            if key in other.decisions:
                continue
            path, _attribute = key
            if path in other_paths:
                return False
        return difference_found

    def _relation_at_path(self, path: Path) -> str | None:
        for i, candidate in enumerate(self.paths):
            if candidate == path:
                return self.atoms[i].relation
        return None

    # -- rendering ---------------------------------------------------------

    def __repr__(self) -> str:
        parts = [repr(a) for a in self.atoms]
        parts.extend(f"{v!r}=null" for v in sorted(self.null_vars, key=lambda x: x.index))
        parts.extend(f"{v!r}!=null" for v in sorted(self.nonnull_vars, key=lambda x: x.index))
        return ", ".join(parts)

    def __iter__(self) -> Iterator[RelationalAtom]:
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)
