"""Atoms and conditions of the logical language.

A :class:`RelationalAtom` is ``R(t1, ..., tn)``.  Conditions come in the
three forms the paper uses inside partial tableaux and mapping premises:
equalities ``t1 = t2``, null conditions ``x = null`` and non-null conditions
``x ≠ null``.  After key-conflict resolution, premises also carry
:class:`NegatedPremise` conjuncts — the safe negation ``¬φ^key(k)`` of another
mapping's premise projected on the key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .terms import Term, Variable, term_variables


class RelationalAtom:
    """An atom ``R(t1, ..., tn)`` over relation ``R``."""

    __slots__ = ("relation", "terms")

    def __init__(self, relation: str, terms: Sequence[Term]):
        self.relation = relation
        self.terms = tuple(terms)

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> list[Variable]:
        return term_variables(self.terms)

    def substitute(self, mapping: Mapping[Variable, Term]) -> "RelationalAtom":
        return RelationalAtom(self.relation, tuple(t.substitute(mapping) for t in self.terms))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationalAtom):
            return NotImplemented
        return self.relation == other.relation and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.relation, self.terms))

    def __repr__(self) -> str:
        inner = ",".join(repr(t) for t in self.terms)
        return f"{self.relation}({inner})"


@dataclass(frozen=True)
class Equality:
    """The condition ``left = right``."""

    left: Term
    right: Term

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Equality":
        return Equality(self.left.substitute(mapping), self.right.substitute(mapping))

    def variables(self) -> list[Variable]:
        return term_variables((self.left, self.right))

    def __repr__(self) -> str:
        return f"{self.left!r}={self.right!r}"


@dataclass(frozen=True)
class Disequality:
    """The condition ``left ≠ right`` (Clio-style filters use it against constants)."""

    left: Term
    right: Term

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Disequality":
        return Disequality(self.left.substitute(mapping), self.right.substitute(mapping))

    def variables(self) -> list[Variable]:
        return term_variables((self.left, self.right))

    def __repr__(self) -> str:
        return f"{self.left!r}!={self.right!r}"


class NegatedPremise:
    """A safe negated conjunctive subquery ``¬{k | atoms, conditions}``.

    ``correlated`` lists the variables shared with the enclosing mapping (the
    key variables the negation is correlated on, paper section 6); every other
    variable in ``atoms`` is local to the subquery (implicitly existential).
    """

    __slots__ = (
        "atoms",
        "null_vars",
        "nonnull_vars",
        "correlated",
        "equalities",
        "disequalities",
    )

    def __init__(
        self,
        atoms: Sequence[RelationalAtom],
        correlated: Sequence[Variable],
        null_vars: Sequence[Variable] = (),
        nonnull_vars: Sequence[Variable] = (),
        equalities: Sequence["Equality"] = (),
        disequalities: Sequence["Disequality"] = (),
    ):
        self.atoms = tuple(atoms)
        self.correlated = tuple(correlated)
        self.null_vars = tuple(null_vars)
        self.nonnull_vars = tuple(nonnull_vars)
        self.equalities = tuple(equalities)
        self.disequalities = tuple(disequalities)

    def substitute(self, mapping: Mapping[Variable, Term]) -> "NegatedPremise":
        """Substitute the *correlated* variables (locals are never renamed away)."""
        new_atoms = tuple(a.substitute(mapping) for a in self.atoms)
        new_correlated = []
        for var in self.correlated:
            replacement = mapping.get(var, var)
            if not isinstance(replacement, Variable):
                raise TypeError(
                    "correlated variable of a negated premise must stay a variable, "
                    f"got {replacement!r}"
                )
            new_correlated.append(replacement)
        return NegatedPremise(
            new_atoms,
            new_correlated,
            self.null_vars,
            self.nonnull_vars,
            tuple(e.substitute(mapping) for e in self.equalities),
            tuple(d.substitute(mapping) for d in self.disequalities),
        )

    def signature(self) -> tuple:
        """A structural signature identifying equal subqueries up to renaming.

        Used to share one intermediate (``tmp``) relation among mappings that
        negate the same premise projection.
        """
        var_ids: dict[Variable, int] = {}
        for var in self.correlated:
            var_ids.setdefault(var, -1 - len(var_ids))

        def encode(term: Term) -> object:
            if isinstance(term, Variable):
                if term not in var_ids:
                    var_ids[term] = len(var_ids)
                return ("v", var_ids[term])
            return ("t", repr(term))

        atoms_sig = tuple(
            (a.relation, tuple(encode(t) for t in a.terms)) for a in self.atoms
        )
        null_sig = tuple(sorted(repr(encode(v)) for v in self.null_vars))
        nonnull_sig = tuple(sorted(repr(encode(v)) for v in self.nonnull_vars))
        eq_sig = tuple(
            sorted((repr(encode(e.left)), repr(encode(e.right))) for e in self.equalities)
        )
        diseq_sig = tuple(
            sorted(
                (repr(encode(d.left)), repr(encode(d.right)))
                for d in self.disequalities
            )
        )
        return (atoms_sig, null_sig, nonnull_sig, eq_sig, diseq_sig, len(self.correlated))

    def __repr__(self) -> str:
        head = ",".join(repr(v) for v in self.correlated)
        body = ", ".join(repr(a) for a in self.atoms)
        conds = [f"{v!r}=null" for v in self.null_vars]
        conds.extend(f"{v!r}!=null" for v in self.nonnull_vars)
        conds.extend(repr(e) for e in self.equalities)
        conds.extend(repr(d) for d in self.disequalities)
        if conds:
            body = body + ", " + ", ".join(conds)
        return f"not{{{head} | {body}}}"


def atoms_variables(atoms: Sequence[RelationalAtom]) -> list[Variable]:
    """All variables of a sequence of atoms, deduplicated, first-seen order."""
    seen: dict[Variable, None] = {}
    for atom in atoms:
        for var in atom.variables():
            seen.setdefault(var, None)
    return list(seen)

