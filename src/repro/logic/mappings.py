"""Logical mappings (source-to-target tgds) and schema mappings.

A :class:`LogicalMapping` is a source-to-target tuple-generating dependency
``∀x (φ_S(x) → ∃y ψ_T(x, y))`` where the premise ``φ_S`` is a conjunctive
query over the source schema, possibly with null / non-null conditions,
source equalities (from correspondences) and — after key-conflict resolution —
safe negated subqueries.  The consequent ``ψ_T`` is a conjunction of target
atoms; covered correspondences are realized by sharing source variables into
consequent positions.

A :class:`UnitaryMapping` has a single consequent atom (the result of the
rewriting step of Algorithms 2 and 4) and remembers which original logical
mapping it came from — the paper's subscripted implication arrows — because
key-conflict resolution must rewrite all siblings of a mapping together.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from .atoms import Disequality, Equality, NegatedPremise, RelationalAtom, atoms_variables
from .tableau import PartialTableau
from .terms import Term, Variable


@dataclass(frozen=True)
class Premise:
    """The left-hand side of a (unitary) logical mapping."""

    atoms: tuple[RelationalAtom, ...]
    null_vars: tuple[Variable, ...] = ()
    nonnull_vars: tuple[Variable, ...] = ()
    equalities: tuple[Equality, ...] = ()
    disequalities: tuple[Disequality, ...] = ()
    negated: tuple[NegatedPremise, ...] = ()

    def variables(self) -> list[Variable]:
        """The universally quantified (source) variables, first-seen order."""
        return atoms_variables(self.atoms)

    def with_negations(self, extra: Iterable[NegatedPremise]) -> "Premise":
        return replace(self, negated=self.negated + tuple(extra))

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Premise":
        return Premise(
            atoms=tuple(a.substitute(mapping) for a in self.atoms),
            null_vars=tuple(
                v if v not in mapping else mapping[v]  # type: ignore[misc]
                for v in self.null_vars
            ),
            nonnull_vars=tuple(
                v if v not in mapping else mapping[v]  # type: ignore[misc]
                for v in self.nonnull_vars
            ),
            equalities=tuple(e.substitute(mapping) for e in self.equalities),
            disequalities=tuple(d.substitute(mapping) for d in self.disequalities),
            negated=tuple(n.substitute(mapping) for n in self.negated),
        )

    def __repr__(self) -> str:
        parts = [repr(a) for a in self.atoms]
        parts.extend(f"{v!r}=null" for v in self.null_vars)
        parts.extend(f"{v!r}!=null" for v in self.nonnull_vars)
        parts.extend(repr(e) for e in self.equalities)
        parts.extend(repr(d) for d in self.disequalities)
        parts.extend(repr(n) for n in self.negated)
        return ", ".join(parts)


@dataclass
class LogicalMapping:
    """A source-to-target tgd with (possibly) multiple consequent atoms."""

    premise: Premise
    consequent: tuple[RelationalAtom, ...]
    label: str = ""
    covered: tuple = ()
    source_tableau: PartialTableau | None = None
    target_tableau: PartialTableau | None = None

    def source_variables(self) -> list[Variable]:
        return self.premise.variables()

    def existential_variables(self) -> list[Variable]:
        """Variables of the consequent that do not occur in the premise."""
        source = set(self.source_variables())
        seen: dict[Variable, None] = {}
        for atom in self.consequent:
            for var in atom.variables():
                if var not in source:
                    seen.setdefault(var, None)
        return list(seen)

    def substitute_consequent(self, mapping: Mapping[Variable, Term]) -> "LogicalMapping":
        new_consequent = tuple(a.substitute(mapping) for a in self.consequent)
        return LogicalMapping(
            premise=self.premise,
            consequent=new_consequent,
            label=self.label,
            covered=self.covered,
            source_tableau=self.source_tableau,
            target_tableau=self.target_tableau,
        )

    def __repr__(self) -> str:
        arrow = f" ->{self.label} " if self.label else " -> "
        rhs = ", ".join(repr(a) for a in self.consequent)
        return f"{self.premise!r}{arrow}{rhs}"


@dataclass
class UnitaryMapping:
    """A skolemized logical mapping with a single consequent atom."""

    premise: Premise
    consequent: RelationalAtom
    origin: str = ""
    name: str = ""

    def source_variables(self) -> list[Variable]:
        return self.premise.variables()

    def with_premise(self, premise: Premise) -> "UnitaryMapping":
        return UnitaryMapping(premise, self.consequent, self.origin, self.name)

    def with_consequent(self, atom: RelationalAtom) -> "UnitaryMapping":
        return UnitaryMapping(self.premise, atom, self.origin, self.name)

    def __repr__(self) -> str:
        arrow = f" ->{self.origin} " if self.origin else " -> "
        return f"{self.premise!r}{arrow}{self.consequent!r}"


@dataclass
class SchemaMapping:
    """A set of logical mappings from a source schema to a target schema."""

    source_schema: object
    target_schema: object
    mappings: list[LogicalMapping] = field(default_factory=list)

    def __iter__(self):
        return iter(self.mappings)

    def __len__(self) -> int:
        return len(self.mappings)

    def __getitem__(self, index: int) -> LogicalMapping:
        return self.mappings[index]

    def __repr__(self) -> str:
        lines = [repr(m) for m in self.mappings]
        return "SchemaMapping[\n  " + "\n  ".join(lines) + "\n]"
