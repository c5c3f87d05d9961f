"""Logical formalism substrate: terms, atoms, tableaux, tgds, satisfiability."""

from .atoms import Equality, NegatedPremise, RelationalAtom, atoms_variables
from .homomorphism import find_homomorphism
from .mappings import LogicalMapping, Premise, SchemaMapping, UnitaryMapping
from .satisfiability import EgdClosure
from .tableau import MAND, NONE, NONNULL, NULL, PartialTableau
from .terms import (
    NULL_TERM,
    Constant,
    NullTerm,
    SkolemTerm,
    Term,
    Variable,
    VariableFactory,
    term_variables,
)

__all__ = [
    "Constant",
    "EgdClosure",
    "Equality",
    "LogicalMapping",
    "MAND",
    "NONE",
    "NONNULL",
    "NULL",
    "NULL_TERM",
    "NegatedPremise",
    "NullTerm",
    "PartialTableau",
    "Premise",
    "RelationalAtom",
    "SchemaMapping",
    "SkolemTerm",
    "Term",
    "UnitaryMapping",
    "Variable",
    "VariableFactory",
    "atoms_variables",
    "find_homomorphism",
    "term_variables",
]
