"""Terms of the logical language: variables, constants, Skolem terms, null.

Variables carry a global creation index which provides the total ordering
``≺`` used by the chase's fd rule ("let x be the least variable under the
ordering") so that chasing is deterministic.  Skolem terms represent invented
values (labeled nulls) symbolically inside logical mappings and Datalog rules;
they become :class:`repro.model.values.LabeledNull` values at evaluation time.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping

_COUNTER = itertools.count()
_COUNTER_LOCK = threading.Lock()


def _next_index() -> int:
    with _COUNTER_LOCK:
        return next(_COUNTER)


class Term:
    """Base class for all terms."""

    __slots__ = ()

    def variables(self) -> Iterator["Variable"]:
        """All variables occurring in this term (depth-first)."""
        return iter(())

    def substitute(self, mapping: Mapping["Variable", "Term"]) -> "Term":
        """Apply a substitution; the default is the identity."""
        return self


class Variable(Term):
    """A logical variable; ordered by creation so chases are deterministic."""

    __slots__ = ("name", "index")

    def __init__(self, name: str):
        self.name = name
        self.index = _next_index()

    def variables(self) -> Iterator["Variable"]:
        yield self

    def substitute(self, mapping: Mapping["Variable", Term]) -> Term:
        return mapping.get(self, self)

    def __repr__(self) -> str:
        return self.name

    def __lt__(self, other: "Variable") -> bool:
        return self.index < other.index

    # identity-based equality/hash: two distinct Variable objects are
    # distinct variables, even with the same display name.


@dataclass(frozen=True)
class Constant(Term):
    """A constant value from the data domain."""

    value: Any

    def __repr__(self) -> str:
        return repr(self.value)


class NullTerm(Term):
    """The term denoting the unlabeled null value.  A singleton."""

    __slots__ = ()
    _instance: "NullTerm | None" = None

    def __new__(cls) -> "NullTerm":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "null"


#: The unique null term.
NULL_TERM = NullTerm()


class SkolemTerm(Term):
    """A Skolem functor application ``f(t1, ..., tn)`` denoting an invented value."""

    __slots__ = ("functor", "args")

    def __init__(self, functor: str, args: Iterable[Term]):
        self.functor = functor
        self.args = tuple(args)

    def variables(self) -> Iterator[Variable]:
        for arg in self.args:
            yield from arg.variables()

    def substitute(self, mapping: Mapping[Variable, Term]) -> Term:
        return SkolemTerm(self.functor, tuple(a.substitute(mapping) for a in self.args))

    def rename_functors(self, renaming: Mapping[str, str]) -> "SkolemTerm":
        """Apply a functor renaming recursively (used by Skolem unification)."""
        new_args = tuple(
            a.rename_functors(renaming) if isinstance(a, SkolemTerm) else a
            for a in self.args
        )
        return SkolemTerm(renaming.get(self.functor, self.functor), new_args)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SkolemTerm):
            return NotImplemented
        return self.functor == other.functor and self.args == other.args

    def __hash__(self) -> int:
        return hash((SkolemTerm, self.functor, self.args))

    def __repr__(self) -> str:
        inner = ",".join(repr(a) for a in self.args)
        return f"{self.functor}({inner})"


class VariableFactory:
    """Creates variables with readable, unique display names.

    Display names follow the paper's habit of deriving variable names from
    attribute initials (``p``, ``n``, ``e``) with numeric suffixes added only
    when needed for uniqueness within the factory.
    """

    def __init__(self, prefix: str = ""):
        self._prefix = prefix
        self._used: dict[str, int] = {}

    def fresh(self, hint: str) -> Variable:
        base = self._prefix + (hint or "v")
        count = self._used.get(base, 0)
        self._used[base] = count + 1
        name = base if count == 0 else f"{base}{count}"
        return Variable(name)

    def fresh_for_attribute(self, attribute: str) -> Variable:
        """A variable named from an attribute's initial letter, paper-style."""
        hint = attribute[0].lower() if attribute else "v"
        return self.fresh(hint)


def term_variables(terms: Iterable[Term]) -> list[Variable]:
    """All variables in a sequence of terms, deduplicated, in first-seen order."""
    seen: dict[Variable, None] = {}
    for term in terms:
        for var in term.variables():
            seen.setdefault(var, None)
    return list(seen)
