"""Non-recursive Datalog programs with Skolem functors and safe negation.

This is the execution language the paper's query-generation algorithms emit:
each rule has a head over a target (or intermediate) relation whose terms may
include Skolem functor terms and ``null``, a positive body of relational
atoms over source and intermediate relations, equality / null / non-null
conditions, and negated atoms over intermediate relations (safe stratified
negation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import DatalogError
from ..logic.atoms import Disequality, Equality, RelationalAtom, atoms_variables
from ..logic.terms import Variable
from ..model.schema import Schema


@dataclass(frozen=True)
class Rule:
    """``head ← body, conditions, ¬negated``."""

    head: RelationalAtom
    body: tuple[RelationalAtom, ...]
    negated: tuple[RelationalAtom, ...] = ()
    null_vars: tuple[Variable, ...] = ()
    nonnull_vars: tuple[Variable, ...] = ()
    equalities: tuple[Equality, ...] = ()
    disequalities: tuple[Disequality, ...] = ()

    @property
    def head_relation(self) -> str:
        return self.head.relation

    def body_variables(self) -> list[Variable]:
        return atoms_variables(self.body)

    def check_safety(self) -> None:
        """Heads, negations and conditions may only use positive body variables.

        Raises :class:`DatalogError` carrying the structured ``DLG001``
        diagnostic of the first unbound variable (see :mod:`repro.analysis`).
        """
        problems = unsafe_rule_variables(self)
        if problems:
            from ..analysis.diagnostics import diagnostic

            kind, var = problems[0]
            raise DatalogError(
                f"unsafe rule: {kind} variable {var!r} not bound in body: {self!r}",
                diagnostic=diagnostic(
                    "DLG001",
                    f"unsafe rule: {kind} variable {var!r} is not bound by a "
                    f"positive body atom in {self!r}",
                    subject=self.head_relation,
                ),
            )

    def __repr__(self) -> str:
        parts = [repr(a) for a in self.body]
        parts.extend(f"{v!r}=null" for v in self.null_vars)
        parts.extend(f"{v!r}!=null" for v in self.nonnull_vars)
        parts.extend(repr(e) for e in self.equalities)
        parts.extend(repr(d) for d in self.disequalities)
        parts.extend(f"not {a!r}" for a in self.negated)
        return f"{self.head!r} <- {', '.join(parts)}"


def unsafe_rule_variables(rule: Rule) -> list[tuple[str, Variable]]:
    """All safety violations of one rule as ``(kind, variable)`` pairs.

    ``kind`` is ``"head"``, ``"negated"`` or ``"condition"``.  Shared by
    :meth:`Rule.check_safety` (which raises on the first) and the ``DLG001``
    check of :mod:`repro.analysis.datalog_lint` (which reports them all).
    """
    bound = set(rule.body_variables())
    problems: list[tuple[str, Variable]] = []
    for var in rule.head.variables():
        if var not in bound:
            problems.append(("head", var))
    for atom in rule.negated:
        for var in atom.variables():
            if var not in bound:
                problems.append(("negated", var))
    for var in list(rule.null_vars) + list(rule.nonnull_vars):
        if var not in bound:
            problems.append(("condition", var))
    for condition in list(rule.equalities) + list(rule.disequalities):
        for var in condition.variables():
            if var not in bound:
                problems.append(("condition", var))
    return problems


@dataclass
class DatalogProgram:
    """A set of rules plus schema bookkeeping."""

    rules: list[Rule] = field(default_factory=list)
    source_schema: Schema | None = None
    target_schema: Schema | None = None
    #: name -> arity for intermediate (tmp) relations introduced by negation
    intermediates: dict[str, int] = field(default_factory=dict)
    #: ``(rules, order)`` of the last successful :meth:`validate`, one pair
    #: so the order never outlives its rules; left out of ``__init__`` (so
    #: ``dataclasses.replace`` starts without it), ``repr`` and equality
    _validated: tuple[tuple[Rule, ...], tuple[str, ...]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def defined_relations(self) -> list[str]:
        """Relations appearing in some head, in first-definition order."""
        seen: dict[str, None] = {}
        for rule in self.rules:
            seen.setdefault(rule.head_relation, None)
        return list(seen)

    def rules_for(self, relation: str) -> list[Rule]:
        return [r for r in self.rules if r.head_relation == relation]

    def relation_arity(self, name: str) -> int | None:
        """The arity of ``name``, from any layer that knows it.

        Intermediates record their arity directly; schema relations take it
        from their attribute list; a defined relation known to neither falls
        back to its first rule's head width.  ``None`` for relations this
        program has never heard of.
        """
        if name in self.intermediates:
            return self.intermediates[name]
        for schema in (self.source_schema, self.target_schema):
            if schema is not None and name in schema:
                return schema.relation(name).arity
        for rule in self.rules:
            if rule.head_relation == name:
                return len(rule.head.terms)
        return None

    def target_rules(self) -> list[Rule]:
        """Rules defining target relations (not intermediates)."""
        return [r for r in self.rules if r.head_relation not in self.intermediates]

    def validate(self) -> tuple[str, ...]:
        """Check safety, definedness of negated relations, and non-recursion.

        Returns the defined relations in evaluation order (see
        :func:`repro.datalog.stratify.stratify`).  A successful check is kept
        per rule tuple: while ``tuple(self.rules)`` equals the validated one
        (frozen rules compare by content, identical ones in constant time),
        repeat calls return the kept order without re-checking.  A failed
        check keeps nothing, so every call on an invalid program raises.
        """
        rules = tuple(self.rules)
        memo = self._validated
        if memo is not None and memo[0] == rules:
            return memo[1]
        from .stratify import stratify

        for rule in rules:
            rule.check_safety()
        defined = set(self.defined_relations())
        for rule in rules:
            for atom in rule.negated:
                if atom.relation not in defined:
                    raise DatalogError(
                        f"negated relation {atom.relation!r} has no defining rules"
                    )
        order = tuple(stratify(self))  # raises on recursion
        self._validated = (rules, order)
        return order

    def stratification(self) -> tuple[str, ...]:
        """The evaluation order, also for programs that fail validation.

        Valid programs get (and keep) the :meth:`validate` order; the others
        are stratified afresh, which still raises ``DLG002`` on recursion.
        """
        try:
            return self.validate()
        except DatalogError:
            from .stratify import stratify

            return tuple(stratify(self))

    def __iter__(self):
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __repr__(self) -> str:
        return "DatalogProgram[\n  " + "\n  ".join(repr(r) for r in self.rules) + "\n]"
