"""Stratification / evaluation ordering for non-recursive Datalog programs.

The programs emitted by query generation are non-recursive by construction
(intermediate ``tmp`` relations depend only on source relations; target
relations depend on source and ``tmp`` relations).  :func:`stratify` verifies
this — any dependency cycle among defined relations is rejected — and
returns the defined relations in a safe evaluation order (dependencies
first), which doubles as a stratification for the safe negation.

Both come from one depth-first search of the relation graph
(:func:`repro.model.graph.depth_first`, reading each relation's
dependencies in name order): its post-order is the evaluation order and the
first cycle it meets is the recursion witness.  On recursion the error names
the relation cycle *and* the rule that closes it, and carries the structured
``DLG002`` diagnostic of :mod:`repro.analysis.diagnostics`;
:func:`find_recursion_cycle` exposes the same witness non-destructively for
the linter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import DatalogError
from ..model.graph import depth_first

if TYPE_CHECKING:  # pragma: no cover
    from .program import DatalogProgram, Rule


def dependencies(program: "DatalogProgram") -> dict[str, set[str]]:
    """For each defined relation, the defined relations its rules read.

    The returned dict preserves first-definition order (stratification and
    therefore SQL statement order must be deterministic across runs).
    """
    defined_order = program.defined_relations()
    defined = set(defined_order)
    graph: dict[str, set[str]] = {name: set() for name in defined_order}
    for rule in program.rules:
        reads = {a.relation for a in rule.body} | {a.relation for a in rule.negated}
        graph[rule.head_relation].update(reads & defined)
    return graph


def readers(program: "DatalogProgram") -> dict[str, set[str]]:
    """The reverse dependency graph: who reads each defined relation.

    ``readers(p)[r]`` is the set of defined relations with a rule whose body
    or negation mentions ``r``.  Shared by the flow engine's worklist solver
    (re-enqueue the readers of a relation whose abstract state changed) and
    kept here next to :func:`dependencies` so both directions of the graph
    come from one definition.
    """
    graph = dependencies(program)
    reverse: dict[str, set[str]] = {name: set() for name in graph}
    for reader, reads in graph.items():
        for read in reads:
            reverse[read].add(reader)
    return reverse


def _closing_rule(
    program: "DatalogProgram", reader: str, read: str
) -> "Rule | None":
    """A rule with head ``reader`` whose body or negation reads ``read``."""
    for rule in program.rules_for(reader):
        if any(
            atom.relation == read
            for atom in list(rule.body) + list(rule.negated)
        ):
            return rule
    return None


def _search(
    program: "DatalogProgram",
) -> tuple[list[str], tuple[list[str], "Rule | None"] | None]:
    """One depth-first search: the evaluation order and the first cycle."""
    graph = dependencies(program)
    order, cycle = depth_first(graph, lambda name: sorted(graph[name]))
    if cycle is None:
        return order, None
    return order, (cycle, _closing_rule(program, cycle[-2], cycle[0]))


def find_recursion_cycle(
    program: "DatalogProgram",
) -> tuple[list[str], "Rule | None"] | None:
    """A dependency cycle among defined relations, or ``None`` if acyclic.

    Returns the cycle as a relation list ``[r1, ..., rn, r1]`` plus the rule
    that closes it (the rule with head ``rn`` reading ``r1``).
    """
    return _search(program)[1]


def stratify(program: "DatalogProgram") -> list[str]:
    """Defined relations in evaluation order; raises on recursion.

    The order is deterministic: it depends only on the rule list (first
    definition order) and relation names, never on hashing or object
    identity.
    """
    order, recursion = _search(program)
    if recursion is None:
        return order
    cycle, rule = recursion
    closed_by = f" (closed by rule {rule!r})" if rule is not None else ""
    message = f"recursive Datalog program: {' -> '.join(cycle)}{closed_by}"
    from ..analysis.diagnostics import diagnostic

    raise DatalogError(
        message, diagnostic=diagnostic("DLG002", message, subject=cycle[0])
    )
