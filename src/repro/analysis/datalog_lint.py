"""Static checks on generated Datalog programs (the ``DLG*`` codes, §6).

The paper's query-generation algorithms emit safe, non-recursive programs by
construction; this linter re-establishes those guarantees on any
:class:`~repro.datalog.program.DatalogProgram` — including hand-built or
deserialized ones — and adds two checks the runtime never performs:

* ``DLG004`` — every Skolem functor must be applied at one arity only, or
  invented values would collide unpredictably across rules;
* ``DLG010`` — nulls that can reach a non-nullable target attribute,
  decided by the nullability fixpoint of :mod:`repro.analysis.flow` (which
  tracks nulls from nullable source attributes through rule variables and
  intermediate ``tmp`` relations to the target columns).
"""

from __future__ import annotations

from typing import Iterable

from ..datalog.program import DatalogProgram, Rule, unsafe_rule_variables
from ..datalog.stratify import find_recursion_cycle
from ..logic.terms import SkolemTerm, Term
from .diagnostics import Diagnostic, ERROR, WARNING, diagnostic


def safety_diagnostics(rule: Rule) -> list[Diagnostic]:
    """``DLG001`` for every unbound head / negated / condition variable."""
    return [
        diagnostic(
            "DLG001",
            f"unsafe rule: {kind} variable {var!r} is not bound by a "
            f"positive body atom in {rule!r}",
            subject=rule.head_relation,
        )
        for kind, var in unsafe_rule_variables(rule)
    ]


def recursion_diagnostic(program: DatalogProgram) -> Diagnostic | None:
    """``DLG002`` with the relation cycle and the rule that closes it."""
    found = find_recursion_cycle(program)
    if found is None:
        return None
    cycle, closing_rule = found
    pretty = " -> ".join(cycle)
    closed_by = f" (closed by rule {closing_rule!r})" if closing_rule else ""
    return diagnostic(
        "DLG002",
        f"recursive Datalog program: {pretty}{closed_by}",
        subject=cycle[0] if cycle else "",
    )


def dead_relation_diagnostics(program: DatalogProgram) -> list[Diagnostic]:
    """``DLG003`` for intermediate relations no rule ever reads."""
    read = {
        atom.relation
        for rule in program.rules
        for atom in list(rule.body) + list(rule.negated)
    }
    return [
        diagnostic(
            "DLG003",
            f"intermediate relation {name!r} is defined but never read by "
            "any rule",
            subject=name,
        )
        for name in program.intermediates
        if name not in read
    ]


def _skolem_arities(terms: Iterable[Term], arities: dict[str, set[int]]) -> None:
    for term in terms:
        if isinstance(term, SkolemTerm):
            arities.setdefault(term.functor, set()).add(len(term.args))
            _skolem_arities(term.args, arities)


def functor_arity_diagnostics(program: DatalogProgram) -> list[Diagnostic]:
    """``DLG004`` for Skolem functors applied at more than one arity."""
    arities: dict[str, set[int]] = {}
    for rule in program.rules:
        _skolem_arities(rule.head.terms, arities)
        for atom in rule.body:
            _skolem_arities(atom.terms, arities)
    return [
        diagnostic(
            "DLG004",
            f"Skolem functor {functor!r} is used with inconsistent arities "
            f"{sorted(seen)}; invented values would collide unpredictably",
            subject=functor,
        )
        for functor, seen in sorted(arities.items())
        if len(seen) > 1
    ]


def null_flow_diagnostics(program: DatalogProgram) -> list[Diagnostic]:
    """``DLG010``: nulls reaching non-nullable target attributes.

    A client of the flow engine's nullability analysis: the fixpoint solves
    the per-position can-be-null facts (tracking nulls through intermediate
    ``tmp`` relations), and each target rule's head terms are re-evaluated
    under the solved environment so the finding names the offending rule.
    """
    target = program.target_schema
    if target is None:
        return []
    if find_recursion_cycle(program) is not None:
        return []  # recursive program: reported as DLG002, dataflow undefined

    from .flow import NO, YES, NullabilityAnalysis, rule_term_status, solve
    from .flow.lattice import BOTTOM

    solved = solve(program, NullabilityAnalysis(program))
    found: list[Diagnostic] = []
    for relation in program.stratification():
        if relation in program.intermediates or relation not in target:
            continue
        attributes = target.relation(relation).attributes
        for rule in program.rules_for(relation):
            for index, term in enumerate(rule.head.terms):
                if index >= len(attributes) or attributes[index].nullable:
                    continue
                status = rule_term_status(term, rule, solved.env)
                if status in (NO, BOTTOM):
                    continue  # never null, or the rule cannot fire at all
                attribute = attributes[index]
                certainty = (
                    "always null" if status == YES else "may be null"
                )
                found.append(
                    diagnostic(
                        "DLG010",
                        f"value flowing into mandatory attribute "
                        f"{relation}.{attribute.name} {certainty} in rule "
                        f"{rule!r}",
                        subject=f"{relation}.{attribute.name}",
                        severity=ERROR if status == YES else WARNING,
                    )
                )
    return found


def lint_program(program: DatalogProgram) -> list[Diagnostic]:
    """All ``DLG*`` diagnostics of one Datalog program."""
    found: list[Diagnostic] = []
    for rule in program.rules:
        found.extend(safety_diagnostics(rule))
    recursion = recursion_diagnostic(program)
    if recursion is not None:
        found.append(recursion)
    found.extend(dead_relation_diagnostics(program))
    found.extend(functor_arity_diagnostics(program))
    found.extend(null_flow_diagnostics(program))
    return found
