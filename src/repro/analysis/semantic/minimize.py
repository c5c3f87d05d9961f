"""Semantic minimization of generated programs and unitary mappings.

The syntactic optimizer (:func:`repro.datalog.optimize.remove_subsumed_rules`)
drops a rule only when a variable-renaming homomorphism between the rules
themselves exists.  The semantic minimizer asks the stronger question —
is the rule's *query* contained in another rule's query? — using the chase
(:mod:`repro.analysis.semantic.containment`), so it also catches redundancy
the syntactic pattern match misses (reordered or differently-chased bodies,
condition-implied atoms, equality-collapsed joins).

Removal is sound for stratified programs: a removed rule derives a subset of
another rule for the *same* head relation, so every relation's extension —
including intermediates read under negation — is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...datalog.optimize import drop_dead_intermediates
from ...datalog.program import DatalogProgram, Rule
from ...logic.mappings import UnitaryMapping
from ...logic.redundancy import redundant
from ...obs import count, span
from ..diagnostics import Diagnostic, diagnostic
from .containment import (
    ConjunctiveQuery,
    ContainmentEngine,
    Witness,
    cq_from_rule,
    cq_from_unitary,
    default_engine,
)


@dataclass
class RemovedRule:
    """One provably redundant rule: contained in ``by`` (witness attached)."""

    rule: Rule
    index: int
    by: Rule
    by_index: int
    witness: Witness


@dataclass
class SubsumedMapping:
    """One unitary mapping provably subsumed by another."""

    mapping: UnitaryMapping
    index: int
    by: UnitaryMapping
    by_index: int
    witness: Witness


@dataclass
class MinimizationResult:
    """The minimized program plus the removal certificates."""

    program: DatalogProgram
    removed: list[RemovedRule] = field(default_factory=list)
    #: unitary mappings flagged by :func:`minimize_unitary_mappings`
    #: (:meth:`repro.core.pipeline.MappingSystem.minimize` fills it in)
    subsumed: list[SubsumedMapping] = field(default_factory=list)

    @property
    def diagnostics(self) -> list[Diagnostic]:
        """``SEM001`` per removed rule, then ``SEM002`` per subsumed mapping,
        each with its witness."""
        return [
            diagnostic(
                "SEM001",
                f"rule {removal.rule!r} is semantically contained in "
                f"{removal.by!r}; removing it cannot change the program's "
                f"output",
                subject=removal.rule.head_relation,
                witness=removal.witness.render(),
            )
            for removal in self.removed
        ] + mapping_diagnostics(self.subsumed)


def minimize_program(
    program: DatalogProgram, engine: ContainmentEngine | None = None
) -> MinimizationResult:
    """Remove rules provably contained in other rules of the program.

    The semantic analogue of ``remove_subsumed_rules``: the same scan
    (:func:`repro.logic.redundancy.redundant`, rules of one head relation
    only, the earlier of two equivalent rules kept), but each removal
    carries a chase witness.  Dead intermediates are dropped afterwards,
    exactly as the syntactic optimizer does.
    """
    rules = program.rules
    with span("semantic.minimize", rules=len(rules)) as trace:
        removed = _contained_away(
            [cq_from_rule(rule) for rule in rules], engine or default_engine()
        )
        kept = [rule for i, rule in enumerate(rules) if i not in removed]
        result = MinimizationResult(
            program=drop_dead_intermediates(program, kept),
            removed=[
                RemovedRule(rules[i], i, rules[j], j, witness)
                for i, (j, witness) in removed.items()
            ],
        )
        count("semantic.rules_removed", len(removed))
        trace.set(removed=len(removed), kept=len(result.program.rules))
        return result


def minimize_unitary_mappings(
    mappings: list[UnitaryMapping], engine: ContainmentEngine | None = None
) -> list[SubsumedMapping]:
    """Flag unitary mappings provably subsumed by another mapping.

    Subsumption here is query containment of the mapping read as the rule
    ``consequent ← premise`` (negated premises compared as opaque
    subqueries).  Only flags — the pipeline's own pruning happens earlier;
    these surface as ``SEM002`` warnings.
    """
    flagged = _contained_away(
        [cq_from_unitary(m) for m in mappings], engine or default_engine()
    )
    if flagged:
        count("semantic.mappings_flagged", len(flagged))
    return [
        SubsumedMapping(mappings[i], i, mappings[j], j, witness)
        for i, (j, witness) in flagged.items()
    ]


def _contained_away(queries: list[ConjunctiveQuery], engine: ContainmentEngine):
    """The redundancy scan by containment; the engine proves none across
    head relations, so those pairs are never asked."""
    return redundant(
        queries,
        lambda container, contained: engine.contained_in(contained, container),
        key=lambda query: query.head_label,
    )


def mapping_diagnostics(flagged: list[SubsumedMapping]) -> list[Diagnostic]:
    """The flagged mappings as ``SEM002`` findings."""
    return [
        diagnostic(
            "SEM002",
            f"unitary mapping {item.mapping.name or item.mapping.origin or i} "
            f"({item.mapping!r}) is semantically subsumed by "
            f"{item.by.name or item.by.origin or item.by_index} ({item.by!r})",
            subject=item.mapping.consequent.relation,
            witness=item.witness.render(),
        )
        for i, item in enumerate(flagged)
    ]
