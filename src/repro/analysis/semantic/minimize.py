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
from ...obs import count, span
from ..diagnostics import Diagnostic, diagnostic
from .containment import (
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

    The semantic analogue of ``remove_subsumed_rules``: same traversal and
    same keep-the-earlier tie-break on mutual containment (semantically
    equivalent duplicates), but each removal carries a chase witness.
    Dead intermediates are dropped afterwards, exactly as the syntactic
    optimizer does.
    """
    with span("semantic.minimize", rules=len(program.rules)) as trace:
        result = _minimize_program(program, engine or default_engine())
        count("semantic.rules_removed", len(result.removed))
        trace.set(removed=len(result.removed), kept=len(result.program.rules))
        return result


def _minimize_program(
    program: DatalogProgram, engine: ContainmentEngine
) -> MinimizationResult:
    rules = program.rules
    queries = [cq_from_rule(rule) for rule in rules]
    kept: list[Rule] = []
    removed: list[RemovedRule] = []
    removed_indices: set[int] = set()
    for i, rule in enumerate(rules):
        certificate: RemovedRule | None = None
        for j, other in enumerate(rules):
            if i == j or j in removed_indices:
                continue
            witness = engine.contained_in(queries[i], queries[j])
            if witness is None:
                continue
            if engine.contained_in(queries[j], queries[i]) is not None and i < j:
                continue  # mutual containment: keep the earlier rule
            certificate = RemovedRule(rule, i, other, j, witness)
            break
        if certificate is None:
            kept.append(rule)
        else:
            removed_indices.add(i)
            removed.append(certificate)
    return MinimizationResult(
        program=drop_dead_intermediates(program, kept), removed=removed
    )


def minimize_unitary_mappings(
    mappings: list[UnitaryMapping], engine: ContainmentEngine | None = None
) -> list[SubsumedMapping]:
    """Flag unitary mappings provably subsumed by another mapping.

    Subsumption here is query containment of the mapping read as the rule
    ``consequent ← premise`` (negated premises compared as opaque
    subqueries).  Only flags — the pipeline's own pruning happens earlier;
    these surface as ``SEM002`` warnings.
    """
    engine = engine or default_engine()
    queries = [cq_from_unitary(m) for m in mappings]
    flagged: list[SubsumedMapping] = []
    flagged_indices: set[int] = set()
    for i, mapping in enumerate(mappings):
        for j, other in enumerate(mappings):
            if i == j or j in flagged_indices:
                continue
            witness = engine.contained_in(queries[i], queries[j])
            if witness is None:
                continue
            if engine.contained_in(queries[j], queries[i]) is not None and i < j:
                continue
            flagged_indices.add(i)
            flagged.append(SubsumedMapping(mapping, i, other, j, witness))
            count("semantic.mappings_flagged")
            break
    return flagged


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
