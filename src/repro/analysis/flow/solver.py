"""The stratum-ordered worklist fixpoint solver of the flow engine.

This is a classic monotone-framework solver specialized to Datalog
programs: the abstract state maps every *position* (relation, column index)
to a value of the analysis' lattice; source-schema positions are seeded by
the analysis; defined relations start at bottom and accumulate, rule by
rule, the join of their rules' abstract head rows.  Relations are visited in
stratification order (dependencies first, reusing
:func:`repro.datalog.stratify.dependencies`), so on the non-recursive
programs query generation emits a single sweep reaches the fixpoint; the
worklist re-enqueues the readers of any relation whose state changed
(:func:`repro.datalog.stratify.readers`), which also makes the solver total
on recursive or hand-built programs.  After :data:`WIDEN_AFTER` visits of
the same relation the solver switches from join to the lattice's widening
operator, so domains of unbounded height still terminate.

An analysis (client) provides:

* ``name`` — a short identifier for dumps and telemetry;
* ``lattice`` — a :class:`repro.analysis.flow.lattice.Lattice`;
* ``seed(relation, position)`` — the initial value of an undefined (source
  or opaque) position;
* ``transfer(rule, env)`` — the abstract head row one rule derives under
  the current environment, as a list of lattice values (one per head
  position), or ``None`` when the rule provably derives nothing.

Transfer functions must be monotone in ``env``; the property test suite
checks both monotonicity and the post-fixpoint condition on random
programs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator

from ...datalog.program import DatalogProgram, Rule
from ...datalog.stratify import DatalogError, readers
from ...errors import ReproError
from ...logic.terms import Variable
from ...obs import count

#: Visits of one relation after which join gives way to widening.
WIDEN_AFTER = 3

#: Hard ceiling on relation visits — a genuinely diverging analysis (a
#: non-monotone client or a broken widening) fails loudly instead of looping.
MAX_VISITS_PER_RELATION = 100


class FlowError(ReproError):
    """The fixpoint solver diverged (non-monotone client or broken widening)."""


Position = tuple[str, int]


class Environment:
    """The abstract state: one lattice value per (relation, position).

    Reads of positions the solver has not touched are answered by the
    analysis' ``seed`` — so source relations and opaque (never-defined)
    relations need no up-front enumeration.
    """

    def __init__(self, analysis: "object"):
        self._analysis = analysis
        self._values: dict[Position, Any] = {}
        self._defined: set[str] = set()

    def mark_defined(self, relation: str) -> None:
        """Defined relations start at bottom instead of their seed."""
        self._defined.add(relation)

    def lookup(self, relation: str, position: int) -> Any:
        key = (relation, position)
        value = self._values.get(key)
        if value is not None:
            return value
        if relation in self._defined:
            return self._analysis.lattice.bottom()
        value = self._analysis.seed(relation, position)
        self._values[key] = value
        return value

    def variable(self, rule: Rule, var: Variable) -> list[Any]:
        """The values of every positive body position binding ``var``."""
        found = []
        for atom in rule.body:
            for index, term in enumerate(atom.terms):
                if term is var:
                    found.append(self.lookup(atom.relation, index))
        return found

    def set(self, relation: str, position: int, value: Any) -> None:
        self._values[(relation, position)] = value

    def row(self, relation: str, arity: int) -> list[Any]:
        return [self.lookup(relation, index) for index in range(arity)]

    def items(self) -> Iterator[tuple[Position, Any]]:
        return iter(sorted(self._values.items()))


@dataclass
class FlowStats:
    """Solver telemetry: also serialized into ``BENCH_flow.json``."""

    iterations: int = 0  # relation visits
    updates: int = 0  # position values that changed
    widenings: int = 0  # updates that went through Lattice.widen
    relations: int = 0  # defined relations solved

    def to_dict(self) -> dict[str, int]:
        return {
            "iterations": self.iterations,
            "updates": self.updates,
            "widenings": self.widenings,
            "relations": self.relations,
        }


@dataclass
class FlowResult:
    """The solved abstract state of one analysis over one program."""

    analysis: "object"
    program: DatalogProgram
    env: Environment
    stats: FlowStats = field(default_factory=FlowStats)

    @property
    def name(self) -> str:
        return self.analysis.name

    def value(self, relation: str, position: int) -> Any:
        return self.env.lookup(relation, position)

    def relation_values(self, relation: str) -> list[Any]:
        arity = self.program.relation_arity(relation)
        if arity is None:
            raise ReproError(f"unknown relation {relation!r} in flow result")
        return self.env.row(relation, arity)


def evaluation_order(program: DatalogProgram) -> list[str]:
    """Stratification order when it exists, first-definition order otherwise.

    Recursive programs have no stratification, but the worklist solver still
    converges on them (finite-height lattices, or widening); they just lose
    the single-sweep guarantee.
    """
    try:
        return list(program.stratification())
    except DatalogError:
        return program.defined_relations()


def solve(program: DatalogProgram, analysis: "object") -> FlowResult:
    """Run one analysis to fixpoint and return the solved environment."""
    lattice = analysis.lattice
    env = Environment(analysis)
    defined = program.defined_relations()
    for relation in defined:
        env.mark_defined(relation)

    stats = FlowStats(relations=len(defined))
    order = evaluation_order(program)
    reverse = readers(program)
    pending = deque(order)
    queued = set(order)
    visits: dict[str, int] = {}

    while pending:
        relation = pending.popleft()
        queued.discard(relation)
        visits[relation] = visits.get(relation, 0) + 1
        if visits[relation] > MAX_VISITS_PER_RELATION:
            raise FlowError(
                f"flow analysis {analysis.name!r} diverged on relation "
                f"{relation!r}: {MAX_VISITS_PER_RELATION} visits without a "
                "fixpoint (non-monotone transfer or ineffective widening)"
            )
        stats.iterations += 1
        count(f"flow.{analysis.name}.iterations")
        changed = False
        for rule in program.rules_for(relation):
            row = analysis.transfer(rule, env)
            if row is None:
                continue  # the rule provably derives no tuples
            for position, value in enumerate(row):
                old = env.lookup(relation, position)
                new = lattice.join(old, value)
                if visits[relation] > WIDEN_AFTER and new != old:
                    new = lattice.widen(old, new)
                    stats.widenings += 1
                if new != old:
                    env.set(relation, position, new)
                    stats.updates += 1
                    changed = True
        if changed:
            for reader in sorted(reverse.get(relation, ())):
                if reader not in queued:
                    pending.append(reader)
                    queued.add(reader)
    count("flow.iterations", stats.iterations, analysis=analysis.name)
    count("flow.updates", stats.updates, analysis=analysis.name)
    count("flow.widenings", stats.widenings, analysis=analysis.name)
    return FlowResult(analysis=analysis, program=program, env=env, stats=stats)
