"""Concrete counterexamples: build, replay on both engines, minimize.

A REFUTED verdict is only as good as its evidence.  This module turns an
:class:`~repro.logic.satisfiability.EgdClosure` describing a suspected
violation into a *valid* source instance, replays it through **both**
evaluation engines (the tuple-at-a-time reference interpreter and the
compiled batch runtime), and accepts the refutation only when
:func:`repro.model.validation.validate_instance` reports the exact expected
violation on both target instances.  Anything less — the instance cannot be
made valid, or either engine's output satisfies the constraint — downgrades
the verdict to UNKNOWN.  Accepted counterexamples are then greedily
minimized by row removal.

Instance construction:

* every closure class becomes one concrete value — its pinned constant, the
  unlabeled ``NULL`` for null-marked classes, or a fresh distinct constant;
* atoms become rows (FD saturation already merged same-key atoms, so the
  rows satisfy the source keys);
* dangling foreign keys are repaired by a chase that adds referenced rows
  (nullable attributes null, the rest fresh) — terminating because bundled
  source schemas are weakly acyclic, with a depth guard for hand-built ones.
"""

from __future__ import annotations

from itertools import count as _counter
from typing import Callable

from ...datalog.engine import evaluate
from ...datalog.exec import evaluate_batch
from ...datalog.program import DatalogProgram
from ...logic.satisfiability import EgdClosure
from ...logic.terms import Term
from ...model.instance import Instance
from ...model.validation import validate_instance
from ...model.values import NULL
from ...obs import count

#: FK-repair chase rounds before giving up (weakly acyclic schemas need
#: at most the schema's dependency depth; this guards hand-built inputs).
MAX_REPAIR_ROUNDS = 50

#: A predicate over a ValidationReport: "does the expected violation show?"
ViolationCheck = Callable[[object], bool]


def key_violation_check(relation: str) -> ViolationCheck:
    return lambda report: any(
        v.relation == relation for v in report.key_violations
    )


def null_violation_check(relation: str, attribute: str) -> ViolationCheck:
    return lambda report: any(
        v.relation == relation and v.attribute == attribute
        for v in report.null_violations
    )


def fk_violation_check(relation: str, attribute: str) -> ViolationCheck:
    return lambda report: any(
        v.relation == relation and v.attribute == attribute
        for v in report.foreign_key_violations
    )


def instance_from_closure(closure: EgdClosure, schema) -> Instance | None:
    """A concrete source instance realizing the closure's atoms.

    ``None`` when the closure is contradictory or an atom does not fit the
    schema (wrong relation or arity) — no instance realizes it then.
    """
    if closure.contradiction is not None:
        return None
    instance = Instance(schema)
    fresh = _counter()
    values: dict[tuple, object] = {}

    def concrete(term: Term) -> object:
        normal = closure.normalize(term)
        tag = normal[0]
        if tag == "const":
            return normal[1]
        if tag == "null":
            return NULL
        if normal not in values:
            values[normal] = f"v{next(fresh)}"
        return values[normal]

    for atom in closure.atoms:
        if atom.relation not in schema:
            return None
        relation = schema.relation(atom.relation)
        if relation.arity != len(atom.terms):
            return None
        instance.add(atom.relation, tuple(concrete(t) for t in atom.terms))
    if not repair_foreign_keys(instance, fresh):
        return None
    return instance


def repair_foreign_keys(instance: Instance, fresh=None) -> bool:
    """Chase dangling foreign keys by adding referenced rows.

    Added rows carry the dangling value at the key, ``NULL`` at nullable
    attributes and fresh constants elsewhere.  Each round adds one row per
    dangling (referenced relation, value), however many rows dangle on it,
    so the repair never adds two rows with one key.  Returns ``False`` when
    the repair does not converge within :data:`MAX_REPAIR_ROUNDS`.
    """
    if fresh is None:
        fresh = _counter()
    schema = instance.schema
    for _ in range(MAX_REPAIR_ROUNDS):
        report = validate_instance(instance)
        if not report.foreign_key_violations:
            return True
        missing = dict.fromkeys(
            (violation.referenced, violation.value)
            for violation in report.foreign_key_violations
        )
        for relation, value in missing:
            referenced = schema.relation(relation)
            key_attr = referenced.key[0]
            row = []
            for attribute in referenced.attributes:
                if attribute.name == key_attr:
                    row.append(value)
                elif attribute.nullable:
                    row.append(NULL)
                else:
                    row.append(f"r{next(fresh)}")
            instance.add(relation, tuple(row))
    return False


def violation_reproduces(
    program: DatalogProgram,
    source: Instance,
    check: ViolationCheck,
) -> bool:
    """True iff the violation shows on *both* engines from a valid source."""
    if not validate_instance(source).ok:
        return False
    for engine in (evaluate, evaluate_batch):
        target = engine(program, source).target
        if not check(validate_instance(target)):
            return False
    return True


def minimize(
    program: DatalogProgram,
    source: Instance,
    check: ViolationCheck,
) -> Instance:
    """Greedily drop rows while the counterexample keeps reproducing.

    Row removal can re-dangle foreign keys; a candidate whose removal makes
    the source invalid is simply kept (``violation_reproduces`` insists on
    validity), so the result stays a valid instance.
    """
    current = source
    changed = True
    while changed:
        changed = False
        for relation in current.schema:
            for row in current.relation(relation.name).rows:
                candidate = _without_row(current, relation.name, row)
                if violation_reproduces(program, candidate, check):
                    current = candidate
                    changed = True
    return current


def _without_row(instance: Instance, relation: str, row: tuple) -> Instance:
    copy = instance.copy()
    copy.relation(relation).discard(row)
    return copy


def confirmed_counterexample(
    program: DatalogProgram,
    closure: EgdClosure,
    check: ViolationCheck,
) -> Instance | None:
    """The full pipeline: build, confirm on both engines, minimize.

    ``None`` means the suspected violation could not be concretely
    demonstrated — the caller must answer UNKNOWN, never REFUTED.
    """
    if program.source_schema is None:
        return None
    source = instance_from_closure(closure, program.source_schema)
    if source is None:
        count("certify.counterexamples", 1, outcome="unrealizable")
        return None
    if not violation_reproduces(program, source, check):
        count("certify.counterexamples", 1, outcome="unconfirmed")
        return None
    count("certify.counterexamples", 1, outcome="confirmed")
    return minimize(program, source, check)
