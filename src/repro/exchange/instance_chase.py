"""Instance-level chase: canonical (universal) solutions for schema mappings.

The paper's "more natural semantics" claim (sections 1 and 8) is relative to
the canonical universal instance semantics of data exchange [5, 19]: chase
the source instance with the tgds of the schema mapping (inventing one
labeled null per existential variable and premise binding — the
All-Source-Vars skolemization), then chase the result with the target key
constraints as egds.  This module implements both steps so transformations
can be compared against the canonical solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import ConstraintViolationError
from ..logic.mappings import LogicalMapping, SchemaMapping
from ..logic.terms import Variable
from ..model.instance import Instance
from ..model.schema import Schema
from ..model.values import NULL, LabeledNull, is_labeled_null, is_null
from ..obs import count
from ..datalog.engine import RowStore, _conditions_hold, _join


def _nullable_only(
    mapping: LogicalMapping, target_schema: Schema, variable: Variable
) -> bool:
    """True iff the variable occurs only in nullable consequent positions."""
    found = False
    for atom in mapping.consequent:
        relation = target_schema.relation(atom.relation)
        for position, term in enumerate(atom.terms):
            if term is variable:
                found = True
                if not relation.attributes[position].nullable:
                    return False
    return found


def chase_with_tgds(
    schema_mapping: SchemaMapping,
    source: Instance,
    null_for_nullable_existentials: bool = False,
) -> Instance:
    """The naive tgd chase: the canonical pre-solution.

    Each existential variable of each tgd becomes, per premise binding, a
    labeled null whose arguments are all the source-variable values — the
    All-Source-Vars invention policy that yields the canonical universal
    instance in the Clio setting (Appendix B).  With
    ``null_for_nullable_existentials`` the paper's null policy applies
    instead: an existential variable occurring only in nullable positions
    becomes the unlabeled null (section 6), which is the semantics the novel
    transformations realize.
    """
    target_schema = schema_mapping.target_schema
    assert isinstance(target_schema, Schema)
    result = Instance(target_schema)
    bindings_seen = 0
    invented = 0
    rows_added = 0
    store = RowStore()
    for name, relation in source.relations.items():
        store.add_relation(name, relation.rows)
    for mapping in schema_mapping:
        source_vars = mapping.source_variables()
        existential = mapping.existential_variables()
        label = mapping.label or "m"
        for bindings in _join(store, list(mapping.premise.atoms), {}):
            if not _conditions_hold(mapping.premise, bindings):
                continue
            bindings_seen += 1
            values: dict[Variable, Any] = dict(bindings)
            witness = tuple(bindings[v] for v in source_vars)
            for var in existential:
                if null_for_nullable_existentials and _nullable_only(
                    mapping, target_schema, var
                ):
                    values[var] = NULL
                else:
                    values[var] = LabeledNull(f"N_{var.name}@{label}", witness)
                    invented += 1
            for atom in mapping.consequent:
                row = tuple(
                    values[t] if isinstance(t, Variable) else t for t in atom.terms
                )
                result.add(atom.relation, row)
                rows_added += 1
    count("chase.bindings", bindings_seen, step="tgd")
    count("chase.invented", invented, step="tgd")
    count("chase.rows", rows_added, step="tgd")
    return result


@dataclass
class EgdChaseResult:
    """The result of chasing an instance with the target key egds."""

    instance: Instance
    merged: int  # how many labeled nulls were resolved to other values
    failed: bool  # True iff the chase failed (two distinct constants per key)
    failure_reason: str | None = None


def chase_with_key_egds(instance: Instance, resolve_nulls: bool = False) -> EgdChaseResult:
    """Chase a target instance with its schema's key constraints.

    Tuples of one relation agreeing on the key are merged positionwise.  A
    labeled null may be identified with any other value; two distinct
    constants in the same position make the chase fail, like the hard key
    conflicts of the paper.  With ``resolve_nulls`` the unlabeled null also
    yields to any other value (the paper's resolution preference ``copy ≻
    null ≻ invent``); otherwise null behaves like a constant.
    """
    substitution: dict[LabeledNull, Any] = {}
    merged = 0

    def resolve(value: Any) -> Any:
        seen = set()
        while is_labeled_null(value) and value in substitution:
            if value in seen:  # pragma: no cover - defensive
                break
            seen.add(value)
            value = substitution[value]
        if is_labeled_null(value):
            resolved_args = tuple(resolve(a) for a in value.args)
            if resolved_args != value.args:
                value = LabeledNull(value.functor, resolved_args)
        return value

    _FAIL = object()

    def unify(left: Any, right: Any) -> Any:
        """The merged value, or the _FAIL sentinel when irreconcilable."""
        nonlocal merged
        left, right = resolve(left), resolve(right)
        if left == right:
            return left
        if is_labeled_null(left):
            substitution[left] = right
            merged += 1
            return resolve(right)
        if is_labeled_null(right):
            substitution[right] = left
            merged += 1
            return resolve(left)
        if resolve_nulls:
            if is_null(left):
                return right
            if is_null(right):
                return left
        return _FAIL

    current = instance
    for _round in range(1 + instance.total_size()):
        rebuilt = Instance(current.schema)
        failure: str | None = None
        for rel_schema in current.schema:
            key_positions = rel_schema.key_positions()
            groups: dict[tuple, list] = {}
            for row in current.relation(rel_schema.name):
                resolved = tuple(resolve(v) for v in row)
                key = tuple(resolved[p] for p in key_positions)
                groups.setdefault(key, []).append(resolved)
            for key, rows in groups.items():
                base = list(rows[0])
                for other in rows[1:]:
                    for position, value in enumerate(other):
                        outcome = unify(base[position], value)
                        if outcome is _FAIL:
                            failure = (
                                f"{rel_schema.name}: key {key!r} maps to both "
                                f"{resolve(base[position])!r} and {resolve(value)!r}"
                            )
                            break
                        base[position] = outcome
                    if failure:
                        break
                if failure:
                    count("chase.merged", merged, step="egd")
                    count("chase.failures", 1, step="egd")
                    return EgdChaseResult(current, merged, True, failure)
                rebuilt.add(rel_schema.name, tuple(resolve(v) for v in base))
        if rebuilt == current:
            count("chase.merged", merged, step="egd")
            return EgdChaseResult(rebuilt, merged, False)
        current = rebuilt
    return EgdChaseResult(current, merged, False)  # pragma: no cover - fixpoint reached


def canonical_universal_solution(
    schema_mapping: SchemaMapping,
    source: Instance,
    null_for_nullable_existentials: bool = False,
) -> Instance:
    """Chase with tgds, then with key egds.

    Raises :class:`ConstraintViolationError` when the egd chase fails (no
    solution exists).  ``null_for_nullable_existentials`` selects the
    paper's null policy.
    """
    pre = chase_with_tgds(
        schema_mapping, source, null_for_nullable_existentials
    )
    result = chase_with_key_egds(
        pre, resolve_nulls=null_for_nullable_existentials
    )
    if result.failed:
        raise ConstraintViolationError(
            f"egd chase failed, no solution exists: {result.failure_reason}"
        )
    return result.instance
