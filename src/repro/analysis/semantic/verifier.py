"""Differential verification of the pipeline's own rewrites.

Two rewrite stages change a generated program after the mappings are fixed:
the "standard query optimization" of Example 6.8
(:func:`repro.datalog.optimize.remove_subsumed_rules`) and the soft
key-conflict resolution of Algorithm 4 step 3
(:func:`repro.core.resolution.resolve_key_conflicts`).  This module
statically certifies both, per mapping problem, on the stage-2 result the
pipeline emitted (which keeps the program as built before ``qgen.optimize``),
so certifying runs no stage again:

* **optimizer certificates** — every rule the optimizer drops must have a
  chase containment witness into a kept rule of the same relation (or be a
  dead intermediate); additionally the optimized and unoptimized programs
  are evaluated *differentially* on canonical instances (one per rule's
  frozen body, plus their union) and must produce identical targets; a
  disagreement names a removed rule and a row it derives that the
  optimized target lacks.  Failures are ``SEM003`` errors.
* **resolution certificates** — (a) each resolved non-fused mapping, with
  its disabling negations stripped, must be equivalent to its pre-resolution
  sibling modulo the reported Skolem functor renaming (resolution only
  disables and renames — it never changes what a mapping copies); (b) the
  final program's target on every canonical instance must have no key
  violations (the whole point of resolution).  Failures are ``SEM004``
  errors.

Each class of canonical instances is evaluated once per program at most:
when no rule reads a derived relation, the differential runs the optimized
program and only the rules the optimizer removed; otherwise it runs both
programs.  The key certificate checks the final (optimized) program's
target of the same run.  A class holds the instances that are equal up to
a renaming of their fresh values.  The interpreter reads values only
through equality, disequality and null tests, and negation is a membership
test, so evaluation commutes with any bijection on values no program
mentions; fresh values are non-null, so isomorphic instances have
isomorphic targets and pass or fail both checks together, negation
included.  A class's later members reuse the passes of a member that
passed both checks; while no member has, each is evaluated, so a failure
is always reported from its own instance's run.

The canonical instances are the frozen rule bodies: for each rule, every
variable class becomes a distinct fresh constant (null-conditioned classes
become ``NULL``).  The union instance is where resolution earns its keep —
it satisfies several premises at once with per-rule-distinct keys, and the
per-rule instances of fused mappings satisfy all member premises with
*equal* keys, exercising the disabling negations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ...core.query_generation import QueryGenerationResult
from ...core.resolution import rename_functors_in_atom
from ...datalog.engine import EvaluationResult, PlanMemo, evaluate, evaluate_rules
from ...datalog.program import DatalogProgram, Rule
from ...errors import ReproError
from ...logic.mappings import SchemaMapping, UnitaryMapping
from ...logic.satisfiability import EgdClosure
from ...logic.terms import Constant, NullTerm, SkolemTerm, Variable
from ...model.instance import Instance
from ...model.validation import validate_instance
from ...model.values import NULL, format_value
from ...obs import count, span
from ..diagnostics import Diagnostic, diagnostic
from .containment import ContainmentEngine, cq_from_rule, cq_from_unitary, default_engine


@dataclass
class VerificationCheck:
    """One certificate: what was checked, whether it held, and the evidence."""

    name: str
    subject: str
    ok: bool
    detail: str = ""


@dataclass
class VerificationReport:
    """All certificates for one mapping problem."""

    problem: str = ""
    checks: list[VerificationCheck] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def failures(self) -> list[VerificationCheck]:
        return [check for check in self.checks if not check.ok]

    def summary(self) -> str:
        good = sum(1 for c in self.checks if c.ok)
        return f"{good}/{len(self.checks)} certificates hold"

    def _record(
        self, name: str, subject: str, ok: bool, detail: str = "", code: str = ""
    ) -> None:
        self.checks.append(VerificationCheck(name, subject, ok, detail))
        count("verify.certificates")
        if not ok:
            count("verify.failures")
            self.diagnostics.append(
                diagnostic(code, detail or f"{name} failed for {subject}",
                           subject=subject)
            )


# -- canonical instances ---------------------------------------------------


def canonical_instances(program: DatalogProgram) -> list[tuple[str, Instance]]:
    """Frozen per-rule source instances, plus their union, as ``(label, I)``.

    Each rule's body atoms (over source relations) are instantiated with one
    fresh constant per variable class — classes follow the rule's equalities,
    null-conditioned classes become ``NULL`` — so rule ``i``'s instance
    satisfies exactly the premises that embed into rule ``i``'s body.
    """
    return [
        (label, instance)
        for label, instance, _ in _classed_instances(
            program, _constants(program)
        )
    ]


#: an instance's class: its relations' rows in instance order, each fresh
#: value replaced by ``(0, index of its first appearance)`` and every other
#: value ``v`` (``NULL``, pinned or ground constants) by ``(1, v)``; ``None``
#: makes the instance a class of its own
ClassKey = tuple | None


def _classed_instances(
    program: DatalogProgram, constants: set
) -> list[tuple[str, Instance, ClassKey]]:
    """:func:`canonical_instances`, each with its :data:`ClassKey`.

    Two instances with one key are equal up to a bijection between their
    fresh values.  An instance whose fresh values meet ``constants`` (which
    must hold every constant of the programs that will read it), and the
    union, get ``None``.  Key validity is a matter of equality alone, so
    it is checked once per class.
    """
    schema = program.source_schema
    assert schema is not None
    labeled: list[tuple[str, Instance, ClassKey]] = []
    valid: dict[ClassKey, bool] = {}
    union = Instance(schema)
    source_relations = set(schema.relation_names())
    for i, rule in enumerate(program.rules):
        instance = Instance(schema)
        frozen = _frozen_values(rule, prefix=f"r{i}", schema=schema)
        if frozen is None:
            continue  # unsatisfiable under the source fds: never fires
        values, fresh = frozen
        added = False
        for atom in rule.body:
            if atom.relation not in source_relations:
                continue  # pragma: no cover - bodies are source atoms today
            row = tuple(
                values[term] if term in values else _ground(term)
                for term in atom.terms
            )
            instance.add(atom.relation, row)
            union.add(atom.relation, row)
            added = True
        if not added:
            continue
        key = None if fresh & constants else _class_key(instance, fresh)
        ok = valid.get(key)
        if ok is None:
            ok = not validate_instance(instance).key_violations
            if key is not None:
                valid[key] = ok
        if ok:
            labeled.append((f"rule[{i}]:{rule.head_relation}", instance, key))
    if not validate_instance(union).key_violations:
        labeled.append(("union", union, None))
    return labeled


def _class_key(instance: Instance, fresh: set) -> tuple:
    first: dict[object, int] = {}
    return tuple(
        tuple(
            tuple(
                (0, first.setdefault(value, len(first))) if value in fresh
                else (1, value)
                for value in row
            )
            for row in relation.rows
        )
        for relation in instance.relations.values()
    )


def _constants(*programs: DatalogProgram) -> set:
    """Every constant the programs' rules mention, Skolem arguments included."""
    terms: list = []
    for program in programs:
        for rule in program.rules:
            for atom in (rule.head, *rule.body, *rule.negated):
                terms.extend(atom.terms)
            for condition in (*rule.equalities, *rule.disequalities):
                terms.extend((condition.left, condition.right))
    constants = set()
    while terms:
        term = terms.pop()
        if isinstance(term, Constant):
            constants.add(term.value)
        elif isinstance(term, SkolemTerm):
            terms.extend(term.args)
    return constants


def _frozen_values(
    rule: Rule, prefix: str, schema
) -> tuple[dict[object, object], set] | None:
    """One value per variable class of the rule's body, and the fresh ones.

    Classes follow the rule's equalities *closed under the source key
    dependencies* (:class:`~repro.logic.satisfiability.EgdClosure`): two
    body atoms over the same relation with equal key classes must agree on
    every other position (a valid instance cannot distinguish them — the
    instance-level analogue of the chase's fd rule, which the fused premises
    of Example 6.6 rely on).  A class gets its pinned constant, ``NULL``, or
    a fresh value invented here; the second result holds the fresh values.
    Returns ``None`` when the closure is contradictory: the body is
    unsatisfiable on valid instances.
    """
    closure = EgdClosure(schema)
    closure.add_atoms(rule.body)
    for eq in rule.equalities:
        closure.equate(eq.left, eq.right)
    closure.saturate()
    if closure.contradiction is not None:
        return None

    null_roots = {closure.find(v) for v in rule.null_vars}
    class_values: dict[Variable, object] = {}
    values: dict[object, object] = {}
    fresh: set = set()
    for v in rule.body_variables():
        root = closure.find(v)
        if root not in class_values:
            info = closure.info(root)
            if info.pin is not None:
                class_values[root] = info.pin.value
            elif info.null or root in null_roots:
                class_values[root] = NULL
            else:
                class_values[root] = f"{prefix}.{root.name}#{len(class_values)}"
                fresh.add(class_values[root])
        values[v] = class_values[root]
    return values, fresh


def _ground(term: object) -> object:
    if isinstance(term, Constant):
        return term.value
    if isinstance(term, NullTerm):
        return NULL
    raise ReproError(  # pragma: no cover - rule bodies hold vars/constants/null
        f"cannot ground body term {term!r} in a canonical instance"
    )


# -- the verifier ----------------------------------------------------------


def verify_generation(
    schema_mapping: SchemaMapping,
    problem: str = "",
    engine: ContainmentEngine | None = None,
) -> VerificationReport:
    """Run query generation (Algorithm 4) once and certify its result."""
    from ...core.query_generation import generate_queries

    return verify_result(
        generate_queries(schema_mapping), problem=problem, engine=engine
    )


def verify_result(
    result: QueryGenerationResult,
    problem: str = "",
    engine: ContainmentEngine | None = None,
) -> VerificationReport:
    """Certify the optimizer and resolution rewrites of one stage-2 result."""
    engine = engine or default_engine()
    report = VerificationReport(problem=problem)
    with span("semantic.verify", problem=problem):
        unoptimized, optimized = result.unoptimized, result.program
        _certify_optimizer(report, engine, unoptimized, optimized)
        instances = _classed_instances(
            unoptimized, _constants(unoptimized, optimized)
        )
        count(
            "verify.instance_classes",
            len({label if key is None else key for label, _, key in instances}),
        )
        resolved = result.resolution is not None
        violations = _certify_differential(
            report, unoptimized, optimized, instances, resolved
        )
        if resolved:
            _certify_resolution_rewrites(report, engine, result)
            _certify_resolution_keys(report, violations)
    return report


def _certify_optimizer(
    report: VerificationReport,
    engine: ContainmentEngine,
    unoptimized: DatalogProgram,
    optimized: DatalogProgram,
) -> None:
    """Per-removed-rule containment certificates (``SEM003`` on failure)."""
    kept_ids = {id(rule) for rule in optimized.rules}
    kept = [rule for rule in unoptimized.rules if id(rule) in kept_ids]
    referenced = {
        atom.relation
        for rule in kept
        for atom in list(rule.body) + list(rule.negated)
    }
    kept_queries = [(rule, cq_from_rule(rule)) for rule in kept]
    for index, rule in _removed_rules(unoptimized, optimized):
        subject = f"rule[{index}]:{rule.head_relation}"
        if (
            rule.head_relation in unoptimized.intermediates
            and rule.head_relation not in referenced
        ):
            report._record(
                "optimizer:removed-rule", subject, True,
                f"dead intermediate {rule.head_relation!r}: no kept rule "
                f"reads it",
            )
            continue
        query = cq_from_rule(rule)
        witness = next(
            (
                (other, w)
                for other, other_query in kept_queries
                if other.head_relation == rule.head_relation
                and (w := engine.contained_in(query, other_query)) is not None
            ),
            None,
        )
        if witness is None:
            report._record(
                "optimizer:removed-rule", subject, False,
                f"optimizer dropped {rule!r} but no kept rule semantically "
                f"contains it",
                code="SEM003",
            )
        else:
            other, w = witness
            report._record(
                "optimizer:removed-rule", subject, True,
                f"contained in {other!r} via {w.render()}",
            )


def _certify_differential(
    report: VerificationReport,
    unoptimized: DatalogProgram,
    optimized: DatalogProgram,
    instances: list[tuple[str, Instance, ClassKey]],
    resolved: bool,
) -> list[tuple[str, list]]:
    """Before/after evaluation on canonical instances (``SEM003``).

    When the optimized rules are rules of the unoptimized program and no
    rule of the latter reads a derived relation, every rule's rows depend
    on the source alone, so the unoptimized target is the optimized one plus
    the removed rules' rows, relation by relation: each instance runs the
    optimized program and only the removed rules, and the programs agree
    when those rows are all in the optimized target.  Otherwise both
    programs run in full.  Returns the key violations of the optimized
    program's target on each instance, by label (checked only when
    ``resolved``).

    Instances of one class pass or fail both checks together (see the
    module docstring).  Once a member has passed both, the class's later
    members record the same passes unevaluated; until then each member is
    evaluated, so every failure text is the one its own run writes.

    Every evaluation here shares one join-plan memo: the instances are
    small and alike, so most rules rank their body relations' sizes the
    same way on many of them.  The memo is dropped on return, so no plan
    outlives the verification.
    """
    removed = _removed_rules(unoptimized, optimized)
    shortcut = _reads_source_only(unoptimized, optimized)
    if shortcut:
        unoptimized.validate()  # raises as a full run of it would
    plans: PlanMemo = {}
    passed: set[ClassKey] = set()
    violations: list[tuple[str, list]] = []
    for label, instance, key in instances:
        if key is not None and key in passed:
            disagreement, found = None, []
        else:
            if shortcut:
                after = evaluate(optimized, instance, plans=plans).target
                disagreement = _missing_row(
                    removed, _relations(instance), after, plans
                )
            else:
                before = evaluate(unoptimized, instance, plans=plans)
                after = evaluate(optimized, instance, plans=plans).target
                disagreement = (
                    None if before.target == after
                    else _disagreement(removed, instance, before, after, plans)
                )
            found = validate_instance(after).key_violations if resolved else []
            if disagreement is None and not found and key is not None:
                passed.add(key)
        report._record(
            "optimizer:differential", label, disagreement is None,
            "optimized and unoptimized programs agree"
            if disagreement is None
            else f"programs disagree on canonical instance {label}: "
            + disagreement,
            code="SEM003",
        )
        violations.append((label, found))
    return violations


def _removed_rules(
    unoptimized: DatalogProgram, optimized: DatalogProgram
) -> list[tuple[int, Rule]]:
    """The unoptimized program's rules the optimizer dropped, by index."""
    kept = {id(rule) for rule in optimized.rules}
    return [
        (index, rule)
        for index, rule in enumerate(unoptimized.rules)
        if id(rule) not in kept
    ]


def _reads_source_only(
    unoptimized: DatalogProgram, optimized: DatalogProgram
) -> bool:
    """Whether the removed rules' rows alone tell the two targets apart.

    True when the optimized program keeps the target schema and a subset of
    the unoptimized rules, and no unoptimized rule reads (positively or
    under negation) a relation some rule defines.
    """
    rules = {id(rule) for rule in unoptimized.rules}
    defined = set(unoptimized.defined_relations())
    return (
        optimized.target_schema is unoptimized.target_schema
        and all(id(rule) in rules for rule in optimized.rules)
        and not any(
            atom.relation in defined
            for rule in unoptimized.rules
            for atom in rule.body + rule.negated
        )
    )


def _relations(instance: Instance) -> dict[str, tuple]:
    return {name: relation.rows for name, relation in instance.relations.items()}


def _missing_row(
    removed: list[tuple[int, Rule]],
    relations: dict,
    after: Instance,
    plans: PlanMemo,
) -> str | None:
    """The first removed rule's first row the optimized target lacks, if any.

    ``relations`` holds every relation the removed rules read.
    """
    rows = evaluate_rules([rule for _, rule in removed], relations, plans=plans)
    present: dict[str, set] = {}
    for (index, rule), derived in zip(removed, rows):
        name = rule.head_relation
        if name not in present:
            target = after.relations.get(name)
            if target is None:
                continue  # not a target relation: no target row depends on it
            present[name] = set(target.rows)
        row = next((row for row in derived if row not in present[name]), None)
        if row is not None:
            return (
                f"removed rule[{index}] {rule!r} derives "
                f"{_render_row(rule.head_relation, row)}, which the optimized "
                f"target lacks"
            )
    return None


def _disagreement(
    removed: list[tuple[int, Rule]],
    instance: Instance,
    before: EvaluationResult,
    after: Instance,
    plans: PlanMemo,
) -> str:
    """Name the first row that tells two differing targets apart.

    A removed rule's row the optimized target lacks is named as on the
    shortcut; otherwise the first row only one of the targets holds.
    """
    relations = _relations(instance)
    relations.update(before.intermediates)
    relations.update(_relations(before.target))
    missing = _missing_row(removed, relations, after, plans)
    if missing is not None:
        return missing
    for name in dict.fromkeys([*before.target.relations, *after.relations]):
        ours, theirs = _rows(before.target, name), _rows(after, name)
        for side, rows, other in (
            ("unoptimized", ours, theirs), ("optimized", theirs, ours)
        ):
            present = set(other)
            row = next((row for row in rows if row not in present), None)
            if row is not None:
                return f"{_render_row(name, row)} is in the {side} target only"
    return "the targets have different relations"


def _rows(instance: Instance, name: str) -> tuple:
    relation = instance.relations.get(name)
    return () if relation is None else relation.rows


def _render_row(relation: str, row: tuple) -> str:
    return f"{relation}({', '.join(format_value(value) for value in row)})"


def _certify_resolution_rewrites(
    report: VerificationReport, engine: ContainmentEngine, base
) -> None:
    """Resolution may only disable (negations) and rename functors (``SEM004``).

    For each pre-resolution unitary mapping and its resolved counterpart
    (positionally aligned), stripping the added negations and applying the
    reported functor renaming must yield semantically equivalent queries.
    """
    renaming = base.resolution.functor_renaming
    for index, original in enumerate(base.unitary):
        resolved: UnitaryMapping = base.final[index]
        subject = resolved.name or f"unitary[{index}]"
        stripped = resolved.with_premise(
            replace(resolved.premise, negated=())
        )
        renamed = original.with_consequent(
            rename_functors_in_atom(original.consequent, renaming)
        )
        pair = engine.equivalent(cq_from_unitary(stripped), cq_from_unitary(renamed))
        ok = pair is not None
        report._record(
            "resolution:rewrite", subject, ok,
            f"resolved mapping (negations stripped) is equivalent to its "
            f"pre-resolution form via {pair[0].render()}"
            if ok
            else f"resolution changed mapping {subject} beyond disabling / "
            f"renaming: {original!r} became {resolved!r}",
            code="SEM004",
        )


def _certify_resolution_keys(
    report: VerificationReport, violations: list[tuple[str, list]]
) -> None:
    """The resolved program's canonical-instance targets must respect keys."""
    for label, found in violations:
        ok = not found
        report._record(
            "resolution:keys", label, ok,
            "no key violations on the canonical instance"
            if ok
            else f"resolved program violates target keys on {label}: "
            + "; ".join(str(v) for v in found),
            code="SEM004",
        )
