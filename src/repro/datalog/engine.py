"""Evaluation of non-recursive skolemized Datalog programs.

:func:`run_strata` is the evaluation loop both engines share: it
materializes every defined relation in stratification order into one
:class:`RowStore`, asking the engine only for each rule's derived rows.
The reference interpreter (:func:`evaluate`) derives them with an
index-nested-loop join: the atom joined at each depth is the most tightly
bound remaining body atom, chosen once per depth and rule evaluation, and
it is probed through the store's (relation, bound-positions) hash indexes.
Planning a depth also fixes which positions each candidate row is checked
at and which it binds, so only a matching row copies the bindings.  A
caller that evaluates the same rules over many stores passes a
:data:`PlanMemo`: a rule's plan depends only on its body and on how its
body relations' sizes compare, so evaluations whose sizes rank alike reuse
it.  The memo lives as long as its caller keeps it (the semantic verifier:
one verification), never on the rules.  Skolem
terms in heads become :class:`repro.model.values.LabeledNull` invented
values; ``null`` becomes :data:`repro.model.values.NULL`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Collection, Iterable, Iterator, Mapping, Sequence

from ..errors import EvaluationError
from ..logic.atoms import RelationalAtom
from ..logic.mappings import Premise
from ..logic.terms import Constant, NullTerm, SkolemTerm, Term, Variable
from ..model.instance import Instance, Row
from ..model.values import NULL, LabeledNull, is_null
from ..obs import RunReport, count, current_tracer, span, stage_report
from .program import DatalogProgram, Rule, unsafe_rule_variables


class RowStore:
    """Unique rows plus lazily built hash indexes per relation.

    The one row store of every evaluator: the reference interpreter, the
    batch runtime and its worker slices, the instance-level chase and query
    answering.  It keeps the rows it is given, neither copied nor
    deduplicated, so every caller hands it unique tuples: an
    :class:`Instance` relation, a derived relation or a slice of one.
    Indexes, keyed ``(relation, positions)`` and mapping the projection of
    each row onto ``positions`` to the rows holding it, and the row set
    that negated atoms and antijoins test are built on first use.
    """

    def __init__(self) -> None:
        self._rows: dict[str, Sequence[Row]] = {}
        self._sets: dict[str, set[Row]] = {}
        self._indexes: dict[tuple[str, tuple[int, ...]], dict[Row, list[Row]]] = {}

    def add_relation(self, name: str, rows: Sequence[Row]) -> None:
        self._rows[name] = rows
        # Replacing a relation's rows invalidates its row set and every index
        # built over it; keeping them would serve stale entries to later joins.
        self._sets.pop(name, None)
        for key in [k for k in self._indexes if k[0] == name]:
            del self._indexes[key]

    def rows(self, name: str) -> Sequence[Row]:
        try:
            return self._rows[name]
        except KeyError:
            raise EvaluationError(f"unknown relation {name!r} in rule body") from None

    def row_set(self, name: str) -> set[Row]:
        rows = self._sets.get(name)
        if rows is None:
            rows = self._sets[name] = set(self._rows.get(name, ()))
        return rows

    def size(self, name: str) -> int:
        return len(self._rows.get(name, ()))

    def sizes(self) -> dict[str, int]:
        return {name: len(rows) for name, rows in self._rows.items()}

    def has_index(self, name: str, positions: tuple[int, ...]) -> bool:
        return (name, positions) in self._indexes

    def index(self, name: str, positions: tuple[int, ...]) -> dict[Row, list[Row]]:
        """The hash index of ``name`` on ``positions``, built on first use.

        No positions give one ``()`` bucket holding every row.
        """
        key = (name, positions)
        index = self._indexes.get(key)
        if index is None:
            rows = self.rows(name)
            if not positions:
                index = {(): rows}
            elif len(positions) == 1:
                index = {}
                position = positions[0]
                for row in rows:
                    index.setdefault((row[position],), []).append(row)
            else:
                index = {}
                project = itemgetter(*positions)
                for row in rows:
                    index.setdefault(project(row), []).append(row)
            self._indexes[key] = index
        return index


Bindings = dict[Variable, Any]


def _eval_term(term: Term, bindings: Bindings) -> Any:
    """Evaluate a head/condition term to a value under the bindings."""
    if isinstance(term, Variable):
        try:
            return bindings[term]
        except KeyError:
            raise EvaluationError(f"unbound variable {term!r}") from None
    if isinstance(term, NullTerm):
        return NULL
    if isinstance(term, Constant):
        return term.value
    if isinstance(term, SkolemTerm):
        return LabeledNull(term.functor, tuple(_eval_term(a, bindings) for a in term.args))
    raise EvaluationError(f"cannot evaluate term {term!r}")  # pragma: no cover


#: kinds of the position checks a join step makes on each candidate row:
#: equal to a bound variable's value, equal to the row's value at an earlier
#: position (a variable repeated in the atom), null, or a constant
_BOUND, _REPEAT, _NULL, _CONSTANT = "bound", "repeat", "null", "constant"


def _atom_checks(
    atom: RelationalAtom, bound: Collection[Variable], probed: Collection[int]
) -> tuple[list[tuple[int, str, Any]], list[tuple[int, Variable]]]:
    """What matching ``atom`` against a row checks, and what it binds.

    The checks are ``(position, kind, expected)`` for every position outside
    ``probed`` (positions an index probe already guarantees); the binds are
    ``(position, variable)`` for each unbound variable's first occurrence.
    """
    checks: list[tuple[int, str, Any]] = []
    binds: list[tuple[int, Variable]] = []
    first: dict[Variable, int] = {}
    for p, term in enumerate(atom.terms):
        if isinstance(term, Variable) and term not in bound:
            if term in first:
                checks.append((p, _REPEAT, first[term]))
            else:
                first[term] = p
                binds.append((p, term))
        elif p in probed:
            continue
        elif isinstance(term, Variable):
            checks.append((p, _BOUND, term))
        elif isinstance(term, NullTerm):
            checks.append((p, _NULL, None))
        elif isinstance(term, Constant):
            checks.append((p, _CONSTANT, term.value))
        else:  # pragma: no cover - Skolem terms never occur in bodies
            raise EvaluationError(f"unexpected body term {term!r}")
    return checks, binds


def _extend_bindings(
    row: Row,
    bindings: Bindings,
    checks: list[tuple[int, str, Any]],
    binds: list[tuple[int, Variable]],
) -> Bindings | None:
    """``bindings`` extended by ``row`` when it passes ``checks``, else None.

    Only a matching row copies the bindings.
    """
    for position, kind, expected in checks:
        value = row[position]
        if kind is _BOUND:
            if bindings[expected] != value:
                return None
        elif kind is _REPEAT:
            if row[expected] != value:
                return None
        elif kind is _NULL:
            if not is_null(value):
                return None
        elif expected != value:
            return None
    extended = dict(bindings)
    for position, var in binds:
        extended[var] = row[position]
    return extended


#: ``(unplanned atoms, variables the planned ones bind, planned steps)``
Plan = tuple[list[RelationalAtom], set[Variable], list]

#: join plans shared by the evaluations of one caller, keyed ``(id(rule),
#: dense rank of each body atom's relation size)``; each entry keeps its
#: rule, so the id cannot be reused while the memo lives
PlanMemo = dict[tuple[int, tuple[int, ...]], tuple[Rule, Plan]]


def _new_plan(atoms: Iterable[RelationalAtom], bound: Iterable[Variable]) -> Plan:
    return list(atoms), set(bound), []


def _shared_plan(plans: PlanMemo, rule: Rule, sizes: list[int]) -> Plan:
    """``rule``'s plan in ``plans`` for body relations of these sizes.

    Each depth picks by bound positions, then by relation size, then by
    body order, so the sizes' dense ranks fix every pick, probe, check and
    bind.  A rule is checked (:func:`_check_bound`) when it gets an entry.
    """
    distinct = sorted(set(sizes))
    key = (id(rule), tuple(map(distinct.index, sizes)))
    entry = plans.get(key)
    if entry is None:
        _check_bound(rule)
        entry = plans[key] = (rule, _new_plan(rule.body, ()))
    return entry[1]


def _check_bound(rule: Rule) -> None:
    """Raise :class:`EvaluationError` naming a variable ``rule`` uses but
    its positive body does not bind (in its head, a condition or a negated
    atom)."""
    problems = unsafe_rule_variables(rule)
    if problems:
        kind, var = problems[0]
        raise EvaluationError(
            f"unsafe rule: {kind} variable {var!r} not bound in body: {rule!r}"
        )


def _join(store: RowStore, atoms: list[RelationalAtom], bindings: Bindings) -> Iterator[Bindings]:
    """All extensions of ``bindings`` satisfying every atom (greedy ordering).

    The atom joined at depth ``k`` is the remaining one with the most bound
    positions, ties broken by relation size and then by body order.  A
    matched atom binds all of its variables and the store does not change
    during a join, so that choice depends only on the atoms joined before
    it: each depth is planned once, the first time a binding reaches it.
    Most joins stop at their first atom, so later depths stay unplanned.
    """
    return _extend(store, _new_plan(atoms, bindings), 0, bindings)


def _extend(
    store: RowStore,
    plan: Plan,
    depth: int,
    bindings: Bindings,
) -> Iterator[Bindings]:
    """The join from ``depth`` on.

    ``plan`` is shared by every binding of one join (and, through a
    :data:`PlanMemo`, by joins over stores whose sizes rank alike); a step
    is appended the first time a binding reaches its depth.  It is passed
    along, not closed over: a self-recursive closure is a reference cycle,
    which only the cyclic garbage collector frees, once per rule evaluation.
    """
    remaining, bound, steps = plan
    if depth == len(steps):
        if not remaining:
            yield bindings
            return
        steps.append(_plan_step(store, remaining, bound))
    relation, positions, probe, checks, binds = steps[depth]
    if probe is None:
        candidates = store.rows(relation)
    else:
        wanted = tuple(
            bindings[key] if isinstance(key, Variable) else key[0]
            for key in probe
        )
        candidates = store.index(relation, positions).get(wanted, ())
    for row in candidates:
        extended = _extend_bindings(row, bindings, checks, binds)
        if extended is not None:
            yield from _extend(store, plan, depth + 1, extended)


def _plan_step(
    store: RowStore, remaining: list[RelationalAtom], bound: set[Variable]
) -> tuple[str, tuple[int, ...], list | None, list, list]:
    """Pop the next atom to join and mark its variables bound.

    Returns the atom's relation, its bound positions, its probe, and its
    checks and binds (:func:`_atom_checks`).  The probe holds per bound
    position the variable to read from the bindings or a 1-tuple holding
    the ground value; it is ``None`` when the atom is scanned whole (nothing
    bound, or a position that cannot be probed).
    """
    best = 0
    best_key = None
    best_positions: tuple[int, ...] = ()
    for i, atom in enumerate(remaining):
        positions = tuple(
            p
            for p, term in enumerate(atom.terms)
            if not isinstance(term, Variable) or term in bound
        )
        key = (-len(positions), store.size(atom.relation))
        if best_key is None or key < best_key:
            best, best_key, best_positions = i, key, positions
    atom = remaining.pop(best)
    probe: list | None = [] if best_positions else None
    for p in best_positions:
        term = atom.terms[p]
        if isinstance(term, Variable):
            probe.append(term)
        elif isinstance(term, Constant):
            probe.append((term.value,))
        elif isinstance(term, NullTerm):
            probe.append((NULL,))
        else:  # pragma: no cover
            probe = None
            break
    checks, binds = _atom_checks(
        atom, bound, best_positions if probe is not None else ()
    )
    bound.update(var for _, var in binds)
    return atom.relation, best_positions, probe, checks, binds


def _conditions_hold(rule: Rule | Premise, bindings: Bindings) -> bool:
    """Whether the bindings meet a rule's or a premise's conditions."""
    for var in rule.null_vars:
        if not is_null(bindings[var]):
            return False
    for var in rule.nonnull_vars:
        if is_null(bindings[var]):
            return False
    for equality in rule.equalities:
        if _eval_term(equality.left, bindings) != _eval_term(equality.right, bindings):
            return False
    for disequality in rule.disequalities:
        if _eval_term(disequality.left, bindings) == _eval_term(disequality.right, bindings):
            return False
    return True


def _negations_hold(rule: Rule, store: RowStore, bindings: Bindings) -> bool:
    for atom in rule.negated:
        row = tuple(_eval_term(t, bindings) for t in atom.terms)
        if row in store.row_set(atom.relation):
            return False
    return True


def evaluate_rule(
    rule: Rule, store: RowStore, *, plans: PlanMemo | None = None
) -> list[Row]:
    """All head rows derived by one rule against the current store.

    With ``plans`` the join reuses (and extends) the plan the memo holds
    for this rule and these size ranks; without, it plans afresh.  The
    rows, their order and any error are the same either way.  A rule
    using a variable its positive body does not bind raises
    :class:`EvaluationError` naming it when its join is planned.
    """
    return _derive(rule, store, plans, checked=False)


def _derive(
    rule: Rule, store: RowStore, plans: PlanMemo | None, checked: bool
) -> list[Row]:
    """:func:`evaluate_rule`; ``checked`` rules (of a validated program)
    are not checked again unless the memo gives them a new entry."""
    # An empty body relation derives nothing; ``rows`` raises first for any
    # relation the store has never seen.
    relations = [store.rows(atom.relation) for atom in rule.body]
    if not all(relations):
        return []
    if plans is not None:
        plan = _shared_plan(plans, rule, list(map(len, relations)))
    else:
        if not checked:
            _check_bound(rule)
        plan = _new_plan(rule.body, ())
    derived: dict[Row, None] = {}
    for bindings in _extend(store, plan, 0, {}):
        if not _conditions_hold(rule, bindings):
            continue
        if not _negations_hold(rule, store, bindings):
            continue
        row = tuple(_eval_term(t, bindings) for t in rule.head.terms)
        derived.setdefault(row, None)
    return list(derived)


def evaluate_rules(
    rules: Iterable[Rule],
    relations: Mapping[str, Sequence[Row]],
    *,
    plans: PlanMemo | None = None,
) -> list[list[Row]]:
    """Each rule's derived rows against ``relations``, rule by rule.

    Unlike :func:`evaluate` nothing is materialized between rules: every
    relation a rule reads must be among ``relations``, each a sequence of
    unique rows (see :class:`RowStore`).  ``plans`` is passed to
    :func:`evaluate_rule`.
    """
    store = RowStore()
    for name, rows in relations.items():
        store.add_relation(name, rows)
    return [evaluate_rule(rule, store, plans=plans) for rule in rules]


@dataclass
class EvaluationResult:
    """The computed target instance plus the intermediate relations."""

    target: Instance
    intermediates: dict[str, list[Row]] = field(default_factory=dict)
    #: per-rule derived row counts (before cross-rule deduplication),
    #: indexed like ``program.rules``
    rule_counts: list[int] = field(default_factory=list)
    #: stage telemetry, populated when an obs tracer is active (see repro.obs)
    run_report: RunReport | None = None
    #: the measured :class:`repro.datalog.exec.profile.ExecutionProfile`
    #: behind EXPLAIN ANALYZE, populated when evaluation ran with
    #: ``analyze=True`` or under an active tracer (typed ``Any``
    #: here because the exec package imports this module)
    profile: Any | None = None

    def intermediate(self, name: str) -> list[Row]:
        return self.intermediates[name]


def evaluate(
    program: DatalogProgram,
    source: Instance,
    analyze: bool = False,
    *,
    plans: PlanMemo | None = None,
) -> EvaluationResult:
    """Run the transformation: compute a target instance from a source instance.

    ``analyze=True`` — or an active tracer — collects rule-level
    timing and derived-row counts into ``EvaluationResult.profile``.  The
    reference interpreter has no static operator pipeline, so its profiles
    carry empty operator lists; the rollups stay comparable with the batch
    engine's (same metric families, same rule/stratum totals).  ``plans``
    is passed to :func:`evaluate_rule`.
    """
    return run_strata(
        program,
        source,
        "reference",
        lambda rule, store, profile: _derive(rule, store, plans, checked=True),
        analyze,
    )


def run_strata(
    program: DatalogProgram,
    source: Instance,
    engine: str,
    derive: Callable[[Rule, RowStore, Any], list[Row]],
    analyze: bool = False,
    workers: int | None = None,
) -> EvaluationResult:
    """The evaluation loop both engines share: one stratum at a time.

    For each defined relation in stratification order,
    ``derive(rule, store, rule_profile)`` returns the head rows of one rule,
    each once, read from the :class:`RowStore` holding the source and every
    relation materialized so far — the only per-engine step; it may fill in
    the :class:`~repro.datalog.exec.profile.RuleProfile`'s operator pipeline
    when one is passed.  ``run_strata`` owns everything else: the store
    (holding each source ``Relation.rows`` tuple and derived list as is),
    the ``stage.evaluate``/``eval.stratum`` spans, the ``eval.*`` counters,
    deduplication across the rules of one head, the store append, the
    target's :meth:`Instance.add_all` loads, the rule/stratum/run rollups of
    the profile (collected under ``analyze=True`` or an active tracer) and
    the assembled :class:`EvaluationResult`.
    """
    if program.target_schema is None:
        raise EvaluationError("program has no target schema")
    order = program.validate()
    collect = analyze or current_tracer().enabled
    profile = None
    if collect:
        # Imported lazily: repro.datalog.exec.batch imports this module.
        from .exec.profile import (
            ExecutionProfile,
            RuleProfile,
            StratumProfile,
            emit_profile_metrics,
        )

        profile = ExecutionProfile(engine=engine, workers=workers)
    store = RowStore()
    run_started = time.perf_counter()
    with span("stage.evaluate", rules=len(program.rules), engine=engine) as trace:
        source_rows = 0
        for name, relation in source.relations.items():
            store.add_relation(name, relation.rows)
            source_rows += store.size(name)
        count("eval.source_tuples", source_rows)

        computed: dict[str, list[Row]] = {}
        rule_counts = [0] * len(program.rules)
        by_head: dict[str, list[tuple[int, Rule]]] = {}
        for index, rule in enumerate(program.rules):
            by_head.setdefault(rule.head_relation, []).append((index, rule))
        for stratum, relation in enumerate(order):
            with span("eval.stratum", stratum=stratum, relation=relation) as stratum_trace:
                stratum_profile = None
                if profile is not None:
                    stratum_started = time.perf_counter()
                    stratum_profile = StratumProfile(
                        stratum=stratum, relation=relation
                    )
                    profile.strata.append(stratum_profile)
                derived_by_rule: list[list[Row]] = []
                for index, rule in by_head.get(relation, ()):
                    rule_profile = None
                    if stratum_profile is not None:
                        rule_started = time.perf_counter()
                        rule_profile = RuleProfile(relation=relation, rule_index=index)
                        stratum_profile.rules.append(rule_profile)
                    derived = derive(rule, store, rule_profile)
                    if rule_profile is not None:
                        rule_profile.rows_unique = len(derived)
                        rule_profile.seconds = time.perf_counter() - rule_started
                    rule_counts[index] = len(derived)
                    count("eval.rules_evaluated")
                    count("eval.derived_tuples", len(derived))
                    derived_by_rule.append(derived)
                # Each rule's rows are unique already (``derive``).
                rows = derived_by_rule[0] if len(derived_by_rule) == 1 else (
                    list(dict.fromkeys(chain.from_iterable(derived_by_rule)))
                )
                count("eval.strata", engine=engine)
                count("eval.tuples", len(rows))
                stratum_trace.set(tuples=len(rows))
                if stratum_profile is not None:
                    stratum_profile.rows = len(rows)
                    stratum_profile.seconds = (
                        time.perf_counter() - stratum_started
                    )
                computed[relation] = rows
                store.add_relation(relation, rows)

        target = Instance(program.target_schema)
        for relation in program.target_schema.relation_names():
            if relation in computed:
                target.add_all(relation, computed[relation])
        intermediates = {
            name: computed.get(name, []) for name in program.intermediates
        }
        if profile is not None:
            profile.source_rows = source_rows
            profile.target_rows = target.total_size()
            profile.seconds = time.perf_counter() - run_started
            emit_profile_metrics(profile)
    return EvaluationResult(
        target=target,
        intermediates=intermediates,
        rule_counts=rule_counts,
        run_report=stage_report(trace, "evaluation"),
        profile=profile,
    )
