"""The batch evaluation runtime: set-oriented execution of compiled plans.

Where the reference interpreter (:mod:`repro.datalog.engine`) re-derives the
join order for every partial binding and threads ``dict``-based environments
through a recursive generator, this runtime executes each rule's compiled
:class:`~repro.datalog.exec.plan.RulePlan` over **row batches**: bindings are
plain tuples of slot values, operators are applied batch-at-a-time, and the
per-binding work in the hot probe loop is a tuple build plus one dict lookup.

Three ingredients carry the speedup:

* **planned joins** — the join order is chosen once per rule from live
  relation statistics (each stratum is planned right before it runs, so
  intermediate relations have exact counts);
* **interned values** — every value loaded into the store is canonicalized
  through an :class:`Interner`, so equal values share one object and tuple
  comparisons in hash probes short-circuit on identity;
* **reusable indexes** — hash indexes are keyed ``(relation, positions)``
  and shared across all rules of a stratum and across strata until the
  indexed relation changes; cache hits are counted as ``eval.index_reuse``.

Observability: ``eval.batches`` counts processed scan batches,
``eval.index_reuse`` counts index cache hits, and the counters the reference
engine emits (``eval.source_tuples``, ``eval.rules_evaluated``,
``eval.derived_tuples``, ``eval.strata``, ``eval.tuples``) keep their
meaning, so run reports are comparable across engines.  With
``analyze=True`` — or whenever a tracer is active (see :mod:`repro.obs`) —
every operator additionally records rows in/out, batches, wall seconds and
index build-vs-probe splits into an
:class:`~repro.datalog.exec.profile.ExecutionProfile` (the data behind
``repro run --explain-analyze``), and the profile is folded into the
tracer's ``exec.*`` / ``eval.*`` metric families on completion.
"""

from __future__ import annotations

from operator import itemgetter
from time import perf_counter
from typing import Any, Callable, Iterator

from ...errors import EvaluationError
from ...model.instance import Instance, Row
from ...model.values import NULL, LabeledNull
from ...obs import count, current_tracer, span, stage_report
from ..engine import EvaluationResult
from ..program import DatalogProgram
from .plan import RulePlan, ValueExpr, plan_rule
from .profile import (
    ExecutionProfile,
    OperatorStats,
    RuleProfile,
    StratumProfile,
    emit_profile_metrics,
    operators_for_plan,
)

#: Rows per scan batch.  Large enough to amortize per-batch overhead, small
#: enough to keep intermediate buffers cache-friendly.
BATCH_SIZE = 1024


class Interner:
    """Canonicalizes equal values to one object (identity fast paths)."""

    __slots__ = ("_seen",)

    def __init__(self) -> None:
        self._seen: dict[Any, Any] = {}

    def intern(self, value: Any) -> Any:
        try:
            return self._seen.setdefault(value, value)
        except TypeError:  # pragma: no cover - unhashable values stay as-is
            return value

    def intern_row(self, row: Row) -> Row:
        seen = self._seen
        return tuple(seen.setdefault(v, v) for v in row)


class BatchStore:
    """Interned rows plus reusable hash indexes for every readable relation."""

    def __init__(self) -> None:
        self._rows: dict[str, list[Row]] = {}
        self._sets: dict[str, set[Row]] = {}
        self._indexes: dict[tuple[str, tuple[int, ...]], dict] = {}
        self.interner = Interner()

    def add_relation(
        self, name: str, rows, intern: bool = True
    ) -> None:
        interned = self.interner.intern_row if intern else tuple
        unique: dict[Row, None] = {}
        for row in rows:
            unique.setdefault(interned(row), None)
        self._rows[name] = list(unique)
        self._sets[name] = set(unique)
        # Replacing a relation invalidates every index built over it.
        for key in [k for k in self._indexes if k[0] == name]:
            del self._indexes[key]

    def rows(self, name: str) -> list[Row]:
        try:
            return self._rows[name]
        except KeyError:
            raise EvaluationError(f"unknown relation {name!r} in rule body") from None

    def row_set(self, name: str) -> set[Row]:
        return self._sets.get(name, set())

    def size(self, name: str) -> int:
        return len(self._rows.get(name, ()))

    def sizes(self) -> dict[str, int]:
        return {name: len(rows) for name, rows in self._rows.items()}

    def index(self, name: str, positions: tuple[int, ...]) -> dict:
        key = (name, positions)
        index = self._indexes.get(key)
        if index is not None:
            count("eval.index_reuse")
            return index
        index = {}
        if len(positions) == 1:
            position = positions[0]
            for row in self.rows(name):
                index.setdefault((row[position],), []).append(row)
        else:
            project = itemgetter(*positions)
            for row in self.rows(name):
                index.setdefault(project(row), []).append(row)
        self._indexes[key] = index
        return index


def _compile_expr(expr: ValueExpr) -> Callable[[Row], Any]:
    """Compile a :data:`ValueExpr` into a closure over the slot tuple."""
    kind = expr[0]
    if kind == "slot":
        position = expr[1]
        return lambda slots: slots[position]
    if kind == "const":
        value = expr[1]
        return lambda slots: value
    if kind == "null":
        return lambda slots: NULL
    functor = expr[1]
    args = tuple(_compile_expr(a) for a in expr[2])
    return lambda slots: LabeledNull(functor, tuple(f(slots) for f in args))


def _capture_extractor(capture: tuple[tuple[int, int], ...]):
    """Row -> tuple of captured values, or None when nothing is captured."""
    if not capture:
        return None
    positions = tuple(p for p, _ in capture)
    if len(positions) == 1:
        position = positions[0]
        return lambda row: (row[position],)
    return itemgetter(*positions)


def _scan_batches(
    scan, rows: list[Row], batch_size: int
) -> Iterator[list[Row]]:
    """Filtered, captured slot tuples of the scanned relation, in batches."""
    plain = not (scan.const_eq or scan.null_eq or scan.same)
    identity = plain and [p for p, _ in scan.capture] == list(
        range(len(scan.capture))
    )
    if identity and scan.capture:
        # Common case: first atom binds all-new distinct variables over the
        # full row — the stored rows *are* the slot tuples, zero copies.
        for start in range(0, len(rows), batch_size):
            yield rows[start:start + batch_size]
        return
    extract = _capture_extractor(scan.capture)
    const_eq = scan.const_eq
    null_eq = scan.null_eq
    same = scan.same
    batch: list[Row] = []
    append = batch.append
    for row in rows:
        ok = True
        for position, value in const_eq:
            if row[position] != value:
                ok = False
                break
        if ok and null_eq:
            for position in null_eq:
                if row[position] != NULL:
                    ok = False
                    break
        if ok and same:
            for left, right in same:
                if row[left] != row[right]:
                    ok = False
                    break
        if not ok:
            continue
        append(extract(row) if extract is not None else ())
        if len(batch) >= batch_size:
            yield batch
            batch = []
            append = batch.append
    if batch:
        yield batch


def _row_builder(exprs: tuple[ValueExpr, ...]) -> Callable[[Row], Row]:
    """Slot tuple -> output row.  All-slot templates compile to itemgetter."""
    if all(e[0] == "slot" for e in exprs):
        positions = tuple(e[1] for e in exprs)
        if len(positions) == 1:
            position = positions[0]
            return lambda slots: (slots[position],)
        if positions:
            return itemgetter(*positions)
        return lambda slots: ()
    build = tuple(_compile_expr(e) for e in exprs)
    return lambda slots: tuple(f(slots) for f in build)


def _join_stage(
    join, store: BatchStore, stats: OperatorStats | None = None
) -> Callable[[list[Row]], list[Row]]:
    """Compile one join into a batch -> batch callable (index built now)."""
    if stats is None:
        index = store.index(join.relation, join.key_positions)
    else:
        cached = (join.relation, join.key_positions) in store._indexes
        build_started = perf_counter()
        index = store.index(join.relation, join.key_positions)
        stats.build_seconds += perf_counter() - build_started
        if cached:
            stats.index_hits += 1
        else:
            stats.index_misses += 1
    key_slots = [e[1] if e[0] == "slot" else None for e in join.key_exprs]
    if all(s is not None for s in key_slots):
        if len(key_slots) == 1:
            position = key_slots[0]
            probe = lambda slots: (slots[position],)
        else:
            probe = itemgetter(*key_slots)
    else:
        key_funcs = tuple(_compile_expr(e) for e in join.key_exprs)
        probe = lambda slots: tuple(f(slots) for f in key_funcs)
    extract = _capture_extractor(join.capture)
    same = join.same

    def stage(batch: list[Row]) -> list[Row]:
        out: list[Row] = []
        append = out.append
        get = index.get
        if same:
            for slots in batch:
                matches = get(probe(slots))
                if not matches:
                    continue
                for row in matches:
                    if any(row[a] != row[b] for a, b in same):
                        continue
                    append(slots + extract(row) if extract else slots)
        elif extract is not None:
            for slots in batch:
                matches = get(probe(slots))
                if not matches:
                    continue
                for row in matches:
                    append(slots + extract(row))
        else:  # pure semi-join: keep each binding once per any match
            for slots in batch:
                if get(probe(slots)):
                    append(slots)
        return out

    return stage


def _filter_stage(filter_op) -> Callable[[list[Row]], list[Row]]:
    kind = filter_op.kind
    left = _compile_expr(filter_op.left)
    if kind == "null":
        return lambda batch: [s for s in batch if left(s) == NULL]
    if kind == "nonnull":
        return lambda batch: [s for s in batch if left(s) != NULL]
    right = _compile_expr(filter_op.right)
    if kind == "eq":
        return lambda batch: [s for s in batch if left(s) == right(s)]
    return lambda batch: [s for s in batch if left(s) != right(s)]


def _antijoin_stage(antijoin, store: BatchStore) -> Callable[[list[Row]], list[Row]]:
    negated = store.row_set(antijoin.relation)
    if not negated:
        return lambda batch: batch
    build = _row_builder(antijoin.exprs)
    return lambda batch: [s for s in batch if build(s) not in negated]


def run_plan(
    plan: RulePlan,
    store: BatchStore,
    batch_size: int = BATCH_SIZE,
    scan_rows: list[Row] | None = None,
    profile: RuleProfile | None = None,
) -> list[Row]:
    """All head rows derived by one compiled rule against the store.

    ``scan_rows`` overrides the scanned relation's rows — the partitioned
    workers mode feeds each worker its slice of the outer scan while every
    joined or negated relation stays complete.

    ``profile`` switches on per-operator measurement: its
    :class:`~repro.datalog.exec.profile.OperatorStats` (created with
    :func:`~repro.datalog.exec.profile.operators_for_plan`, so they mirror
    this plan's pipeline) accumulate rows in/out, batches and wall seconds.
    When ``profile`` is None the original uninstrumented loop runs.
    """
    if profile is not None:
        return _run_plan_profiled(plan, store, batch_size, scan_rows, profile)
    derived: dict[Row, None] = {}
    if plan.scan is None:
        batches: Iterator[list[Row]] = iter([[()]])
    else:
        rows = scan_rows if scan_rows is not None else store.rows(plan.scan.relation)
        batches = _scan_batches(plan.scan, rows, batch_size)
    # Compile every stage once per rule: joins build (or reuse) their index
    # here, filters/antijoins/projection become batch -> batch closures.
    stages: list[Callable[[list[Row]], list[Row]]] = []
    for join in plan.joins:
        stages.append(_join_stage(join, store))
    for filter_op in plan.filters:
        stages.append(_filter_stage(filter_op))
    for antijoin in plan.antijoins:
        stages.append(_antijoin_stage(antijoin, store))
    project = _row_builder(plan.project.exprs)
    setdefault = derived.setdefault
    for batch in batches:
        count("eval.batches")
        for stage in stages:
            batch = stage(batch)
            if not batch:
                break
        else:
            for slots in batch:
                setdefault(project(slots), None)
    return list(derived)


_DONE = object()  # sentinel: the profiled loop times each batch fetch


def _run_plan_profiled(
    plan: RulePlan,
    store: BatchStore,
    batch_size: int,
    scan_rows: list[Row] | None,
    profile: RuleProfile,
) -> list[Row]:
    """The measured twin of :func:`run_plan`.

    Timing is batch-granular (two ``perf_counter`` reads per operator per
    batch), which keeps the overhead well under the 5% budget pinned by
    ``benchmarks/test_bench_scaling.py`` while preserving the invariant the
    EXPLAIN ANALYZE tests rely on: each operator's ``rows_in`` equals the
    previous operator's ``rows_out`` (a batch that empties out early simply
    contributes zero to both sides downstream).
    """
    started = perf_counter()
    ops = profile.operators
    scan_stats = ops[0] if plan.scan is not None else None
    pipeline_stats = ops[1:-1] if scan_stats is not None else ops[:-1]
    project_stats = ops[-1]
    derived: dict[Row, None] = {}
    if plan.scan is None:
        batches: Iterator[list[Row]] = iter([[()]])
    else:
        rows = scan_rows if scan_rows is not None else store.rows(plan.scan.relation)
        scan_stats.rows_in += len(rows)
        batches = _scan_batches(plan.scan, rows, batch_size)
    stages: list[tuple[Callable[[list[Row]], list[Row]], OperatorStats]] = []
    cursor = iter(pipeline_stats)
    for join in plan.joins:
        stats = next(cursor)
        stages.append((_join_stage(join, store, stats), stats))
    for filter_op in plan.filters:
        stages.append((_filter_stage(filter_op), next(cursor)))
    for antijoin in plan.antijoins:
        stages.append((_antijoin_stage(antijoin, store), next(cursor)))
    project = _row_builder(plan.project.exprs)
    setdefault = derived.setdefault
    while True:
        fetch_started = perf_counter()
        batch = next(batches, _DONE)
        if scan_stats is not None:
            scan_stats.seconds += perf_counter() - fetch_started
        if batch is _DONE:
            break
        count("eval.batches")
        if scan_stats is not None:
            scan_stats.batches += 1
            scan_stats.rows_out += len(batch)
        emptied = False
        for stage, stats in stages:
            stats.rows_in += len(batch)
            stats.batches += 1
            stage_started = perf_counter()
            batch = stage(batch)
            stats.seconds += perf_counter() - stage_started
            stats.rows_out += len(batch)
            if not batch:
                emptied = True
                break
        if emptied:
            continue
        project_stats.rows_in += len(batch)
        project_stats.batches += 1
        project_started = perf_counter()
        for slots in batch:
            setdefault(project(slots), None)
        project_stats.seconds += perf_counter() - project_started
        project_stats.rows_out += len(batch)
    profile.rows_unique += len(derived)
    profile.seconds += perf_counter() - started
    return list(derived)


def evaluate_batch(
    program: DatalogProgram,
    source: Instance,
    workers: int | None = None,
    batch_size: int = BATCH_SIZE,
    min_partition_rows: int | None = None,
    analyze: bool = False,
) -> EvaluationResult:
    """Run the transformation on the batch runtime.

    Drop-in equivalent of :func:`repro.datalog.engine.evaluate` — same
    :class:`EvaluationResult`, same counters plus ``eval.batches`` and
    ``eval.index_reuse`` — but each stratum is compiled to operator plans
    (with exact statistics) before it runs.  With ``workers=N > 1`` the
    outer scan of sufficiently large rules is partitioned across a process
    pool (see :mod:`repro.datalog.exec.workers`).

    ``analyze=True`` — or an active tracer — collects an
    :class:`~repro.datalog.exec.profile.ExecutionProfile` (per-operator
    rows/batches/seconds, EXPLAIN ANALYZE's data) on
    ``EvaluationResult.profile`` and records its totals into the tracer's
    metrics.
    """
    if program.target_schema is None:
        raise EvaluationError("program has no target schema")
    order = program.validate()
    if workers is not None and workers > 1:
        from .workers import run_plan_partitioned
    collect = analyze or current_tracer().enabled
    profile = (
        ExecutionProfile(engine="batch", workers=workers) if collect else None
    )
    run_started = perf_counter()
    with span("stage.evaluate", rules=len(program.rules), engine="batch") as trace:
        store = BatchStore()
        source_rows = 0
        for name, relation in source.relations.items():
            store.add_relation(name, relation.rows)
            source_rows += store.size(name)
        count("eval.source_tuples", source_rows)

        computed: dict[str, list[Row]] = {}
        rule_counts: dict[int, int] = {}
        rule_index = {id(rule): i for i, rule in enumerate(program.rules)}
        for stratum, relation in enumerate(order):
            with span(
                "eval.stratum", stratum=stratum, relation=relation
            ) as stratum_trace:
                stratum_profile: StratumProfile | None = None
                if profile is not None:
                    stratum_started = perf_counter()
                    stratum_profile = StratumProfile(
                        stratum=stratum, relation=relation
                    )
                    profile.strata.append(stratum_profile)
                stats = store.sizes()
                rows: dict[Row, None] = {}
                for rule in program.rules_for(relation):
                    plan = plan_rule(rule, stats)
                    rule_profile: RuleProfile | None = None
                    if stratum_profile is not None:
                        rule_profile = RuleProfile(
                            relation=relation,
                            rule_index=rule_index[id(rule)],
                            n_slots=plan.n_slots,
                            operators=operators_for_plan(plan),
                        )
                        stratum_profile.rules.append(rule_profile)
                    if workers is not None and workers > 1:
                        kwargs = {"batch_size": batch_size}
                        if min_partition_rows is not None:
                            kwargs["min_partition_rows"] = min_partition_rows
                        derived = run_plan_partitioned(
                            plan, store, workers, profile=rule_profile, **kwargs
                        )
                    else:
                        derived = run_plan(
                            plan,
                            store,
                            batch_size=batch_size,
                            profile=rule_profile,
                        )
                    rule_counts[rule_index[id(rule)]] = len(derived)
                    count("eval.rules_evaluated")
                    count("eval.derived_tuples", len(derived))
                    for row in derived:
                        rows.setdefault(row, None)
                count("eval.strata", engine="batch")
                count("eval.tuples", len(rows))
                stratum_trace.set(tuples=len(rows))
                if stratum_profile is not None:
                    stratum_profile.rows = len(rows)
                    stratum_profile.seconds = perf_counter() - stratum_started
                computed[relation] = list(rows)
                # Derived rows are built from already-interned slot values
                # (plus fresh LabeledNulls), so re-interning buys nothing.
                store.add_relation(relation, list(rows), intern=False)

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
        profile.seconds = perf_counter() - run_started
        emit_profile_metrics(profile)
    return EvaluationResult(
        target=target,
        intermediates=intermediates,
        rule_counts=[rule_counts.get(i, 0) for i in range(len(program.rules))],
        run_report=stage_report(trace, "evaluation"),
        profile=profile,
    )
