"""The batch evaluation runtime: set-oriented execution of compiled plans.

Where the reference interpreter (:mod:`repro.datalog.engine`) plans its join
one depth at a time, as bindings first reach it, and threads ``dict``-based
environments through a recursive generator, this runtime executes each
rule's compiled :class:`~repro.datalog.exec.plan.RulePlan` over **row
batches**: bindings are plain tuples of slot values, operators are applied
batch-at-a-time, and the per-binding work in the hot probe loop is a tuple
build plus one dict lookup.

Two ingredients carry the speedup:

* **planned joins** — the join order is chosen once per rule from live
  relation statistics (each stratum is planned right before it runs, so
  intermediate relations have exact counts);
* **reusable indexes** — the hash indexes of the shared
  :class:`~repro.datalog.engine.RowStore` are keyed ``(relation,
  positions)`` and shared across all rules of a stratum and across strata
  until the indexed relation changes; each join that finds its index
  already built counts one ``eval.index_reuse``.

Observability: ``eval.index_reuse`` counts index cache hits, and the
evaluation loop both engines share (:func:`repro.datalog.engine.run_strata`)
owns the spans, the ``eval.*`` counters and the rule/stratum rollups, so run
reports are comparable across engines.  With ``analyze=True`` — or whenever
a tracer is active (see :mod:`repro.obs`) — :func:`run_plan` wraps the scan
and every compiled stage of its one loop in measuring callables that record
rows in/out, batches, wall seconds and index build-vs-probe splits into an
:class:`~repro.datalog.exec.profile.ExecutionProfile` (the data behind
``repro run --explain-analyze``); the profile is folded into the tracer's
``exec.*`` / ``eval.*`` metric families on completion (scan batches become
``exec.batches``).
"""

from __future__ import annotations

from operator import itemgetter
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator

from ...model.instance import Instance, Row
from ...model.values import NULL, LabeledNull
from ...obs import count
from ..engine import EvaluationResult, RowStore, run_strata
from ..program import DatalogProgram
from .plan import RulePlan, ValueExpr, plan_rule
from .profile import OperatorStats, RuleProfile, operators_for_plan

#: Rows per scan batch.  Large enough to amortize per-batch overhead, small
#: enough to keep intermediate buffers cache-friendly.
BATCH_SIZE = 1024


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
    args = _row_builder(expr[2])
    return lambda slots: LabeledNull(functor, args(slots))


def _capture_extractor(capture: tuple[tuple[int, int], ...]):
    """Row -> tuple of captured values, or None when nothing is captured."""
    if not capture:
        return None
    positions = tuple(p for p, _ in capture)
    if len(positions) == 1:
        position = positions[0]
        return lambda row: (row[position],)
    return itemgetter(*positions)


def _scan_batches(scan, rows: list[Row]) -> Iterator[list[Row]]:
    """Filtered, captured slot tuples of the scanned relation, in batches."""
    plain = not (scan.const_eq or scan.null_eq or scan.same)
    identity = plain and [p for p, _ in scan.capture] == list(
        range(len(scan.capture))
    )
    if identity and scan.capture:
        # Common case: first atom binds all-new distinct variables over the
        # full row — the stored rows *are* the slot tuples, zero copies.
        for start in range(0, len(rows), BATCH_SIZE):
            yield rows[start:start + BATCH_SIZE]
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
        if len(batch) >= BATCH_SIZE:
            yield batch
            batch = []
            append = batch.append
    if batch:
        yield batch


def _row_builder(exprs: tuple[ValueExpr, ...]) -> Callable[[Row], Row]:
    """Slot tuple -> output row.  All-slot templates compile to itemgetter.

    Any other template of several positions picks its row with one
    itemgetter from its constants and nulls, then its Skolem terms'
    values, then the slots: no per-position call or generator per row.
    """
    if all(e[0] == "slot" for e in exprs):
        positions = tuple(e[1] for e in exprs)
        if len(positions) == 1:
            position = positions[0]
            return lambda slots: (slots[position],)
        if positions:
            return itemgetter(*positions)
        return lambda slots: ()
    if len(exprs) == 1:
        value = _compile_expr(exprs[0])
        return lambda slots: (value(slots),)
    fixed, computed = [], []
    for e in exprs:
        if e[0] == "skolem":
            computed.append(_compile_expr(e))
        elif e[0] != "slot":
            fixed.append(NULL if e[0] == "null" else e[1])
    picks, next_fixed, next_computed = [], 0, len(fixed)
    slots_at = next_computed + len(computed)
    for e in exprs:
        if e[0] == "slot":
            picks.append(slots_at + e[1])
        elif e[0] == "skolem":
            picks.append(next_computed)
            next_computed += 1
        else:
            picks.append(next_fixed)
            next_fixed += 1
    pick = itemgetter(*picks)
    values = tuple(fixed)
    if not computed:
        return lambda slots: pick(values + slots)
    if len(computed) == 1:
        skolem = computed[0]
        return lambda slots: pick(values + (skolem(slots),) + slots)
    return lambda slots: pick(values + tuple([f(slots) for f in computed]) + slots)


def _join_stage(
    join, store: RowStore, stats: OperatorStats | None = None
) -> Callable[[list[Row]], list[Row]]:
    """Compile one join into a batch -> batch callable (index built now)."""
    cached = store.has_index(join.relation, join.key_positions)
    if cached:
        count("eval.index_reuse")
    build_started = perf_counter()
    index = store.index(join.relation, join.key_positions)
    if stats is not None:
        stats.build_seconds += perf_counter() - build_started
        if cached:
            stats.index_hits += 1
        else:
            stats.index_misses += 1
    probe = _row_builder(join.key_exprs)
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


def _antijoin_stage(antijoin, store: RowStore) -> Callable[[list[Row]], list[Row]]:
    negated = store.row_set(antijoin.relation)
    if not negated:
        return lambda batch: batch
    build = _row_builder(antijoin.exprs)
    return lambda batch: [s for s in batch if build(s) not in negated]


def _measured_scan(
    batches: Iterator[list[Row]], stats: OperatorStats
) -> Iterator[list[Row]]:
    """``batches``, timing each fetch and counting batches and rows out."""
    while True:
        started = perf_counter()
        batch = next(batches, None)
        stats.seconds += perf_counter() - started
        if batch is None:
            return
        stats.batches += 1
        stats.rows_out += len(batch)
        yield batch


def _measured_stage(
    stage: Callable[[list[Row]], list[Row]], stats: OperatorStats
) -> Callable[[list[Row]], list[Row]]:
    """``stage``, adding each call's rows in/out, batch and seconds to stats."""

    def measured(batch: list[Row]) -> list[Row]:
        stats.rows_in += len(batch)
        stats.batches += 1
        started = perf_counter()
        out = stage(batch)
        stats.seconds += perf_counter() - started
        stats.rows_out += len(out)
        return out

    return measured


def run_plan(
    plan: RulePlan,
    store: RowStore,
    scan_rows: list[Row] | None = None,
    operators: list[OperatorStats] | None = None,
) -> list[Row]:
    """All head rows derived by one compiled rule against the store.

    ``scan_rows`` overrides the scanned relation's rows — the partitioned
    workers mode feeds each worker its slice of the outer scan while every
    joined or negated relation stays complete.

    ``operators`` switches on per-operator measurement: these
    :class:`~repro.datalog.exec.profile.OperatorStats` (created with
    :func:`~repro.datalog.exec.profile.operators_for_plan`, so they mirror
    this plan's pipeline) accumulate rows in/out, batches and wall seconds.
    The loop is the same either way: measuring wraps the scan iterator and
    each compiled stage, the projection included.  Timing is batch-granular
    (two ``perf_counter`` reads per operator per batch), and each operator's
    ``rows_in`` equals the previous operator's ``rows_out`` (a batch that
    empties out early contributes zero to both sides downstream).
    """
    measure = operators is not None
    pending = list(operators) if measure else []
    derived: dict[Row, None] = {}
    setdefault = derived.setdefault
    project = _row_builder(plan.project.exprs)

    def emit(batch: list[Row]) -> list[Row]:
        for slots in batch:
            setdefault(project(slots), None)
        return batch

    batches: Iterable[list[Row]]
    if plan.scan is None:
        batches = ([()],)
    else:
        rows = scan_rows if scan_rows is not None else store.rows(plan.scan.relation)
        batches = _scan_batches(plan.scan, rows)
        if measure:
            scan_stats = pending.pop(0)
            scan_stats.rows_in += len(rows)
            batches = _measured_scan(batches, scan_stats)
    # Compile every stage once per rule: joins build (or reuse) their index
    # here, filters/antijoins/projection become batch -> batch closures.
    stages: list[Callable[[list[Row]], list[Row]]] = []
    for i, join in enumerate(plan.joins):
        stages.append(_join_stage(join, store, pending[i] if measure else None))
    for filter_op in plan.filters:
        stages.append(_filter_stage(filter_op))
    for antijoin in plan.antijoins:
        stages.append(_antijoin_stage(antijoin, store))
    stages.append(emit)
    if measure:
        stages = [_measured_stage(s, stats) for s, stats in zip(stages, pending)]
    for batch in batches:
        for stage in stages:
            batch = stage(batch)
            if not batch:
                break
    return list(derived)


def evaluate_batch(
    program: DatalogProgram,
    source: Instance,
    workers: int | None = None,
    min_partition_rows: int | None = None,
    analyze: bool = False,
) -> EvaluationResult:
    """Run the transformation on the batch runtime.

    Drop-in equivalent of :func:`repro.datalog.engine.evaluate` — the same
    loop, :class:`EvaluationResult` and counters, plus
    ``eval.index_reuse`` — but each rule is compiled to an operator plan
    (with the exact statistics of the relations materialized so far) right
    before it runs.  With ``workers=N > 1`` the outer scan of sufficiently
    large rules is partitioned across a process pool (see
    :mod:`repro.datalog.exec.workers`).

    ``analyze=True`` — or an active tracer — collects an
    :class:`~repro.datalog.exec.profile.ExecutionProfile` (per-operator
    rows/batches/seconds, EXPLAIN ANALYZE's data) on
    ``EvaluationResult.profile`` and records its totals into the tracer's
    metrics.
    """
    partitioned = workers is not None and workers > 1
    if partitioned:
        from .workers import MIN_PARTITION_ROWS, run_plan_partitioned

        if min_partition_rows is None:
            min_partition_rows = MIN_PARTITION_ROWS

    def derive(rule, store: RowStore, profile: RuleProfile | None) -> list[Row]:
        plan = plan_rule(rule, store.sizes())
        operators = None
        if profile is not None:
            profile.n_slots = plan.n_slots
            profile.operators = operators = operators_for_plan(plan)
        if partitioned:
            return run_plan_partitioned(
                plan, store, workers, min_partition_rows, operators
            )
        return run_plan(plan, store, operators=operators)

    return run_strata(program, source, "batch", derive, analyze, workers)
