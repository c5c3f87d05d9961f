"""Opt-in partitioned execution: the outer scan across a process pool.

``evaluate_batch(program, source, workers=N)`` routes every sufficiently
large rule through :func:`run_plan_partitioned`: the rows of the rule's
outer scan are split round-robin into ``N`` slices, each slice is evaluated
by a worker process against a store holding the *complete* joined and
negated relations (only the scan is partitioned — joins and anti-joins must
see every row), and the parent merges the per-slice results in slice order,
deduplicating across slice boundaries.

The payload shipped to a worker is ``(plan, scan slice, {relation: rows},
measure)``.  Plans are picklable by construction (tagged tuples, no
closures) and evaluation results (constants, ``NULL``, ``LabeledNull``)
round-trip through pickle by value, so merging preserves set semantics.

Worker processes start without the parent's contextvars, so each worker
runs its slice under a private :class:`~repro.obs.tracer.Tracer` and ships
its metrics registry (``eval.index_reuse``) back with the rows; the parent
folds it into its active tracer with :meth:`~repro.obs.tracer.Tracer.merge`
(a :meth:`MetricsRegistry.merge`).  Per-operator profiles (when EXPLAIN
ANALYZE or a tracer is collecting) come back the same way and are folded
with :meth:`OperatorStats.merge` — operator rows, batches and seconds add
across disjoint slices, while the shared evaluation loop records the
rule's post-merge ``rows_unique`` and parent wall time.  Note that scan
batches (``exec.batches``) and index hit/miss splits are *not* comparable
with a serial run: each worker batches its own slice and builds its own
indexes.

Partitioning only pays off when the scan is large; rules whose outer
relation has fewer than :data:`MIN_PARTITION_ROWS` rows run inline in the
parent.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from ...model.instance import Row
from ...obs import MetricsRegistry, Tracer, current_tracer, use_tracer
from ..engine import RowStore
from .batch import run_plan
from .plan import RulePlan
from .profile import OperatorStats, operators_for_plan

#: Below this many outer-scan rows the pool overhead dominates: run inline.
MIN_PARTITION_ROWS = 2048


def _relations_read(plan: RulePlan) -> list[str]:
    """Relations the plan probes or negates (the scan is shipped separately)."""
    names: dict[str, None] = {}
    for join in plan.joins:
        names.setdefault(join.relation, None)
    for antijoin in plan.antijoins:
        names.setdefault(antijoin.relation, None)
    return list(names)


def _run_slice(
    payload,
) -> tuple[list[Row], MetricsRegistry, list[OperatorStats] | None]:
    """Worker entry point: evaluate one plan over one scan slice.

    Returns ``(rows, tracer metrics, slice operator stats or None)`` so
    nothing measured inside the pool is lost: the parent merges the metrics
    and the operator stats.
    """
    plan, scan_rows, relations, measure = payload
    store = RowStore()
    for name, rows in relations.items():
        store.add_relation(name, rows)
    if plan.scan is not None and plan.scan.relation not in relations:
        store.add_relation(plan.scan.relation, scan_rows)
    operators = operators_for_plan(plan) if measure else None
    tracer = Tracer()
    with use_tracer(tracer):
        derived = run_plan(plan, store, scan_rows=scan_rows, operators=operators)
    return derived, tracer.metrics, operators


def run_plan_partitioned(
    plan: RulePlan,
    store: RowStore,
    workers: int,
    min_partition_rows: int = MIN_PARTITION_ROWS,
    operators: list[OperatorStats] | None = None,
) -> list[Row]:
    """Derive one rule's head rows, partitioning the outer scan over a pool.

    Falls back to the inline :func:`run_plan` when the rule has no scan,
    the pool would have one slice, or the scan is too small to amortize
    process startup and payload pickling.  With ``operators`` set, each
    slice's operator stats are added into them (see module docstring).
    """
    if plan.scan is None or workers <= 1:
        return run_plan(plan, store, operators=operators)
    scan_rows = store.rows(plan.scan.relation)
    if len(scan_rows) < min_partition_rows:
        return run_plan(plan, store, operators=operators)
    relations = {name: store.rows(name) for name in _relations_read(plan)}
    slices = [scan_rows[i::workers] for i in range(workers)]
    payloads = [
        (plan, part, relations, operators is not None)
        for part in slices
        if part
    ]
    derived: dict[Row, None] = {}
    tracer = current_tracer()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for rows, metrics, slice_operators in pool.map(_run_slice, payloads):
            tracer.merge(metrics)
            if operators is not None:
                for mine, theirs in zip(operators, slice_operators):
                    mine.merge(theirs)
            for row in rows:
                derived.setdefault(row, None)
    return list(derived)
