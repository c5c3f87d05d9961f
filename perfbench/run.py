"""The mapping system's benchmark: one command, every metric, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs every problem traced (every other one also untraced, for the tracing
overhead) and reports the per-layer metrics: self time per layer, the
program's counters, EXPLAIN ANALYZE counts and the tracing overhead.  Every metric is printed by name with its unit; the last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 when
an operation failed or an output was wrong, 2 when the mapping system cannot
be imported.  Workloads, sizes and the facts they pin are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
#: an untraced run sets up at least this many times and for at least
#: SETUP_SECONDS; setup_s is the median
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0

#: the engine of each untraced step's bulk round, in turn; the worker pool's
#: rounds spread most between runs, so it gets two per cycle
BULK_ROUNDS = ("reference", "batch", "workers", "sqlite", "workers")
#: each untraced step runs analysis passes for at least this share of
#: --seconds, so that bulk-exchange, whose passes are short, samples them
#: all through its run
ANALYSIS_SHARE = 0.1

#: end-to-end metric -> unit (taken with tracing off)
END_TO_END = {
    "setup_s": "s",
    "compile_ms.p50": "ms",
    "compile_ms.p95": "ms",
    "verify_ms.p50": "ms",
    "verify_ms.p95": "ms",
    "run_ms.p50": "ms",
    "run_ms.p95": "ms",
    "batch_rows_per_s": "rows/s",
    "reference_rows_per_s": "rows/s",
    "workers_rows_per_s": "rows/s",
    "sqlite_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}
#: per-layer metric -> unit (taken from the traced passes)
PER_LAYER = {
    "dsl.parse_problem_ms": "ms",
    "dsl.parse_instance_rows_per_s": "rows/s",
    "analysis.quick_lint_ms": "ms",
    "core.schema_mapping_ms": "ms",
    "core.chase.steps": "count",
    "core.chase.tableaux": "count",
    "core.candidates.generated": "count",
    "core.candidates.kept": "count",
    "core.candidates.kept_ratio": "ratio",
    "core.satisfiability.checks": "count",
    "core.query_generation_ms": "ms",
    "core.qgen.rules": "count",
    "core.functionality.checks": "count",
    "core.conflicts.soft": "count",
    "analysis.flow_ms": "ms",
    "analysis.certify_ms": "ms",
    "analysis.cost_ms": "ms",
    "analysis.sqlcheck_ms": "ms",
    "analysis.certify.proved": "count",
    "analysis.certify.unknown": "count",
    "analysis.certify.refuted": "count",
    "analysis.sqlcheck.proved": "count",
    "analysis.semantic_ms": "ms",
    "analysis.semantic.cache_hit_ratio": "ratio",
    "datalog.exec.plan_ms": "ms",
    "datalog.exec.batch_s": "s",
    "datalog.exec.workers_s": "s",
    "datalog.exec.rows_scanned": "count",
    "datalog.exec.rows_derived": "count",
    "datalog.exec.dedup_ratio": "ratio",
    "datalog.exec.index_reuse": "count",
    "datalog.engine.evaluate_s": "s",
    "sqlgen.compile_ms": "ms",
    "sqlgen.sqlite_run_s": "s",
    "model.violations": "count",
    "exchange.target_tuples": "count",
    "exchange.invented_values": "count",
    "obs.trace_overhead_ratio": "ratio",
    "failed_share": "ratio",
}
#: layers whose self time per traced pass is reported as <layer>.self_s;
#: "bench" is the benchmark's own work between calls (output checks)
LAYERS = (
    "dsl",
    "analysis.lint",
    "core.schema_mapping",
    "core.query_generation",
    "analysis.flow",
    "analysis.certify",
    "analysis.cost",
    "analysis.sqlcheck",
    "analysis.semantic",
    "datalog.exec",
    "datalog.engine",
    "sqlgen",
    "bench",
)
PER_LAYER.update({f"{layer}.self_s": "s" for layer in LAYERS})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reduced",
        action="store_true",
        help="tiny sizes, for the benchmark's self-test",
    )
    return parser.parse_args(argv)


def quantile(values: list[float], percent: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def run_until(step, budget: float, minimum: int = 1) -> None:
    """Call ``step`` at least ``minimum`` times, then until the next call
    would overrun ``budget`` seconds (judged by the last call)."""
    started, calls = time.perf_counter(), 0
    while True:
        before = time.perf_counter()
        step()
        calls += 1
        now = time.perf_counter()
        if calls >= minimum and now - started + (now - before) > budget:
            return


def set_up(args, build, runner):
    """Make the inputs, several times unless traced; keep the last set."""
    clock, setup_times, problems = runner.rec.clock, [], None
    while not setup_times or not args.trace and (
        len(setup_times) < SETUP_REPEATS
        or sum(i.seconds for i in setup_times) < SETUP_SECONDS
    ):
        problems = None  # free the previous set before making the next
        gc.collect()
        mark = clock.mark()
        problems = build(args.seed, args.reduced, parse=runner.parse_instance)
        setup_times.append(clock.since(mark))
    return problems, setup_times


def measure_untraced(runner, problems, seconds: float) -> None:
    """Steps of analysis passes and, with large instances, one bulk round,
    so both are sampled across the whole run."""
    bulk = any(problem.bulk for problem in problems)
    rounds = itertools.cycle(BULK_ROUNDS)

    def step():
        run_until(lambda: runner.analysis_pass(problems), seconds * ANALYSIS_SHARE)
        if bulk:
            runner.bulk_round(next(rounds), problems)

    run_until(step, seconds, minimum=len(BULK_ROUNDS) if bulk else 1)


def measure_traced(runner, problems, seconds: float) -> float:
    """Traced passes; returns the tracing overhead.

    Every problem runs traced; every other one also untraced, in
    alternating order, and the overhead is traced over untraced op time on
    those pairs.
    """
    rec, bulk = runner.rec, any(problem.bulk for problem in problems)
    paired = {False: [], True: []}

    def traced_pass():
        rec.trace_pass += 1
        for index, problem in enumerate(problems):
            if index % 2:
                modes = (True,)
            else:
                modes = (False, True) if index % 4 == 0 else (True, False)
            for traced in modes:
                rec.traced = traced
                before = len(rec.ops)
                runner.problem_pass(problem, bulk=bulk)
                if index % 2 == 0:
                    paired[traced] += rec.ops[before:]
        rec.traced = False

    run_until(traced_pass, seconds)
    traced, untraced = (sum(map(rec.clock.scaled, paired[m])) for m in (True, False))
    return traced / untraced if untraced else 1.0


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        from measure import Recorder, Runner
        from workloads import WORKLOADS
    except ImportError as error:
        print(f"perfbench: cannot import the mapping system: {error}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    build = WORKLOADS[args.workload]

    rec = Recorder()
    runner = Runner(rec)
    with rec.clock:
        rec.traced = bool(args.trace)
        problems, setup_times = set_up(args, build, runner)
        rec.traced = False
        # The inputs live for the whole run: keep the cyclic collector from
        # rescanning them in every full collection.
        gc.collect()
        gc.freeze()
        if args.trace:
            overhead = measure_traced(runner, problems, args.seconds)
            metrics = per_layer_metrics(rec, overhead)
        else:
            measure_untraced(runner, problems, args.seconds)
            metrics = end_to_end_metrics(rec, setup_times)

    if args.trace:
        write_spans(rec, args.workload, args.seed)
    for message in rec.errors:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    if not args.trace:
        for kind, per_problem in rec.samples.items():
            count = sum(map(len, per_problem.values()))
            print(f"# {kind}_ms samples: {count} over {len(per_problem)} problems")
    for name, value in metrics.items():
        print(f"{name:42s} {value:>16.6g} {units[name]}")
    correct = rec.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": rec.attempted,
                "failed": rec.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def end_to_end_metrics(rec, setup_times) -> dict[str, float]:
    scaled = rec.clock.scaled
    metrics = {"setup_s": statistics.median(map(scaled, setup_times))}
    for kind, per_problem in rec.samples.items():
        # the median per problem over its ops, then percentiles over problems
        values = [
            statistics.median(map(scaled, intervals)) * 1000
            for intervals in per_problem.values()
        ]
        metrics[f"{kind}_ms.p50"] = statistics.median(values) if values else 0.0
        metrics[f"{kind}_ms.p95"] = quantile(values, 95)
    for engine, runs in rec.throughput.items():
        tuples = sum(run[0] for run in runs)
        seconds = sum(scaled(interval) for _, interval in runs)
        metrics[f"{engine}_rows_per_s"] = tuples / seconds if seconds else 0.0
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def per_layer_metrics(rec, overhead: float) -> dict[str, float]:
    from measure import LAYER_OF, Interval, self_times

    passes = range(1, rec.trace_pass + 1)
    durations: dict[str, list[float]] = {}
    totals: dict[tuple[str, int], float] = {}
    self_total: dict[tuple[str, int], float] = {}
    selfs = self_times(rec.spans)
    scaled = rec.clock.scaled

    def span_interval(span):
        return Interval(span.start, span.end, span.end - span.start - span.paused)

    for span in rec.spans:
        if span.trace_pass == 0:
            continue
        interval = span_interval(span)
        seconds = scaled(interval)
        factor = seconds / interval.seconds if interval.seconds > 0 else 1.0
        durations.setdefault(span.name, []).append(seconds)
        key = (span.name, span.trace_pass)
        totals[key] = totals.get(key, 0.0) + seconds
        layer = (LAYER_OF.get(span.name, "bench"), span.trace_pass)
        self_total[layer] = self_total.get(layer, 0.0) + selfs[span.id] * factor

    def median_ms(name):
        values = durations.get(name)
        return statistics.median(values) * 1000 if values else 0.0

    def per_pass(table, name):
        return statistics.median(table.get((name, p), 0.0) for p in passes)

    def counter(span_name, key):
        return rec.counters.get((1, span_name), {}).get(key, 0)

    def count(name):
        return rec.counts.get((1, name), 0)

    def ratio(part, whole, empty=1.0):
        return part / whole if whole else empty

    parse_seconds = sum(
        scaled(span_interval(s))
        for s in rec.spans
        if s.trace_pass == 0 and s.name == "parse_instance"
    )
    generated = counter("generate_schema_mapping", "candidates.generated")
    kept = counter("generate_schema_mapping", "candidates.kept")
    checks = counter("verify_generation", "semantic.checks")
    hits = counter("verify_generation", "semantic.cache_hits")
    metrics = {
        "dsl.parse_problem_ms": median_ms("parse_problem"),
        "dsl.parse_instance_rows_per_s": ratio(
            rec.counts.get((0, "dsl.instance_rows"), 0), parse_seconds, 0.0
        ),
        "analysis.quick_lint_ms": median_ms("quick_lint"),
        "core.schema_mapping_ms": median_ms("generate_schema_mapping"),
        "core.chase.steps": counter("generate_schema_mapping", "chase.steps"),
        "core.chase.tableaux": counter("generate_schema_mapping", "chase.tableaux"),
        "core.candidates.generated": generated,
        "core.candidates.kept": kept,
        "core.candidates.kept_ratio": ratio(kept, generated),
        "core.satisfiability.checks": counter(
            "generate_schema_mapping", "satisfiability.checks"
        )
        + counter("generate_queries", "satisfiability.checks"),
        "core.query_generation_ms": median_ms("generate_queries"),
        "core.qgen.rules": counter("generate_queries", "qgen.rules"),
        "core.functionality.checks": counter("generate_queries", "functionality.checks"),
        "core.conflicts.soft": counter("generate_queries", "conflicts.soft"),
        "analysis.flow_ms": median_ms("analyze_flow"),
        "analysis.certify_ms": median_ms("certify_program"),
        "analysis.cost_ms": median_ms("analyze_cost"),
        "analysis.sqlcheck_ms": median_ms("check_pipeline"),
        "analysis.certify.proved": count("analysis.certify.proved"),
        "analysis.certify.unknown": count("analysis.certify.unknown"),
        "analysis.certify.refuted": count("analysis.certify.refuted"),
        "analysis.sqlcheck.proved": count("analysis.sqlcheck.proved"),
        "analysis.semantic_ms": median_ms("verify_generation"),
        "analysis.semantic.cache_hit_ratio": ratio(hits, checks, 0.0),
        "datalog.exec.plan_ms": median_ms("plan_program"),
        "datalog.exec.batch_s": per_pass(totals, "evaluate_batch"),
        "datalog.exec.workers_s": per_pass(totals, "evaluate_batch.workers"),
        "datalog.exec.rows_scanned": count("datalog.exec.rows_scanned"),
        "datalog.exec.rows_derived": count("datalog.exec.rows_derived"),
        "datalog.exec.dedup_ratio": ratio(
            count("datalog.exec.rows_unique"), count("datalog.exec.rows_derived")
        ),
        "datalog.exec.index_reuse": counter("evaluate_batch", "eval.index_reuse"),
        "datalog.engine.evaluate_s": per_pass(totals, "evaluate"),
        "sqlgen.compile_ms": median_ms("compile_program"),
        "sqlgen.sqlite_run_s": per_pass(totals, "SqliteExecutor.run"),
        "model.violations": count("model.violations"),
        "exchange.target_tuples": count("exchange.target_tuples"),
        "exchange.invented_values": count("exchange.invented_values"),
        "obs.trace_overhead_ratio": overhead,
        "failed_share": ratio(rec.failed, rec.attempted, 0.0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = per_pass(self_total, layer)
    return metrics


def write_spans(rec, workload: str, seed: int) -> None:
    """Write the run's spans, one JSON object per line, after measuring."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as out:
        for span in rec.spans:
            out.write(json.dumps(asdict(span)) + "\n")


if __name__ == "__main__":
    sys.exit(main())
