"""The measured phase: compile, verify and transform, timed from outside.

Every layer is timed by wrapping a call to its public function; the
benchmark never goes through the cached ``MappingSystem`` accessors, and the
shared containment cache is reset before each call, so every layer runs
with its caches cold.  End-to-end timings come from untraced passes.  A
traced pass additionally records a span per public-function call (name,
start, end, parent), installs the program's own tracer around the call to
collect its counters, and asks the batch runtime for EXPLAIN ANALYZE
profiles; spans stay in memory until the run ends.

Correctness gate: each problem's certify report must have no REFUTED
verdict, every sqlcheck statement must be PROVED and the semantic verifier
must certify every rewrite; every transform is compared with the reference
interpreter's output (up to renaming of invented values), and the
reference output is validated against the target keys, foreign keys and
NOT NULL constraints.  Any exception or mismatch fails the operation.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.analysis.analyzer import quick_lint
from repro.analysis.certify import certify_program
from repro.analysis.cost import CostFacts, analyze_cost
from repro.analysis.flow import analyze_flow
from repro.analysis.semantic.containment import reset_default_engine
from repro.analysis.semantic.verifier import verify_generation
from repro.analysis.sqlcheck import check_pipeline
from repro.core.query_generation import generate_queries
from repro.core.schema_mapping import generate_schema_mapping
from repro.datalog.engine import evaluate
from repro.datalog.exec import evaluate_batch, plan_program
from repro.dsl.parser import parse_instance, parse_problem
from repro.model.diff import diff_up_to_invented
from repro.model.validation import validate_instance
from repro.model.values import is_labeled_null
from repro.obs import Tracer, use_tracer
from repro.sqlgen import compile_program
from repro.sqlgen.executor import SqliteExecutor

#: span name -> layer, for every public function the benchmark wraps
LAYER_OF = {
    "parse_problem": "dsl",
    "parse_instance": "dsl",
    "quick_lint": "analysis.lint",
    "generate_schema_mapping": "core.schema_mapping",
    "generate_queries": "core.query_generation",
    "analyze_flow": "analysis.flow",
    "certify_program": "analysis.certify",
    "analyze_cost": "analysis.cost",
    "check_pipeline": "analysis.sqlcheck",
    "verify_generation": "analysis.semantic",
    "plan_program": "datalog.exec",
    "evaluate_batch": "datalog.exec",
    "evaluate_batch.workers": "datalog.exec",
    "evaluate": "datalog.engine",
    "compile_program": "sqlgen",
    "SqliteExecutor.run": "sqlgen",
}
#: engines of a bulk round; reference first, its output is the oracle
ENGINES = ("reference", "batch", "workers", "sqlite")
WORKERS = 2


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    #: traced pass number (0 = set-up)
    trace_pass: int = 0
    #: the problem or transform an op span works on
    subject: str = ""
    #: clock sampling seconds inside the span
    paused: float = 0.0


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Clock sampling inside the span but outside its children is taken out.
    """
    children: dict[int, list[Span]] = {}
    for item in spans:
        if item.parent is not None:
            children.setdefault(item.parent, []).append(item)
    out = {}
    for item in spans:
        covered, reach, paused = 0.0, item.start, item.paused
        for child in sorted(children.get(item.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, item.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
            paused -= child.paused
        out[item.id] = (item.end - item.start) - covered - paused
    return out


def _calibration_loop() -> None:
    table = {}
    for i in range(2000):
        table[(f"k{i}", i % 97)] = [i, str(i)]
    sorted(table, key=lambda key: key[1])


@dataclass(frozen=True)
class Interval:
    """A measured stretch of wall time, less the clock's own sampling."""

    start: float
    end: float
    #: wall seconds minus the calibration loops that ran inside
    seconds: float


class Clock:
    """Measures wall time and scales it to a reference machine speed.

    On machines shared with other tenants the same code runs at speeds that
    drift by tens of percent within seconds and between runs, which no
    amount of work in one run averages away.  So while the clock runs, a
    timer signal every ``INTERVAL`` seconds times a fixed pure-Python loop
    owned by the benchmark (dicts, tuples, strings, a sort; no code of the
    mapping system, garbage collector off).  The loop's time is taken out of
    every interval it interrupts, and an interval's scaled time is its
    seconds x ``REFERENCE`` / the mean loop time of the samples taken during
    it and the ``NEIGHBOURS`` next to it on each side.  On the reference machine at its usual speed the
    scaled time equals the measured one.
    """

    #: seconds the calibration loop takes on the reference machine
    REFERENCE = 0.0014
    INTERVAL = 0.1
    #: samples on each side of an interval that also set its speed
    NEIGHBOURS = 5

    def __init__(self) -> None:
        #: perf_counter at each sample, and the loop seconds it measured
        self.times: list[float] = []
        self.loops: list[float] = []
        #: total seconds spent sampling
        self.paused = 0.0
        self._handler = None
        self._running = False

    def __enter__(self) -> "Clock":
        self._sample()
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        self._running = True
        return self

    def __exit__(self, *exc) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    @contextmanager
    def quiet(self):
        """Stop sampling while this process waits on its own workers.

        Their load would slow the loop; the interval is then scaled by the
        samples on either side of it.
        """
        if not self._running:
            yield
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def _sample(self, *signal_args) -> None:
        started = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            _calibration_loop()
        finally:
            if enabled:
                gc.enable()
        ended = time.perf_counter()
        self.times.append(ended)
        self.loops.append(ended - started)
        self.paused += time.perf_counter() - started

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.paused

    def since(self, mark: tuple[float, float]) -> Interval:
        start, paused = mark
        end = time.perf_counter()
        return Interval(start, end, end - start - (self.paused - paused))

    def scaled(self, interval: Interval) -> float:
        """The interval's seconds at the reference speed."""
        first = bisect.bisect_left(self.times, interval.start) - self.NEIGHBOURS
        last = bisect.bisect_right(self.times, interval.end) + self.NEIGHBOURS
        near = self.loops[max(first, 0) : last]
        return interval.seconds * self.REFERENCE / statistics.fmean(near)


class Recorder:
    """Op timings for the end-to-end metrics, spans and counters when traced."""

    def __init__(self) -> None:
        self.traced = False
        self.trace_pass = 0
        self.spans: list[Span] = []
        self._open: list[int] = []
        #: (trace pass, span name) -> summed program counters
        self.counters: dict[tuple[int, str], dict[str, int]] = {}
        #: (trace pass, counter) -> value, for counts the benchmark derives
        self.counts: dict[tuple[int, str], float] = {}
        self.clock = Clock()
        #: sample kind -> problem -> interval per op (untraced only)
        self.samples: dict[str, dict[str, list[Interval]]] = {
            "compile": {},
            "verify": {},
            "run": {},
        }
        #: engine -> (source tuples, interval) per transform (untraced)
        self.throughput: dict[str, list[tuple[int, Interval]]] = {
            engine: [] for engine in ENGINES
        }
        #: every op's interval, in order (for the tracing overhead)
        self.ops: list[Interval] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.last_interval = Interval(0.0, 0.0, 0.0)

    @contextmanager
    def span(self, name: str, subject: str = ""):
        if not self.traced:
            yield
            return
        item = Span(
            id=len(self.spans),
            name=name,
            parent=self._open[-1] if self._open else None,
            start=time.perf_counter(),
            trace_pass=self.trace_pass,
            subject=subject,
        )
        self.spans.append(item)
        self._open.append(item.id)
        paused = self.clock.paused
        try:
            yield
        finally:
            item.end = time.perf_counter()
            item.paused = self.clock.paused - paused
            self._open.pop()

    def call(self, name: str, fn, /, *args, **kwargs):
        """Call one public function cold; span and program counters if traced."""
        reset_default_engine()
        if not self.traced:
            return fn(*args, **kwargs)
        tracer = Tracer()
        with self.span(name), use_tracer(tracer):
            result = fn(*args, **kwargs)
        totals = self.counters.setdefault((self.trace_pass, name), {})
        for key, value in tracer.counters.items():
            totals[key] = totals.get(key, 0) + value
        return result

    def add(self, name: str, value: float) -> None:
        """Add to a derived count of the current traced pass."""
        if not self.traced:
            return
        key = (self.trace_pass, name)
        self.counts[key] = self.counts.get(key, 0) + value

    @contextmanager
    def op(self, kind: str, subject: str, sample: str | None = None):
        """One attempted operation: timed, and failed if it raises.

        Untraced, its seconds join the ``sample`` list of the end-to-end
        metrics.
        """
        self.attempted += 1
        mark = self.clock.mark()
        try:
            with self.span(f"op.{kind}", subject):
                yield
        except Exception as error:  # noqa: BLE001 - counted, the run goes on
            self.fail(f"{kind} {subject}: {type(error).__name__}: {error}")
            raise OpFailed from error
        finally:
            self.last_interval = self.clock.since(mark)
            self.ops.append(self.last_interval)
        if sample and not self.traced:
            self.samples[sample].setdefault(subject, []).append(self.last_interval)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


class OpFailed(Exception):
    """An operation failed; already counted by :meth:`Recorder.op`."""


@dataclass
class Compiled:
    name: str
    problem: object
    mapping: object
    program: object


class Runner:
    """Runs passes of one workload's problems through the mapping system."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self.compiled: dict[str, Compiled] = {}
        #: (problem, group) -> reference output of a bulk instance
        self._oracles: dict[tuple[str, str], object] = {}

    def parse_instance(self, text, schema):
        instance = self.rec.call("parse_instance", parse_instance, text, schema)
        self.rec.add("dsl.instance_rows", instance.total_size())
        return instance

    # -- compile and verify ------------------------------------------------

    def compile(self, name: str, text: str) -> Compiled:
        call = self.rec.call
        with self.rec.op("compile", name, sample="compile"):
            problem = call("parse_problem", parse_problem, text, name=name)
            lint = call("quick_lint", quick_lint, problem)
            if not lint.ok:
                raise ValueError(lint.errors[0].render())
            mapping = call(
                "generate_schema_mapping",
                generate_schema_mapping,
                problem.source_schema,
                problem.target_schema,
                problem.correspondences,
            ).schema_mapping
            program = call("generate_queries", generate_queries, mapping).program
        return Compiled(name, problem, mapping, program)

    def verify(self, item: Compiled) -> None:
        call, program = self.rec.call, item.program
        with self.rec.op("verify", item.name, sample="verify"):
            flow = call("analyze_flow", analyze_flow, program, item.problem)
            certification = call(
                "certify_program", certify_program, program, subject=item.name
            )

            def cost():
                facts = CostFacts.for_program(
                    program, certification=certification, flow=flow
                )
                return analyze_cost(program, subject=item.name, facts=facts)

            call("analyze_cost", cost)
            pipeline = call("compile_program", compile_program, program)
            sql = call("check_pipeline", check_pipeline, pipeline, subject=item.name)
            semantic = call(
                "verify_generation", verify_generation, item.mapping, problem=item.name
            )
        counts = certification.counts()
        for verdict, n in counts.items():
            self.rec.add(f"analysis.certify.{verdict.lower()}", n)
        self.rec.add("analysis.sqlcheck.proved", len(sql.proved))
        problems = []
        if counts["REFUTED"]:
            problems.append(f"{counts['REFUTED']} certify REFUTED")
        if sql.unknown:
            problems.append(f"{len(sql.unknown)} sqlcheck statement(s) not PROVED")
        if not semantic.ok:
            problems.append(f"semantic verifier: {semantic.summary()}")
        if problems:
            self.rec.fail(f"verify {item.name}: {'; '.join(problems)}")

    # -- transforms ----------------------------------------------------------

    def transform(self, engine: str, item: Compiled, source, oracle=None, sample=None):
        """Run one engine on one source instance; check against ``oracle``.

        With no oracle this is the reference run: its output is validated
        and becomes the oracle.  Returns the target instance.
        """
        rec, program = self.rec, item.program
        if engine == "batch" and rec.traced:
            sizes = {name: len(rows) for name, rows in source.relations.items()}
            rec.call("plan_program", plan_program, program, sizes)
        with rec.op(f"transform.{engine}", item.name, sample=sample):
            if engine == "reference":
                target = rec.call("evaluate", evaluate, program, source).target
            elif engine == "batch":
                result = rec.call(
                    "evaluate_batch", evaluate_batch, program, source, analyze=rec.traced
                )
                target = result.target
            elif engine == "workers":
                with rec.clock.quiet():
                    target = rec.call(
                        "evaluate_batch.workers",
                        evaluate_batch,
                        program,
                        source,
                        workers=WORKERS,
                    ).target
            else:
                target = rec.call(
                    "SqliteExecutor.run", SqliteExecutor().run, program, source
                )
        if not rec.traced:
            rec.throughput[engine].append((source.total_size(), rec.last_interval))
        if engine == "batch" and rec.traced:
            self._record_profile(result.profile)
        with rec.span("check"):
            if oracle is None:
                self._record_target(target)
            elif not diff_up_to_invented(oracle, target).empty:
                rec.fail(f"{item.name}: {engine} output differs from the reference")
        return target

    def _record_target(self, target) -> None:
        violations = len(validate_instance(target))
        self.rec.add("model.violations", violations)
        self.rec.add("exchange.target_tuples", target.total_size())
        self.rec.add(
            "exchange.invented_values",
            sum(
                1
                for relation in target.relations.values()
                for row in relation.rows
                for value in row
                if is_labeled_null(value)
            ),
        )
        if violations:
            self.rec.fail(f"reference target breaks {violations} constraint(s)")

    def _record_profile(self, profile) -> None:
        totals = profile.operator_totals()
        scan, project = totals.get("scan"), totals.get("project")
        self.rec.add("datalog.exec.rows_scanned", scan.rows_out if scan else 0)
        self.rec.add("datalog.exec.rows_derived", project.rows_out if project else 0)
        self.rec.add("datalog.exec.rows_unique", sum(s.rows for s in profile.strata))

    def run_small(self, item: Compiled, instances) -> None:
        """Every engine on each small instance; batch calls are run_ms."""
        for source in instances:
            try:
                oracle = self.transform("reference", item, source)
            except OpFailed:
                continue
            for engine in ENGINES[1:]:
                sample = "run" if engine == "batch" else None
                try:
                    self.transform(engine, item, source, oracle, sample=sample)
                except OpFailed:
                    pass

    # -- passes --------------------------------------------------------------

    def problem_pass(self, problem, bulk: bool = False) -> None:
        """Compile, verify and run one problem; with ``bulk`` its large
        instances too, on every engine."""
        try:
            item = self.compile(problem.name, problem.text)
        except OpFailed:
            return
        self.compiled.setdefault(problem.name, item)
        try:
            self.verify(item)
        except OpFailed:
            pass
        self.run_small(item, problem.small)
        if bulk:
            for engine in ENGINES:
                self.bulk_transform(engine, item, problem)

    def analysis_pass(self, problems) -> None:
        for problem in problems:
            self.problem_pass(problem)

    def bulk_round(self, engine: str, problems) -> None:
        """One engine over every compiled problem's large instance."""
        for problem in problems:
            item = self.compiled.get(problem.name)
            if item is not None:
                self.bulk_transform(engine, item, problem)

    def bulk_transform(self, engine: str, item: Compiled, problem) -> None:
        group = "sqlite" if engine == "sqlite" else "bulk"
        source, key = problem.bulk[group], (problem.name, group)
        try:
            if engine == "reference":
                self._oracles.setdefault(key, self.transform(engine, item, source))
                return
            if key not in self._oracles:
                self._oracles[key] = evaluate(item.program, source).target
            self.transform(engine, item, source, self._oracles[key])
        except OpFailed:
            pass

