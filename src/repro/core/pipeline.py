"""The end-to-end mapping system facade.

A :class:`MappingProblem` is what the paper's visual tool captures: a source
schema, a target schema and a set of (referenced-attribute) correspondences.
A :class:`MappingSystem` runs the two-stage pipeline on it — schema-mapping
generation, then query generation — and can execute the resulting
transformation on source instances.  ``algorithm="basic"`` selects the
Clio-style baseline (Algorithms 1 and 2), ``algorithm="novel"`` the paper's
algorithms (3 and 4); everything is computed lazily and cached.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

from ..datalog.engine import EvaluationResult, evaluate
from ..datalog.exec import ProgramPlan, evaluate_batch, plan_program
from ..datalog.program import DatalogProgram
from ..logic.mappings import SchemaMapping
from ..model.instance import Instance
from ..errors import ReproError, SchemaError
from ..model.schema import Schema
from ..obs import RunReport, Tracer, use_tracer
from .correspondences import Correspondence, correspondence
from .query_generation import QueryGenerationResult, generate_queries
from .schema_mapping import NOVEL, SchemaMappingResult, generate_schema_mapping


@dataclass
class MappingProblem:
    """A mapping scenario: two schemas plus the correspondences between them."""

    source_schema: Schema
    target_schema: Schema
    correspondences: list[Correspondence] = field(default_factory=list)
    name: str = "mapping-problem"

    def add_correspondence(
        self, source: str, target: str, label: str = "", where: str = "", span=None
    ) -> Correspondence:
        """Add a correspondence from textual endpoints and return it.

        ``where`` accepts Clio-style filters, e.g. ``"P3.name != 'MJ'"``.
        ``span`` records the DSL declaration site when the correspondence
        came from a parsed problem file.
        """
        built = correspondence(source, target, label, where=where, span=span)
        built.validate(self.source_schema, self.target_schema)
        self.correspondences.append(built)
        return built

    def validate(self) -> None:
        self.source_schema.validate()
        self.target_schema.validate()
        shared = set(self.source_schema.relation_names()) & set(
            self.target_schema.relation_names()
        )
        if shared:
            raise SchemaError(
                "source and target schemas must use distinct relation names "
                f"(shared: {sorted(shared)}); rename one side"
            )
        for item in self.correspondences:
            item.validate(self.source_schema, self.target_schema)


class MappingSystem:
    """Runs the full pipeline for one mapping problem and one algorithm.

    With ``trace=True`` a :class:`repro.obs.Tracer` records every stage run
    through this system: the stage results carry a
    :class:`~repro.obs.RunReport` each and :meth:`stats` returns the merged
    report (see ``docs/OBSERVABILITY.md``).  The same tracer records the
    typed, labeled metric families (``eval.*``, ``exec.*``, ``flow.*``,
    ``semantic.*``, ...) across this system's lifetime;
    :meth:`metrics_snapshot` serializes them.  Tracing is off by default and
    the disabled instrumentation is a no-op.

    Stage and pass results are cached, keyed by the problem object, its name
    and rendered DSL (schemas with keys, foreign keys and nullability, and
    the correspondences) and the stage options: mutating
    the problem (e.g. via :meth:`MappingProblem.add_correspondence`, or by
    swapping a schema) or an option invalidates the cache, so the next
    access recomputes instead of returning a result for the old problem.
    """

    def __init__(
        self,
        problem: MappingProblem,
        algorithm: str = NOVEL,
        skolem_strategy: str | None = None,
        optimize: bool = True,
        trace: bool = False,
        semantic_pruning: bool = False,
        verify_optimizations: bool = False,
    ):
        problem.validate()
        self.problem = problem
        self.algorithm = algorithm
        self.skolem_strategy = skolem_strategy
        self.optimize = optimize
        self.semantic_pruning = semantic_pruning
        #: when set, query generation is followed by the differential
        #: verifier (repro.analysis.semantic.verifier); certificate failures
        #: raise carrying the SEM003/SEM004 diagnostic.
        self.verify_optimizations = verify_optimizations
        self.tracer: Tracer | None = Tracer() if trace else None
        #: stage and pass results by name, valid for :attr:`_key`
        self._results: dict[str, object] = {}
        self._key = self._cache_key()
        #: the AnalysisReport of the most recent :meth:`compile` quick lint
        self.lint_report = None
        self._lint_run_report: RunReport | None = None

    def _traced(self):
        """Install this system's tracer (when enabled)."""
        if self.tracer is None:
            return nullcontext()
        return use_tracer(self.tracer)

    # -- the result cache ----------------------------------------------------

    def _cache_key(self) -> tuple:
        # The rendered text itself, not a hash of it: exact, and hashlib
        # would load OpenSSL (~3 MB) into every process using the pipeline.
        from ..dsl.renderer import render_problem

        return (
            id(self.problem),
            self.problem.name,
            render_problem(self.problem),
            self.algorithm,
            self.skolem_strategy,
            self.optimize,
            self.semantic_pruning,
            self.verify_optimizations,
        )

    def _cached(self, name: str, compute):
        """The cached result ``name``, computed under the tracer on a miss.

        Every cached result is dropped first if the problem or an option
        changed.  A result is stored only once ``compute`` returns, so a
        stage that raises raises again on the next access.
        """
        key = self._cache_key()
        if key != self._key:
            self._key = key
            self._results.clear()
        if name not in self._results:
            with self._traced():
                result = compute()
            self._results[name] = result
        return self._results[name]

    # -- stage 1: schema mapping generation --------------------------------

    def schema_mapping_result(self) -> SchemaMappingResult:
        return self._cached(
            "schema_mapping",
            lambda: generate_schema_mapping(
                self.problem.source_schema,
                self.problem.target_schema,
                self.problem.correspondences,
                algorithm=self.algorithm,
                semantic_pruning=self.semantic_pruning,
            ),
        )

    @property
    def schema_mapping(self) -> SchemaMapping:
        return self.schema_mapping_result().schema_mapping

    # -- stage 2: query generation -----------------------------------------

    def query_result(self) -> QueryGenerationResult:
        return self._cached("query", self._generate_queries)

    def _generate_queries(self) -> QueryGenerationResult:
        result = generate_queries(
            self.schema_mapping,
            algorithm=self.algorithm,
            skolem_strategy=self.skolem_strategy,
            optimize=self.optimize,
        )
        if self.verify_optimizations:
            report = self.verify()
            if not report.ok:
                first = report.diagnostics[0]
                raise ReproError(
                    f"optimization verification failed for "
                    f"{self.problem.name!r}: {first.render()}",
                    diagnostic=first,
                )
        return result

    def verify(self):
        """Run (and cache) the differential optimizer / resolution verifier.

        Returns the :class:`repro.analysis.semantic.VerificationReport`
        certifying that ``remove_subsumed_rules`` and key-conflict
        resolution preserved the program's semantics for this problem.
        Never raises on failures — :attr:`verify_optimizations` adds the
        raising behaviour to the pipeline itself.
        """
        from ..analysis.semantic.verifier import verify_system

        return self._cached("verify", lambda: verify_system(self))

    @property
    def transformation(self) -> DatalogProgram:
        return self.query_result().program

    def minimize(self):
        """Run (and cache) the semantic minimizer over the generated program.

        Returns the :class:`repro.analysis.semantic.MinimizationResult`:
        the rules provably contained in another rule removed (``SEM001``,
        chase witnesses attached) and the provably subsumed unitary
        mappings flagged (``SEM002``).  Forces the pipeline stages.
        """
        from ..analysis.semantic.minimize import (
            minimize_program,
            minimize_unitary_mappings,
        )

        def compute():
            result = self.query_result()
            minimized = minimize_program(result.program)
            minimized.subsumed = minimize_unitary_mappings(result.final)
            return minimized

        return self._cached("minimize", compute)

    def flow_report(self):
        """Run (and cache) the flow engine over the generated program.

        Returns the :class:`repro.analysis.flow.FlowReport` with the solved
        nullability / provenance / key-origin fixpoints, the static
        functionality confirmations, and the ``FLW*`` diagnostics (with DSL
        spans when the problem carries correspondence spans).  Forces the
        pipeline stages.
        """
        from ..analysis.flow import analyze_flow

        return self._cached(
            "flow", lambda: analyze_flow(self.transformation, self.problem)
        )

    def certify(self):
        """Run (and cache) the constraint certifier over the generated program.

        Returns the :class:`repro.analysis.certify.CertificationReport` with
        one PROVED / REFUTED / UNKNOWN verdict per key, foreign key and
        NOT NULL constraint of the target schema, plus the program-level
        chase-termination certificate.  Forces the pipeline stages.
        """
        from ..analysis.certify import certify_program

        return self._cached(
            "certify",
            lambda: certify_program(
                self.transformation, subject=self.problem.name
            ),
        )

    def cost_report(self):
        """Run (and cache) the cost & cardinality certifier.

        Returns the :class:`repro.analysis.cost.CostReport` with one sound
        symbolic row bound per operator, rule and derived relation of the
        generated program, plus the ``PLN*`` diagnostics.  The fact base is
        the full one: the certifier's PROVED keys and foreign keys
        (:meth:`certify`) and the flow engine's functionality and
        nullability results (:meth:`flow_report`) tighten the bounds beyond
        what the schemas alone prove.  Forces the pipeline stages.
        """
        from ..analysis.cost import CostFacts, analyze_cost

        return self._cached(
            "cost",
            lambda: analyze_cost(
                self.transformation,
                subject=self.problem.name,
                facts=CostFacts.for_program(
                    self.transformation,
                    certification=self.certify(),
                    flow=self.flow_report(),
                ),
                plan=self.plan(),
            ),
        )

    def sql_pipeline(self):
        """Compile the generated program into its SQL pipeline.

        Returns the :class:`repro.sqlgen.SqlPipeline` — intermediate DDL
        plus one INSERT per rule in stratification order, renderable for
        any supported dialect.  Forces the pipeline stages.  Not cached:
        compilation is cheap and the pipeline is immutable.
        """
        from ..sqlgen import compile_program

        return compile_program(self.transformation)

    def sql_report(self):
        """Run (and cache) the SQL translation validator.

        Returns the :class:`repro.analysis.sqlcheck.SqlCheckReport` with
        one PROVED / UNKNOWN round-trip verdict per compiled INSERT
        statement (each PROVED verdict carries both containment witnesses)
        plus the structural SQL002–SQL005 findings.  Forces the pipeline
        stages.
        """
        from ..analysis.sqlcheck import check_pipeline

        return self._cached(
            "sql",
            lambda: check_pipeline(
                self.sql_pipeline(), subject=self.problem.name
            ),
        )

    def compile(self, strict: bool = True, flow: bool = False) -> DatalogProgram:
        """Lint cheaply, then run both pipeline stages and return the program.

        The lint pass is the always-on subset of the static analyzer
        (:func:`repro.analysis.quick_lint`): schema structure, weak
        acyclicity, correspondence validity and coverage of mandatory target
        attributes — no pipeline stages, no satisfiability checks.  The
        report is kept on :attr:`lint_report`; per-code ``lint.*`` counters
        flow through the tracer when the system was created with
        ``trace=True``.  With ``strict`` (the default) the first lint error
        aborts compilation; warnings never do.

        With ``flow=True`` the flow engine (:meth:`flow_report`) runs after
        query generation and its ``FLW*`` findings are appended to
        :attr:`lint_report`.  ``FLW*`` codes are warnings, so they never
        abort a strict compile; they do make the flow-certified state of the
        program visible to callers inspecting the report.
        """
        from ..analysis.analyzer import quick_lint
        from ..obs import span as obs_span, stage_report

        with self._traced():
            with obs_span("stage.lint", problem=self.problem.name) as trace:
                report = quick_lint(self.problem)
                trace.set(diagnostics=len(report))
            self._lint_run_report = stage_report(trace, "lint")
        self.lint_report = report
        if strict and not report.ok:
            first = report.errors[0]
            raise ReproError(
                f"lint failed for {self.problem.name!r}: {first.render()}",
                diagnostic=first,
            )
        program = self.transformation
        if flow:
            report.extend(self.flow_report().diagnostics)
        return program

    # -- execution -----------------------------------------------------------

    #: reference = tuple-at-a-time oracle interpreter; batch = planned
    #: set-oriented runtime (repro.datalog.exec).
    ENGINES = ("reference", "batch")
    #: the engine of :meth:`transform`, :meth:`transform_detailed` and
    #: :meth:`run` when none is named (see ``docs/ENGINE.md``)
    DEFAULT_ENGINE = "reference"

    def transform(self, source: Instance, engine: str = DEFAULT_ENGINE) -> Instance:
        """Compute the target instance for a source instance."""
        return self.transform_detailed(source, engine=engine).target

    def transform_detailed(
        self, source: Instance, engine: str = DEFAULT_ENGINE
    ) -> EvaluationResult:
        """Like :meth:`transform` but also returns the intermediate relations."""
        return self.run(source, engine=engine)

    def run(
        self,
        source: Instance,
        engine: str = DEFAULT_ENGINE,
        workers: int | None = None,
        analyze: bool = False,
    ) -> EvaluationResult:
        """Execute the transformation on a selectable engine.

        ``engine="reference"`` (the default, :attr:`DEFAULT_ENGINE`) runs
        the tuple-at-a-time interpreter of :mod:`repro.datalog.engine`,
        which stays the differential-testing oracle; ``engine="batch"``
        runs the planned, set-oriented batch runtime of
        :mod:`repro.datalog.exec`.  ``workers=N`` (batch only) partitions
        large outer scans across a process pool — see ``docs/ENGINE.md``.  ``analyze=True``
        collects the EXPLAIN ANALYZE profile on the returned result (also
        collected implicitly when the system was created with
        ``trace=True``).
        """
        if engine not in self.ENGINES:
            raise ReproError(
                f"unknown engine {engine!r}: expected one of {self.ENGINES}"
            )
        if workers is not None and engine != "batch":
            raise ReproError("workers=N requires engine='batch'")
        program = self.transformation
        with self._traced():
            if engine == "batch":
                result = evaluate_batch(
                    program, source, workers=workers, analyze=analyze
                )
            else:
                result = evaluate(program, source, analyze=analyze)
        self._results["evaluation"] = result
        return result

    def plan(self) -> ProgramPlan:
        """The compiled operator trees of the transformation (``repro plan``).

        Statistics default to empty here, so the rendering is deterministic
        without an instance; the batch runtime re-plans each stratum with
        live row counts at execution time.
        """
        return plan_program(self.transformation)

    # -- telemetry -----------------------------------------------------------

    def stats(self) -> RunReport:
        """The merged :class:`~repro.obs.RunReport` of both pipeline stages.

        Forces both stages, then merges their reports (plus the report of the
        most recent :meth:`transform` evaluation, if any).  Requires the
        system to have been created with ``trace=True``.
        """
        if self.tracer is None:
            raise ReproError(
                "telemetry is off: create the MappingSystem with trace=True "
                "to collect run reports"
            )
        stage1 = self.schema_mapping_result().run_report
        stage2 = self.query_result().run_report
        last = self._results.get("evaluation")
        evaluation = last.run_report if last is not None else None
        assert stage1 is not None and stage2 is not None
        return stage1.merged(stage2, evaluation, self._lint_run_report)

    def metrics_snapshot(self) -> dict:
        """The serialized state of this system's tracer metrics.

        The snapshot format is pinned by ``docs/metrics.schema.json`` and
        round-trips through :meth:`repro.obs.MetricsRegistry.from_snapshot`.
        Requires the system to have been created with ``trace=True``.
        """
        if self.tracer is None:
            raise ReproError(
                "telemetry is off: create the MappingSystem with trace=True "
                "to collect the typed metric families"
            )
        return self.tracer.metrics.snapshot()
