"""The analysis entry points: :func:`analyze` and :func:`quick_lint`.

:func:`analyze` is the full static-analysis pass the ``repro lint`` CLI
subcommand runs: schema checks (``SCH*``), mapping checks (``MAP*``) and —
when the earlier layers are sound enough to generate a transformation —
Datalog checks (``DLG*``) on the emitted program.  It accepts a
:class:`~repro.core.pipeline.MappingProblem`, a
:class:`~repro.datalog.program.DatalogProgram` or a bare
:class:`~repro.model.schema.Schema` and never raises on findings: everything
comes back in an :class:`~repro.analysis.diagnostics.AnalysisReport`.
:func:`analyze_problem` also returns the
:class:`~repro.core.pipeline.MappingSystem` whose cached stages the deep
checks read, so ``repro lint``'s passes run no stage twice.

:func:`quick_lint` is the cheap always-on subset
:meth:`repro.core.pipeline.MappingSystem.compile` runs: static schema and
coverage checks only, no pipeline execution.
"""

from __future__ import annotations

from typing import Union

from ..core.pipeline import MappingProblem, MappingSystem
from ..core.schema_mapping import NOVEL
from ..datalog.program import DatalogProgram
from ..errors import ReproError
from ..model.schema import Schema
from ..obs import span
from .datalog_lint import lint_program
from .diagnostics import AnalysisReport, Diagnostic, diagnostic
from .mapping_lint import (
    correspondence_diagnostics,
    coverage_diagnostics,
    key_management_diagnostics,
)
from .schema_lint import lint_schema

Analyzable = Union[MappingProblem, DatalogProgram, Schema]


def _failed(problem: MappingProblem, error: ReproError) -> Diagnostic:
    """The diagnostic ``error`` carries, else ``MAP005``."""
    carried = getattr(error, "diagnostic", None)
    if carried is not None:
        return carried
    return diagnostic(
        "MAP005",
        f"query generation failed for {problem.name!r}: {error}",
        subject=problem.name,
    )


def analyze_problem(
    problem: MappingProblem, deep: bool = True, algorithm: str = NOVEL
) -> tuple[AnalysisReport, MappingSystem | None]:
    """:func:`analyze` over a problem, plus the system its deep checks read.

    The system is None when it refuses the problem (``validate()`` fails);
    the deep checks then report the refusal as ``MAP005``.  Passes run
    later on the returned system reuse its cached stages.
    """
    with span("lint.analyze", kind="MappingProblem"):
        report = quick_lint(problem)
        deep = deep and report.ok and bool(problem.correspondences)
        try:
            system = MappingSystem(problem, algorithm=algorithm)
        except ReproError as refusal:
            if deep:
                report.add(_failed(problem, refusal))
            return report, None
        if deep:
            # The static layers are sound: run Algorithm 4's checks, then
            # generate the transformation and lint it.
            report.extend(key_management_diagnostics(system))
            if report.ok:
                try:
                    program = system.transformation
                except ReproError as error:
                    report.add(_failed(problem, error))
                else:
                    report.extend(lint_program(program))
        return report, system


def analyze(
    subject: Analyzable,
    deep: bool = True,
    algorithm: str = NOVEL,
) -> AnalysisReport:
    """Run the static analyzer over a problem, a program or a schema.

    ``deep=False`` restricts the pass to the static checks (no pipeline
    stages are executed).  ``algorithm`` selects which query-generation
    algorithm the deep mapping checks and the generated program reflect.
    """
    if isinstance(subject, MappingProblem):
        return analyze_problem(subject, deep, algorithm)[0]
    with span("lint.analyze", kind=type(subject).__name__):
        if isinstance(subject, DatalogProgram):
            report = AnalysisReport(subject="datalog-program")
            report.extend(lint_program(subject))
            return report
        if isinstance(subject, Schema):
            report = AnalysisReport(subject=subject.name)
            report.extend(lint_schema(subject))
            return report
    raise TypeError(
        f"cannot analyze {type(subject).__name__}: expected MappingProblem, "
        "DatalogProgram or Schema"
    )


def quick_lint(problem: MappingProblem) -> AnalysisReport:
    """The cheap always-on subset: schema structure + static coverage.

    Runs no pipeline stage and no satisfiability checks, so it is safe to
    call on every :meth:`~repro.core.pipeline.MappingSystem.compile`.
    """
    report = AnalysisReport(subject=problem.name)
    report.extend(lint_schema(problem.source_schema))
    report.extend(lint_schema(problem.target_schema))
    report.extend(correspondence_diagnostics(problem))
    report.extend(coverage_diagnostics(problem))
    return report
