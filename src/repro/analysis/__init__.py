"""Static analysis: lint schemas, mappings, and generated Datalog.

The public surface:

* :func:`analyze` — the full pass (``SCH*`` + ``MAP*`` + ``DLG*``) over a
  :class:`~repro.core.pipeline.MappingProblem`, a
  :class:`~repro.datalog.program.DatalogProgram` or a
  :class:`~repro.model.schema.Schema`;
* :func:`quick_lint` — the cheap always-on subset ``MappingSystem.compile``
  runs;
* the diagnostics vocabulary — :class:`Diagnostic`, :class:`SourceSpan`,
  :class:`AnalysisReport`, the ``CODES`` registry and the severity
  constants;
* :func:`to_sarif` / :func:`to_sarif_json` — SARIF 2.1.0 serialization;
* the flow engine (:mod:`repro.analysis.flow`) — abstract interpretation
  over generated programs: :func:`analyze_flow` solves per-position
  nullability / provenance / key-origin fixpoints and emits the ``FLW*``
  diagnostics;
* the constraint certifier (:mod:`repro.analysis.certify`) —
  :func:`certify_program` statically proves (or refutes with a minimal
  counterexample instance, or leaves UNKNOWN) every key, foreign-key and
  NOT NULL constraint of the target schema, plus the program-level
  chase-termination bound (``CER001``–``CER003``, ``TRM001``);
* the semantic analyzer (:mod:`repro.analysis.semantic`) — chase-based
  containment (:func:`contained_in`, :func:`equivalent`), mapping/program
  minimization (:func:`minimize_program`,
  :func:`minimize_unitary_mappings`) and the differential optimizer
  verifier (:func:`verify_result`, run on a system's own stage 2 by
  :meth:`~repro.core.pipeline.MappingSystem.verify`).

See ``docs/ANALYSIS.md`` for the code reference.

Attribute access is lazy (PEP 562): low-level modules
(:mod:`repro.model.schema`, :mod:`repro.datalog.program`, ...) import
:mod:`repro.analysis.diagnostics` inside their raise paths, and resolving
``repro.analysis`` must not drag the whole pipeline in behind them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

_EXPORTS = {
    "ERROR": ".diagnostics",
    "WARNING": ".diagnostics",
    "INFO": ".diagnostics",
    "SEVERITIES": ".diagnostics",
    "CODES": ".diagnostics",
    "CodeInfo": ".diagnostics",
    "Diagnostic": ".diagnostics",
    "SourceSpan": ".diagnostics",
    "AnalysisReport": ".diagnostics",
    "diagnostic": ".diagnostics",
    "severity_at_least": ".diagnostics",
    "lint_schema": ".schema_lint",
    "lint_program": ".datalog_lint",
    "analyze": ".analyzer",
    "quick_lint": ".analyzer",
    "analyze_flow": ".flow",
    "FlowReport": ".flow",
    "FlowResult": ".flow",
    "NullabilityAnalysis": ".flow",
    "ProvenanceAnalysis": ".flow",
    "KeyOriginAnalysis": ".flow",
    "solve": ".flow",
    "to_sarif": ".sarif",
    "to_sarif_json": ".sarif",
    "certify_program": ".certify",
    "certify_termination": ".certify",
    "CertificationReport": ".certify",
    "ConstraintVerdict": ".certify",
    "TerminationCertificate": ".certify",
    "PROVED": ".certify",
    "REFUTED": ".certify",
    "UNKNOWN": ".certify",
    "ContainmentEngine": ".semantic",
    "ConjunctiveQuery": ".semantic",
    "Witness": ".semantic",
    "contained_in": ".semantic",
    "equivalent": ".semantic",
    "minimize_program": ".semantic",
    "minimize_unitary_mappings": ".semantic",
    "verify_result": ".semantic",
    "VerificationReport": ".semantic",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover
    from .analyzer import analyze, quick_lint
    from .certify import (
        PROVED,
        REFUTED,
        UNKNOWN,
        CertificationReport,
        ConstraintVerdict,
        TerminationCertificate,
        certify_program,
        certify_termination,
    )
    from .datalog_lint import lint_program
    from .flow import (
        FlowReport,
        FlowResult,
        KeyOriginAnalysis,
        NullabilityAnalysis,
        ProvenanceAnalysis,
        analyze_flow,
        solve,
    )
    from .diagnostics import (
        CODES,
        ERROR,
        INFO,
        SEVERITIES,
        WARNING,
        AnalysisReport,
        CodeInfo,
        Diagnostic,
        SourceSpan,
        diagnostic,
        severity_at_least,
    )
    from .sarif import to_sarif, to_sarif_json
    from .schema_lint import lint_schema
    from .semantic import (
        ConjunctiveQuery,
        ContainmentEngine,
        VerificationReport,
        Witness,
        contained_in,
        equivalent,
        minimize_program,
        minimize_unitary_mappings,
        verify_result,
    )


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(module_name, __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
