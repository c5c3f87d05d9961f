"""Exception hierarchy for the mapping system.

All library errors derive from :class:`ReproError` so callers can catch one
base class.  The two "signal an error and stop" situations of the paper's
query-generation algorithm (Algorithm 4) have dedicated subclasses:
:class:`NonFunctionalMappingError` (functionality check fails, paper section 6)
and :class:`HardKeyConflictError` (an unresolvable key conflict between two
logical mappings).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .analysis.diagnostics import Diagnostic


class ReproError(Exception):
    """Base class for every error raised by this library.

    Raise sites that correspond to a stable static-analysis code (see
    :mod:`repro.analysis.diagnostics`) pass the structured diagnostic via
    the ``diagnostic`` keyword, or several findings via ``diagnostics``.
    They are exposed as ``error.diagnostics``, and the first one as
    ``error.diagnostic``, so the CLI and the linter can surface the code,
    severity and source span.
    """

    def __init__(
        self,
        *args: Any,
        diagnostic: "Diagnostic | None" = None,
        diagnostics: "Sequence[Diagnostic]" = (),
    ):
        super().__init__(*args)
        self.diagnostics = list(diagnostics) or (
            [diagnostic] if diagnostic is not None else []
        )
        self.diagnostic = self.diagnostics[0] if self.diagnostics else None


class SchemaError(ReproError):
    """An ill-formed schema: unknown attributes, bad keys, dangling foreign keys."""


class WeakAcyclicityError(SchemaError):
    """The foreign-key constraints do not form a weakly acyclic set.

    The paper requires weak acyclicity (section 3.1) so the modified chase
    procedure terminates; this error rejects schemas outside that class.
    """


class InstanceError(ReproError):
    """An instance does not fit its schema (wrong arity, unknown relation)."""


class ConstraintViolationError(InstanceError):
    """An instance violates a declared integrity constraint."""


class CorrespondenceError(ReproError):
    """An ill-formed (referenced-attribute) correspondence."""


class MappingGenerationError(ReproError):
    """Schema-mapping generation could not produce a mapping."""


class QueryGenerationError(ReproError):
    """Query generation failed for a reason other than the two paper errors."""


class NonFunctionalMappingError(QueryGenerationError):
    """A unitary logical mapping can violate the key of its target relation.

    Raised by the functionality check of Algorithm 4, step 2 ("If this is not
    the case, signal an error and stop").  It carries every ``MAP003``, then
    every ``MAP002`` finding of the mapping as ``error.diagnostics``.
    """


class HardKeyConflictError(QueryGenerationError):
    """Two logical mappings copy distinct source values into the same key.

    Raised by Algorithm 4, step 3; carries every ``MAP002`` finding.
    """


class DatalogError(ReproError):
    """An ill-formed Datalog program (unsafe rule, unstratifiable negation)."""


class EvaluationError(DatalogError):
    """A runtime failure while evaluating a Datalog program."""


class ParseError(ReproError):
    """A syntax error in the schema / correspondence DSL."""

    def __init__(
        self,
        message: str,
        line: int | None = None,
        diagnostic: "Diagnostic | None" = None,
    ):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message, diagnostic=diagnostic)
