"""Static validation of compiled SQL pipelines (translation validation).

The compiler in :mod:`repro.sqlgen.compiler` claims each emitted INSERT
computes one Datalog rule.  This package *checks* that claim statement by
statement: :mod:`.lower` reads the SQL tree back into the conjunctive
query it actually computes, :mod:`.checker` asks the chase-based
containment engine for equivalence witnesses in both directions and runs
the structural lints (SQL002–SQL005), and :mod:`.report` packages the
verdicts for the CLI, SARIF export and ``MappingSystem.sql_report()``.
"""

from .checker import check_pipeline
from .lower import LoweringResult, lower_statement, normalize_nulls
from .report import PROVED, UNKNOWN, SqlCheckReport, SqlStatementVerdict

__all__ = [
    "PROVED",
    "UNKNOWN",
    "LoweringResult",
    "SqlCheckReport",
    "SqlStatementVerdict",
    "check_pipeline",
    "lower_statement",
    "normalize_nulls",
]
