"""Datalog substrate: programs, stratification, evaluation, optimization.

Two evaluation runtimes share one semantics: the tuple-at-a-time reference
interpreter (:func:`evaluate`, the differential-testing oracle) and the
planned, set-oriented batch runtime (:func:`evaluate_batch`,
:mod:`repro.datalog.exec`).
"""

from .engine import EvaluationResult, RowStore, evaluate, evaluate_rule
from .exec import ProgramPlan, evaluate_batch, plan_program
from .optimize import remove_subsumed_rules, subsumes_rule
from .program import DatalogProgram, Rule
from .stratify import dependencies, stratify

__all__ = [
    "DatalogProgram",
    "EvaluationResult",
    "ProgramPlan",
    "RowStore",
    "Rule",
    "dependencies",
    "evaluate",
    "evaluate_batch",
    "evaluate_rule",
    "plan_program",
    "remove_subsumed_rules",
    "stratify",
    "subsumes_rule",
]
