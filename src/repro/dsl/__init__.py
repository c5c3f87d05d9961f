"""Text DSL (schemas, correspondences, instances) and paper-style rendering."""

from .parser import parse_instance, parse_problem, parse_schema
from .report import explain, render_conflict_report, render_generation_report
from .renderer import (
    FunctorAbbreviator,
    render_instance,
    render_problem,
    render_program,
    render_rule,
    render_schema,
    render_schema_mapping,
)

__all__ = [
    "FunctorAbbreviator",
    "explain",
    "render_conflict_report",
    "render_generation_report",
    "parse_instance",
    "parse_problem",
    "parse_schema",
    "render_instance",
    "render_problem",
    "render_program",
    "render_rule",
    "render_schema",
    "render_schema_mapping",
]
