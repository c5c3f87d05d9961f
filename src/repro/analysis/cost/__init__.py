"""Static cost & cardinality certifier for compiled plans.

The package turns the facts the rest of the analyzer already proves —
declared source keys, PROVED target keys (certifier),
statically functional rules and the nullability fixpoint (flow engine),
and the chase-depth bound (TRM001) — into *sound symbolic upper bounds*
on the number of rows every operator, rule, and derived relation of a
compiled program can produce, expressed as polynomials in the source
relation sizes.  On top of the bounds sit the PLN001–PLN004 diagnostics
and the cost-based join-order advisor the statistics-free planner
consults.

Entry points:

* :func:`analyze_cost` — bound one program; schema-only facts by default.
* :class:`CostFacts` — the assumptions base (``CostFacts.for_program``).
* :class:`JoinOrderAdvisor` — symbolic join ordering for the static path.
* :class:`Polynomial` / :data:`UNBOUNDED` — the bound algebra.

``MappingSystem.cost_report()`` wires the certifier and flow engine in;
``repro plan --cost`` and ``repro lint --cost`` are the CLI surfaces.
Soundness against EXPLAIN ANALYZE actuals on both engines is asserted by
``tests/test_cost_calibration.py``.
"""

from .advisor import JoinOrderAdvisor
from .bounds import (
    CALIBRATION_SIZE,
    OperatorBound,
    RuleBound,
    bound_rule_plan,
    tighter,
)
from .facts import CostFacts
from .polynomial import ONE, UNBOUNDED, ZERO, Polynomial, Unbounded
from .report import CostReport, RelationCost, analyze_cost

__all__ = [
    "CALIBRATION_SIZE",
    "CostFacts",
    "CostReport",
    "JoinOrderAdvisor",
    "ONE",
    "OperatorBound",
    "Polynomial",
    "RelationCost",
    "RuleBound",
    "UNBOUNDED",
    "Unbounded",
    "ZERO",
    "analyze_cost",
    "bound_rule_plan",
    "tighter",
]
