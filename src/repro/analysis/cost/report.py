"""The cost certifier: program-level bounds, PLN diagnostics, reports.

:func:`analyze_cost` drives the whole pass: it compiles the program (with
the cost-advised join order), walks the strata in evaluation order
threading the symbolic size of every already-bounded relation into the
next stratum's rule pipelines (:func:`repro.analysis.cost.bounds.
bound_rule_plan`), and aggregates the per-rule bounds into per-relation
and program-level bounds.  The resulting :class:`CostReport` renders for
``repro plan --cost`` / ``MappingSystem.cost_report()`` and carries the PLN
:attr:`~CostReport.diagnostics` for ``repro lint --cost`` and SARIF:

========  ========  =====================================================
code      severity  finding
========  ========  =====================================================
PLN001    warning   a join step has no bound probe positions (cross
                    product)
PLN002    warning   a rule's bound is super-linear (total degree >= 2)
PLN003    error     no chase-depth bound exists: every cardinality is
                    unbounded
PLN004    info      the greedy statistics-free join order is strictly
                    dominated by the cost-advised order
========  ========  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...datalog.exec.plan import ProgramPlan, plan_program, plan_rule
from ...datalog.program import DatalogProgram
from ...obs import count, gauge
from ..diagnostics import ERROR, Diagnostic, diagnostic
from .bounds import RuleBound, _calibrate, bound_rule_plan
from .facts import CostFacts
from .polynomial import UNBOUNDED, ZERO, Polynomial, Unbounded


@dataclass
class RelationCost:
    """One derived relation's bound: the sum of its rule bounds."""

    relation: str
    stratum: int
    bound: "Polynomial | Unbounded"
    rules: list[RuleBound] = field(default_factory=list)
    #: True for intermediate (tmp) relations, False for target relations
    intermediate: bool = False

    def degree(self) -> int | None:
        if isinstance(self.bound, Unbounded):
            return None
        return self.bound.degree()

    def to_dict(self) -> dict:
        return {
            "relation": self.relation,
            "stratum": self.stratum,
            "intermediate": self.intermediate,
            "bound": self.bound.render(),
            "degree": self.degree(),
            "rules": [rule.to_dict() for rule in self.rules],
        }


@dataclass
class CostReport:
    """Symbolic cardinality bounds for every rule and derived relation."""

    subject: str = ""
    bounded: bool = True
    depth_bound: int | None = 0
    relations: list[RelationCost] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    # -- queries ---------------------------------------------------------

    def rule_bounds(self) -> list[RuleBound]:
        return [rule for cost in self.relations for rule in cost.rules]

    def max_degree(self) -> int | None:
        """The largest relation-bound degree; ``None`` when unbounded."""
        if not self.bounded:
            return None
        return max((cost.degree() or 0 for cost in self.relations), default=0)

    @property
    def ok(self) -> bool:
        """True iff no PLN diagnostic is an error."""
        return not any(item.severity == ERROR for item in self.diagnostics)

    # -- rendering -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "bounded": self.bounded,
            "depth_bound": self.depth_bound,
            "max_degree": self.max_degree(),
            "relations": [cost.to_dict() for cost in self.relations],
            "diagnostics": [
                finding.render() for finding in self.diagnostics
            ],
        }

    def render(self) -> str:
        lines = []
        title = "cost report"
        if self.subject:
            title += f" for {self.subject}"
        lines.append(title)
        if not self.bounded:
            lines.append("chase-depth bound: none (PLN003: unbounded)")
        else:
            lines.append(f"chase-depth bound: {self.depth_bound}")
        for cost in self.relations:
            kind = "tmp" if cost.intermediate else "target"
            degree = cost.degree()
            suffix = "" if degree is None else f"  [degree {degree}]"
            lines.append(
                f"  {cost.relation} ({kind}, stratum {cost.stratum}): "
                f"{cost.bound.render()}{suffix}"
            )
            for index, rule in enumerate(cost.rules):
                flags = []
                if rule.key_refined:
                    flags.append("key-refined")
                if rule.cross_product:
                    flags.append("cross-product")
                note = f" ({', '.join(flags)})" if flags else ""
                lines.append(
                    f"    rule {index}: {rule.total.render()}{note}"
                )
                for op in rule.operators:
                    why = f"  -- {op.note}" if op.note else ""
                    lines.append(
                        f"      {op.description} => {op.bound.render()}{why}"
                    )
        if self.diagnostics:
            lines.append("diagnostics:")
            for finding in self.diagnostics:
                lines.append(f"  {finding.render()}")
        degree = self.max_degree()
        summary = (
            "summary: unbounded"
            if degree is None
            else f"summary: max degree {degree}"
        )
        summary += (
            f", {len(self.relations)} relation(s), "
            f"{len(self.rule_bounds())} rule bound(s), "
            f"{len(self.diagnostics)} diagnostic(s)"
        )
        lines.append(summary)
        return "\n".join(lines)


def _relation_span(program: DatalogProgram, relation: str):
    target = program.target_schema
    if target is not None and relation in target:
        return target.relation(relation).span
    return None


def _pipeline_cost(bound: RuleBound) -> int:
    """Total calibrated intermediate rows of the scan/join prefix."""
    return sum(
        _calibrate(op.bound)
        for op in bound.operators
        if op.kind in ("scan", "join")
    )


def analyze_cost(
    program: DatalogProgram,
    subject: str = "",
    facts: CostFacts | None = None,
    plan: ProgramPlan | None = None,
) -> CostReport:
    """Bound every operator, rule and derived relation of ``program``.

    ``facts`` defaults to the schema-only fact base; pass the certifier/
    flow-enriched facts (``MappingSystem.cost_report`` does) for tighter
    bounds.  ``plan`` defaults to the cost-advised static compilation, the
    same plan ``repro plan`` shows and the golden snapshots pin.
    """
    if facts is None:
        facts = CostFacts.for_program(program)
    report = CostReport(subject=subject, depth_bound=facts.chase_depth_bound)

    if facts.chase_depth_bound is None:
        report.bounded = False
        for index, relation in enumerate(program.defined_relations()):
            report.relations.append(
                RelationCost(
                    relation=relation,
                    stratum=index,
                    bound=UNBOUNDED,
                    intermediate=relation in program.intermediates,
                )
            )
        report.diagnostics.append(
            diagnostic(
                "PLN003",
                "no chase-depth bound exists for the program; every "
                "derived cardinality is unbounded",
                subject=subject or "program",
            )
        )
        _emit_metrics(report)
        return report

    if plan is None:
        plan = plan_program(program)

    sizes: dict[str, Polynomial] = {}
    source = program.source_schema
    if source is not None:
        for relation in source:
            sizes[relation.name] = Polynomial.var(relation.name)

    for stratum, relation in enumerate(plan.order):
        cost = RelationCost(
            relation=relation,
            stratum=stratum,
            bound=ZERO,
            intermediate=relation in program.intermediates,
        )
        total = ZERO
        span = _relation_span(program, relation)
        for rule_plan in plan.plans[relation]:
            bound = bound_rule_plan(rule_plan, sizes, facts)
            cost.rules.append(bound)
            total = total + bound.total
            if bound.cross_product:
                report.diagnostics.append(
                    diagnostic(
                        "PLN001",
                        f"{relation}: cross-product join in the compiled "
                        f"plan of rule {rule_plan.rule!r}",
                        subject=relation,
                        span=span,
                    )
                )
            if bound.degree() >= 2:
                report.diagnostics.append(
                    diagnostic(
                        "PLN002",
                        f"{relation}: rule bound {bound.total.render()} "
                        f"has degree {bound.degree()} in the source sizes "
                        f"(rule {rule_plan.rule!r})",
                        subject=relation,
                        span=span,
                    )
                )
            greedy_plan = plan_rule(rule_plan.rule, None)
            if _plan_order(greedy_plan) != _plan_order(rule_plan):
                greedy_bound = bound_rule_plan(greedy_plan, sizes, facts)
                advised_cost = _pipeline_cost(bound)
                greedy_cost = _pipeline_cost(greedy_bound)
                if advised_cost < greedy_cost:
                    report.diagnostics.append(
                        diagnostic(
                            "PLN004",
                            f"{relation}: greedy join order costs "
                            f"{greedy_cost} rows at the calibration point "
                            f"vs {advised_cost} for the cost-advised "
                            f"order (rule {rule_plan.rule!r})",
                            subject=relation,
                            span=span,
                        )
                    )
        cost.bound = total
        sizes[relation] = total
        report.relations.append(cost)

    _emit_metrics(report)
    return report


def _plan_order(rule_plan) -> list[str]:
    """The relation sequence of a compiled pipeline (order fingerprint)."""
    order = []
    if rule_plan.scan is not None:
        order.append(rule_plan.scan.relation)
    order.extend(join.relation for join in rule_plan.joins)
    return order


def _emit_metrics(report: CostReport) -> None:
    count("cost.runs", 1, bounded=str(report.bounded).lower())
    count("cost.relations", len(report.relations))
    count("cost.rules", len(report.rule_bounds()))
    for finding in report.diagnostics:
        count("cost.diagnostics", 1, code=finding.code)
    degree = report.max_degree()
    if degree is not None:
        gauge("cost.max_degree", degree, subject=report.subject or "-")
