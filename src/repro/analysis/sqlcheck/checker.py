"""The SQL translation validator: round-trip proofs plus structural lints.

:func:`check_pipeline` runs two kinds of checks over a compiled pipeline:

* **Round-trip proofs** (per INSERT): the statement's tree is lowered back
  into the conjunctive query it computes (:mod:`.lower`) and the PR 3
  containment engine is asked for witnesses in both directions against the
  originating Datalog rule.  Both witnesses → ``PROVED``; anything less →
  ``UNKNOWN`` and an ``SQL001`` diagnostic.  The check is *translation
  validation*: nothing about the compiler is trusted, only the emitted
  trees are read.

* **Structural lints** (per statement / pipeline):

  - ``SQL002`` — a raw ``IS`` / ``IS NOT`` comparison between computed
    expressions (SQLite-only; the dialect-safe nodes render portably);
  - ``SQL003`` — an expression that encodes an invented value without the
    canonical length-prefixed argument shape, so distinct labeled nulls
    can collide;
  - ``SQL004`` — an INSERT with neither ``SELECT DISTINCT`` nor an
    ``EXCEPT`` dedup guard (bag semantics where the engine has sets);
  - ``SQL005`` — a statement that reads a relation some *later* statement
    writes, making the pipeline's meaning order-dependent beyond
    stratification.

Everything lands in a :class:`~.report.SqlCheckReport`; the ``sqlcheck.*``
metrics family records statement verdicts and finding counts.
"""

from __future__ import annotations

from ...datalog.program import DatalogProgram
from ...obs import count, span
from ...sqlgen.ast import (
    Cmp,
    EXCEPT_DEDUP,
    InsertSelect,
    NullLit,
    Select,
    SqlExpr,
    looks_like_skolem_encoding,
    match_skolem_encode,
)
from ...sqlgen.compiler import CompiledStatement, SqlPipeline, compile_program
from ..diagnostics import Diagnostic, diagnostic
from ..semantic.containment import ContainmentEngine, cq_from_rule, default_engine
from .lower import lower_statement, normalize_nulls
from .report import PROVED, UNKNOWN, SqlCheckReport, SqlStatementVerdict

__all__ = ["check_pipeline", "check_program"]


def check_program(
    program: DatalogProgram,
    subject: str = "",
    engine: ContainmentEngine | None = None,
) -> SqlCheckReport:
    """Compile ``program`` and validate the resulting pipeline."""
    return check_pipeline(compile_program(program), subject=subject, engine=engine)


def check_pipeline(
    pipeline: SqlPipeline,
    subject: str = "",
    engine: ContainmentEngine | None = None,
) -> SqlCheckReport:
    """Validate every statement of a compiled pipeline."""
    engine = engine or default_engine()
    with span("sqlcheck", subject=subject or "<pipeline>"):
        report = SqlCheckReport(subject=subject)
        for index, statement in enumerate(pipeline.inserts()):
            verdict = _statement_verdict(index, statement, pipeline.program, engine)
            report.add(verdict)
            count("sqlcheck.statements", 1, verdict=verdict.verdict.lower())
            report.structural.extend(_structural_findings(index, statement))
        report.structural.extend(_ordering_findings(pipeline))
        for finding in report.structural:
            count("sqlcheck.findings", 1, code=finding.code)
        count("sqlcheck.runs", 1, ok=str(report.ok).lower())
    return report


# -- round-trip proofs -----------------------------------------------------


def _statement_verdict(
    index: int,
    statement: CompiledStatement,
    program: DatalogProgram,
    engine: ContainmentEngine,
) -> SqlStatementVerdict:
    assert isinstance(statement.node, InsertSelect)
    rendered_rule = repr(statement.rule) if statement.rule is not None else ""
    base = dict(
        index=index,
        relation=statement.writes,
        rule=rendered_rule,
        sql=statement.sql(),
    )
    if statement.rule is None:
        return SqlStatementVerdict(
            verdict=UNKNOWN,
            reason="statement carries no originating rule to compare against",
            **base,
        )
    lowering = lower_statement(statement.node, program)
    if lowering.query is None:
        return SqlStatementVerdict(
            verdict=UNKNOWN,
            reason=f"lowering failed: {lowering.reason}",
            **base,
        )
    lowered = normalize_nulls(lowering.query)
    rule_query = normalize_nulls(cq_from_rule(statement.rule))
    witnesses = engine.equivalent(lowered, rule_query)
    if witnesses is None:
        return SqlStatementVerdict(
            verdict=UNKNOWN,
            reason=(
                "containment engine found no equivalence certificate "
                "between the lowered query and the rule"
            ),
            **base,
        )
    forward, backward = witnesses
    return SqlStatementVerdict(
        verdict=PROVED,
        witness=(
            f"sql ⊆ rule: {forward.render()}; rule ⊆ sql: {backward.render()}"
        ),
        **base,
    )


# -- structural lints ------------------------------------------------------


def _structural_findings(
    index: int, statement: CompiledStatement
) -> list[Diagnostic]:
    assert isinstance(statement.node, InsertSelect)
    select = statement.node.select
    where = f"statement #{index} ({statement.writes})"
    findings: list[Diagnostic] = []

    for predicate in select.predicates():
        if isinstance(predicate, Cmp) and predicate.op.upper() in (
            "IS",
            "IS NOT",
        ):
            operands = (predicate.left, predicate.right)
            if not any(isinstance(o, NullLit) for o in operands):
                findings.append(
                    diagnostic(
                        "SQL002",
                        f"{where}: raw {predicate.op.upper()} comparison "
                        "between computed expressions (SQLite-only "
                        "null-safe equality); use NullSafeEq/NullSafeNe",
                        subject=statement.writes,
                    )
                )

    for expr in _top_level_expressions(select):
        findings.extend(
            _encoding_findings(expr, where, statement.writes)
        )

    if statement.node.dedup != EXCEPT_DEDUP and not select.distinct:
        findings.append(
            diagnostic(
                "SQL004",
                f"{where}: INSERT has neither SELECT DISTINCT nor an "
                "EXCEPT dedup guard; duplicates can accumulate",
                subject=statement.writes,
            )
        )
    return findings


def _top_level_expressions(select: Select) -> list[SqlExpr]:
    expressions = [item.expr for item in select.items]
    for predicate in select.predicates():
        expressions.extend(predicate.expr_children())
    return expressions


def _encoding_findings(
    expr: SqlExpr, where: str, relation: str
) -> list[Diagnostic]:
    """SQL003 findings for ``expr``, recursing past valid encodings."""
    matched = match_skolem_encode(expr)
    if matched is not None:
        findings = []
        for argument in matched[1]:
            findings.extend(_encoding_findings(argument, where, relation))
        return findings
    if looks_like_skolem_encoding(expr):
        return [
            diagnostic(
                "SQL003",
                f"{where}: expression encodes an invented value without "
                "the canonical length-prefixed argument shape; distinct "
                "labeled nulls can collide",
                subject=relation,
            )
        ]
    findings = []
    for child in expr.children():
        findings.extend(_encoding_findings(child, where, relation))
    return findings


def _ordering_findings(pipeline: SqlPipeline) -> list[Diagnostic]:
    """SQL005: a statement reading a relation a later statement writes."""
    findings = []
    inserts = pipeline.inserts()
    for index, statement in enumerate(inserts):
        later_writes = {s.writes for s in inserts[index + 1 :]}
        # Reading one's own head relation is the EXCEPT guard's job, not a
        # hazard: rules for one relation commute under set semantics.
        hazards = sorted(
            (set(statement.reads) & later_writes) - {statement.writes}
        )
        for relation in hazards:
            findings.append(
                diagnostic(
                    "SQL005",
                    f"statement #{index} ({statement.writes}) reads "
                    f"{relation}, which statement(s) later in the pipeline "
                    "still write; the result depends on statement order",
                    subject=statement.writes,
                )
            )
    return findings
