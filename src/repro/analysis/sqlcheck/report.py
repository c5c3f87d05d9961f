"""Verdicts and reports of the SQL translation validator.

Every INSERT statement of a compiled pipeline receives exactly one
:class:`SqlStatementVerdict`:

* ``PROVED`` carries the two containment witnesses (rule ⊆ lowered SQL and
  lowered SQL ⊆ rule) — a machine-checked certificate that the statement
  computes exactly the rule's tuples;
* ``UNKNOWN`` means lowering failed or the containment engine was
  inconclusive — the differential harness remains the arbiter.

Structural findings (dialect-unsafe constructs, ambiguous encodings,
missing dedup, order hazards) attach to the report as plain diagnostics.
A :class:`SqlCheckReport` aggregates everything and renders as text or
JSON; its :attr:`~SqlCheckReport.diagnostics` (SQL001 per unproved
statement, then the structural findings) feed SARIF export, ``lint --sql``
and the ``sql --check`` exit gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..diagnostics import Diagnostic, diagnostic

PROVED = "PROVED"
UNKNOWN = "UNKNOWN"


@dataclass
class SqlStatementVerdict:
    """One compiled INSERT and what the validator concluded about it."""

    index: int  # position in the pipeline (0-based, inserts only)
    relation: str  # the table the statement writes
    rule: str  # the originating Datalog rule, rendered
    sql: str  # the statement, rendered for the default dialect
    verdict: str
    witness: str = ""  # both containment witnesses (PROVED)
    reason: str = ""  # why not proved (UNKNOWN)

    def diagnostic_item(self) -> Diagnostic | None:
        """The SQL001 diagnostic for a non-PROVED verdict, else ``None``."""
        if self.verdict == PROVED:
            return None
        message = (
            f"statement #{self.index} ({self.relation}): round-trip "
            f"equivalence with its rule not proved"
        )
        if self.reason:
            message += f" — {self.reason}"
        return diagnostic("SQL001", message, subject=self.relation)

    def render(self) -> str:
        line = f"[{self.verdict}] #{self.index} insert into {self.relation}"
        if self.verdict == PROVED and self.witness:
            line += f"\n    witness: {self.witness}"
        elif self.reason:
            line += f"\n    reason: {self.reason}"
        return line

    def to_dict(self) -> dict:
        data: dict = {
            "index": self.index,
            "relation": self.relation,
            "rule": self.rule,
            "sql": self.sql,
            "verdict": self.verdict,
        }
        if self.witness:
            data["witness"] = self.witness
        if self.reason:
            data["reason"] = self.reason
        return data


@dataclass
class SqlCheckReport:
    """All statement verdicts and structural findings of one pipeline."""

    subject: str = ""  # scenario / problem name
    verdicts: list[SqlStatementVerdict] = field(default_factory=list)
    #: structural findings (SQL002–SQL005), already built diagnostics
    structural: list[Diagnostic] = field(default_factory=list)

    def add(self, verdict: SqlStatementVerdict) -> None:
        self.verdicts.append(verdict)

    @property
    def proved(self) -> list[SqlStatementVerdict]:
        return [v for v in self.verdicts if v.verdict == PROVED]

    @property
    def unknown(self) -> list[SqlStatementVerdict]:
        return [v for v in self.verdicts if v.verdict == UNKNOWN]

    @property
    def ok(self) -> bool:
        """True iff every statement is PROVED and no finding is an error."""
        return all(v.verdict == PROVED for v in self.verdicts) and not any(
            f.severity == "error" for f in self.structural
        )

    def counts(self) -> dict[str, int]:
        return {PROVED: len(self.proved), UNKNOWN: len(self.unknown)}

    @property
    def diagnostics(self) -> list[Diagnostic]:
        """SQL001 per unproved statement, then the structural findings."""
        items = (verdict.diagnostic_item() for verdict in self.verdicts)
        return [item for item in items if item is not None] + self.structural

    def summary(self) -> str:
        counts = self.counts()
        text = (
            f"sqlcheck: {counts[PROVED]} proved, {counts[UNKNOWN]} unknown "
            f"of {len(self.verdicts)} statement(s)"
        )
        if self.structural:
            text += f", {len(self.structural)} structural finding(s)"
        return text

    def render(self) -> str:
        header = (
            f"SQL validation of {self.subject}"
            if self.subject
            else "SQL validation report"
        )
        lines = [header]
        lines.extend(verdict.render() for verdict in self.verdicts)
        lines.extend(finding.render() for finding in self.structural)
        lines.append(self.summary())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "counts": self.counts(),
            "verdicts": [v.to_dict() for v in self.verdicts],
            "findings": [f.render() for f in self.structural],
        }
