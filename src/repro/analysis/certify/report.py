"""Verdicts and reports of the constraint certifier.

Every target-schema constraint — each primary key, each foreign key, each
NOT NULL attribute — receives exactly one :class:`ConstraintVerdict`:

* ``PROVED`` carries a human-readable witness (the proof artifact: a
  nullability fixpoint value, a per-pair disjointness argument, a
  containment homomorphism);
* ``REFUTED`` carries a *minimal counterexample*: a valid source instance
  whose chase (checked on both engines) violates the constraint;
* ``UNKNOWN`` means the static reasoning was inconclusive — the dynamic
  validator remains the arbiter.

A :class:`CertificationReport` aggregates the verdicts together with the
program-level termination certificate and renders as text or JSON; its
:attr:`~CertificationReport.diagnostics` (REFUTED → error, UNKNOWN →
warning) feed SARIF export, ``lint --certify`` and the ``certify`` exit
gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..diagnostics import WARNING, Diagnostic, SourceSpan, diagnostic

if TYPE_CHECKING:  # pragma: no cover
    from ...model.instance import Instance

PROVED = "PROVED"
REFUTED = "REFUTED"
UNKNOWN = "UNKNOWN"

#: Constraint kind → diagnostic code for non-PROVED verdicts.
KIND_CODES = {
    "key": "CER001",
    "foreign-key": "CER002",
    "not-null": "CER003",
    "termination": "TRM001",
}


@dataclass
class ConstraintVerdict:
    """One target constraint and what the certifier concluded about it."""

    kind: str  # "key" | "foreign-key" | "not-null" | "termination"
    constraint: str  # e.g. "key of C2 (code)", "C2.person -> P2"
    relation: str
    verdict: str
    witness: str = ""  # the proof artifact (PROVED)
    reason: str = ""  # why not proved (REFUTED / UNKNOWN)
    counterexample: "Instance | None" = None  # REFUTED only
    span: SourceSpan | None = None

    @property
    def code(self) -> str:
        return KIND_CODES[self.kind]

    def diagnostic_item(self) -> Diagnostic | None:
        """The lint diagnostic for a non-PROVED verdict, else ``None``."""
        if self.verdict == PROVED:
            return None
        message = f"{self.constraint}: {self.verdict}"
        if self.reason:
            message += f" — {self.reason}"
        if self.counterexample is not None:
            message += (
                f" (counterexample source instance with "
                f"{self.counterexample.total_size()} row(s))"
            )
        return diagnostic(
            self.code,
            message,
            subject=self.relation,
            severity=WARNING if self.verdict == UNKNOWN else None,
            span=self.span,
        )

    def render(self) -> str:
        line = f"[{self.verdict}] {self.kind} {self.constraint}"
        if self.verdict == PROVED and self.witness:
            line += f"\n    witness: {self.witness}"
        elif self.reason:
            line += f"\n    reason: {self.reason}"
        if self.counterexample is not None:
            indented = "\n".join(
                "    " + text_line
                for text_line in self.counterexample.to_text().splitlines()
            )
            line += f"\n    counterexample source instance:\n{indented}"
        return line

    def to_dict(self) -> dict:
        data: dict = {
            "kind": self.kind,
            "constraint": self.constraint,
            "relation": self.relation,
            "verdict": self.verdict,
        }
        if self.witness:
            data["witness"] = self.witness
        if self.reason:
            data["reason"] = self.reason
        if self.counterexample is not None:
            data["counterexample"] = self.counterexample.to_text()
        return data


@dataclass
class CertificationReport:
    """All constraint verdicts of one generated program."""

    subject: str = ""  # scenario / problem name
    verdicts: list[ConstraintVerdict] = field(default_factory=list)
    #: the program-level termination certificate (bound, graph sizes);
    #: structured counterpart of the "termination" verdict.
    termination: "object | None" = None

    def add(self, verdict: ConstraintVerdict) -> None:
        self.verdicts.append(verdict)

    def of_kind(self, kind: str) -> list[ConstraintVerdict]:
        return [v for v in self.verdicts if v.kind == kind]

    def with_verdict(self, verdict: str) -> list[ConstraintVerdict]:
        return [v for v in self.verdicts if v.verdict == verdict]

    @property
    def proved(self) -> list[ConstraintVerdict]:
        return self.with_verdict(PROVED)

    @property
    def refuted(self) -> list[ConstraintVerdict]:
        return self.with_verdict(REFUTED)

    @property
    def unknown(self) -> list[ConstraintVerdict]:
        return self.with_verdict(UNKNOWN)

    @property
    def ok(self) -> bool:
        """True iff every constraint (termination included) is PROVED."""
        return all(v.verdict == PROVED for v in self.verdicts)

    def counts(self) -> dict[str, int]:
        return {
            PROVED: len(self.proved),
            REFUTED: len(self.refuted),
            UNKNOWN: len(self.unknown),
        }

    @property
    def diagnostics(self) -> list[Diagnostic]:
        """One finding per non-PROVED verdict, in verdict order."""
        items = (verdict.diagnostic_item() for verdict in self.verdicts)
        return [item for item in items if item is not None]

    def summary(self) -> str:
        counts = self.counts()
        return (
            f"certify: {counts[PROVED]} proved, {counts[REFUTED]} refuted, "
            f"{counts[UNKNOWN]} unknown"
        )

    def render(self) -> str:
        header = f"certification of {self.subject}" if self.subject else (
            "certification report"
        )
        lines = [header]
        for kind in ("termination", "key", "foreign-key", "not-null"):
            for verdict in self.of_kind(kind):
                lines.append(verdict.render())
        lines.append(self.summary())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "counts": self.counts(),
            "verdicts": [v.to_dict() for v in self.verdicts],
        }
