"""The constraint certifier: static proofs that target constraints hold.

:func:`certify_program` runs four passes over a generated Datalog program
and answers, for *every* key, foreign key and NOT NULL constraint of the
target schema, one of

* **PROVED** — with a witness (the proof artifact);
* **REFUTED** — with a minimal, valid counterexample source instance whose
  chase violates the constraint on *both* evaluation engines;
* **UNKNOWN** — the static reasoning was inconclusive.

The passes:

1. :mod:`.termination` — program-level weak acyclicity and the chase-depth
   bound (TRM001).  A bounded certificate is the precondition of the other
   passes (their canonical-instance arguments unfold the chase finitely);
   when it fails every remaining constraint is reported UNKNOWN.
2. :mod:`.keys` — egd-style key proofs over the PR 3 containment machinery
   and the PR 4 key-origin functionality records (CER001).
3. :mod:`.fkeys` — referential integrity as CQ containment of the
   FK-projection query in the referenced-key query (CER002).
4. :mod:`.notnull` — a thin client of the nullability fixpoint (CER003).

This turns the paper's §3–§4 guarantee — the generated mapping produces
only valid target instances — into a machine-checked theorem per scenario;
``repro certify --all-scenarios`` re-proves it for the bundled suite.
"""

from __future__ import annotations

from ...datalog.program import DatalogProgram
from ...obs import count, span
from .report import (
    PROVED,
    REFUTED,
    UNKNOWN,
    CertificationReport,
    ConstraintVerdict,
)
from .termination import TerminationCertificate, certify_termination

__all__ = [
    "PROVED",
    "REFUTED",
    "UNKNOWN",
    "CertificationReport",
    "ConstraintVerdict",
    "TerminationCertificate",
    "certify_program",
    "certify_termination",
]


def certify_program(
    program: DatalogProgram, subject: str = ""
) -> CertificationReport:
    """Certify every target constraint of one generated program."""
    from .fkeys import certify_foreign_keys
    from .keys import certify_keys
    from .notnull import certify_not_null

    with span("certify", subject=subject or "<program>"):
        report = CertificationReport(subject=subject)
        certificate = certify_termination(program)
        report.termination = certificate
        report.add(_termination_verdict(certificate))
        if certificate.bounded:
            report.verdicts.extend(certify_keys(program))
            report.verdicts.extend(certify_foreign_keys(program))
            report.verdicts.extend(certify_not_null(program))
        else:
            report.verdicts.extend(_all_unknown(program))
        count("certify.runs", 1, ok=str(report.ok).lower())
    return report


def _termination_verdict(
    certificate: TerminationCertificate,
) -> ConstraintVerdict:
    if certificate.bounded:
        return ConstraintVerdict(
            kind="termination",
            constraint="chase termination of the generated program",
            relation="<program>",
            verdict=PROVED,
            witness=certificate.witness(),
        )
    # Weak acyclicity is sufficient, not necessary, for termination — a
    # special cycle leaves termination open, it does not disprove it.
    return ConstraintVerdict(
        kind="termination",
        constraint="chase termination of the generated program",
        relation="<program>",
        verdict=UNKNOWN,
        reason=certificate.witness(),
    )


def _all_unknown(program: DatalogProgram) -> list[ConstraintVerdict]:
    """Every constraint UNKNOWN: the termination precondition failed."""
    schema = program.target_schema
    if schema is None:
        return []
    reason = (
        "termination precondition failed: no chase-depth bound, so the "
        "canonical-instance arguments of the key/FK/NOT NULL passes do "
        "not apply"
    )
    verdicts = []
    for relation in schema:
        verdicts.append(
            ConstraintVerdict(
                kind="key",
                constraint=f"key of {relation.name} ({', '.join(relation.key)})",
                relation=relation.name,
                verdict=UNKNOWN,
                reason=reason,
                span=relation.span,
            )
        )
        for attribute in relation.attributes:
            if not attribute.nullable:
                verdicts.append(
                    ConstraintVerdict(
                        kind="not-null",
                        constraint=f"NOT NULL {relation.name}.{attribute.name}",
                        relation=relation.name,
                        verdict=UNKNOWN,
                        reason=reason,
                        span=attribute.span or relation.span,
                    )
                )
    for fk in schema.foreign_keys:
        verdicts.append(
            ConstraintVerdict(
                kind="foreign-key",
                constraint=f"{fk.relation}.{fk.attribute} -> {fk.referenced}",
                relation=fk.relation,
                verdict=UNKNOWN,
                reason=reason,
                span=fk.span,
            )
        )
    return verdicts
