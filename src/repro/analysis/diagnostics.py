"""The diagnostics framework: codes, severities, source spans, reports.

Every well-formedness condition the paper states — weak acyclicity of the
foreign keys (§3.1), coverage of correspondences (§5.2–5.3), functionality
and key-conflict freedom of the unitary mappings (§6), safety and
non-recursion of the emitted Datalog (§6) — is checked somewhere in this
code base.  This module gives those checks a shared vocabulary: a
:class:`Diagnostic` carries a stable code (``SCH010``, ``MAP002``, ...), a
severity, a human message, a paper-section pointer and, when the subject
came from the text DSL, a :class:`SourceSpan`.  An :class:`AnalysisReport`
aggregates diagnostics and renders them for the CLI, and
:func:`repro.analysis.sarif.to_sarif` serializes a report as SARIF 2.1.0.

The full code reference lives in ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: Severities from most to least severe (SARIF levels use the same names).
SEVERITIES = (ERROR, WARNING, INFO)
_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


def severity_at_least(severity: str, threshold: str) -> bool:
    """True iff ``severity`` is at least as severe as ``threshold``."""
    return _SEVERITY_RANK[severity] <= _SEVERITY_RANK[threshold]


@dataclass(frozen=True)
class SourceSpan:
    """A location in a DSL source file (1-based line and column)."""

    line: int
    column: int | None = None
    end_line: int | None = None
    end_column: int | None = None
    file: str | None = None

    def __str__(self) -> str:
        where = self.file or "<input>"
        text = f"{where}:{self.line}"
        if self.column is not None:
            text += f":{self.column}"
        return text


@dataclass(frozen=True)
class CodeInfo:
    """The registry entry for one stable diagnostic code."""

    code: str
    title: str
    severity: str
    section: str  # the paper section the condition comes from
    help: str = ""


#: The stable diagnostic codes of the static analyzer.  ``SCH*`` are schema
#: conditions (§3), ``MAP*`` mapping-level conditions (§5.3 and §6), ``DLG*``
#: conditions on generated Datalog programs (§6), ``INS*`` instance-level
#: constraint violations (§3.1) and ``PRS*`` DSL parse problems.
CODES: dict[str, CodeInfo] = {
    info.code: info
    for info in (
        CodeInfo("SCH001", "dangling foreign key", ERROR, "§3.1",
                 "A foreign key names an unknown relation or attribute."),
        CodeInfo("SCH002", "foreign key / key arity mismatch", ERROR, "§3.1",
                 "A foreign key references a relation whose key is composite; "
                 "the paper restricts foreign keys to reference simple keys."),
        CodeInfo("SCH003", "duplicate foreign key", ERROR, "§3.1",
                 "Two foreign keys are declared on the same attribute."),
        CodeInfo("SCH010", "weak-acyclicity violation", ERROR, "§3.1",
                 "The foreign keys do not form a weakly acyclic set: a cycle "
                 "of the dependency graph goes through a special edge, so the "
                 "modified chase is not guaranteed to terminate."),
        CodeInfo("MAP001", "uncovered mandatory target attribute", WARNING, "§5.3",
                 "No correspondence reaches a non-nullable target attribute; "
                 "every generated mapping must invent (Skolemize) its value."),
        CodeInfo("MAP002", "unresolved hard key conflict", ERROR, "§6",
                 "Two unitary mappings copy distinct source values into the "
                 "same target key (Algorithm 4, step 3: signal an error)."),
        CodeInfo("MAP003", "non-functional unitary mapping", ERROR, "§6",
                 "A unitary mapping can, on its own, produce two tuples with "
                 "the same key but different values (Algorithm 4, step 2)."),
        CodeInfo("MAP004", "invalid correspondence", ERROR, "§4",
                 "A correspondence endpoint names an unknown relation or "
                 "attribute, or traverses a non-foreign-key step."),
        CodeInfo("MAP005", "schema-mapping generation failed", ERROR, "§5",
                 "Algorithm 1/3 could not produce a schema mapping."),
        CodeInfo("DLG001", "unsafe rule", ERROR, "§6",
                 "A head, negated or condition variable is not bound by a "
                 "positive body atom."),
        CodeInfo("DLG002", "recursion cycle", ERROR, "§6",
                 "The program is recursive; query generation must emit "
                 "non-recursive Datalog."),
        CodeInfo("DLG003", "dead intermediate relation", WARNING, "§6",
                 "A tmp relation is defined but never read by any rule."),
        CodeInfo("DLG004", "inconsistent Skolem functor arity", ERROR, "§6",
                 "The same Skolem functor is applied to argument lists of "
                 "different lengths; invented values would collide "
                 "unpredictably."),
        CodeInfo("DLG010", "null flowing into non-nullable target attribute",
                 ERROR, "§6",
                 "A (possibly) null value reaches a mandatory target column; "
                 "the transformation can emit constraint-violating tuples."),
        CodeInfo("INS001", "null in mandatory attribute", ERROR, "§3.1",
                 "An instance tuple holds null in a non-nullable attribute."),
        CodeInfo("INS002", "key violation", ERROR, "§3.1",
                 "Two instance tuples share the same primary-key value."),
        CodeInfo("INS003", "foreign-key violation", ERROR, "§3.1",
                 "A non-null foreign-key value has no matching referenced "
                 "key."),
        CodeInfo("PRS001", "parse error", ERROR, "§4",
                 "The DSL input could not be parsed."),
        CodeInfo("SEM001", "semantically subsumed rule", WARNING, "§6",
                 "A generated Datalog rule is provably contained in another "
                 "rule for the same relation (chase witness attached); "
                 "removing it cannot change the program's output."),
        CodeInfo("SEM002", "semantically subsumed unitary mapping", WARNING,
                 "§5",
                 "A unitary mapping's query is provably contained in another "
                 "mapping's query — the semantic generalization of the "
                 "paper's subsumption / implication pruning."),
        CodeInfo("SEM003", "optimizer changed program semantics", ERROR, "§6",
                 "A rule dropped by query optimization has no containment "
                 "certificate, or the optimized program disagrees with the "
                 "unoptimized one on a canonical instance."),
        CodeInfo("FLW001", "dead correspondence: only null can reach the target",
                 WARNING, "§5.3",
                 "The provenance fixpoint proves that only the unlabeled "
                 "null value can reach a correspondence-targeted position; "
                 "the correspondence never delivers a source value."),
        CodeInfo("FLW002", "mandatory attribute fed only by invented values",
                 WARNING, "§5.3",
                 "Every value the generated rules place in a non-nullable, "
                 "non-key target attribute is a Skolem (labeled-null) value; "
                 "no source value ever reaches the column.  Inventing keys "
                 "is §5.1's intended mechanism, so key attributes are "
                 "exempt."),
        CodeInfo("FLW003", "functionality not statically confirmed", WARNING,
                 "§6",
                 "The static FD closure could not prove that a target rule's "
                 "non-key attributes are functionally determined by its key "
                 "(Algorithm 4, step 2).  The dynamic check in "
                 "repro.core.functionality decides exactly; this warning "
                 "marks rules whose functionality rests on it."),
        CodeInfo("SEM004", "resolution certificate failure", ERROR, "§6",
                 "Key-conflict resolution produced a program that violates a "
                 "target key on a canonical instance, or rewrote a mapping "
                 "beyond negation-disabling and functor renaming."),
        CodeInfo("CER001", "target key not certified", ERROR, "§3.1",
                 "The static certifier could not prove that the generated "
                 "program preserves a target primary key: either a concrete "
                 "counterexample source instance exists (REFUTED, error) or "
                 "the egd-style reasoning was inconclusive (UNKNOWN, "
                 "warning)."),
        CodeInfo("CER002", "target foreign key not certified", ERROR, "§3.1",
                 "The FK-projection query is not provably contained in the "
                 "referenced-key query: the program may emit dangling "
                 "references (REFUTED with counterexample, or UNKNOWN)."),
        CodeInfo("CER003", "target NOT NULL not certified", ERROR, "§3.1",
                 "The nullability fixpoint cannot exclude null reaching a "
                 "mandatory target attribute (REFUTED with counterexample, "
                 "or UNKNOWN)."),
        CodeInfo("TRM001", "program chase not provably terminating", ERROR,
                 "§3.1",
                 "The generated program's Skolem-position dependency graph "
                 "has a cycle through a special edge, so no chase-depth "
                 "bound exists and the constraint certifier cannot run its "
                 "other passes."),
        CodeInfo("PLN001", "cross-product join in compiled plan", WARNING,
                 "§6",
                 "A join step of a compiled rule pipeline has no bound probe "
                 "positions: it pairs every accumulated row with every row "
                 "of the joined relation.  The cardinality bound picks up a "
                 "full size factor; a correspondence path (foreign-key walk) "
                 "connecting the atoms would avoid it."),
        CodeInfo("PLN002", "super-linear rule cardinality bound", WARNING,
                 "§6",
                 "The symbolic row bound of a generated rule has total "
                 "degree two or more in the source relation sizes, so its "
                 "output can grow super-linearly.  Rules emitted from the "
                 "paper's key-preserving correspondences are linear; a "
                 "quadratic bound signals a join the key facts cannot "
                 "tame."),
        CodeInfo("PLN003", "unbounded Skolem fan-out", ERROR, "§3.1",
                 "No chase-depth bound exists for the program (TRM001), so "
                 "no finite cardinality bound exists for any derived "
                 "relation: invented values can feed back into rule bodies "
                 "indefinitely."),
        CodeInfo("PLN004", "join order dominated by cost-advised order",
                 INFO, "§6",
                 "The statistics-free greedy join order of a rule is "
                 "strictly more expensive, under the symbolic cost model, "
                 "than the order the cost advisor found; the planner uses "
                 "the advised order on the static path."),
        CodeInfo("SQL001", "SQL round-trip not proved", ERROR, "§6",
                 "An emitted SQL statement, lowered back into a conjunctive "
                 "query, could not be proved equivalent to the Datalog rule "
                 "it was compiled from: the translation validator has no "
                 "certificate that the SQL means what the rule means."),
        CodeInfo("SQL002", "dialect-unsafe SQL construct", ERROR, "§6",
                 "A statement uses a construct whose meaning is not portable "
                 "across the supported dialects — e.g. a raw IS comparison "
                 "between computed expressions, which is null-safe equality "
                 "on SQLite but a syntax error elsewhere.  Use the "
                 "dialect-parameterized AST nodes (NullSafeEq/NullSafeNe) "
                 "instead."),
        CodeInfo("SQL003", "ambiguous Skolem string encoding", ERROR, "§6",
                 "An expression encodes an invented value without "
                 "length-prefixed arguments, so distinct labeled nulls can "
                 "collide (f('x,y') vs f('x','y')) and the target instance "
                 "silently identifies values the chase keeps apart."),
        CodeInfo("SQL004", "INSERT without duplicate elimination", WARNING,
                 "§6",
                 "An INSERT statement has neither SELECT DISTINCT nor an "
                 "EXCEPT guard against rows already present; the SQL "
                 "pipeline can produce bag semantics where the Datalog "
                 "engine produces sets."),
        CodeInfo("SQL005", "nondeterministic statement ordering", ERROR, "§6",
                 "A pipeline statement reads a relation that a later "
                 "statement writes: the pipeline's result depends on "
                 "statement order beyond stratification, so it is not a "
                 "faithful compilation of the stratified program."),
    )
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyzer."""

    code: str
    message: str
    severity: str
    span: SourceSpan | None = None
    subject: str = ""  # e.g. "O3.person", "rule C2(...) <- ...", "figure-1"
    section: str = ""
    #: For SEM* findings: the rendered containment witness (homomorphism).
    witness: str = ""

    @property
    def title(self) -> str:
        info = CODES.get(self.code)
        return info.title if info else self.code

    def render(self) -> str:
        """One text line: ``file:line: CODE severity: message [§n]``."""
        prefix = f"{self.span}: " if self.span else ""
        section = f" [{self.section}]" if self.section else ""
        witness = f" witness {self.witness}" if self.witness else ""
        return (
            f"{prefix}{self.code} {self.severity}: {self.message}{witness}{section}"
        )

    def __str__(self) -> str:
        return self.render()


def diagnostic(
    code: str,
    message: str,
    *,
    span: SourceSpan | None = None,
    subject: str = "",
    severity: str | None = None,
    witness: str = "",
) -> Diagnostic:
    """Build a :class:`Diagnostic`, defaulting severity/section from ``CODES``.

    Per-code counters are recorded through the active :mod:`repro.obs`
    tracer (``lint.<code>``), so lint activity shows up in run reports.
    """
    from ..obs import count

    info = CODES.get(code)
    if info is None:
        raise KeyError(f"unknown diagnostic code {code!r}")
    count(f"lint.{code}")
    return Diagnostic(
        code=code,
        message=message,
        severity=severity or info.severity,
        span=span,
        subject=subject,
        section=info.section,
        witness=witness,
    )


@dataclass
class AnalysisReport:
    """The outcome of one analysis run: an ordered list of diagnostics."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    subject: str = ""  # what was analyzed (file path, scenario name, ...)

    def add(self, item: Diagnostic) -> None:
        self.diagnostics.append(item)

    def extend(self, items: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(items)

    def merged(self, *others: "AnalysisReport") -> "AnalysisReport":
        combined = AnalysisReport(list(self.diagnostics), subject=self.subject)
        for other in others:
            combined.diagnostics.extend(other.diagnostics)
        return combined

    # -- queries ---------------------------------------------------------

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def ok(self) -> bool:
        """True iff the report has no errors (warnings/infos allowed)."""
        return not self.errors

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    # -- rendering -------------------------------------------------------

    def summary(self) -> str:
        if not self.diagnostics:
            return "clean: no diagnostics"
        parts = [
            f"{len(self.errors)} error(s)",
            f"{len(self.warnings)} warning(s)",
        ]
        infos = len(self.diagnostics) - len(self.errors) - len(self.warnings)
        if infos:
            parts.append(f"{infos} info(s)")
        return ", ".join(parts)

    def render(self) -> str:
        """The full text report, one line per diagnostic plus a summary."""
        lines = [d.render() for d in self.diagnostics]
        lines.append(self.summary())
        return "\n".join(lines)
