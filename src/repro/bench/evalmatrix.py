"""Results-matrix eval runner over generated scenarios.

Sweeps a seed range through the full verification stack and records one
row per scenario: engine agreement (reference vs batch vs SQLite, DuckDB
when importable), certify verdict counts, sqlcheck statement verdicts,
cost boundedness, flow health, per-stage timings — and the seed, which with
the generator config fully reproduces the scenario (``repro eval --seed N
--replay``).

Rows separate *deterministic* content from timings: everything outside a
row's ``timings`` block is a pure function of ``(seed, config)``, asserted
across processes by the determinism suite.  The matrix serializes to JSON
(one document, with :func:`repro.bench.diff.stamp_metadata` provenance) and
JSONL (one row per line, for streaming consumers), and :meth:`EvalMatrix.gate`
is the CI predicate: on weakly acyclic scenarios the stack must produce
full engine agreement and no definite negative verdicts anywhere.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Iterable

from ..analysis.analyzer import quick_lint
from ..analysis.certify.report import PROVED, REFUTED
from ..core.pipeline import MappingSystem
from ..errors import ReproError
from ..model.diff import diff_up_to_invented
from ..model.validation import validate_instance
from ..scenarios.generator import DEFAULT, GeneratorConfig, generate_scenario
from ..sqlgen.executor import duckdb_available, run_on_duckdb, run_on_sqlite
from .diff import stamp_metadata

#: engine legs a row can carry; DuckDB joins when importable
ENGINE_LEGS = ("reference", "batch", "sqlite", "duckdb")


@dataclass
class EvalRow:
    """One scenario's trip through the verification stack."""

    scenario: str
    seed: int
    #: "ok" | "lint-error" (expected for cyclic configs) | "error"
    status: str
    error: str | None = None
    lint_codes: list[str] = field(default_factory=list)
    source_rows: int | None = None
    target_rows: int | None = None
    #: True iff every executed engine matched the reference output
    agreement: bool | None = None
    #: engine legs that diverged from the reference
    disagreements: list[str] = field(default_factory=list)
    #: engine legs that actually ran
    engines: list[str] = field(default_factory=list)
    certify: dict[str, int] | None = None
    refuted: int = 0
    #: REFUTED verdicts missing their confirmed counterexample (must be 0)
    unconfirmed_refuted: int = 0
    termination: str | None = None
    sqlcheck: dict[str, int] | None = None
    sql_ok: bool | None = None
    cost_bounded: bool | None = None
    cost_max_degree: int | None = None
    flow_ok: bool | None = None
    #: wall seconds: one entry per engine leg plus per-stage entries and a
    #: "seconds" total — everything non-deterministic lives here
    timings: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "status": self.status,
            "error": self.error,
            "lint_codes": self.lint_codes,
            "source_rows": self.source_rows,
            "target_rows": self.target_rows,
            "agreement": self.agreement,
            "disagreements": self.disagreements,
            "engines": self.engines,
            "certify": self.certify,
            "refuted": self.refuted,
            "unconfirmed_refuted": self.unconfirmed_refuted,
            "termination": self.termination,
            "sqlcheck": self.sqlcheck,
            "sql_ok": self.sql_ok,
            "cost_bounded": self.cost_bounded,
            "cost_max_degree": self.cost_max_degree,
            "flow_ok": self.flow_ok,
            "timings": dict(self.timings),
        }

    def stable_dict(self) -> dict:
        """The deterministic part: :meth:`to_dict` without timings."""
        out = self.to_dict()
        del out["timings"]
        return out


def eval_scenario(
    seed: int,
    config: GeneratorConfig = DEFAULT,
    duckdb: bool | None = None,
) -> EvalRow:
    """Run one generated scenario through the whole stack.

    ``duckdb=None`` means "when importable"; True insists (raising if the
    package is missing); False skips the leg.
    """
    if duckdb is None:
        duckdb = duckdb_available()
    started = time.perf_counter()
    try:
        scenario = generate_scenario(seed, config)
    except Exception as error:  # noqa: BLE001 - recorded, not propagated
        return EvalRow(
            scenario=f"gen-{seed}",
            seed=seed,
            status="error",
            error=f"generation: {error}",
            timings={"seconds": time.perf_counter() - started},
        )
    row = EvalRow(scenario=scenario.name, seed=seed, status="ok")
    row.source_rows = scenario.source_instance.total_size()
    report = quick_lint(scenario.problem)
    row.lint_codes = sorted({d.code for d in report.errors})
    if report.errors:
        row.status = "lint-error"
        row.timings["seconds"] = time.perf_counter() - started
        return row
    if not validate_instance(scenario.source_instance).ok:
        row.status = "error"
        row.error = "generated source instance is invalid"
        row.timings["seconds"] = time.perf_counter() - started
        return row
    try:
        system = MappingSystem(scenario.problem)
        stage = time.perf_counter()
        program = system.compile()
        row.timings["compile"] = time.perf_counter() - stage

        source = scenario.source_instance
        outputs = {}
        stage = time.perf_counter()
        outputs["reference"] = system.run(source, engine="reference").target
        row.timings["reference"] = time.perf_counter() - stage
        stage = time.perf_counter()
        outputs["batch"] = system.run(source, engine="batch").target
        row.timings["batch"] = time.perf_counter() - stage
        stage = time.perf_counter()
        outputs["sqlite"] = run_on_sqlite(program, source)
        row.timings["sqlite"] = time.perf_counter() - stage
        if duckdb:
            stage = time.perf_counter()
            outputs["duckdb"] = run_on_duckdb(program, source)
            row.timings["duckdb"] = time.perf_counter() - stage
        row.engines = list(outputs)
        reference = outputs["reference"]
        row.target_rows = reference.total_size()
        row.disagreements = [
            leg
            for leg, target in outputs.items()
            if leg != "reference" and not diff_up_to_invented(reference, target).empty
        ]
        row.agreement = not row.disagreements

        stage = time.perf_counter()
        certification = system.certify()
        row.timings["certify"] = time.perf_counter() - stage
        row.certify = certification.counts()
        refuted = certification.refuted
        row.refuted = len(refuted)
        row.unconfirmed_refuted = sum(
            1 for v in refuted if v.counterexample is None
        )
        termination = certification.of_kind("termination")
        row.termination = termination[0].verdict if termination else None

        stage = time.perf_counter()
        sql = system.sql_report()
        row.timings["sqlcheck"] = time.perf_counter() - stage
        row.sqlcheck = sql.counts()
        row.sql_ok = sql.ok

        # Flow before cost: cost_report() consumes the flow report, so each
        # timer covers exactly one pass with its dependencies cached.
        stage = time.perf_counter()
        system.flow_report()
        row.flow_ok = True
        row.timings["flow"] = time.perf_counter() - stage

        stage = time.perf_counter()
        cost = system.cost_report()
        row.timings["cost"] = time.perf_counter() - stage
        row.cost_bounded = cost.bounded
        row.cost_max_degree = cost.max_degree()
    except ReproError as error:
        row.status = "error"
        row.error = f"{type(error).__name__}: {error}"
    row.timings["seconds"] = time.perf_counter() - started
    return row


@dataclass
class EvalMatrix:
    """All rows of one sweep, plus the config that reproduces them."""

    rows: list[EvalRow]
    config: GeneratorConfig = DEFAULT
    duckdb: bool = False

    def summary(self) -> dict:
        rows = self.rows
        evaluated = [r for r in rows if r.agreement is not None]
        certify_totals: dict[str, int] = {}
        sql_totals: dict[str, int] = {}
        for r in rows:
            for verdict, n in (r.certify or {}).items():
                certify_totals[verdict] = certify_totals.get(verdict, 0) + n
            for verdict, n in (r.sqlcheck or {}).items():
                sql_totals[verdict] = sql_totals.get(verdict, 0) + n
        return {
            "scenarios": len(rows),
            "ok": sum(1 for r in rows if r.status == "ok"),
            "lint_error": sum(1 for r in rows if r.status == "lint-error"),
            "error": sum(1 for r in rows if r.status == "error"),
            "evaluated": len(evaluated),
            "agreeing": sum(1 for r in evaluated if r.agreement),
            "duckdb_rows": sum(1 for r in rows if "duckdb" in r.engines),
            "certify": certify_totals,
            "sqlcheck": sql_totals,
            "refuted": sum(r.refuted for r in rows),
            "unconfirmed_refuted": sum(r.unconfirmed_refuted for r in rows),
            "cost_unbounded": sum(1 for r in rows if r.cost_bounded is False),
            "flow_errors": sum(1 for r in rows if r.flow_ok is False),
            "seconds": round(
                sum(r.timings.get("seconds", 0.0) for r in rows), 6
            ),
        }

    def gate(self, fail_on: str = "disagreement") -> list[str]:
        """The CI predicate: reasons this matrix should fail the build.

        ``fail_on="disagreement"`` (the default) fails on any divergence or
        definite negative verdict; ``"error"`` additionally fails rows that
        did not complete; ``"never"`` always passes (reporting-only runs).
        """
        if fail_on == "never":
            return []
        failures = []
        for row in self.rows:
            where = f"seed {row.seed}"
            if row.agreement is False:
                failures.append(
                    f"{where}: engines disagree ({', '.join(row.disagreements)})"
                )
            if row.refuted:
                failures.append(f"{where}: {row.refuted} certify REFUTED verdict(s)")
            if row.unconfirmed_refuted:
                failures.append(
                    f"{where}: {row.unconfirmed_refuted} REFUTED without counterexample"
                )
            if row.sql_ok is False:
                failures.append(f"{where}: sqlcheck statements not all PROVED")
            if row.cost_bounded is False:
                failures.append(f"{where}: cost bounds unbounded")
            if row.flow_ok is False:
                failures.append(f"{where}: flow analysis diverged")
            if fail_on == "error" and row.status != "ok":
                failures.append(f"{where}: status {row.status} ({row.error})")
        return failures

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "duckdb": self.duckdb,
            "summary": self.summary(),
            "rows": [row.to_dict() for row in self.rows],
        }

    def to_json(self) -> str:
        payload = stamp_metadata(self.to_dict())
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(row.to_dict(), sort_keys=True) + "\n" for row in self.rows
        )

    def render(self) -> str:
        """A compact per-scenario table plus the summary line."""
        header = (
            f"{'seed':>6}  {'status':<10}  {'agree':<6}  {'certify P/R/U':<14}  "
            f"{'sql P/U':<8}  {'deg':>3}  {'rows':>5}  {'secs':>7}"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            certify = row.certify or {}
            sql = row.sqlcheck or {}
            agree = {True: "yes", False: "NO", None: "-"}[row.agreement]
            verdicts = (
                f"{certify.get(PROVED, 0)}/{certify.get(REFUTED, 0)}"
                f"/{certify.get('UNKNOWN', 0)}"
            )
            statements = f"{sql.get(PROVED, 0)}/{sql.get('UNKNOWN', 0)}"
            lines.append(
                f"{row.seed:>6}  {row.status:<10}  {agree:<6}  {verdicts:<14}  "
                f"{statements:<8}  "
                f"{'-' if row.cost_max_degree is None else row.cost_max_degree:>3}  "
                f"{'-' if row.target_rows is None else row.target_rows:>5}  "
                f"{row.timings.get('seconds', 0.0):>7.3f}"
            )
        summary = self.summary()
        lines.append("")
        lines.append(
            f"{summary['scenarios']} scenario(s): {summary['ok']} ok, "
            f"{summary['lint_error']} lint-error, {summary['error']} error; "
            f"{summary['agreeing']}/{summary['evaluated']} agree"
            + (f" ({summary['duckdb_rows']} with duckdb)" if self.duckdb else "")
            + f"; certify {summary['certify']}; sqlcheck {summary['sqlcheck']}"
        )
        return "\n".join(lines)


def run_eval(
    seeds: Iterable[int],
    config: GeneratorConfig = DEFAULT,
    duckdb: bool | None = None,
) -> EvalMatrix:
    """Evaluate every seed; see :func:`eval_scenario` for the row contract."""
    if duckdb is None:
        duckdb = duckdb_available()
    rows = [eval_scenario(seed, config, duckdb=duckdb) for seed in seeds]
    return EvalMatrix(rows=rows, config=config, duckdb=duckdb)


def parse_seed_range(text: str) -> list[int]:
    """``"0:100"`` (half-open), ``"7"``, or ``"3,5,9"`` → seed list."""
    text = text.strip()
    if ":" in text:
        lo, _, hi = text.partition(":")
        start, stop = int(lo), int(hi)
        if stop <= start:
            raise ValueError(f"empty seed range {text!r}")
        return list(range(start, stop))
    if "," in text:
        return [int(part) for part in text.split(",") if part.strip()]
    return [int(text)]
