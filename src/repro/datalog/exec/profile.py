"""Execution profiles: the data behind EXPLAIN ANALYZE.

A profile holds the measurements of a compiled plan: one
:class:`OperatorStats` per operator of every :class:`RulePlan` (rows in and
out, batches, wall seconds, index build-vs-probe split), rolled up into
:class:`RuleProfile`, :class:`StratumProfile` and :class:`ExecutionProfile`.
They are collected when ``analyze=True`` or an active tracer asks for it.
The evaluation loop both engines share
(:func:`repro.datalog.engine.run_strata`) fills in the rule, stratum and
run rollups; the batch runtime's :func:`~repro.datalog.exec.batch.run_plan`
fills in the operator stats by wrapping each stage of its loop in a
measuring callable.  The reference interpreter has no static operator
pipeline, so its rule profiles carry no operators.

Invariants the differential tests pin down (``tests/test_explain_analyze.py``):

* within one rule pipeline, every operator's ``rows_in`` equals the
  previous operator's ``rows_out`` (batches that empty out early contribute
  zero to both sides);
* a rule's ``rows_unique`` equals the engine's per-rule derived count
  (``EvaluationResult.rule_counts``);
* a stratum's ``rows`` equals the materialized relation's size after
  cross-rule deduplication.

Profiles are plain picklable dataclasses, so ``workers=N`` subprocesses
ship their per-slice operator stats back to the parent, which folds them
with :meth:`OperatorStats.merge` (all fields are additive).  Rendering
(:meth:`ExecutionProfile.render`) produces the annotated operator trees of
``repro run --explain-analyze`` / ``repro plan --analyze``;
:meth:`ExecutionProfile.to_dict` is the JSON form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ...obs import current_tracer
from .plan import AntiJoinOp, FilterOp, JoinOp, ProjectOp, RulePlan, ScanOp


@dataclass
class OperatorStats:
    """Measured totals for one operator of one rule pipeline."""

    kind: str  # scan | join | filter | antijoin | project
    #: the plan operator measured, or None for a per-kind rollup
    operator: Any = None
    relation: str | None = None  # the relation read (scan/join/antijoin)
    rows_in: int = 0
    rows_out: int = 0
    batches: int = 0
    seconds: float = 0.0
    #: joins only: seconds spent building (or fetching) the hash index
    build_seconds: float = 0.0
    index_hits: int = 0
    index_misses: int = 0

    @property
    def description(self) -> str:
        """The operator's static rendering (plan text), made when read:
        most measured runs never show it."""
        if self.operator is None:
            return f"all {self.kind} operators"
        return self.operator.render()

    @property
    def selectivity(self) -> float | None:
        """rows_out / rows_in, or None when nothing flowed in."""
        if self.rows_in <= 0:
            return None
        return self.rows_out / self.rows_in

    def merge(self, other: "OperatorStats") -> None:
        self.rows_in += other.rows_in
        self.rows_out += other.rows_out
        self.batches += other.batches
        self.seconds += other.seconds
        self.build_seconds += other.build_seconds
        self.index_hits += other.index_hits
        self.index_misses += other.index_misses

    def annotate(self) -> str:
        """The measured annotation appended to the static operator text."""
        parts = [f"rows_in={self.rows_in}", f"rows_out={self.rows_out}"]
        if self.kind == "scan":
            parts.append(f"batches={self.batches}")
        selectivity = self.selectivity
        if self.kind in ("filter", "antijoin") and selectivity is not None:
            parts.append(f"sel={selectivity:.2f}")
        if self.kind == "join":
            source = "hit" if self.index_hits else "built"
            parts.append(
                f"index={source} build={self.build_seconds * 1000:.2f}ms"
            )
        parts.append(f"{self.seconds * 1000:.2f}ms")
        return "  ".join(parts)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "kind": self.kind,
            "operator": self.description,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "batches": self.batches,
            "seconds": self.seconds,
        }
        if self.relation is not None:
            data["relation"] = self.relation
        if self.kind == "join":
            data["build_seconds"] = self.build_seconds
            data["index_hits"] = self.index_hits
            data["index_misses"] = self.index_misses
        selectivity = self.selectivity
        if selectivity is not None:
            data["selectivity"] = selectivity
        return data


_KINDS = {
    ScanOp: "scan", JoinOp: "join", FilterOp: "filter",
    AntiJoinOp: "antijoin", ProjectOp: "project",
}


def operators_for_plan(plan: RulePlan) -> list[OperatorStats]:
    """Fresh, zeroed operator stats mirroring one compiled rule plan."""
    return [
        OperatorStats(
            kind=_KINDS[type(op)], operator=op, relation=getattr(op, "relation", None)
        )
        for op in plan.operators()
    ]


@dataclass
class RuleProfile:
    """One rule's measured pipeline: operator stats plus derived-row totals."""

    relation: str  # the head relation
    rule_index: int  # index into ``program.rules``
    n_slots: int = 0
    operators: list[OperatorStats] = field(default_factory=list)
    #: distinct head rows after the rule's own deduplication
    rows_unique: int = 0
    seconds: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "relation": self.relation,
            "rule": self.rule_index,
            "slots": self.n_slots,
            "rows_unique": self.rows_unique,
            "seconds": self.seconds,
            "operators": [op.to_dict() for op in self.operators],
        }


@dataclass
class StratumProfile:
    """One stratum: its rules plus the post-deduplication relation size."""

    stratum: int
    relation: str
    rules: list[RuleProfile] = field(default_factory=list)
    rows: int = 0  # materialized rows after cross-rule deduplication
    seconds: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "stratum": self.stratum,
            "relation": self.relation,
            "rows": self.rows,
            "seconds": self.seconds,
            "rules": [rule.to_dict() for rule in self.rules],
        }


@dataclass
class ExecutionProfile:
    """The whole run: per-stratum profiles plus run-level totals."""

    engine: str = "batch"
    workers: int | None = None
    source_rows: int = 0
    target_rows: int = 0
    seconds: float = 0.0
    strata: list[StratumProfile] = field(default_factory=list)

    def rule_profiles(self) -> list[RuleProfile]:
        return [rule for stratum in self.strata for rule in stratum.rules]

    def operator_totals(self) -> dict[str, OperatorStats]:
        """Per-kind rollups over every rule (for the metrics exporters)."""
        totals: dict[str, OperatorStats] = {}
        for rule in self.rule_profiles():
            for op in rule.operators:
                rollup = totals.get(op.kind)
                if rollup is None:
                    totals[op.kind] = rollup = OperatorStats(kind=op.kind)
                rollup.merge(op)
        return totals

    def render(self) -> str:
        """The annotated operator trees (EXPLAIN ANALYZE text output)."""
        header = f"explain analyze ({self.engine} engine"
        if self.workers:
            header += f", workers={self.workers}"
        header += (
            f"): {self.source_rows} source rows -> {self.target_rows} "
            f"target rows in {self.seconds * 1000:.2f} ms"
        )
        lines = [header]
        for stratum in self.strata:
            lines.append(
                f"stratum {stratum.stratum}: {stratum.relation}  "
                f"(rows={stratum.rows}, {stratum.seconds * 1000:.2f} ms)"
            )
            for rule in stratum.rules:
                lines.append(
                    f" rule {rule.rule_index} ({rule.n_slots} slots, "
                    f"unique={rule.rows_unique}, {rule.seconds * 1000:.2f} ms):"
                )
                if not rule.operators:
                    lines.append("  (no operator pipeline: reference engine)")
                for op in rule.operators:
                    lines.append(f"  {op.description}")
                    lines.append(f"    -> {op.annotate()}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "engine": self.engine,
            "source_rows": self.source_rows,
            "target_rows": self.target_rows,
            "seconds": self.seconds,
            "strata": [stratum.to_dict() for stratum in self.strata],
        }
        if self.workers is not None:
            data["workers"] = self.workers
        return data


def emit_profile_metrics(profile: ExecutionProfile) -> None:
    """Record a finished profile into the active tracer's metrics.

    The evaluation loop calls this once per evaluation, for both engines,
    so the metric families are engine-comparable: ``eval.rows{kind,engine}``,
    ``eval.run.seconds``, ``eval.rule.seconds{relation}``, and — batch
    engine only, since only it has an operator pipeline —
    ``exec.operator.rows_in/rows_out/seconds{op}``, ``exec.batches`` and
    ``exec.index.lookups{result}``.  (``eval.strata`` is counted per
    stratum while the loop runs.)  A no-op when tracing is off.
    """
    tracer = current_tracer()
    if not tracer.enabled:
        return
    # One tracer.record call: the label keys below are in canonical form.
    engine = ("engine", str(profile.engine))
    counts: list[tuple[str, tuple, int]] = [
        ("eval.rows", (engine, ("kind", "source")), profile.source_rows),
        ("eval.rows", (engine, ("kind", "target")), profile.target_rows),
    ]
    observations = [("eval.run.seconds", (engine,), profile.seconds)]
    rules = [rule for stratum in profile.strata for rule in stratum.rules]
    if rules:
        counts.append(("eval.rules", (engine,), len(rules)))
        derived = sum(rule.rows_unique for rule in rules)
        counts.append(("eval.rows", (engine, ("kind", "derived")), derived))
    for rule in rules:
        key = (engine, ("relation", str(rule.relation)))
        observations.append(("eval.rule.seconds", key, rule.seconds))
    for kind, totals in sorted(profile.operator_totals().items()):
        key = (engine, ("op", kind))
        counts.append(("exec.operator.rows_in", key, totals.rows_in))
        counts.append(("exec.operator.rows_out", key, totals.rows_out))
        observations.append(("exec.operator.seconds", key, totals.seconds))
        if kind == "scan":
            counts.append(("exec.batches", (engine,), totals.batches))
        elif kind == "join":
            lookups = totals.index_hits, totals.index_misses
            for result, value in zip(("hit", "miss"), lookups):
                counts.append(("exec.index.lookups", (engine, ("result", result)), value))
    tracer.record(counts, observations)
