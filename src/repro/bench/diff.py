"""The perf-regression gate: compare two benchmark report files.

The ``benchmarks/`` suite writes ``BENCH_scaling.json`` (per-workload
engine timings) and ``BENCH_pipeline.json`` (per-example pipeline wall
times), each wrapped as ``{"meta": {...}, "results": {...}}`` with the
commit, python version and timestamp of the run.  :func:`diff_benchmarks`
compares the wall times of two such files scenario by scenario:

* a scenario is a **regression** when ``current > baseline * threshold``
  and the baseline is above the absolute noise floor (``min_seconds`` —
  sub-millisecond timings are timer noise, not signal);
* symmetrically, ``current < baseline / threshold`` is an **improvement**
  (reported, never failing);
* scenarios present on only one side are listed, not compared.

Timings are found structurally, so both report shapes (and the legacy
bare format without the ``meta`` wrapper) work: the JSON tree is walked
and every numeric leaf under a timing key (:data:`TIMING_KEYS`) becomes a
dotted-path entry, e.g. ``figure1-cars3.1600.batch``.  Non-timing numerics
(counters, speedups, sizes) are ignored.

``repro bench-diff baseline.json current.json`` renders the report and
exits 1 when any regression was found — the CI perf gate.  A file with no
timing leaf at all exits 2: a gate that compares nothing is an error, not
a pass.
"""

from __future__ import annotations

import json
import math
import platform
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any

#: Leaf keys whose numeric values are wall-time seconds worth comparing.
TIMING_KEYS = frozenset(
    {"wall_time", "wall_seconds", "reference", "batch", "sqlite", "seconds"}
)

#: Baselines below this many seconds are timer noise: never compared.
DEFAULT_MIN_SECONDS = 0.001

#: current/baseline above this fails the gate (2.0 = "twice as slow").
DEFAULT_THRESHOLD = 2.0


def extract_timings(data: Any, prefix: str = "") -> dict[str, float]:
    """Every timing leaf in a benchmark report, keyed by dotted path.

    The ``meta`` stamp (and a ``results`` wrapper, when present) is
    transparent: stamped and legacy bare reports yield identical keys.
    """
    if isinstance(data, dict) and set(data) == {"meta", "results"}:
        data = data["results"]
    timings: dict[str, float] = {}

    def walk(node: Any, path: str) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                child = f"{path}.{key}" if path else str(key)
                if key in TIMING_KEYS and isinstance(value, (int, float)):
                    timings[child] = float(value)
                else:
                    walk(value, child)
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{path}[{i}]")

    walk(data, prefix)
    return timings


@dataclass
class Comparison:
    """One scenario's baseline-vs-current wall time."""

    key: str
    baseline: float
    current: float

    @property
    def ratio(self) -> float:
        if self.baseline <= 0:
            return float("inf") if self.current > 0 else 1.0
        return self.current / self.baseline

    def render(self) -> str:
        return (
            f"{self.key}: {self.baseline * 1000:.2f}ms -> "
            f"{self.current * 1000:.2f}ms ({self.ratio:.2f}x)"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "baseline": self.baseline,
            "current": self.current,
            "ratio": self.ratio,
        }


@dataclass
class DiffReport:
    """The outcome of one baseline-vs-current comparison."""

    threshold: float
    min_seconds: float
    regressions: list[Comparison] = field(default_factory=list)
    improvements: list[Comparison] = field(default_factory=list)
    unchanged: list[Comparison] = field(default_factory=list)
    #: scenarios skipped because the baseline sat under the noise floor
    skipped: list[Comparison] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)  # baseline only
    added: list[str] = field(default_factory=list)  # current only

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        compared = (
            len(self.regressions) + len(self.improvements) + len(self.unchanged)
        )
        lines = [
            f"bench-diff: {compared} timing(s) compared "
            f"(threshold {self.threshold:.2f}x, noise floor "
            f"{self.min_seconds * 1000:.1f}ms)"
        ]
        for item in self.regressions:
            lines.append(f"  REGRESSION {item.render()}")
        for item in self.improvements:
            lines.append(f"  improved   {item.render()}")
        if self.skipped:
            lines.append(
                f"  {len(self.skipped)} timing(s) under the noise floor "
                "not compared"
            )
        if self.missing:
            lines.append(
                "  missing from current: " + ", ".join(sorted(self.missing))
            )
        if self.added:
            lines.append(
                "  new in current: " + ", ".join(sorted(self.added))
            )
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "threshold": self.threshold,
            "min_seconds": self.min_seconds,
            "regressions": [c.to_dict() for c in self.regressions],
            "improvements": [c.to_dict() for c in self.improvements],
            "unchanged": [c.to_dict() for c in self.unchanged],
            "skipped": [c.to_dict() for c in self.skipped],
            "missing": sorted(self.missing),
            "added": sorted(self.added),
        }


def diff_benchmarks(
    baseline: Any,
    current: Any,
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> DiffReport:
    """Compare two benchmark reports (parsed JSON, any supported shape).

    Raises ``ValueError`` unless ``threshold`` is finite and exceeds 1.0 and
    ``min_seconds`` is finite and non-negative: ``nan`` or ``inf`` would
    switch the gate off (no ratio exceeds them).
    """
    if not (math.isfinite(threshold) and threshold > 1.0):
        raise ValueError(
            f"threshold must be finite and exceed 1.0, got {threshold}"
        )
    if not (math.isfinite(min_seconds) and min_seconds >= 0.0):
        raise ValueError(
            f"min_seconds must be finite and non-negative, got {min_seconds}"
        )
    base = extract_timings(baseline)
    cur = extract_timings(current)
    report = DiffReport(threshold=threshold, min_seconds=min_seconds)
    report.missing = [key for key in base if key not in cur]
    report.added = [key for key in cur if key not in base]
    for key in sorted(base.keys() & cur.keys()):
        comparison = Comparison(key=key, baseline=base[key], current=cur[key])
        if base[key] < min_seconds:
            report.skipped.append(comparison)
        elif comparison.ratio > threshold:
            report.regressions.append(comparison)
        elif comparison.ratio < 1.0 / threshold:
            report.improvements.append(comparison)
        else:
            report.unchanged.append(comparison)
    return report


def load_bench_file(path: str) -> Any:
    with open(path) as handle:
        return json.load(handle)


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:  # pragma: no cover - git not installed
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def stamp_metadata(results: Any) -> dict[str, Any]:
    """Wrap benchmark results with the run's provenance.

    The ``meta`` block records the commit (when the run happened inside a
    git checkout), the python version and a UTC timestamp, so two
    ``bench-diff`` inputs are attributable.  :func:`extract_timings` makes
    the wrapper transparent to comparison.
    """
    meta: dict[str, Any] = {
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    commit = _git_commit()
    if commit is not None:
        meta["commit"] = commit
    return {"meta": meta, "results": results}
