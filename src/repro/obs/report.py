"""Run reports: the serializable summary of one (or more) traced stages.

A :class:`RunReport` freezes what a :class:`~repro.obs.tracer.Tracer`
recorded — wall time, counter totals and the span tree — into plain
dictionaries, so it can be attached to pipeline results, merged across
stages, rendered as a human-readable tree, or dumped to JSON (see
:mod:`repro.obs.export` for the trace-level exporters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .tracer import Span


def span_to_dict(span: Span) -> dict[str, Any]:
    """A JSON-ready nested dictionary for one span subtree."""
    return {
        "name": span.name,
        "start": span.start,
        "duration": span.duration,
        "attributes": dict(span.attributes),
        "counters": dict(span.counters),
        "children": [span_to_dict(child) for child in span.children],
    }


def _walk_dicts(node: dict[str, Any]):
    yield node
    for child in node.get("children", ()):
        yield from _walk_dicts(child)


@dataclass
class RunReport:
    """Counters, wall time and the span tree of one pipeline stage (or run)."""

    label: str = ""
    wall_time: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_span(cls, span: Span, label: str = "") -> "RunReport":
        """A report for one stage: the subtree rooted at its top-level span.

        The span must be closed.  Its counters and span tree are copied on
        first read, so a report nobody reads costs no copy.
        """
        report = cls(label=label or span.name, wall_time=span.duration)
        del report.counters, report.spans
        report._span = span
        return report

    def __getattr__(self, name: str) -> Any:
        # Only reached for a missing attribute: the lazy fields of a
        # report made by from_span, filled in from its span once.
        span = self.__dict__.get("_span")
        if span is None or name not in ("counters", "spans"):
            raise AttributeError(name)
        self.counters = span.total_counters()
        self.spans = [span_to_dict(span)]
        del self._span
        return getattr(self, name)

    # -- combination --------------------------------------------------------

    def merged(self, *others: "RunReport | None") -> "RunReport":
        """This report plus ``others`` (None entries are skipped)."""
        result = RunReport(
            label=self.label,
            wall_time=self.wall_time,
            counters=dict(self.counters),
            spans=list(self.spans),
        )
        labels = [self.label] if self.label else []
        for other in others:
            if other is None:
                continue
            result.wall_time += other.wall_time
            for name, value in other.counters.items():
                result.counters[name] = result.counters.get(name, 0) + value
            result.spans.extend(other.spans)
            if other.label:
                labels.append(other.label)
        result.label = "+".join(labels)
        return result

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "wall_time": self.wall_time,
            "counters": dict(self.counters),
            "spans": [dict(s) for s in self.spans],
        }

    # -- rendering ----------------------------------------------------------

    def render(self, counters: bool = True, max_depth: int | None = None) -> str:
        """The human-readable stage-by-stage tree, timings in milliseconds."""
        lines: list[str] = []
        title = self.label or "run"
        lines.append(f"run report: {title}  ({self.wall_time * 1000:.2f} ms)")

        def emit(node: dict[str, Any], depth: int) -> None:
            if max_depth is not None and depth > max_depth:
                return
            indent = "  " * (depth + 1)
            attrs = node.get("attributes") or {}
            suffix = ""
            if attrs:
                rendered = ", ".join(f"{k}={v}" for k, v in attrs.items())
                suffix = f"  [{rendered}]"
            lines.append(
                f"{indent}{node['name']}: {node['duration'] * 1000:.2f} ms{suffix}"
            )
            for name, value in sorted((node.get("counters") or {}).items()):
                lines.append(f"{indent}  · {name} = {value}")
            for child in node.get("children", ()):
                emit(child, depth + 1)

        for top in self.spans:
            emit(top, 0)
        if counters and self.counters:
            lines.append("counters (totals):")
            width = max(len(name) for name in self.counters)
            for name in sorted(self.counters):
                lines.append(f"  {name.ljust(width)}  {self.counters[name]}")
        return "\n".join(lines)

    def render_profile(self) -> str:
        """A timing-focused summary: per-stage wall time plus counter totals."""
        lines = [f"profile: {self.label or 'run'}  ({self.wall_time * 1000:.2f} ms total)"]
        for top in self.spans:
            lines.append(f"  {top['name']}: {top['duration'] * 1000:.2f} ms")
            # Direct children are the interesting sub-stages.
            for child in top.get("children", ()):
                share = (
                    child["duration"] / top["duration"] * 100 if top["duration"] else 0.0
                )
                lines.append(
                    f"    {child['name']}: {child['duration'] * 1000:.2f} ms ({share:.0f}%)"
                )
        if self.counters:
            lines.append("counters (totals):")
            width = max(len(name) for name in self.counters)
            for name in sorted(self.counters):
                lines.append(f"  {name.ljust(width)}  {self.counters[name]}")
        return "\n".join(lines)
