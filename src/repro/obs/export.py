"""Trace exporters: Chrome trace-event files.

The machine format complementing the human tree of
:meth:`repro.obs.report.RunReport.render` is the **Chrome trace event**
format — the ``{"traceEvents": [...]}`` files understood by
``chrome://tracing`` and https://ui.perfetto.dev: complete (``"X"``) events
with microsecond timestamps relative to the earliest span.
:func:`report_records` flattens a report into the span and counter records
the exporter reads.
"""

from __future__ import annotations

import json
from typing import Any, Iterator

from .report import RunReport


def _flatten(
    node: dict[str, Any], depth: int, parent: int, counter: list[int]
) -> Iterator[dict[str, Any]]:
    index = counter[0]
    counter[0] += 1
    yield {
        "type": "span",
        "index": index,
        "parent": parent,
        "depth": depth,
        "name": node["name"],
        "start": node["start"],
        "duration": node["duration"],
        "attributes": node.get("attributes") or {},
        "counters": node.get("counters") or {},
    }
    for child in node.get("children", ()):
        yield from _flatten(child, depth + 1, index, counter)


def report_records(report: RunReport) -> list[dict[str, Any]]:
    """The flat records of a report: spans (depth-first, with ``index``,
    ``parent`` and ``depth``), then counter totals."""
    records: list[dict[str, Any]] = []
    counter = [0]
    for top in report.spans:
        records.extend(_flatten(top, 0, -1, counter))
    for name in sorted(report.counters):
        records.append({"type": "counter", "name": name, "value": report.counters[name]})
    return records


def to_chrome_trace(report: RunReport) -> dict[str, Any]:
    """The Chrome trace-event dictionary for a report's spans and counters."""
    records = [r for r in report_records(report) if r["type"] == "span"]
    origin = min((r["start"] for r in records), default=0.0)
    events: list[dict[str, Any]] = []
    for record in records:
        args: dict[str, Any] = dict(record["attributes"])
        args.update(record["counters"])
        events.append(
            {
                "name": record["name"],
                "ph": "X",
                "ts": (record["start"] - origin) * 1_000_000,
                "dur": record["duration"] * 1_000_000,
                "pid": 0,
                "tid": 0,
                "args": args,
            }
        )
    for name in sorted(report.counters):
        events.append(
            {
                "name": name,
                "ph": "C",
                "ts": 0,
                "pid": 0,
                "tid": 0,
                "args": {name: report.counters[name]},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(report: RunReport, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(report), handle, indent=2)
