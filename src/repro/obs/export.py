"""Trace exporters: Chrome trace-event files.

The machine format complementing the human tree of
:meth:`repro.obs.report.RunReport.render` is the **Chrome trace event**
format — the ``{"traceEvents": [...]}`` files understood by
``chrome://tracing`` and https://ui.perfetto.dev: complete (``"X"``) events
with microsecond timestamps relative to the earliest span.
"""

from __future__ import annotations

import json
from typing import Any

from .report import RunReport, _walk_dicts


def to_chrome_trace(report: RunReport) -> dict[str, Any]:
    """The Chrome trace-event dictionary for a report's spans and counters."""
    spans = [node for top in report.spans for node in _walk_dicts(top)]
    origin = min((node["start"] for node in spans), default=0.0)
    events: list[dict[str, Any]] = [
        {
            "name": node["name"],
            "ph": "X",
            "ts": (node["start"] - origin) * 1_000_000,
            "dur": node["duration"] * 1_000_000,
            "pid": 0,
            "tid": 0,
            "args": {**(node.get("attributes") or {}), **(node.get("counters") or {})},
        }
        for node in spans
    ]
    events.extend(
        {"name": name, "ph": "C", "ts": 0, "pid": 0, "tid": 0, "args": {name: value}}
        for name, value in sorted(report.counters.items())
    )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(report: RunReport, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(report), handle, indent=2)
