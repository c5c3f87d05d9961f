"""Metrics exporters: JSON snapshots and Prometheus/OpenMetrics exposition.

Two formats complement the in-process :class:`~repro.obs.metrics.MetricsRegistry`:

* **JSON snapshot** — :func:`write_metrics_json` dumps
  :meth:`MetricsRegistry.snapshot`, which is pinned by
  ``docs/metrics.schema.json`` (validated in CI with the dependency-free
  checker ``python -m repro.obs.schema``) and round-trips exactly through
  :meth:`MetricsRegistry.from_snapshot`;
* **OpenMetrics text** — :func:`to_openmetrics` renders the
  Prometheus-compatible exposition format (``# TYPE`` headers, ``_total``
  counter suffixes, cumulative ``le`` histogram buckets, terminated by
  ``# EOF``), ready for the future mapping-as-a-service daemon to serve on
  a ``/metrics`` endpoint.

Metric names are sanitized for exposition (dots become underscores); the
JSON snapshot keeps the dotted names used in code and docs.
"""

from __future__ import annotations

import json
import math
from typing import Mapping

from .metrics import Counter, Gauge, Histogram, MetricsRegistry


def _expo_name(name: str) -> str:
    """A Prometheus-legal metric name: dots and dashes become underscores."""
    sanitized = "".join(
        c if c.isalnum() or c == "_" else "_" for c in name
    )
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _expo_labels(labels: Mapping[str, str], extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = [*sorted(labels.items()), *extra]
    if not items:
        return ""
    rendered = ",".join(
        f'{_expo_name(k)}="{_escape_label_value(str(v))}"' for k, v in items
    )
    return "{" + rendered + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def to_openmetrics(registry: MetricsRegistry) -> str:
    """The OpenMetrics text exposition of every family in the registry."""
    lines: list[str] = []
    for family in registry.families():
        name = _expo_name(family.name)
        if family.help:
            lines.append(f"# HELP {name} {family.help}")
        lines.append(f"# TYPE {name} {family.type}")
        if isinstance(family, Counter):
            for sample in family.samples():
                lines.append(
                    f"{name}_total{_expo_labels(sample['labels'])} "
                    f"{_format_value(sample['value'])}"
                )
        elif isinstance(family, Gauge):
            for sample in family.samples():
                lines.append(
                    f"{name}{_expo_labels(sample['labels'])} "
                    f"{_format_value(sample['value'])}"
                )
        elif isinstance(family, Histogram):
            bounds = [*family.buckets, math.inf]
            for sample in family.samples():
                cumulative = family.cumulative_counts(**sample["labels"])
                for bound, running in zip(bounds, cumulative):
                    le = ("le", _format_value(bound))
                    lines.append(
                        f"{name}_bucket{_expo_labels(sample['labels'], (le,))} "
                        f"{running}"
                    )
                lines.append(
                    f"{name}_sum{_expo_labels(sample['labels'])} "
                    f"{_format_value(sample['sum'])}"
                )
                lines.append(
                    f"{name}_count{_expo_labels(sample['labels'])} "
                    f"{sample['count']}"
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(registry: MetricsRegistry, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(to_openmetrics(registry))


def metrics_snapshot_json(registry: MetricsRegistry) -> str:
    """The snapshot serialized as stable, indented JSON."""
    return json.dumps(registry.snapshot(), indent=2, sort_keys=True) + "\n"


def write_metrics_json(registry: MetricsRegistry, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(metrics_snapshot_json(registry))

