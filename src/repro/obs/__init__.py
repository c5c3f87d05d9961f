"""Pipeline observability: tracing spans, counters and run reports.

Zero-dependency, off-by-default instrumentation for the two-stage mapping
pipeline, through one channel.  The module-level helpers :func:`span`,
:func:`count`, :func:`gauge` and :func:`observe` dispatch to the tracer
installed via :func:`use_tracer`; with no tracer installed they hit the
shared no-op tracer and cost one contextvar read each, so the instrumented
hot paths are unaffected when observability is off.

Layers:

* :mod:`repro.obs.tracer` — contextvar-based :class:`Tracer` with nested
  :class:`Span` trees, monotonic timers and one metrics registry, its only
  counter store;
* :mod:`repro.obs.report` — :class:`RunReport`, the serializable per-stage
  summary attached to pipeline results and merged by
  :meth:`repro.core.pipeline.MappingSystem.stats`;
* :mod:`repro.obs.export` — the Chrome trace-event exporter;
* :mod:`repro.obs.metrics` — the typed, labeled metrics registry
  (counters, gauges, fixed-bucket histograms; cross-process merging) that
  every tracer records into, behind the exporters;
* :mod:`repro.obs.metrics_export` — metrics snapshot JSON (pinned by
  ``docs/metrics.schema.json``) and Prometheus/OpenMetrics text exposition;
* :mod:`repro.obs.schema` — the mini JSON-schema validator used by CI to
  check emitted reports against ``docs/run_report.schema.json``.

The span taxonomy and counter names are documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from .export import report_records, to_chrome_trace, write_chrome_trace
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricTypeError,
)
from .metrics_export import (
    metrics_snapshot_json,
    read_metrics_json,
    to_openmetrics,
    write_metrics_json,
    write_openmetrics,
)
from .report import RunReport, span_to_dict
from .tracer import (
    NOOP,
    NoopTracer,
    Span,
    Tracer,
    count,
    current_tracer,
    gauge,
    observe,
    span,
    use_tracer,
)


def stage_report(root_span, label: str = "") -> RunReport | None:
    """A :class:`RunReport` for a finished stage span, or None when tracing
    is off (the stage span is then the shared no-op span)."""
    if not current_tracer().enabled:
        return None
    return RunReport.from_span(root_span, label=label)


__all__ = [
    "DEFAULT_BUCKETS",
    "NOOP",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricTypeError",
    "MetricsRegistry",
    "NoopTracer",
    "RunReport",
    "Span",
    "Tracer",
    "count",
    "current_tracer",
    "gauge",
    "metrics_snapshot_json",
    "observe",
    "read_metrics_json",
    "report_records",
    "span",
    "span_to_dict",
    "stage_report",
    "to_chrome_trace",
    "to_openmetrics",
    "use_tracer",
    "write_chrome_trace",
    "write_metrics_json",
    "write_openmetrics",
]
