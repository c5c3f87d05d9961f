"""A typed, labeled metrics registry: counters, gauges and histograms.

The tracer's spans (:mod:`repro.obs.tracer`) answer "where did the time
go, stage by stage"; its registry answers "what did each layer do": every
metric is a named **family** with a fixed type, an optional help string,
and one sample per distinct label set.  Families are
typed at first use — incrementing a name that was registered as a histogram
raises :class:`MetricTypeError` — so exporters never have to guess.

Three instrument types:

* :class:`Counter` — a monotonically increasing sum (``inc``);
* :class:`Gauge` — a point-in-time value (``set``, last write wins);
* :class:`Histogram` — observations bucketed into **fixed, sorted bucket
  boundaries** (plus the implicit ``+inf`` overflow bucket) with a running
  sum and count.  Buckets are fixed per family at creation, which is what
  makes merging well defined.

Registries **merge**: counters and histogram buckets add, gauges take the
other side's last write.  Merging is associative (property-tested in
``tests/test_obs_metrics.py``), which is what lets ``workers=N``
subprocesses (:mod:`repro.datalog.exec.workers`) fold their samples into
the parent's registry in any order.

Each recording :class:`~repro.obs.tracer.Tracer` owns one registry
(``tracer.metrics``); instrumentation sites reach it through the tracer's
module-level helpers :func:`~repro.obs.tracer.count`,
:func:`~repro.obs.tracer.gauge` and :func:`~repro.obs.tracer.observe` — a
no-op costing one contextvar read when no tracer is installed::

    from repro.obs import Tracer, use_tracer, count

    tracer = Tracer()
    with use_tracer(tracer):
        count("exec.operator.rows_out", 42, op="join", engine="batch")
    tracer.metrics.snapshot()   # JSON-ready, pinned by docs/metrics.schema.json

Exporters live in :mod:`repro.obs.metrics_export` (JSON snapshot and
Prometheus/OpenMetrics text exposition); the metric families the engines
emit are tabulated in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterator, Mapping

#: Default histogram bucket upper bounds, in seconds: spans microsecond
#: operator timings through multi-second whole-pipeline runs.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)

#: Buckets for ratio-valued observations (selectivities, hit rates).
RATIO_BUCKETS: tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0,
)

LabelKey = tuple[tuple[str, str], ...]


class MetricTypeError(TypeError):
    """A metric name was used with two different types (or bucket sets)."""


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    """Canonical, hashable form of a label set (values stringified)."""
    return tuple(sorted(zip(labels, map(str, labels.values()))))


class Counter:
    """A monotonically increasing, labeled sum."""

    type = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: dict[LabelKey, float] = {}

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        self.add(_label_key(labels), value)

    def add(self, key: LabelKey, value: float) -> None:
        """:meth:`inc` under a label key already in canonical form."""
        if value < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({value})")
        self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """The sum over every label set."""
        return sum(self._values.values())

    def samples(self) -> list[dict[str, Any]]:
        return [
            {"labels": dict(key), "value": self._values[key]}
            for key in sorted(self._values)
        ]

    def merge(self, other: "Counter") -> None:
        for key, value in other._values.items():
            self._values[key] = self._values.get(key, 0.0) + value


class Gauge:
    """A labeled point-in-time value; ``set`` overwrites, merge keeps the
    merged-in side's write (last write wins)."""

    type = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._values[_label_key(labels)] = float(value)

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> list[dict[str, Any]]:
        return [
            {"labels": dict(key), "value": self._values[key]}
            for key in sorted(self._values)
        ]

    def merge(self, other: "Gauge") -> None:
        self._values.update(other._values)


class Histogram:
    """Labeled observations over fixed bucket boundaries.

    ``buckets`` are the sorted upper bounds of the finite buckets; every
    observation also lands in the implicit ``+inf`` bucket position (the
    per-label ``counts`` list has ``len(buckets) + 1`` entries, the last
    being the overflow).  The exposition formats render the *cumulative*
    Prometheus convention; internally counts are per-bucket so merges are
    plain element-wise sums.
    """

    type = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        if not buckets or list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError(
                f"histogram {name!r} needs strictly increasing buckets, got {buckets!r}"
            )
        self.name = name
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        #: label key -> (per-bucket counts incl. overflow, sum, count)
        self._series: dict[LabelKey, tuple[list[int], float, int]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        self.observe_at(_label_key(labels), value)

    def observe_at(self, key: LabelKey, value: float) -> None:
        """:meth:`observe` under a label key already in canonical form."""
        series = self._series.get(key)
        if series is None:
            series = ([0] * (len(self.buckets) + 1), 0.0, 0)
        counts, total, n = series
        counts[bisect_left(self.buckets, value)] += 1
        self._series[key] = (counts, total + value, n + 1)

    def count(self, **labels: Any) -> int:
        series = self._series.get(_label_key(labels))
        return series[2] if series else 0

    def sum(self, **labels: Any) -> float:
        series = self._series.get(_label_key(labels))
        return series[1] if series else 0.0

    def cumulative_counts(self, **labels: Any) -> list[int]:
        """Prometheus-style cumulative bucket counts (``le`` semantics),
        ending with the total observation count (the ``+inf`` bucket)."""
        series = self._series.get(_label_key(labels))
        if series is None:
            return [0] * (len(self.buckets) + 1)
        out, running = [], 0
        for bucket_count in series[0]:
            running += bucket_count
            out.append(running)
        return out

    def samples(self) -> list[dict[str, Any]]:
        return [
            {
                "labels": dict(key),
                "counts": list(self._series[key][0]),
                "sum": self._series[key][1],
                "count": self._series[key][2],
            }
            for key in sorted(self._series)
        ]

    def merge(self, other: "Histogram") -> None:
        if other.buckets != self.buckets:
            raise MetricTypeError(
                f"histogram {self.name!r}: cannot merge bucket boundaries "
                f"{other.buckets!r} into {self.buckets!r}"
            )
        for key, (counts, total, n) in other._series.items():
            mine = self._series.get(key)
            if mine is None:
                self._series[key] = (list(counts), total, n)
            else:
                merged = [a + b for a, b in zip(mine[0], counts)]
                self._series[key] = (merged, mine[1] + total, mine[2] + n)


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """A typed collection of metric families, addressable by name.

    Accessors are create-or-get: :meth:`counter`, :meth:`gauge` and
    :meth:`histogram` register the family on first use and return the
    existing one afterwards, raising :class:`MetricTypeError` when the name
    is already registered with a different type (or, for histograms,
    different bucket boundaries).
    """

    def __init__(self) -> None:
        self._families: dict[str, Metric] = {}

    # -- family accessors ---------------------------------------------------

    def _family(self, name: str, cls, **kwargs) -> Metric:
        family = self._families.get(name)
        if family is None:
            family = cls(name, **kwargs)
            self._families[name] = family
            return family
        if not isinstance(family, cls):
            raise MetricTypeError(
                f"metric {name!r} is a {family.type}, not a {cls.type}"
            )
        return family

    def counter(self, name: str, help: str = "") -> Counter:
        return self._family(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._family(name, Gauge, help=help)

    def inc(self, name: str, value: float, labels: Mapping[str, Any]) -> None:
        """Add ``value`` to counter ``name`` (created on first use) under
        ``labels``: :meth:`counter` plus :meth:`Counter.inc` in one call,
        for the tracer's ``count``, which every instrumentation site hits."""
        family = self._families.get(name)
        if type(family) is not Counter:
            family = self.counter(name)
        if value < 0:
            raise ValueError(f"counter {name!r} cannot decrease ({value})")
        key = _label_key(labels) if labels else ()
        values = family._values
        values[key] = values.get(key, 0.0) + value

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        family = self._family(name, Histogram, help=help, buckets=buckets)
        if family.buckets != tuple(buckets):  # numeric: 1 == 1.0
            raise MetricTypeError(
                f"histogram {name!r} already registered with buckets "
                f"{family.buckets!r}"
            )
        return family

    def get(self, name: str) -> Metric | None:
        return self._families.get(name)

    def names(self) -> list[str]:
        return sorted(self._families)

    def families(self) -> Iterator[Metric]:
        for name in sorted(self._families):
            yield self._families[name]

    def __len__(self) -> int:
        return len(self._families)

    # -- combination --------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s samples into this registry (and return self).

        Counters and histograms add; gauges take ``other``'s writes.  The
        operation is associative, so worker registries can be folded in
        any grouping.
        """
        for name in sorted(other._families):
            family = other._families[name]
            if isinstance(family, Histogram):
                mine = self._family(
                    name, Histogram, help=family.help, buckets=family.buckets
                )
            else:
                mine = self._family(name, type(family), help=family.help)
            if not mine.help and family.help:
                mine.help = family.help
            mine.merge(family)
        return self

    # -- serialization ------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The JSON-ready snapshot, pinned by ``docs/metrics.schema.json``."""
        metrics = []
        for family in self.families():
            entry: dict[str, Any] = {
                "name": family.name,
                "type": family.type,
                "help": family.help,
                "samples": family.samples(),
            }
            if isinstance(family, Histogram):
                entry["buckets"] = list(family.buckets)
            metrics.append(entry)
        return {"version": 1, "metrics": metrics}

    @classmethod
    def from_snapshot(cls, data: Mapping[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output (exact round-trip).

        Raises :class:`MetricTypeError`, naming the family, on an entry
        without ``samples`` or a histogram sample whose ``counts`` do not
        have one entry per bucket plus the ``+Inf`` overflow.
        """
        registry = cls()
        for entry in data.get("metrics", ()):
            name, kind, help = entry["name"], entry["type"], entry.get("help", "")
            if "samples" not in entry:
                raise MetricTypeError(f"metric {name!r} has no samples")
            if kind == "counter":
                family = registry.counter(name, help=help)
                for sample in entry["samples"]:
                    family.inc(sample["value"], **sample["labels"])
            elif kind == "gauge":
                family = registry.gauge(name, help=help)
                for sample in entry["samples"]:
                    family.set(sample["value"], **sample["labels"])
            elif kind == "histogram":
                family = registry.histogram(
                    name, help=help, buckets=tuple(entry["buckets"])
                )
                for sample in entry["samples"]:
                    if len(sample["counts"]) != len(family.buckets) + 1:
                        raise MetricTypeError(
                            f"histogram {name!r}: a sample has "
                            f"{len(sample['counts'])} counts, expected "
                            f"{len(family.buckets) + 1} (one per bucket "
                            "plus +Inf)"
                        )
                    key = _label_key(sample["labels"])
                    family._series[key] = (
                        list(sample["counts"]),
                        float(sample["sum"]),
                        int(sample["count"]),
                    )
            else:
                raise MetricTypeError(f"unknown metric type {kind!r} in snapshot")
        return registry

    def copy(self) -> "MetricsRegistry":
        return MetricsRegistry().merge(self)
