"""The typed metrics registry: instruments, merging, dispatch and exporters.

The merge-associativity and bucket-monotonicity properties asserted here are
what make the worker fan-in of ``repro.datalog.exec.workers`` correct in any
order.
"""

import json
import math
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricTypeError,
    NOOP,
    Tracer,
    count,
    current_tracer,
    gauge,
    observe,
    use_tracer,
)
from repro.obs.metrics_export import (
    metrics_snapshot_json,
    to_openmetrics,
    write_metrics_json,
    write_openmetrics,
)
from repro.obs.schema import SchemaViolation, validate

SCHEMA_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "docs" / "metrics.schema.json"
)


class TestCounter:
    def test_inc_accumulates_per_label_set(self):
        counter = Counter("eval.rows")
        counter.inc(3, engine="batch")
        counter.inc(2, engine="batch")
        counter.inc(5, engine="reference")
        assert counter.value(engine="batch") == 5
        assert counter.value(engine="reference") == 5
        assert counter.total() == 10

    def test_unlabeled_and_missing_default_to_zero(self):
        counter = Counter("x")
        assert counter.value() == 0
        counter.inc()
        assert counter.value() == 1

    def test_counters_cannot_decrease(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("x").inc(-1)
        with pytest.raises(ValueError, match="cannot decrease"):
            MetricsRegistry().inc("x", -1, {})

    def test_label_values_are_stringified(self):
        counter = Counter("x")
        counter.inc(1, size=100)
        assert counter.value(size="100") == 1


class TestGauge:
    def test_set_overwrites(self):
        gauge = Gauge("queue.depth")
        gauge.set(5, worker="a")
        gauge.set(2, worker="a")
        assert gauge.value(worker="a") == 2

    def test_merge_is_last_write_wins(self):
        left, right = Gauge("g"), Gauge("g")
        left.set(1)
        right.set(9)
        left.merge(right)
        assert left.value() == 9


class TestHistogram:
    def test_buckets_must_be_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", buckets=(2.0, 1.0))

    def test_observation_lands_in_le_bucket(self):
        hist = Histogram("h", buckets=(0.1, 1.0))
        hist.observe(0.05)  # <= 0.1
        hist.observe(0.5)  # <= 1.0
        hist.observe(3.0)  # +inf overflow
        assert hist.cumulative_counts() == [1, 2, 3]
        assert hist.count() == 3
        assert hist.sum() == pytest.approx(3.55)

    def test_boundary_value_belongs_to_its_bucket(self):
        hist = Histogram("h", buckets=(0.1, 1.0))
        hist.observe(0.1)
        assert hist.cumulative_counts() == [1, 1, 1]

    def test_merge_rejects_different_buckets(self):
        left = Histogram("h", buckets=(0.1, 1.0))
        right = Histogram("h", buckets=(0.5,))
        with pytest.raises(MetricTypeError, match="bucket boundaries"):
            left.merge(right)


class TestRegistry:
    def test_accessors_are_create_or_get(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.names() == ["a"]

    def test_name_reuse_across_types_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(MetricTypeError, match="is a counter"):
            registry.gauge("a")
        registry.histogram("h")
        with pytest.raises(MetricTypeError, match="already registered"):
            registry.histogram("h", buckets=(1.0,))

    def test_merge_adds_counters_and_buckets(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("c").inc(1, k="x")
        right.counter("c").inc(2, k="x")
        right.counter("c").inc(7, k="y")
        left.histogram("h").observe(0.01)
        right.histogram("h").observe(0.01)
        left.merge(right)
        assert left.counter("c").value(k="x") == 3
        assert left.counter("c").value(k="y") == 7
        assert left.histogram("h").count() == 2


class TestContextvarDispatch:
    def test_disabled_by_default(self):
        assert not current_tracer().enabled
        assert current_tracer() is NOOP
        count("ignored")  # must not raise, must not record anywhere
        gauge("ignored", 1.0)
        observe("ignored", 1.0)

    def test_helpers_hit_the_installed_registry(self):
        tracer = Tracer()
        registry = tracer.metrics
        with use_tracer(tracer):
            assert current_tracer().enabled
            count("c", 2, op="join")
            gauge("g", 3.5)
            observe("h", 0.2)
        assert not current_tracer().enabled
        assert registry.counter("c").value(op="join") == 2
        assert registry.gauge("g").value() == 3.5
        assert registry.histogram("h").count() == 1


# -- property tests ---------------------------------------------------------

_values = st.floats(
    min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_values, max_size=50))
def test_histogram_cumulative_counts_are_monotone(observations):
    hist = Histogram("h", buckets=DEFAULT_BUCKETS)
    for value in observations:
        hist.observe(value)
    cumulative = hist.cumulative_counts()
    assert cumulative == sorted(cumulative)
    assert cumulative[-1] == len(observations)
    assert hist.sum() == pytest.approx(sum(observations))


# Dyadic rationals: exactly representable, so small sums carry no rounding
# error and merge associativity can be asserted exactly.
_exact_values = st.integers(min_value=0, max_value=2**20).map(lambda n: n / 1024)


def _registries(draw):
    registry = MetricsRegistry()
    for value, label in draw(
        st.lists(st.tuples(_exact_values, st.sampled_from("ab")), max_size=8)
    ):
        registry.counter("c").inc(value, k=label)
        registry.histogram("h").observe(value)
    for value in draw(st.lists(_exact_values, max_size=3)):
        registry.gauge("g").set(value)
    return registry


registries = st.composite(_registries)()


@settings(max_examples=60, deadline=None)
@given(registries, registries, registries)
def test_merge_is_associative(a, b, c):
    left = a.copy().merge(b.copy().merge(c.copy()))
    right = a.copy().merge(b.copy()).merge(c.copy())
    assert left.snapshot() == right.snapshot()


@settings(max_examples=60, deadline=None)
@given(registries, registries)
def test_merge_counts_add_up(a, b):
    total = a.counter("c").total() + b.counter("c").total()
    merged = a.copy().merge(b)
    assert merged.counter("c").total() == pytest.approx(total)
    assert merged.histogram("h").count() == (
        a.histogram("h").count() + b.histogram("h").count()
    )


# -- serialization ----------------------------------------------------------


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("eval.rows", help="rows per stage").inc(41, engine="batch")
    registry.counter("eval.rows").inc(1, engine="reference")
    registry.gauge("run.workers").set(2)
    hist = registry.histogram("eval.run.seconds")
    hist.observe(0.002)
    hist.observe(1.5)
    return registry


class TestSnapshot:
    def test_round_trip_is_exact(self):
        registry = _populated_registry()
        rebuilt = MetricsRegistry.from_snapshot(registry.snapshot())
        assert rebuilt.snapshot() == registry.snapshot()

    def test_snapshot_validates_against_pinned_schema(self):
        schema = json.loads(SCHEMA_PATH.read_text())
        validate(_populated_registry().snapshot(), schema)  # must not raise
        validate(MetricsRegistry().snapshot(), schema)  # empty registry too

    def test_schema_rejects_malformed_snapshots(self):
        schema = json.loads(SCHEMA_PATH.read_text())
        broken = _populated_registry().snapshot()
        broken["metrics"][0]["type"] = "summary"
        with pytest.raises(SchemaViolation):
            validate(broken, schema)
        with pytest.raises(SchemaViolation):
            validate({"metrics": []}, schema)  # version is required

    def test_json_file_round_trip(self, tmp_path):
        registry = _populated_registry()
        path = tmp_path / "metrics.json"
        write_metrics_json(registry, str(path))
        assert json.loads(path.read_text()) == registry.snapshot()
        rebuilt = MetricsRegistry.from_snapshot(json.loads(path.read_text()))
        assert rebuilt.snapshot() == registry.snapshot()
        assert metrics_snapshot_json(rebuilt) == metrics_snapshot_json(registry)

    def test_histogram_counts_must_cover_every_bucket(self):
        """Buckets [1, 2] need three counts (le=1, le=2, +Inf); one count
        used to load and then render without its +Inf line."""
        snapshot = {"version": 1, "metrics": [{
            "name": "h", "type": "histogram", "help": "", "buckets": [1, 2],
            "samples": [{"labels": {}, "counts": [1], "sum": 0.5, "count": 1}],
        }]}
        with pytest.raises(MetricTypeError, match="'h'"):
            MetricsRegistry.from_snapshot(snapshot)

    def test_entry_without_samples_is_rejected(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps({"version": 1, "metrics": [
            {"name": "eval.rows", "type": "counter", "help": ""},
        ]}))
        with pytest.raises(MetricTypeError, match="'eval.rows'"):
            MetricsRegistry.from_snapshot(json.loads(path.read_text()))


class TestOpenMetrics:
    def test_exposition_format(self, tmp_path):
        text = to_openmetrics(_populated_registry())
        assert text.endswith("# EOF\n")
        assert "# TYPE eval_rows counter" in text
        assert "# HELP eval_rows rows per stage" in text
        assert 'eval_rows_total{engine="batch"} 41' in text
        assert "# TYPE run_workers gauge" in text
        assert "run_workers 2" in text
        assert "# TYPE eval_run_seconds histogram" in text
        assert 'eval_run_seconds_bucket{le="+Inf"} 2' in text
        assert "eval_run_seconds_count 2" in text
        path = tmp_path / "metrics.txt"
        write_openmetrics(_populated_registry(), str(path))
        assert path.read_text() == text

    def test_cumulative_buckets_in_exposition(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        text = to_openmetrics(registry)
        assert 'h_bucket{le="0.1"} 1' in text
        assert 'h_bucket{le="1"} 2' in text
        assert 'h_bucket{le="+Inf"} 2' in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(1, path='a"b\\c')
        line = [
            l for l in to_openmetrics(registry).splitlines() if l.startswith("c_total")
        ][0]
        assert line == 'c_total{path="a\\"b\\\\c"} 1'

    def test_infinite_bound_renders_plus_inf(self):
        assert math.inf  # documents the +Inf convention exercised above
