"""Unit tests for the observability subsystem (repro.obs)."""

import json
import os

import pytest

from repro.obs import (
    NOOP,
    RunReport,
    Span,
    Tracer,
    count,
    current_tracer,
    span,
    to_chrome_trace,
    use_tracer,
)
from repro.obs.schema import SchemaViolation, validate
from repro.obs.tracer import NOOP_SPAN


class TestTracer:
    def test_nesting(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("outer") as outer:
                with span("inner.a"):
                    pass
                with span("inner.b") as b:
                    with span("leaf"):
                        pass
        assert [s.name for s in tracer.spans] == ["outer"]
        assert [c.name for c in outer.children] == ["inner.a", "inner.b"]
        assert [c.name for c in b.children] == ["leaf"]
        assert [s.name for s in outer.walk()] == [
            "outer", "inner.a", "inner.b", "leaf",
        ]

    def test_sibling_top_level_spans(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("first"):
                pass
            with span("second"):
                pass
        assert [s.name for s in tracer.spans] == ["first", "second"]

    def test_counters_global_and_per_span(self):
        tracer = Tracer()
        with use_tracer(tracer):
            count("top")  # no open span: global only
            with span("outer") as outer:
                count("steps")
                with span("inner") as inner:
                    count("steps", 2)
        assert tracer.counters == {"top": 1, "steps": 3}
        assert outer.counters == {"steps": 1}
        assert inner.counters == {"steps": 2}
        assert outer.total_counters() == {"steps": 3}

    def test_timing_is_monotonic(self):
        clock = iter([1.0, 2.0, 5.0, 9.0]).__next__
        tracer = Tracer(clock=clock)
        with use_tracer(tracer):
            with span("outer") as outer:
                with span("inner") as inner:
                    pass
        assert outer.start == 1.0 and outer.end == 9.0
        assert outer.duration == 8.0
        assert inner.duration == 3.0

    def test_attributes_and_set(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("chase", relation="C2") as s:
                s.set(tableaux=2)
        assert tracer.spans[0].attributes == {"relation": "C2", "tableaux": 2}

    def test_span_closed_on_exception(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with pytest.raises(RuntimeError):
                with span("failing"):
                    raise RuntimeError("boom")
            with span("after"):
                pass
        # The failing span was closed, so "after" is a sibling, not a child.
        assert [s.name for s in tracer.spans] == ["failing", "after"]
        assert tracer.spans[0].end is not None

    def test_use_tracer_restores_previous(self):
        tracer = Tracer()
        assert current_tracer() is NOOP
        with use_tracer(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is NOOP


class TestOneChannel:
    """Spans, counters and the labeled metric families share one recorder."""

    def test_labeled_counts_sum_per_name(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("outer") as outer:
                count("eval.rows", 3, kind="source")
                count("eval.rows", 4, kind="target")
        assert tracer.counters == {"eval.rows": 7}
        assert outer.counters == {"eval.rows": 7}
        assert tracer.metrics.counter("eval.rows").value(kind="target") == 4

    def test_merge_folds_a_registry_into_counters_and_span(self):
        worker = Tracer()
        with use_tracer(worker):
            count("eval.batches", 2)
        tracer = Tracer()
        with use_tracer(tracer):
            with span("stratum") as stratum:
                count("eval.batches")
                tracer.merge(worker.metrics)
        assert tracer.counters == {"eval.batches": 3}
        assert stratum.counters == {"eval.batches": 3}

    def test_counters_equal_snapshot_totals_on_figure1(self):
        """Every counter family's samples sum to the tracer's total."""
        from repro.core.pipeline import MappingSystem
        from repro.scenarios.cars import figure1_problem
        from repro.scenarios.synthetic import cars3_instance

        system = MappingSystem(figure1_problem(), trace=True)
        source = cars3_instance(n_persons=10, n_cars=20, ownership=0.6, seed=3)
        system.run(source, engine="batch")
        tracer = system.tracer
        families = {
            family["name"]: family
            for family in system.metrics_snapshot()["metrics"]
            if family["type"] == "counter"
        }
        assert {"chase.steps", "eval.rows", "eval.strata"} <= set(families)
        assert set(families) == set(tracer.counters)
        for name, family in families.items():
            total = sum(sample["value"] for sample in family["samples"])
            assert tracer.counters[name] == total, name


class TestNoopPath:
    def test_disabled_records_nothing(self):
        # No tracer installed: the module helpers hit the shared no-op.
        assert current_tracer() is NOOP
        with span("ignored", attr=1) as s:
            count("ignored.counter", 41)
            s.set(more=2)
        assert NOOP.spans == ()
        assert NOOP.counters == {}
        assert not NOOP.enabled

    def test_disabled_span_is_shared_singleton(self):
        # No allocation when tracing is off: always the same span object.
        assert span("a") is NOOP_SPAN
        assert span("b", x=1) is NOOP_SPAN


class TestRunReport:
    def _traced(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("stage.schema_mapping", algorithm="novel") as root:
                count("chase.steps", 5)
                with span("chase.source"):
                    count("chase.tableaux", 3)
        return tracer, root

    def test_from_span_totals(self):
        _, root = self._traced()
        report = RunReport.from_span(root, label="schema-mapping")
        assert report.label == "schema-mapping"
        assert report.counters == {"chase.steps": 5, "chase.tableaux": 3}
        assert len(report.spans) == 1
        assert report.spans[0]["children"][0]["name"] == "chase.source"

    def test_dict_round_trip(self):
        _, root = self._traced()
        report = RunReport.from_span(root, label="stage")
        clone = RunReport(**json.loads(json.dumps(report.to_dict())))
        assert clone.to_dict() == report.to_dict()

    def test_merged(self):
        _, root = self._traced()
        first = RunReport.from_span(root, label="one")
        second = RunReport(label="two", wall_time=1.0, counters={"chase.steps": 2})
        merged = first.merged(second, None)
        assert merged.label == "one+two"
        assert merged.counters["chase.steps"] == 7
        assert merged.wall_time == pytest.approx(first.wall_time + 1.0)

    def test_render(self):
        _, root = self._traced()
        text = RunReport.from_span(root, label="stage").render()
        assert "stage.schema_mapping" in text
        assert "chase.source" in text
        assert "chase.steps" in text
        assert "counters (totals):" in text

    def test_validates_against_checked_in_schema(self):
        import pathlib

        _, root = self._traced()
        report = RunReport.from_span(root, label="stage")
        schema_path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "docs" / "run_report.schema.json"
        )
        schema = json.loads(schema_path.read_text())
        validate(report.to_dict(), schema)  # must not raise
        broken = report.to_dict()
        broken["counters"]["chase.steps"] = "five"
        with pytest.raises(SchemaViolation):
            validate(broken, schema)


class TestExport:
    def _report(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("root", kind="test") as root:
                count("a", 2)
                with span("child"):
                    count("b")
        return RunReport.from_span(root, label="export")

    def test_chrome_trace_structure(self):
        report = self._report()
        trace = to_chrome_trace(report)
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert [e["name"] for e in spans] == ["root", "child"]
        assert spans[0]["ts"] == 0  # timestamps relative to the earliest span
        assert spans[1]["ts"] >= 0 and spans[1]["dur"] >= 0
        assert spans[0]["args"]["kind"] == "test"
        assert {e["name"] for e in counters} == {"a", "b"}
        json.dumps(trace)  # must be JSON-serializable as-is

    def test_chrome_trace_of_a_figure_1_compile_is_pinned(self):
        """A traced figure-1 compile's report exports to the same JSON as
        the trace recorded with it in ``tests/fixtures/chrome_trace.json``."""
        path = os.path.join(os.path.dirname(__file__), "fixtures", "chrome_trace.json")
        with open(path) as handle:
            recorded = json.load(handle)
        trace = to_chrome_trace(RunReport(**recorded["report"]))
        assert json.dumps(trace, sort_keys=True) == json.dumps(
            recorded["trace"], sort_keys=True
        )
