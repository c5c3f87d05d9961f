"""EXPLAIN ANALYZE profiles: internal consistency on every bundled scenario.

The differential invariants pinned here (see
``repro.datalog.exec.profile``):

* within one rule pipeline every operator's ``rows_in`` equals the previous
  operator's ``rows_out``;
* a rule's ``rows_unique`` equals the engine's ``rule_counts`` entry;
* a stratum's ``rows`` equals the materialized relation's size after
  cross-rule deduplication;
* ``workers=2`` and serial runs agree on every *rows* metric family
  (``exec.batches`` and index hit/miss counts legitimately differ — each
  worker batches and indexes its own slice).
"""

import pytest

from repro.core.pipeline import MappingSystem
from repro.datalog.engine import evaluate
from repro.datalog.exec import evaluate_batch
from repro.model.instance import Instance
from repro.model.values import NULL
from repro.obs import MetricsRegistry, Tracer, use_tracer
from repro.scenarios import bundled_problems
from repro.scenarios.cars import figure1_problem
from repro.scenarios.synthetic import cars3_instance

SCENARIOS = sorted(bundled_problems())


def synthetic_source(problem, rows: int = 5) -> Instance:
    """A small source instance for any bundled problem.

    Key attributes get per-row unique values, foreign-key attributes copy
    the referenced relation's key values (so joins flow rows), and nullable
    attributes are null every third row.
    """
    schema = problem.source_schema
    referenced_by = {
        (fk.relation, fk.attribute): fk.referenced for fk in schema.foreign_keys
    }

    def key_value(relation_name: str, attribute: str, i: int) -> str:
        return f"{relation_name}.{attribute}.k{i}"

    instance = Instance(schema)
    for relation in schema:
        key = set(relation.key)
        for i in range(rows):
            row = []
            for attribute in relation.attributes:
                referenced = referenced_by.get((relation.name, attribute.name))
                if referenced is not None:
                    ref_key = schema.relation(referenced).key[0]
                    row.append(key_value(referenced, ref_key, i))
                elif attribute.name in key:
                    row.append(key_value(relation.name, attribute.name, i))
                elif attribute.nullable and i % 3 == 0:
                    row.append(NULL)
                else:
                    row.append(f"{relation.name}.{attribute.name}.{i % 2}")
            instance.add(relation.name, tuple(row))
    return instance


def assert_consistent(profile, result, program) -> None:
    """The profile invariants shared by every engine and scenario."""
    for stratum in profile.strata:
        relation_rows = result.intermediates.get(stratum.relation)
        if relation_rows is not None:
            assert stratum.rows == len(set(relation_rows)), stratum.relation
        else:
            assert stratum.rows == len(
                result.target.relation(stratum.relation)
            ), stratum.relation
        for rule in stratum.rules:
            assert rule.relation == stratum.relation
            assert rule.rows_unique == result.rule_counts[rule.rule_index]
            for previous, current in zip(rule.operators, rule.operators[1:]):
                assert current.rows_in == previous.rows_out, (
                    stratum.relation,
                    previous.kind,
                    current.kind,
                )
    assert profile.target_rows == result.target.total_size()
    derived = sum(r.rows_unique for r in profile.rule_profiles())
    assert derived == sum(result.rule_counts)


@pytest.mark.parametrize("name", SCENARIOS)
def test_batch_profile_is_consistent_on_every_scenario(name):
    problem = bundled_problems()[name]
    system = MappingSystem(problem)
    source = synthetic_source(problem)
    result = evaluate_batch(system.transformation, source, analyze=True)
    profile = result.profile
    assert profile is not None
    assert profile.engine == "batch"
    assert profile.source_rows == source.total_size()
    assert_consistent(profile, result, system.transformation)
    # Every rule pipeline is scan .. -> project, and the tree renders.
    for rule in profile.rule_profiles():
        assert rule.operators[0].kind == "scan"
        assert rule.operators[-1].kind == "project"
    text = profile.render()
    assert text.startswith("explain analyze (batch engine)")
    assert "stratum 0" in text


@pytest.mark.parametrize("name", SCENARIOS)
def test_reference_profile_is_consistent_on_every_scenario(name):
    problem = bundled_problems()[name]
    system = MappingSystem(problem)
    source = synthetic_source(problem)
    result = evaluate(system.transformation, source, analyze=True)
    profile = result.profile
    assert profile is not None
    assert profile.engine == "reference"
    assert_consistent(profile, result, system.transformation)
    # The tuple-at-a-time interpreter has no operator pipeline.
    assert all(not rule.operators for rule in profile.rule_profiles())
    assert "(no operator pipeline: reference engine)" in profile.render()


def test_analyze_off_means_no_profile():
    system = MappingSystem(figure1_problem())
    source = cars3_instance(n_persons=10, n_cars=20, ownership=0.6, seed=3)
    assert evaluate_batch(system.transformation, source).profile is None
    assert evaluate(system.transformation, source).profile is None


def test_profile_json_shape():
    system = MappingSystem(figure1_problem())
    source = cars3_instance(n_persons=10, n_cars=20, ownership=0.6, seed=3)
    result = evaluate_batch(system.transformation, source, analyze=True)
    data = result.profile.to_dict()
    assert data["engine"] == "batch"
    assert data["source_rows"] == source.total_size()
    kinds = {
        op["kind"]
        for stratum in data["strata"]
        for rule in stratum["rules"]
        for op in rule["operators"]
    }
    assert {"scan", "project"} <= kinds


def test_metrics_registry_implies_collection():
    """An active tracer collects the profile even without analyze=True."""
    system = MappingSystem(figure1_problem())
    source = cars3_instance(n_persons=10, n_cars=20, ownership=0.6, seed=3)
    tracer = Tracer()
    with use_tracer(tracer):
        result = evaluate_batch(system.transformation, source)
    registry = tracer.metrics
    assert result.profile is not None
    assert registry.counter("eval.rows").value(
        engine="batch", kind="target"
    ) == result.target.total_size()
    assert registry.counter("exec.batches").value(engine="batch") > 0


def _rows_families(registry: MetricsRegistry) -> dict:
    """The row-count samples that must be identical serial vs workers."""
    out = {}
    for name in ("eval.rows", "exec.operator.rows_in", "exec.operator.rows_out"):
        counter = registry.get(name)
        assert counter is not None, name
        out[name] = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in counter.samples()
        }
    return out


@pytest.mark.serial
class TestWorkersProfile:
    """Partitioned evaluation: merged profiles and merged counters."""

    def _source(self):
        return cars3_instance(n_persons=60, n_cars=120, ownership=0.6, seed=9)

    def test_workers_profile_stays_consistent(self):
        program = MappingSystem(figure1_problem()).transformation
        result = evaluate_batch(
            program, self._source(), workers=2, min_partition_rows=1, analyze=True
        )
        profile = result.profile
        assert profile is not None
        assert profile.workers == 2
        assert_consistent(profile, result, program)
        assert "workers=2" in profile.render()

    def test_workers_rows_metrics_equal_serial(self):
        """Acceptance: every rows family agrees between workers=2 and serial."""
        program = MappingSystem(figure1_problem()).transformation
        source = self._source()
        serial, partitioned = Tracer(), Tracer()
        with use_tracer(serial):
            evaluate_batch(program, source, analyze=True)
        with use_tracer(partitioned):
            evaluate_batch(
                program, source, workers=2, min_partition_rows=1, analyze=True
            )
        assert _rows_families(serial.metrics) == _rows_families(
            partitioned.metrics
        )

    def test_worker_tracer_counters_are_merged(self):
        """Regression: pool workers' tracer counters used to be dropped.

        ``_run_slice`` now runs under a private tracer and ships its counters
        and operator stats back for the parent to replay, so ``exec.batches``
        (scan batches, counted inside the workers) must reach at least the
        serial count of the parent process alone.
        """
        program = MappingSystem(figure1_problem()).transformation
        source = self._source()
        serial_tracer, worker_tracer = Tracer(), Tracer()
        with use_tracer(serial_tracer):
            evaluate_batch(program, source)
        with use_tracer(worker_tracer):
            evaluate_batch(program, source, workers=2, min_partition_rows=1)
        assert worker_tracer.counters.get("exec.batches", 0) > 0
        # Both slices of every partitioned scan count their own batches.
        assert worker_tracer.counters["exec.batches"] >= serial_tracer.counters[
            "exec.batches"
        ]
