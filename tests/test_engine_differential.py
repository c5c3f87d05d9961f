"""Engine differential testing: reference vs batch vs SQLite.

The reference interpreter (`repro.datalog.engine`) is the oracle.  The batch
runtime (`repro.datalog.exec`) and the SQL translation executed on SQLite
must agree with it — identical target instances up to LabeledNull
isomorphism (`repro.model.diff.diff_up_to_invented`) — on:

* every bundled scenario's canonical instances (the frozen per-rule source
  instances the semantic verifier builds),
* a sample of seeded generated scenarios with their paired random source
  instances (``repro.scenarios.generator``), and
* the synthetic CARS workloads the scaling benchmarks sweep, and
* hand-built rule shapes the generated programs rarely contain: cross
  products, repeated variables, constant and ``null`` body positions, and
  negation over an empty relation.

The batch engine must also reproduce the reference engine's intermediate
relations and per-rule counts, and its opt-in ``workers=N`` mode must change
nothing but wall time.
"""

from __future__ import annotations

import pytest

from repro.analysis.semantic.verifier import canonical_instances
from repro.core.pipeline import MappingSystem
from repro.datalog.engine import evaluate
from repro.datalog.exec import evaluate_batch
from repro.datalog.program import DatalogProgram, Rule
from repro.logic.atoms import RelationalAtom
from repro.logic.terms import NULL_TERM, Constant, Variable
from repro.model.builder import SchemaBuilder
from repro.model.diff import diff_up_to_invented
from repro.model.instance import instance_from_dict
from repro.model.values import NULL
from repro.scenarios import bundled_problems
from repro.scenarios.cars import figure1_problem, figure12_problem, figure14_problem
from repro.scenarios.generator import generate_scenario
from repro.scenarios.synthetic import cars2_instance, cars3_instance, cars4_instance
from repro.sqlgen.executor import duckdb_available, run_on_duckdb, run_on_sqlite


def _scenario_names():
    return sorted(bundled_problems())


def _assert_agreement(program, source, context):
    reference = evaluate(program, source)
    batch = evaluate_batch(program, source)

    target_diff = diff_up_to_invented(reference.target, batch.target)
    assert target_diff.empty, (
        f"batch engine disagrees with reference on {context}:\n"
        + target_diff.to_text()
    )
    assert reference.rule_counts == batch.rule_counts, context
    assert set(reference.intermediates) == set(batch.intermediates), context
    for name, rows in reference.intermediates.items():
        assert set(rows) == set(batch.intermediates[name]), (context, name)

    sqlite_target = run_on_sqlite(program, source)
    sqlite_diff = diff_up_to_invented(reference.target, sqlite_target)
    assert sqlite_diff.empty, (
        f"SQLite disagrees with reference on {context}:\n" + sqlite_diff.to_text()
    )

    if duckdb_available():  # optional dependency: checked when installed
        duckdb_target = run_on_duckdb(program, source)
        duckdb_diff = diff_up_to_invented(reference.target, duckdb_target)
        assert duckdb_diff.empty, (
            f"DuckDB disagrees with reference on {context}:\n"
            + duckdb_diff.to_text()
        )
    return reference


class TestBundledScenarios:
    """All three engines agree on every scenario's canonical instances."""

    @pytest.mark.parametrize("name", _scenario_names())
    def test_canonical_instances_agree(self, name):
        problem = bundled_problems()[name]
        program = MappingSystem(problem).transformation
        checked = 0
        for label, instance in canonical_instances(program):
            _assert_agreement(program, instance, f"{name} / {label}")
            checked += 1
        assert checked > 0, f"no canonical instance for {name!r}"


class TestGeneratedScenarios:
    """All engines agree on generated scenarios' paired random instances."""

    @pytest.mark.parametrize("seed", range(12))
    def test_generated_scenarios_agree(self, seed):
        scenario = generate_scenario(seed)
        program = MappingSystem(scenario.problem).transformation
        _assert_agreement(program, scenario.source_instance, scenario.name)


#: (label, problem factory, instance factory) — the scaling workloads.
SYNTHETIC_WORKLOADS = [
    (
        "figure1-cars3",
        figure1_problem,
        lambda n: cars3_instance(
            n_persons=n // 2, n_cars=n, ownership=0.6, seed=n
        ),
    ),
    (
        "figure12-cars4",
        figure12_problem,
        lambda n: cars4_instance(n_persons=n // 2, n_cars=n, seed=n),
    ),
    (
        "figure14-cars2",
        figure14_problem,
        lambda n: cars2_instance(n_persons=n // 2, n_cars=n, seed=n),
    ),
]


class TestSyntheticWorkloads:
    @pytest.mark.parametrize("size", [40, 200])
    @pytest.mark.parametrize(
        "label,problem_factory,instance_factory",
        SYNTHETIC_WORKLOADS,
        ids=[w[0] for w in SYNTHETIC_WORKLOADS],
    )
    def test_cars_workloads_agree(self, label, problem_factory, instance_factory, size):
        program = MappingSystem(problem_factory()).transformation
        source = instance_factory(size)
        result = _assert_agreement(program, source, f"{label} n={size}")
        assert result.target.total_size() > 0


_x, _y, _z = Variable("x"), Variable("y"), Variable("z")


def _atom(relation, *terms):
    return RelationalAtom(relation, terms)


#: (id, rules, intermediates, expected T rows) over :func:`_shape_source`.
HAND_BUILT_SHAPES = [
    (
        "cross-product",
        [Rule(_atom("T", _x, _y), (_atom("R", _x), _atom("S", _y)))],
        {},
        {("1", "3"), ("2", "3")},
    ),
    (
        "repeated-variable",
        [
            # in the scanned atom, and as a new variable of a joined atom
            Rule(_atom("T", _x, _x), (_atom("P", _x, _x, _z),)),
            Rule(_atom("T", _x, _y), (_atom("R", _x), _atom("P", _x, _y, _y))),
        ],
        {},
        {("1", "1"), ("4", "4"), ("2", "5")},
    ),
    (
        "constant-and-null",
        [
            Rule(_atom("T", _x, _y), (_atom("P", _x, _y, Constant("7")),)),
            Rule(_atom("T", _x, _y), (_atom("P", _x, _y, NULL_TERM),)),
            Rule(
                _atom("T", _x, _y),
                (_atom("S", _x), _atom("P", _x, _y, NULL_TERM)),
            ),
            Rule(
                _atom("T", _x, _y),
                (_atom("R", _x), _atom("P", _x, _y, Constant("5"))),
            ),
        ],
        {},
        {("1", "1"), ("3", NULL), ("4", "4"), ("2", "5")},
    ),
    (
        "negation-over-empty",
        [
            Rule(_atom("Block", _x), (_atom("E", _x),)),
            Rule(
                _atom("T", _x, _y),
                (_atom("P", _x, _y, _z),),
                negated=(_atom("Block", _x),),
            ),
        ],
        {"Block": 1},
        {("1", "1"), ("2", "5"), ("3", NULL), ("4", "4")},
    ),
]


def _shape_source():
    # Text values: the SQL backends load every column as text.
    schema = (
        SchemaBuilder("HAND")
        .relation("R", "a")
        .relation("S", "a")
        .relation("P", "a", "b?", "c?")
        .relation("E", "a")
        .build()
    )
    return instance_from_dict(
        schema,
        {
            "R": [("1",), ("2",)],
            "S": [("3",)],
            "P": [
                ("1", "1", "7"),
                ("2", "5", "5"),
                ("3", NULL, NULL),
                ("4", "4", NULL),
            ],
            "E": [],
        },
    )


class TestHandBuiltRules:
    """All engines agree on rule shapes the generator seldom emits."""

    @pytest.mark.parametrize(
        "label,rules,intermediates,expected",
        HAND_BUILT_SHAPES,
        ids=[shape[0] for shape in HAND_BUILT_SHAPES],
    )
    def test_shape_agrees(self, label, rules, intermediates, expected):
        source = _shape_source()
        target = SchemaBuilder("OUT").relation("T", "a", "b?").build()
        program = DatalogProgram(
            rules=list(rules),
            source_schema=source.schema,
            target_schema=target,
            intermediates=dict(intermediates),
        )
        result = _assert_agreement(program, source, label)
        assert set(result.target.relation("T").rows) == expected


@pytest.mark.serial
class TestWorkersMode:
    """workers=N partitions the outer scan without changing the answer."""

    def test_partitioned_run_matches_inline(self):
        program = MappingSystem(figure1_problem()).transformation
        source = cars3_instance(n_persons=60, n_cars=120, ownership=0.6, seed=9)
        inline = evaluate_batch(program, source)
        # min_partition_rows=1 forces every rule through the process pool.
        partitioned = evaluate_batch(
            program, source, workers=2, min_partition_rows=1
        )
        assert inline.target == partitioned.target
        assert diff_up_to_invented(inline.target, partitioned.target).empty
        for name, rows in inline.intermediates.items():
            assert set(rows) == set(partitioned.intermediates[name]), name
        assert inline.rule_counts == partitioned.rule_counts

    def test_small_scans_stay_inline(self):
        """Below the partition threshold workers=N must not spawn a pool."""
        program = MappingSystem(figure12_problem()).transformation
        source = cars4_instance(n_persons=10, n_cars=20, seed=4)
        reference = evaluate(program, source)
        partitioned = evaluate_batch(program, source, workers=4)
        assert reference.target == partitioned.target
