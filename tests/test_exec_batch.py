"""Unit tests for the batch runtime's planner and executor internals."""

import pytest

from repro.core.pipeline import MappingSystem
from repro.datalog import RowStore, evaluate
from repro.datalog.exec import (
    evaluate_batch,
    order_atoms,
    plan_program,
    plan_rule,
)
from repro.datalog.program import DatalogProgram, Rule
from repro.errors import InstanceError
from repro.logic.atoms import RelationalAtom
from repro.logic.terms import Constant, Variable
from repro.model.builder import SchemaBuilder
from repro.model.instance import Relation, instance_from_dict
from repro.obs import Tracer, use_tracer
from repro.scenarios import bundled_problems
from repro.scenarios.synthetic import cars3_instance


def V(name):
    return Variable(name)


class TestOrderAtoms:
    def test_starts_from_smallest_relation(self):
        x, y, z = V("x"), V("y"), V("z")
        atoms = (
            RelationalAtom("Big", (x, y)),
            RelationalAtom("Small", (y, z)),
        )
        assert order_atoms(atoms, {"Big": 1000, "Small": 3}) == [1, 0]
        assert order_atoms(atoms, {"Big": 3, "Small": 1000}) == [0, 1]

    def test_prefers_connected_atoms(self):
        x, y, z = V("x"), V("y"), V("z")
        # After starting from A, B shares a variable with it while C does
        # not: B must be joined before the cross product with C.
        atoms = (
            RelationalAtom("A", (x,)),
            RelationalAtom("C", (z,)),
            RelationalAtom("B", (x, y)),
        )
        order = order_atoms(atoms, {"A": 1, "B": 100, "C": 100})
        assert order.index(2) < order.index(1)

    def test_constant_filters_break_size_ties(self):
        x = V("x")
        atoms = (
            RelationalAtom("R", (x, x)),
            RelationalAtom("S", (x, Constant("c"))),
        )
        # Equal sizes: the atom with more bound positions (constant plus
        # the repeated variable counts per atom) starts the pipeline.
        order = order_atoms(atoms, {"R": 10, "S": 10})
        assert len(order) == 2 and sorted(order) == [0, 1]

    def test_deterministic(self):
        x, y, z = V("x"), V("y"), V("z")
        atoms = (
            RelationalAtom("A", (x, y)),
            RelationalAtom("B", (y, z)),
            RelationalAtom("C", (z, x)),
        )
        stats = {"A": 5, "B": 7, "C": 2}
        assert order_atoms(atoms, stats) == order_atoms(atoms, stats)


class TestRowStore:
    def test_readd_invalidates_indexes(self):
        store = RowStore()
        store.add_relation("S", [("a", 1), ("b", 2)])
        assert set(store.index("S", (0,))) == {("a",), ("b",)}
        store.add_relation("S", [("c", 3)])
        assert set(store.index("S", (0,))) == {("c",)}

    def test_sizes(self):
        store = RowStore()
        store.add_relation("S", [("a",), ("b",)])
        store.add_relation("R", [])
        assert store.sizes() == {"S": 2, "R": 0}

    def test_rows_kept_as_given(self):
        """The caller's unique rows are adopted, not copied."""
        rows = (("a", 1), ("b", 2))
        store = RowStore()
        store.add_relation("S", rows)
        assert store.rows("S") is rows

    def test_row_set_built_on_first_use_and_replaced_with_the_rows(self):
        store = RowStore()
        store.add_relation("S", [("a",)])
        assert store.row_set("S") == {("a",)}
        assert store.row_set("S") is store.row_set("S")
        store.add_relation("S", [("b",)])
        assert store.row_set("S") == {("b",)}
        assert store.row_set("Missing") == set()

    def test_empty_positions_index_one_bucket(self):
        store = RowStore()
        store.add_relation("S", [("a", 1), ("b", 2)])
        assert store.index("S", ()) == {(): [("a", 1), ("b", 2)]}


def _figure1_program():
    return MappingSystem(bundled_problems()["figure-1"]).transformation


ENGINES = pytest.mark.parametrize(
    "run", [evaluate, evaluate_batch], ids=["reference", "batch"]
)


class TestRowHandOff:
    """Rows enter and leave both in-process engines in bulk."""

    @ENGINES
    def test_target_loads_without_per_row_adds(self, run, monkeypatch):
        program = _figure1_program()
        source = cars3_instance(20, 40, seed=0)
        added = []
        add = Relation.add
        monkeypatch.setattr(
            Relation, "add", lambda self, row: added.append(row) or add(self, row)
        )
        result = run(program, source)
        assert result.target.total_size() > 0
        assert added == []

    def test_head_width_disagreeing_with_target_raises_on_both_engines(self):
        source_schema = SchemaBuilder("S").relation("S", "a", "b", key="a").build()
        target_schema = SchemaBuilder("T").relation("T", "a", key="a").build()
        x, y = V("x"), V("y")
        program = DatalogProgram(
            rules=[
                Rule(
                    head=RelationalAtom("T", (x, y)),
                    body=(RelationalAtom("S", (x, y)),),
                )
            ],
            source_schema=source_schema,
            target_schema=target_schema,
        )
        source = instance_from_dict(source_schema, {"S": [("a", 1)]})
        messages = []
        for run in (evaluate, evaluate_batch):
            with pytest.raises(InstanceError) as error:
                run(program, source)
            messages.append(str(error.value))
        assert messages == ["relation T: tuple ('a', 1) has arity 2, expected 1"] * 2


class TestCounters:
    def _source(self):
        schema = (
            SchemaBuilder("CARS3")
            .relation("P3", "person", "name", "email", key="person")
            .relation("C3", "car", "model", key="car")
            .relation("O3", "car", "person", key="car")
            .foreign_key("O3", "car", "C3")
            .foreign_key("O3", "person", "P3")
            .build()
        )
        return instance_from_dict(
            schema,
            {
                "P3": [("p1", "John", "j@x"), ("p2", "MJ", "mj@x")],
                "C3": [("c1", "Ferrari"), ("c2", "Ford")],
                "O3": [("c1", "p2")],
            },
        )

    def test_batch_and_index_reuse_counters(self):
        program = _figure1_program()
        tracer = Tracer()
        with use_tracer(tracer):
            evaluate_batch(program, self._source())
        assert tracer.counters.get("exec.batches", 0) > 0
        # Figure 1 reads C3/P3 from two rules on the same key positions:
        # the second rule must hit the cached index.
        assert tracer.counters.get("eval.index_reuse", 0) > 0

    def test_counters_are_free_when_tracing_is_off(self):
        program = _figure1_program()
        result = evaluate_batch(program, self._source())
        assert result.target.total_size() > 0


class TestPlanRendering:
    def test_every_rule_is_planned(self):
        program = _figure1_program()
        plan = plan_program(program)
        assert sum(map(len, plan.plans.values())) == len(program.rules)

    def test_plan_rule_live_stats_change_estimates(self):
        program = _figure1_program()
        rule = program.rules[-1]
        cold = plan_rule(rule, {})
        warm = plan_rule(rule, {atom.relation: 50 for atom in rule.body})
        assert cold.scan.rows_estimate == 0
        assert warm.scan.rows_estimate == 50
