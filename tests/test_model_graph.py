"""Tests for the FK dependency graph and weak acyclicity (paper section 3.1)."""

import pytest

from repro.errors import WeakAcyclicityError
from repro.model.builder import SchemaBuilder
from repro.model.graph import (
    build_dependency_graph,
    chase_order,
    check_weak_acyclicity,
    find_special_cycle,
)


def test_dependency_graph_structure(cars3):
    graph = build_dependency_graph(cars3)
    assert ("O3", "car") in graph.nodes
    # Ordinary edge O3.car -> C3.car, special edge O3.car -> C3.model.
    assert (("O3", "car"), ("C3", "car")) in graph.ordinary_edges
    assert (("O3", "car"), ("C3", "model")) in graph.special_edges
    # Two foreign keys, each to a 3/2-attribute relation.
    assert len(graph.ordinary_edges) == 2
    assert len(graph.special_edges) == 1 + 2  # C3 has 1 other attr, P3 has 2


def test_paper_schemas_are_weakly_acyclic(cars3, cars2, cars2a):
    for schema in (cars3, cars2, cars2a):
        assert find_special_cycle(schema) is None


def test_self_referencing_fk_is_rejected():
    # employee -> manager: the classic non-terminating chase example.
    schema = (
        SchemaBuilder("emp")
        .relation("E", "id", "name", "manager")
        .foreign_key("E", "manager", "E")
        .build(validate=False)
    )
    assert find_special_cycle(schema) is not None
    cycle = find_special_cycle(schema)
    assert cycle is not None
    with pytest.raises(WeakAcyclicityError):
        check_weak_acyclicity(schema)


def test_mutual_fks_are_rejected():
    schema = (
        SchemaBuilder("mutual")
        .relation("A", "k", "b")
        .relation("B", "k", "a")
        .foreign_key("A", "b", "B")
        .foreign_key("B", "a", "A")
        .build(validate=False)
    )
    assert find_special_cycle(schema) is not None


def test_key_to_key_cycle_is_weakly_acyclic():
    # FKs between key attributes only: cyclic, but no special edges on the
    # cycle — weakly acyclic per the definition.
    schema = (
        SchemaBuilder("keycycle")
        .relation("A", "k")
        .relation("B", "k")
        .foreign_key("A", "k", "B")
        .foreign_key("B", "k", "A")
        .build(validate=False)
    )
    assert find_special_cycle(schema) is None


def test_diamond_is_weakly_acyclic():
    schema = (
        SchemaBuilder("diamond")
        .relation("Top", "k", "l", "r")
        .relation("L", "k", "d")
        .relation("R", "k", "d")
        .relation("Bottom", "k", "v")
        .foreign_key("Top", "l", "L")
        .foreign_key("Top", "r", "R")
        .foreign_key("L", "d", "Bottom")
        .foreign_key("R", "d", "Bottom")
        .build()
    )
    assert find_special_cycle(schema) is None


def test_chase_order_puts_targets_first(cars3):
    order = chase_order(cars3)
    assert order.index("C3") < order.index("O3")
    assert order.index("P3") < order.index("O3")
    assert sorted(order) == sorted(cars3.relation_names())


def test_builder_validation_catches_cycle():
    builder = (
        SchemaBuilder("bad")
        .relation("E", "id", "manager")
        .foreign_key("E", "manager", "E")
    )
    with pytest.raises(WeakAcyclicityError):
        builder.build()
