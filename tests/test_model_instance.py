"""Tests for relations and instances."""

import pytest

from repro.errors import InstanceError
from repro.model.instance import Instance, Relation, instance_from_dict
from repro.model.schema import RelationSchema
from repro.model.values import NULL, LabeledNull


@pytest.fixture
def person_relation():
    return Relation(RelationSchema("P", ["person", "name"]))


class TestRelation:
    def test_add_and_set_semantics(self, person_relation):
        assert person_relation.add(("p1", "John"))
        assert not person_relation.add(("p1", "John"))  # duplicate
        assert len(person_relation) == 1

    def test_arity_checked(self, person_relation):
        with pytest.raises(InstanceError):
            person_relation.add(("p1",))

    def test_discard(self, person_relation):
        person_relation.add(("p1", "John"))
        assert person_relation.discard(("p1", "John"))
        assert not person_relation.discard(("p1", "John"))
        assert len(person_relation) == 0

    def test_projection(self, person_relation):
        person_relation.add(("p1", "John"))
        person_relation.add(("p2", "John"))
        assert person_relation.project(["name"]) == {("John",)}
        assert person_relation.project(["person", "name"]) == {
            ("p1", "John"),
            ("p2", "John"),
        }

    def test_value_accessor(self, person_relation):
        person_relation.add(("p1", "John"))
        row = person_relation.rows[0]
        assert person_relation.value(row, "name") == "John"

    def test_null_values_allowed(self, person_relation):
        person_relation.add(("p1", NULL))
        assert ("p1", NULL) in person_relation

    def test_to_text_contains_rows(self, person_relation):
        person_relation.add(("p1", "John"))
        text = person_relation.to_text()
        assert "P" in text and "John" in text

    def test_equality(self):
        schema = RelationSchema("P", ["a"])
        left, right = Relation(schema), Relation(schema)
        left.add(("x",))
        right.add(("x",))
        assert left == right

    def test_not_hashable(self, person_relation):
        with pytest.raises(TypeError):
            hash(person_relation)


class TestInstance:
    def test_from_dict_and_equality(self, cars3):
        a = instance_from_dict(cars3, {"P3": [("p1", "n", "e")]})
        b = instance_from_dict(cars3, {"P3": [("p1", "n", "e")]})
        assert a == b
        b.add("C3", ("c1", "Ford"))
        assert a != b

    def test_total_size(self, cars3_instance):
        assert cars3_instance.total_size() == 5

    def test_unknown_relation(self, cars3):
        instance = Instance(cars3)
        with pytest.raises(InstanceError):
            instance.relation("missing")

    def test_add_all_keeps_first_seen_order(self, cars3):
        instance = Instance(cars3)
        instance.add("C3", ("c2", "Fiat"))
        instance.add_all(
            "C3", [["c1", "Ford"], ("c2", "Fiat"), ("c3", "VW"), ("c1", "Ford")]
        )
        assert instance.relation("C3").rows == (
            ("c2", "Fiat"), ("c1", "Ford"), ("c3", "VW")
        )

    def test_add_all_checks_arity_before_adding(self, cars3):
        instance = Instance(cars3)
        with pytest.raises(InstanceError) as bulk:
            instance.add_all("C3", [("c1", "Ford"), ("c2",), ("c3", "VW", "x")])
        assert len(instance.relation("C3")) == 0
        with pytest.raises(InstanceError) as single:
            instance.add("C3", ("c2",))
        assert str(bulk.value) == str(single.value) == (
            "relation C3: tuple ('c2',) has arity 1, expected 2"
        )

    def test_copy_is_independent(self, cars3_instance):
        clone = cars3_instance.copy()
        clone.add("C3", ("c99", "Lada"))
        assert cars3_instance.total_size() == 5
        assert clone.total_size() == 6

    def test_facts_iteration(self, cars3_instance):
        facts = list(cars3_instance.facts())
        assert ("O3", ("c85", "p22")) in facts
        assert len(facts) == 5

    def test_labeled_null_values(self, cars2):
        instance = Instance(cars2)
        invented = LabeledNull("f_person", ("c1",))
        instance.add("C2", ("c1", "Ford", invented))
        assert ("c1", "Ford", invented) in instance.relation("C2")

    def test_to_text_skips_empty(self, cars3):
        instance = Instance(cars3)
        assert instance.to_text() == "(empty instance)"
        instance.add("C3", ("c1", "Ford"))
        assert "C3" in instance.to_text()
