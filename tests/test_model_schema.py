"""Tests for relation schemas, schemas, keys, foreign keys."""

import pytest

from repro.errors import SchemaError
from repro.model.schema import Attribute, ForeignKey, RelationSchema, Schema


class TestAttribute:
    def test_defaults_mandatory(self):
        assert not Attribute("name").nullable

    def test_nullable_repr(self):
        assert repr(Attribute("email", nullable=True)) == "email^null"

    def test_rejects_empty_name(self):
        with pytest.raises(SchemaError):
            Attribute("")


class TestRelationSchema:
    def test_first_attribute_is_default_key(self):
        relation = RelationSchema("P", ["person", "name"])
        assert relation.key == ("person",)

    def test_explicit_key(self):
        relation = RelationSchema("P", ["a", "b"], key="b")
        assert relation.key == ("b",)

    def test_composite_key(self):
        relation = RelationSchema("E", ["course", "student", "grade"], key=["course", "student"])
        assert relation.key == ("course", "student")
        assert not relation.has_simple_key
        assert relation.key_positions() == (0, 1)

    def test_key_attribute_must_exist(self):
        with pytest.raises(SchemaError):
            RelationSchema("P", ["a"], key="missing")

    def test_key_attribute_cannot_be_nullable(self):
        with pytest.raises(SchemaError):
            RelationSchema("P", [Attribute("a", nullable=True)], key="a")

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("P", ["a", "a"])

    def test_empty_attributes_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("P", [])

    def test_positions_and_lookup(self):
        relation = RelationSchema("P", ["a", "b", "c"])
        assert relation.position("b") == 1
        assert relation.attribute("c").name == "c"
        assert relation.has_attribute("a")
        assert not relation.has_attribute("z")
        with pytest.raises(SchemaError):
            relation.position("z")

    def test_key_and_nonkey_classification(self):
        relation = RelationSchema("P", ["k", "v"])
        assert relation.is_key_attribute("k")
        assert not relation.is_key_attribute("v")

    def test_equality_and_hash(self):
        a = RelationSchema("P", ["x", "y"], key="x")
        b = RelationSchema("P", ["x", "y"], key="x")
        assert a == b
        assert hash(a) == hash(b)
        assert a != RelationSchema("P", ["x", "y"], key="y")


class TestSchema:
    def _simple(self) -> Schema:
        return Schema(
            [
                RelationSchema("P", ["person", "name"]),
                RelationSchema("C", ["car", Attribute("person", nullable=True)]),
            ],
            [ForeignKey("C", "person", "P")],
        )

    def test_relation_lookup(self):
        schema = self._simple()
        assert schema.relation("P").name == "P"
        assert "C" in schema
        assert len(schema) == 2
        with pytest.raises(SchemaError):
            schema.relation("missing")

    def test_foreign_key_queries(self):
        schema = self._simple()
        fk = schema.foreign_key_from("C", "person")
        assert fk is not None and fk.referenced == "P"
        assert schema.foreign_key_from("C", "car") is None
        assert schema.has_foreign_key_from("C", "person")
        assert [f.attribute for f in schema.foreign_keys_of("C")] == ["person"]

    def test_duplicate_relation_rejected(self):
        with pytest.raises(SchemaError):
            Schema([RelationSchema("P", ["a"]), RelationSchema("P", ["b"])])

    def test_fk_from_unknown_relation(self):
        with pytest.raises(SchemaError):
            Schema([RelationSchema("P", ["a"])], [ForeignKey("X", "a", "P")])

    def test_fk_to_unknown_relation(self):
        with pytest.raises(SchemaError):
            Schema([RelationSchema("P", ["a"])], [ForeignKey("P", "a", "X")])

    def test_fk_on_unknown_attribute(self):
        with pytest.raises(SchemaError):
            Schema(
                [RelationSchema("P", ["a"]), RelationSchema("Q", ["b"])],
                [ForeignKey("P", "zzz", "Q")],
            )

    def test_fk_must_reference_simple_key(self):
        composite = RelationSchema("E", ["c", "s", "g"], key=["c", "s"])
        with pytest.raises(SchemaError):
            Schema(
                [composite, RelationSchema("R", ["e"])],
                [ForeignKey("R", "e", "E")],
            )

    def test_duplicate_fk_rejected(self):
        with pytest.raises(SchemaError):
            Schema(
                [RelationSchema("P", ["a"]), RelationSchema("Q", ["b"])],
                [ForeignKey("P", "a", "Q"), ForeignKey("P", "a", "Q")],
            )

    def test_paper_schemas_validate(self, cars3, cars2, cars2a):
        for schema in (cars3, cars2, cars2a):
            schema.validate()
