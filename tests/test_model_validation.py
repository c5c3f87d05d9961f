"""Tests for instance-level constraint validation."""

from repro.model.instance import instance_from_dict
from repro.model.validation import validate_instance
from repro.model.values import NULL, LabeledNull


def test_clean_instance(cars3_instance):
    report = validate_instance(cars3_instance)
    assert report.ok
    assert len(report) == 0
    assert "satisfies" in report.summary()


def test_key_violation(cars2):
    instance = instance_from_dict(
        cars2,
        {"C2": [("c1", "Ford", NULL), ("c1", "Ferrari", NULL)]},
    )
    report = validate_instance(instance)
    assert len(report.key_violations) == 1
    violation = report.key_violations[0]
    assert violation.relation == "C2"
    assert violation.key_value == ("c1",)
    assert len(violation.rows) == 2
    assert "c1" in str(violation)


def test_null_in_mandatory_attribute(cars2):
    instance = instance_from_dict(cars2, {"C2": [("c1", NULL, NULL)]})
    report = validate_instance(instance)
    assert len(report.null_violations) == 1
    assert report.null_violations[0].attribute == "model"
    assert not report.ok


def test_null_in_nullable_attribute_is_fine(cars2):
    instance = instance_from_dict(cars2, {"C2": [("c1", "Ford", NULL)]})
    assert validate_instance(instance).ok


def test_foreign_key_violation(cars2):
    instance = instance_from_dict(cars2, {"C2": [("c1", "Ford", "ghost")]})
    report = validate_instance(instance)
    assert len(report.foreign_key_violations) == 1
    violation = report.foreign_key_violations[0]
    assert violation.value == "ghost"
    assert violation.referenced == "P2"
    assert "ghost" in str(violation)


def test_null_fk_satisfies_constraint(cars2):
    instance = instance_from_dict(cars2, {"C2": [("c1", "Ford", NULL)]})
    assert not validate_instance(instance).foreign_key_violations


def test_labeled_null_fk_must_match(cars2):
    invented = LabeledNull("f", ("c1",))
    dangling = instance_from_dict(cars2, {"C2": [("c1", "Ford", invented)]})
    assert len(validate_instance(dangling).foreign_key_violations) == 1
    satisfied = instance_from_dict(
        cars2,
        {
            "C2": [("c1", "Ford", invented)],
            "P2": [(invented, "n", "e")],
        },
    )
    assert not validate_instance(satisfied).foreign_key_violations


def test_composite_key_violation():
    from repro.model.builder import SchemaBuilder

    schema = (
        SchemaBuilder("enroll")
        .relation("E", "course", "student", "grade", key=["course", "student"])
        .build()
    )
    instance = instance_from_dict(
        schema, {"E": [("c1", "s1", "A"), ("c1", "s1", "B"), ("c1", "s2", "A")]}
    )
    report = validate_instance(instance)
    assert len(report.key_violations) == 1
    assert report.key_violations[0].key_value == ("c1", "s1")


def test_report_aggregation(cars2):
    instance = instance_from_dict(
        cars2,
        {
            "C2": [
                ("c1", NULL, "ghost"),
                ("c1", "Ford", NULL),
            ]
        },
    )
    report = validate_instance(instance)
    assert len(report.null_violations) == 1
    assert len(report.key_violations) == 1
    assert len(report.foreign_key_violations) == 1
    assert len(report.all_violations()) == 3
    assert "1 null violation" in report.summary()


def test_diagnostics_carry_declaration_spans():
    """INS* diagnostics locate the violated constraint's DSL declaration."""
    from repro.dsl.parser import parse_schema

    schema = parse_schema(
        """
        relation U (u key)
        relation T (k key, a, r? -> U)
        """
    )
    instance = instance_from_dict(
        schema,
        {
            "T": [
                ("k1", NULL, "ghost"),
                ("k1", "x", NULL),
            ]
        },
    )
    report = validate_instance(instance)
    items = {item.code: item for item in report.diagnostics}
    assert set(items) == {"INS001", "INS002", "INS003"}
    for item in items.values():
        assert item.span is not None, item.code
