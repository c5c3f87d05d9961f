"""Relational model substrate: schemas, constraints, instances, validation."""

from .builder import SchemaBuilder, parse_attribute
from .diff import (
    InstanceDiff,
    RelationDiff,
    canonicalize_invented,
    diff_instances,
    diff_up_to_invented,
)
from .graph import (
    DependencyGraph,
    build_dependency_graph,
    chase_order,
    check_weak_acyclicity,
    find_special_cycle,
)
from .instance import Instance, Relation, Row, instance_from_dict
from .schema import Attribute, ForeignKey, RelationSchema, Schema
from .validation import (
    ForeignKeyViolation,
    KeyViolation,
    NullViolation,
    ValidationReport,
    validate_instance,
)
from .values import (
    NULL,
    LabeledNull,
    NullValue,
    format_value,
    is_labeled_null,
    is_null,
)

__all__ = [
    "InstanceDiff",
    "NULL",
    "RelationDiff",
    "canonicalize_invented",
    "diff_instances",
    "diff_up_to_invented",
    "Attribute",
    "DependencyGraph",
    "ForeignKey",
    "ForeignKeyViolation",
    "Instance",
    "KeyViolation",
    "LabeledNull",
    "NullValue",
    "NullViolation",
    "Relation",
    "RelationSchema",
    "Row",
    "Schema",
    "SchemaBuilder",
    "ValidationReport",
    "build_dependency_graph",
    "chase_order",
    "check_weak_acyclicity",
    "find_special_cycle",
    "format_value",
    "instance_from_dict",
    "is_labeled_null",
    "is_null",
    "parse_attribute",
    "validate_instance",
]
