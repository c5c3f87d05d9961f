"""Tests for the value domain (null, labeled nulls, constants)."""

import pickle

from repro.model.values import (
    NULL,
    LabeledNull,
    NullValue,
    format_value,
    is_labeled_null,
    is_null,
)


class TestNull:
    def test_singleton(self):
        assert NullValue() is NULL

    def test_equality_only_with_itself(self):
        assert NULL == NULL
        assert NULL != "null"
        assert NULL != 0
        assert NULL is not None

    def test_repr(self):
        assert repr(NULL) == "null"

    def test_pickle_preserves_singleton(self):
        assert pickle.loads(pickle.dumps(NULL)) is NULL

    def test_is_null(self):
        assert is_null(NULL)
        assert not is_null("x")
        assert not is_null(LabeledNull("f", ()))


class TestLabeledNull:
    def test_equality_by_functor_and_args(self):
        assert LabeledNull("f", ("a",)) == LabeledNull("f", ("a",))
        assert LabeledNull("f", ("a",)) != LabeledNull("f", ("b",))
        assert LabeledNull("f", ("a",)) != LabeledNull("g", ("a",))

    def test_hashable(self):
        values = {LabeledNull("f", ("a",)), LabeledNull("f", ("a",))}
        assert len(values) == 1

    def test_nested(self):
        inner = LabeledNull("g", ("x",))
        outer = LabeledNull("f", (inner,))
        assert outer.args[0] == inner
        assert repr(outer) == "f(g(x))"

    def test_repr_with_null_arg(self):
        assert repr(LabeledNull("f", (NULL,))) == "f(null)"

    def test_predicates(self):
        assert is_labeled_null(LabeledNull("f", ()))
        assert not is_labeled_null(NULL)
        assert not is_labeled_null("x")


class TestClassification:
    def test_format_value(self):
        assert format_value(NULL) == "null"
        assert format_value("abc") == "abc"
        assert format_value(7) == "7"
        assert format_value(LabeledNull("f", ("a", "b"))) == "f(a,b)"
