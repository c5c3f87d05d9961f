"""Tests for terms: variables, constants, Skolem terms, substitution."""

from repro.logic.terms import (
    NULL_TERM,
    Constant,
    NullTerm,
    SkolemTerm,
    Variable,
    VariableFactory,
    term_variables,
)


class TestVariable:
    def test_identity_semantics(self):
        a, b = Variable("x"), Variable("x")
        assert a is not b
        assert a != b or a is b  # distinct objects are distinct variables
        assert len({a, b}) == 2

    def test_ordering_by_creation(self):
        a, b = Variable("x"), Variable("y")
        assert a < b

    def test_substitution(self):
        x, y = Variable("x"), Variable("y")
        assert x.substitute({x: y}) is y
        assert x.substitute({}) is x

    def test_variables_iterator(self):
        x = Variable("x")
        assert list(x.variables()) == [x]


class TestConstant:
    def test_value_equality(self):
        assert Constant("a") == Constant("a")
        assert Constant("a") != Constant("b")

    def test_no_variables(self):
        assert list(Constant("a").variables()) == []

    def test_substitution_is_identity(self):
        c = Constant("a")
        assert c.substitute({Variable("x"): Variable("y")}) is c


class TestNullTerm:
    def test_singleton(self):
        assert NullTerm() is NULL_TERM

    def test_repr(self):
        assert repr(NULL_TERM) == "null"


class TestSkolemTerm:
    def test_structural_equality(self):
        x = Variable("x")
        assert SkolemTerm("f", [x]) == SkolemTerm("f", [x])
        assert SkolemTerm("f", [x]) != SkolemTerm("g", [x])

    def test_variables_found_recursively(self):
        x, y = Variable("x"), Variable("y")
        nested = SkolemTerm("f", [SkolemTerm("g", [x]), y])
        assert list(nested.variables()) == [x, y]

    def test_substitution_recurses(self):
        x, y = Variable("x"), Variable("y")
        term = SkolemTerm("f", [SkolemTerm("g", [x])])
        result = term.substitute({x: y})
        assert result == SkolemTerm("f", [SkolemTerm("g", [y])])

    def test_rename_functors(self):
        x = Variable("x")
        term = SkolemTerm("f", [SkolemTerm("g", [x])])
        renamed = term.rename_functors({"f": "F", "g": "G"})
        assert renamed.functor == "F"
        assert renamed.args[0].functor == "G"


class TestVariableFactory:
    def test_unique_names(self):
        factory = VariableFactory()
        a = factory.fresh("p")
        b = factory.fresh("p")
        assert a.name == "p"
        assert b.name == "p1"

    def test_attribute_initial(self):
        factory = VariableFactory()
        assert factory.fresh_for_attribute("person").name == "p"
        assert factory.fresh_for_attribute("model").name == "m"

    def test_prefix(self):
        factory = VariableFactory(prefix="t_")
        assert factory.fresh("x").name == "t_x"


def test_term_variables_dedup_order():
    x, y = Variable("x"), Variable("y")
    terms = [SkolemTerm("f", [x, y]), x, Constant("c")]
    assert term_variables(terms) == [x, y]
