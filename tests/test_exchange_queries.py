"""Tests for conjunctive queries and certain answers over target instances."""

import pytest

from repro.core.pipeline import MappingSystem
from repro.core.schema_mapping import BASIC
from repro.exchange.queries import ConjunctiveQuery, certain_answers, evaluate_query, query
from repro.logic.atoms import RelationalAtom
from repro.logic.terms import Variable
from repro.model.values import NULL
from repro.scenarios import cars


def V(name):
    return Variable(name)


class TestEvaluation:
    def test_projection(self, cars3_instance):
        p, n, e = V("p"), V("n"), V("e")
        q = query([n], RelationalAtom("P3", (p, n, e)))
        assert evaluate_query(q, cars3_instance) == {("John",), ("MJ",)}

    def test_join(self, cars3_instance):
        c, p, m = V("c"), V("p"), V("m")
        q = query(
            [m, p],
            RelationalAtom("O3", (c, p)),
            RelationalAtom("C3", (c, m)),
        )
        assert evaluate_query(q, cars3_instance) == {("Ferrari", "p22")}

    def test_null_conditions(self):
        source = cars.figure15_source_instance()
        c, m, p = V("c"), V("m"), V("p")
        ownerless = query([c], RelationalAtom("C2", (c, m, p)), null_vars=[p])
        owned = query([c], RelationalAtom("C2", (c, m, p)), nonnull_vars=[p])
        assert evaluate_query(ownerless, source) == {("c86",)}
        assert evaluate_query(owned, source) == {("c85",)}

    def test_unsafe_head_rejected(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery(head=(V("x"),), body=(RelationalAtom("R", (V("y"),)),))


class TestCertainAnswers:
    def test_invented_values_are_not_certain(self, figure1_problem, cars3_instance):
        basic = MappingSystem(figure1_problem, algorithm=BASIC).transform(cars3_instance)
        p, n, e = V("p"), V("n"), V("e")
        names = query([n], RelationalAtom("P2", (p, n, e)))
        # Naive answers include the invented persons' invented names...
        assert len(evaluate_query(names, basic)) == 4
        # ...but the certain answers are only the real ones.
        assert certain_answers(names, basic) == {("John",), ("MJ",)}

    def test_basic_and_novel_agree_on_certain_answers(
        self, figure1_problem, cars3_instance
    ):
        basic = MappingSystem(figure1_problem, algorithm=BASIC).transform(cars3_instance)
        novel = MappingSystem(figure1_problem).transform(cars3_instance)
        c, m, p = V("c"), V("m"), V("p")
        n, e = V("n"), V("e")
        owners = query(
            [c, n],
            RelationalAtom("C2", (c, m, p)),
            RelationalAtom("P2", (p, n, e)),
        )
        assert certain_answers(owners, basic) == certain_answers(owners, novel)
        assert certain_answers(owners, novel) == {("c85", "MJ")}

    def test_null_counts_as_certain(self, figure1_problem, cars3_instance):
        # The unlabeled null is a value in the paper's semantics: the fact
        # "c86 has no known owner" is certain.
        novel = MappingSystem(figure1_problem).transform(cars3_instance)
        c, m, p = V("c"), V("m"), V("p")
        all_cars = query([c, p], RelationalAtom("C2", (c, m, p)))
        answers = certain_answers(all_cars, novel)
        assert ("c86", NULL) in answers
        assert ("c85", "p22") in answers

    def test_novel_certain_answers_match_source(self, figure1_problem, cars3_instance):
        # Round-trip sanity: certain owner pairs equal the source ownerships.
        novel = MappingSystem(figure1_problem).transform(cars3_instance)
        c, m, p = V("c"), V("m"), V("p")
        owned = query(
            [c, p], RelationalAtom("C2", (c, m, p)), nonnull_vars=[p]
        )
        assert certain_answers(owned, novel) == set(
            cars3_instance.relation("O3").rows
        )


class TestParseQuery:
    def test_simple_parse_and_eval(self, cars3_instance):
        from repro.exchange.queries import parse_query

        q = parse_query("(n) <- O3(c, p), P3(p, n, e)")
        assert evaluate_query(q, cars3_instance) == {("MJ",)}

    def test_conditions(self):
        from repro.exchange.queries import parse_query

        source = cars.figure15_source_instance()
        ownerless = parse_query("(c) <- C2(c, m, p), p = null")
        owned = parse_query("(c, p) <- C2(c, m, p), p != null")
        assert evaluate_query(ownerless, source) == {("c86",)}
        assert evaluate_query(owned, source) == {("c85", "p22")}

    def test_joins_by_shared_names(self, cars3_instance):
        from repro.exchange.queries import parse_query

        q = parse_query("(m) <- O3(c, p), C3(c, m)")
        assert evaluate_query(q, cars3_instance) == {("Ferrari",)}

    def test_errors(self):
        from repro.errors import ParseError
        from repro.exchange.queries import parse_query

        with pytest.raises(ParseError):
            parse_query("no arrow here")
        with pytest.raises(ParseError):
            parse_query("x <- R(x)")  # head not parenthesized
        with pytest.raises(ParseError):
            parse_query("(y) <- R(x)")  # unsafe head
        with pytest.raises(ParseError):
            parse_query("(x) <- R(x), x > 3")  # unsupported condition
        with pytest.raises(ParseError):
            parse_query("(x) <- ")  # no atoms

    @pytest.mark.parametrize("condition", ["z = null", "z != null"])
    def test_unbound_condition_variable(self, condition):
        from repro.errors import ParseError
        from repro.exchange.queries import parse_query

        with pytest.raises(ParseError) as error:
            parse_query(f"(c) <- C2(c, m, p), {condition}")
        assert str(error.value) == "unsafe query: condition variable 'z' unbound"
        c, m, p, z = (Variable(n) for n in "cmpz")
        with pytest.raises(ValueError, match="condition variable 'z' unbound"):
            query([c], RelationalAtom("C2", (c, m, p)), null_vars=[z])

    def test_certain_answers_from_text(self, figure1_problem, cars3_instance):
        from repro.exchange.queries import parse_query

        output = MappingSystem(figure1_problem).transform(cars3_instance)
        q = parse_query("(c, n) <- C2(c, m, p), P2(p, n, e)")
        assert certain_answers(q, output) == {("c85", "MJ")}
