"""Tests for the text DSL (parser) and the paper-style renderer."""

import pytest

from repro.core.pipeline import MappingSystem
from repro.dsl.parser import parse_instance, parse_problem, parse_schema
from repro.dsl.renderer import (
    FunctorAbbreviator,
    render_program,
    render_schema,
    render_schema_mapping,
)
from repro.errors import ParseError
from repro.model.values import NULL

PROBLEM_TEXT = """
# The Figure 1 problem, as text.
source schema CARS3:
  relation P3 (person key, name, email)
  relation C3 (car key, model)
  relation O3 (car key -> C3, person -> P3)

target schema CARS2:
  relation P2 (person key, name, email)
  relation C2 (car key, model, person? -> P2)

correspondences:
  P3.person -> P2.person [p1]
  P3.name -> P2.name [p2]
  P3.email -> P2.email [p3]
  C3.car -> C2.car [c1]
  C3.model -> C2.model [c2]
  O3.car -> C2.car [o1]
  O3.person -> C2.person [o2]
"""


class TestParseProblem:
    def test_full_problem(self):
        problem = parse_problem(PROBLEM_TEXT)
        assert problem.source_schema.name == "CARS3"
        assert problem.target_schema.relation("C2").is_nullable("person")
        assert problem.target_schema.foreign_key_from("C2", "person").referenced == "P2"
        assert len(problem.correspondences) == 7
        assert problem.correspondences[0].label == "p1"

    def test_parsed_problem_runs_pipeline(self, cars3_instance):
        from repro.scenarios.cars import figure3_expected_target

        problem = parse_problem(PROBLEM_TEXT)
        system = MappingSystem(problem)
        assert system.transform(cars3_instance) == figure3_expected_target()

    def test_referenced_attribute_correspondence(self):
        text = """
        source schema S:
          relation O (car key, person -> P)
          relation P (person key, name)
        target schema T:
          relation C (car key, name?)
        correspondences:
          O.car -> C.car
          O.person > P.name -> C.name [cn']
        """
        problem = parse_problem(text)
        assert problem.correspondences[1].label == "cn'"
        assert not problem.correspondences[1].source.is_plain

    def test_missing_schema_rejected(self):
        with pytest.raises(ParseError):
            parse_problem("correspondences:\n A.x -> B.y")

    def test_duplicate_role_rejected(self):
        with pytest.raises(ParseError):
            parse_problem(
                "source schema A:\n relation R (k)\nsource schema B:\n relation S (k)"
            )

    def test_relation_outside_section(self):
        with pytest.raises(ParseError) as error:
            parse_problem("relation R (k)")
        assert "line 1" in str(error.value)

    def test_bad_correspondence_line(self):
        text = PROBLEM_TEXT + "\n  just nonsense\n"
        with pytest.raises(ParseError):
            parse_problem(text)

    def test_invalid_correspondence_reported_with_line(self):
        text = PROBLEM_TEXT + "  P3.ghost -> P2.name\n"
        with pytest.raises(ParseError) as error:
            parse_problem(text)
        assert "ghost" in str(error.value)

    def test_correspondence_defect_propagates(self, monkeypatch):
        from repro.core.pipeline import MappingProblem

        def broken(*args, **kwargs):
            raise TypeError("defect in add_correspondence")

        monkeypatch.setattr(MappingProblem, "add_correspondence", broken)
        with pytest.raises(TypeError, match="defect in add_correspondence"):
            parse_problem(PROBLEM_TEXT)


class TestParseSchema:
    def test_standalone_schema(self):
        schema = parse_schema(
            "relation P (person key, name, email?)\n"
            "relation C (car key, person? -> P)"
        )
        assert schema.relation("P").is_nullable("email")
        assert schema.foreign_key_from("C", "person") is not None

    def test_composite_key(self):
        schema = parse_schema("relation E (course key, student key, grade)")
        assert schema.relation("E").key == ("course", "student")

    def test_bad_modifier(self):
        with pytest.raises(ParseError):
            parse_schema("relation P (person primary)")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_schema("   \n  # nothing\n")


class TestParseInstance:
    def test_tuples_and_null(self, cars2):
        instance = parse_instance(
            "P2: (p1, John, j@x)\nC2: (c1, Ford, p1), (c2, Opel, null)", cars2
        )
        assert ("c2", "Opel", NULL) in instance.relation("C2")
        assert instance.total_size() == 3

    def test_unknown_relation(self, cars2):
        with pytest.raises(ParseError):
            parse_instance("Nope: (1, 2)", cars2)

    def test_missing_colon(self, cars2):
        with pytest.raises(ParseError):
            parse_instance("P2 (a, b, c)", cars2)


class TestRenderer:
    def test_render_schema_roundtrips(self, cars2):
        text = render_schema(cars2)
        reparsed = parse_schema(text, name="CARS2")
        assert reparsed.relation("C2").is_nullable("person")
        assert reparsed.foreign_key_from("C2", "person").referenced == "P2"

    def test_render_schema_mapping_aligns_arrows(self, figure1_problem):
        system = MappingSystem(figure1_problem)
        text = render_schema_mapping(system.schema_mapping)
        lines = text.splitlines()
        assert len(lines) == 3
        arrow_columns = {line.index("->") for line in lines}
        assert len(arrow_columns) == 1

    def test_render_program_shortens_functors(self):
        from repro.scenarios.cars import figure10_problem

        system = MappingSystem(figure10_problem())
        text = render_program(system.transformation)
        assert "@" not in text  # abbreviated
        assert "fP(" in text  # f_person@m2 -> fP

    def test_render_program_longform(self):
        from repro.scenarios.cars import figure10_problem

        system = MappingSystem(figure10_problem())
        text = render_program(system.transformation, shorten=False)
        assert "f_person@" in text

    def test_abbreviator_disambiguates(self):
        abbreviator = FunctorAbbreviator()
        first = abbreviator.shorten("f_person@m1(x)")
        second = abbreviator.shorten("f_phone@m2(y)")
        assert first == "fP(x)"
        assert second == "fP2(y)"
        # Stable across calls.
        assert abbreviator.shorten("f_person@m1(z)") == "fP(z)"


class TestStripComment:
    def test_plain_comment(self):
        from repro.dsl.parser import _strip_comment

        assert _strip_comment("relation R (a)  # trailing") == "relation R (a)"
        assert _strip_comment("# whole line") == ""

    def test_hash_inside_quoted_value_is_literal(self):
        from repro.dsl.parser import _strip_comment

        assert _strip_comment("P3: ('#tag', x)") == "P3: ('#tag', x)"
        assert (
            _strip_comment("A.a -> B.b where A.a != '#1'  # note")
            == "A.a -> B.b where A.a != '#1'"
        )

    def test_hash_after_closed_quote_is_a_comment(self):
        from repro.dsl.parser import _strip_comment

        assert _strip_comment("P3: ('v') # gone") == "P3: ('v')"

    def test_quoted_hash_survives_instance_parsing(self, cars3):
        instance = parse_instance("P3: (p1, '#1', e1)  # comment", cars3)
        assert ("p1", "#1", "e1") in instance.relation("P3")

    def test_quoted_hash_survives_filter_parsing(self):
        text = PROBLEM_TEXT.replace(
            "P3.name -> P2.name [p2]",
            "P3.name -> P2.name where P3.name != '#MJ' [p2]",
        )
        problem = parse_problem(text)
        filtered = [c for c in problem.correspondences if c.label == "p2"]
        assert len(filtered) == 1
        assert filtered[0].filters[0].value == "#MJ"


class TestSourceSpans:
    def test_relation_and_attribute_spans(self):
        problem = parse_problem(PROBLEM_TEXT, file="cars.problem.txt")
        relation = problem.source_schema.relation("P3")
        assert relation.span is not None
        assert relation.span.file == "cars.problem.txt"
        assert relation.span.line == 4
        assert relation.attribute("name").span.line == 4

    def test_foreign_key_spans(self):
        problem = parse_problem(PROBLEM_TEXT, file="cars.problem.txt")
        fk = problem.source_schema.foreign_key_from("O3", "car")
        assert fk.span is not None and fk.span.line == 6

    def test_correspondence_spans(self):
        problem = parse_problem(PROBLEM_TEXT, file="cars.problem.txt")
        first = problem.correspondences[0]
        assert first.span is not None
        assert first.span.line == 13
        assert str(first.span) == "cars.problem.txt:13"

    def test_spans_do_not_break_equality(self):
        with_file = parse_problem(PROBLEM_TEXT, file="a.txt")
        without = parse_problem(PROBLEM_TEXT)
        assert (
            with_file.source_schema.relation("P3").attributes
            == without.source_schema.relation("P3").attributes
        )


class TestParseProblemLenient:
    def test_clean_input_has_no_diagnostics(self):
        from repro.dsl.parser import parse_problem_lenient

        problem, found = parse_problem_lenient(PROBLEM_TEXT)
        assert found == []
        assert len(problem.correspondences) == 7

    def test_bad_foreign_key_dropped_and_reported(self):
        from repro.dsl.parser import parse_problem_lenient

        text = PROBLEM_TEXT.replace(
            "relation C3 (car key, model)",
            "relation C3 (car key, model -> Nowhere)",
        )
        problem, found = parse_problem_lenient(text, file="t.txt")
        assert [d.code for d in found] == ["SCH001"]
        assert found[0].span.line == 5
        assert problem.source_schema.foreign_key_from("C3", "model") is None

    def test_bad_correspondence_dropped_and_reported(self):
        from repro.dsl.parser import parse_problem_lenient

        text = PROBLEM_TEXT.replace(
            "C3.model -> C2.model [c2]", "C3.nope -> C2.model [c2]"
        )
        problem, found = parse_problem_lenient(text)
        assert [d.code for d in found] == ["MAP004"]
        assert found[0].span.line == 17
        assert len(problem.correspondences) == 6

    def test_syntax_error_still_raises(self):
        from repro.dsl.parser import parse_problem_lenient

        with pytest.raises(ParseError):
            parse_problem_lenient("source schema S:\n  what is this")


class TestInstanceQuoting:
    def test_quoted_values_are_unquoted(self, cars3):
        instance = parse_instance("C3: ('c1', 'model A')", cars3)
        assert ("c1", "model A") in instance.relation("C3")

    def test_quoted_null_is_the_string_null(self, cars2):
        instance = parse_instance("C2: (c1, m, 'null')", cars2)
        assert ("c1", "m", "null") in instance.relation("C2")
        plain = parse_instance("C2: (c1, m, null)", cars2)
        assert ("c1", "m", NULL) in plain.relation("C2")
