"""Hostile input for the DSL parsers: every failure is a located ReproError.

Each example takes a rendered bundled problem (or a rendered source
instance of one) and applies a few random character edits.  Parsing must
either succeed or raise a :class:`~repro.errors.ReproError`, and when the
fault sits on one line the message must start with ``line N:``.  Faults
of the whole file — a missing schema section, a schema without relations,
relation names shared by both schemas — are exempt from the prefix.
"""

import re

from hypothesis import given, settings, strategies as st

from repro.dsl.parser import parse_instance, parse_problem
from repro.dsl.renderer import render_instance, render_problem
from repro.errors import ReproError
from repro.scenarios import bundled_problems
from repro.scenarios.generator.instances import generate_instance

PROBLEMS = {name: render_problem(p) for name, p in bundled_problems().items()}
SCHEMAS = {
    name: parse_problem(text).source_schema for name, text in PROBLEMS.items()
}
INSTANCES = {
    name: render_instance(generate_instance(schema, seed=0))
    for name, schema in SCHEMAS.items()
}

#: messages of faults that belong to no single line
WHOLE_FILE = (
    "needs both a source and a target schema",
    "has no relations",
    "distinct relation names",
)
#: characters that exercise the DSL's punctuation, keywords and values
ALPHABET = "aP3_ ()?,:->.#'[]\nkeynull"

edits = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from("ids"),
        st.sampled_from(ALPHABET),
    ),
    min_size=1,
    max_size=3,
)


def _mutate(text: str, changes) -> str:
    for where, op, char in changes:
        i = int(where * len(text))
        if op == "i":
            text = text[:i] + char + text[i:]
        elif op == "d":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + char + text[i + 1:]
    return text


def _assert_located(parse, text: str) -> None:
    try:
        parse(text)
    except ReproError as error:
        message = str(error)
        if not any(fault in message for fault in WHOLE_FILE):
            assert re.match(r"line \d+: ", message), message


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(PROBLEMS)), edits)
def test_mutated_problem_fails_located(name, changes):
    _assert_located(parse_problem, _mutate(PROBLEMS[name], changes))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(INSTANCES)), edits)
def test_mutated_instance_fails_located(name, changes):
    schema = SCHEMAS[name]
    _assert_located(
        lambda text: parse_instance(text, schema),
        _mutate(INSTANCES[name], changes),
    )


def test_instance_arity_error_names_its_line():
    schema = SCHEMAS["figure-1"]
    relation = schema.relation_names()[0]
    try:
        parse_instance(f"\n{relation}: (x)\n", schema)
    except ReproError as error:
        assert str(error).startswith("line 2: ")
        assert "arity" in str(error)
    else:
        raise AssertionError("a one-value tuple must not parse")


def test_duplicate_attribute_error_names_its_line():
    text = PROBLEMS["figure-1"].replace("(person key,", "(person key, person,", 1)
    assert text != PROBLEMS["figure-1"]
    try:
        parse_problem(text)
    except ReproError as error:
        assert re.match(r"line \d+: relation \w+ has duplicate attribute", str(error))
    else:
        raise AssertionError("duplicate attribute names must not parse")
