"""Property-based tests (hypothesis) for the core invariants.

The big end-to-end property is the paper's thesis: on *any* valid CARS3
source instance, the novel pipeline's output satisfies every target
constraint and equals the canonical universal solution under the null
policy, while the SQL backend agrees with the Datalog engine everywhere.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.pipeline import MappingProblem, MappingSystem
from repro.core.schema_mapping import BASIC
from repro.datalog.engine import evaluate
from repro.exchange.instance_chase import canonical_universal_solution
from repro.exchange.solutions import is_homomorphic_to
from repro.logic.satisfiability import EgdClosure
from repro.logic.terms import Constant, SkolemTerm, Variable
from repro.model.builder import SchemaBuilder
from repro.model.instance import Instance
from repro.model.validation import validate_instance
from repro.model.values import NULL
from repro.scenarios import cars
from repro.sqlgen.executor import run_on_sqlite
from repro.sqlgen.values import decode_value, encode_value


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------

@st.composite
def cars3_instances(draw):
    """Valid CARS3 instances: owners reference existing cars and persons."""
    n_persons = draw(st.integers(min_value=0, max_value=6))
    n_cars = draw(st.integers(min_value=0, max_value=6))
    instance = Instance(cars.cars3_schema())
    for i in range(n_persons):
        instance.add("P3", (f"p{i}", f"name{i % 3}", f"mail{i}"))
    for i in range(n_cars):
        instance.add("C3", (f"c{i}", f"model{i % 2}"))
    if n_persons and n_cars:
        owned = draw(
            st.lists(
                st.tuples(
                    st.integers(0, n_cars - 1), st.integers(0, n_persons - 1)
                ),
                max_size=n_cars,
            )
        )
        for car, person in {c: p for c, p in owned}.items():
            instance.add("O3", (f"c{car}", f"p{person}"))
    return instance


@st.composite
def cars2_instances(draw):
    """Valid CARS2 instances (nullable owner FK)."""
    n_persons = draw(st.integers(min_value=0, max_value=5))
    n_cars = draw(st.integers(min_value=0, max_value=6))
    instance = Instance(cars.cars2_schema())
    for i in range(n_persons):
        instance.add("P2", (f"p{i}", f"name{i % 3}", f"mail{i}"))
    for i in range(n_cars):
        owner_index = draw(
            st.one_of(st.none(), st.integers(0, max(0, n_persons - 1)))
        )
        owner = NULL if owner_index is None or not n_persons else f"p{owner_index}"
        instance.add("C2", (f"c{i}", f"model{i % 2}", owner))
    return instance


# ---------------------------------------------------------------------------
# End-to-end properties
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(cars3_instances())
def test_novel_output_always_satisfies_constraints(source):
    system = MappingSystem(cars.figure1_problem())
    output = system.transform(source)
    assert validate_instance(output).ok


@settings(max_examples=25, deadline=None)
@given(cars3_instances())
def test_novel_output_equals_canonical_solution(source):
    system = MappingSystem(cars.figure1_problem())
    output = system.transform(source)
    canonical = canonical_universal_solution(
        system.schema_mapping, source, null_for_nullable_existentials=True
    )
    assert output == canonical


@settings(max_examples=20, deadline=None)
@given(cars3_instances())
def test_sql_backend_agrees_with_engine(source):
    system = MappingSystem(cars.figure1_problem())
    assert run_on_sqlite(system.transformation, source) == system.transform(source)


@settings(max_examples=20, deadline=None)
@given(cars3_instances())
def test_novel_embeds_into_basic(source):
    """The novel output never moves *less* certain information."""
    problem = cars.figure1_problem()
    basic = MappingSystem(problem, algorithm=BASIC).transform(source)
    novel = MappingSystem(problem).transform(source)
    # Every constant fact of the novel output is present in the basic one.
    for relation, row in novel.facts():
        if all(isinstance(v, str) for v in row):
            assert row in basic.relation(relation)


@settings(max_examples=25, deadline=None)
@given(cars2_instances())
def test_figure14_roundtrip_preserves_information(source):
    """CARS2 -> CARS3 (Example C.3) keeps persons, cars and ownerships."""
    system = MappingSystem(cars.figure14_problem())
    output = system.transform(source)
    assert validate_instance(output).ok
    assert set(output.relation("P3").rows) == set(source.relation("P2").rows)
    assert len(output.relation("C3")) == len(source.relation("C2"))
    expected_owned = {
        (row[0], row[2]) for row in source.relation("C2") if row[2] is not NULL
    }
    assert set(output.relation("O3").rows) == expected_owned


@settings(max_examples=20, deadline=None)
@given(cars2_instances())
def test_roundtrip_cars2_to_cars3_and_back(source):
    """C.3 forward then Figure 1 backward reproduces the original CARS2."""
    forward = MappingSystem(cars.figure14_problem())
    backward = MappingSystem(cars.figure1_problem())
    assert backward.transform(forward.transform(source)) == source


# ---------------------------------------------------------------------------
# Solver properties
# ---------------------------------------------------------------------------

_term_pool = st.integers(min_value=0, max_value=5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_term_pool, _term_pool), max_size=12))
def test_solver_union_is_equivalence_relation(pairs):
    variables = [Variable(f"v{i}") for i in range(6)]
    closure = EgdClosure(None)
    for left, right in pairs:
        closure.equate(variables[left], variables[right])
    assert closure.contradiction is None
    # reflexive, symmetric, transitive closure check
    for i in range(6):
        assert closure.terms_equal(variables[i], variables[i])
    for left, right in pairs:
        assert closure.terms_equal(variables[left], variables[right])
        assert closure.terms_equal(variables[right], variables[left])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_term_pool, _term_pool), max_size=10),
    st.integers(0, 5),
    st.integers(0, 5),
)
def test_solver_congruence_follows_args(pairs, a, b):
    variables = [Variable(f"v{i}") for i in range(6)]
    closure = EgdClosure(None)
    fa = SkolemTerm("f", [variables[a]])
    fb = SkolemTerm("f", [variables[b]])
    for left, right in pairs:
        closure.equate(variables[left], variables[right])
    if closure.terms_equal(variables[a], variables[b]):
        assert closure.terms_equal(fa, fb)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="abc", min_size=1, max_size=3), min_size=1, max_size=4))
def test_solver_constant_merging(values):
    closure = EgdClosure(None)
    x = Variable("x")
    for value in values:
        closure.equate(x, Constant(value))
    distinct = set(values)
    assert (closure.contradiction is not None) == (len(distinct) > 1)


# ---------------------------------------------------------------------------
# SQL value encoding round-trip
# ---------------------------------------------------------------------------

_value_strategy = st.recursive(
    st.one_of(
        st.just(NULL),
        st.text(
            alphabet=st.characters(blacklist_characters="\x02", blacklist_categories=("Cs",)),
            max_size=8,
        ),
    ),
    lambda children: st.builds(
        lambda functor, args: __import__("repro.model.values", fromlist=["LabeledNull"]).LabeledNull(
            functor, tuple(args)
        ),
        st.text(alphabet="fgh_@123", min_size=1, max_size=6),
        st.lists(children, max_size=3),
    ),
    max_leaves=6,
)


@settings(max_examples=100, deadline=None)
@given(_value_strategy)
def test_sql_value_encoding_roundtrip(value):
    # The length-prefixed encoding is injective: separators, parentheses,
    # empty strings and the literal "null" inside argument values all
    # round-trip.  The only out-of-scope inputs are plain strings carrying
    # the reserved \x02 prefix — already excluded by the strategy alphabet.
    assert decode_value(encode_value(value)) == value


# ---------------------------------------------------------------------------
# Chase properties
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=4))
def test_chain_chase_tableau_count(depth):
    from repro.core.chase import chase_relation
    from repro.scenarios.synthetic import chain_schema

    schema = chain_schema(depth, nullable_links=True)
    tableaux = chase_relation(schema, "R0")
    assert len(tableaux) == depth + 1
    assert sorted(len(t) for t in tableaux) == list(range(1, depth + 2))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4))
def test_wide_problem_candidate_explosion_is_pruned(n_nullable):
    """2**n target tableaux, but the schema mapping stays linear in n.

    With one mandatory source, only the all-non-null target variant is
    covered compatibly; the nullable pruning rules kill the rest.
    """
    from repro.scenarios.synthetic import wide_problem

    problem = wide_problem(n_nullable)
    system = MappingSystem(problem)
    assert len(system.schema_mapping) == 1
