"""Property-based tests for the semantic analyzer.

Three layers, each driven by hypothesis:

* the containment engine is reflexive, invariant under variable renaming,
  monotone under added body atoms, and (conditionally) transitive on
  randomly generated conjunctive queries;
* ``minimize_program`` never changes what the Datalog engine computes,
  both on randomly drawn mapping problems and on random synthetic source
  instances for the paper's figure-10/figure-14 scenarios;
* the differential optimizer verifier certifies every randomly drawn
  problem the pipeline accepts.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis.semantic.containment import (
    ConjunctiveQuery,
    contained_in,
    equivalent,
)
from repro.analysis.semantic.minimize import minimize_program
from repro.core.pipeline import MappingProblem, MappingSystem
from repro.datalog.engine import evaluate
from repro.errors import HardKeyConflictError, NonFunctionalMappingError
from repro.logic.atoms import RelationalAtom
from repro.logic.terms import Variable
from repro.model.builder import SchemaBuilder
from repro.model.instance import Instance
from repro.model.values import NULL
from repro.scenarios import cars, synthetic

# ---------------------------------------------------------------------------
# Random conjunctive queries over a fixed relational signature.

_SIGNATURE = [("R", 2), ("S", 2), ("T", 1)]


@st.composite
def queries(draw):
    """A safe conjunctive query: every head variable occurs in the body."""
    variables = [Variable(f"v{i}") for i in range(4)]
    n_atoms = draw(st.integers(min_value=1, max_value=4))
    atoms = []
    for _ in range(n_atoms):
        name, arity = draw(st.sampled_from(_SIGNATURE))
        args = tuple(draw(st.sampled_from(variables)) for _ in range(arity))
        atoms.append(RelationalAtom(name, args))
    body_vars = sorted(
        {v for atom in atoms for v in atom.terms}, key=lambda v: v.name
    )
    head = tuple(
        draw(st.sampled_from(body_vars))
        for _ in range(draw(st.integers(min_value=0, max_value=2)))
    )
    return ConjunctiveQuery(head_label="Q", head=head, atoms=tuple(atoms))


def _renamed(query):
    """The same query over fresh Variable objects (alpha-renaming)."""
    fresh = {}

    def sub(term):
        if isinstance(term, Variable):
            if term not in fresh:
                fresh[term] = Variable(term.name + "'")
            return fresh[term]
        return term

    return ConjunctiveQuery(
        head_label=query.head_label,
        head=tuple(sub(t) for t in query.head),
        atoms=tuple(
            RelationalAtom(a.relation, tuple(sub(t) for t in a.terms))
            for a in query.atoms
        ),
    )


@settings(max_examples=80, deadline=None)
@given(queries())
def test_containment_is_reflexive(query):
    assert contained_in(query, query) is not None
    assert equivalent(query, query) is not None


@settings(max_examples=80, deadline=None)
@given(queries())
def test_renaming_preserves_equivalence(query):
    other = _renamed(query)
    assert contained_in(query, other) is not None
    assert contained_in(other, query) is not None


@settings(max_examples=80, deadline=None)
@given(queries(), st.data())
def test_extra_atoms_restrict(query, data):
    """Adding body atoms over existing variables can only shrink the answer."""
    variables = sorted(
        {v for atom in query.atoms for v in atom.terms}, key=lambda v: v.name
    )
    name, arity = data.draw(st.sampled_from(_SIGNATURE))
    extra = RelationalAtom(
        name, tuple(data.draw(st.sampled_from(variables)) for _ in range(arity))
    )
    restricted = ConjunctiveQuery(
        head_label=query.head_label,
        head=query.head,
        atoms=query.atoms + (extra,),
    )
    assert contained_in(restricted, query) is not None


@settings(max_examples=60, deadline=None)
@given(queries(), queries(), queries())
def test_containment_is_transitive(q1, q2, q3):
    if contained_in(q1, q2) is None or contained_in(q2, q3) is None:
        return  # premise not established; nothing to check
    assert contained_in(q1, q3) is not None


# ---------------------------------------------------------------------------
# Random mapping problems, mirroring tests/test_fuzz_pipeline.py.


def _source_schema():
    return (
        SchemaBuilder("prop-src")
        .relation("S1", "k", "a", "b?")
        .relation("S2", "k", "c")
        .build()
    )


def _target_schema():
    return (
        SchemaBuilder("prop-tgt")
        .relation("T1", "k", "x?", "y")
        .relation("T2", "k", "z?")
        .build()
    )


_SOURCE_ATTRS = ["S1.k", "S1.a", "S1.b", "S2.k", "S2.c"]
_TARGET_ATTRS = ["T1.k", "T1.x", "T1.y", "T2.k", "T2.z"]


@st.composite
def problems(draw):
    pairs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_SOURCE_ATTRS), st.sampled_from(_TARGET_ATTRS)
            ),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    problem = MappingProblem(_source_schema(), _target_schema(), name="prop")
    for source, target in pairs:
        problem.add_correspondence(source, target)
    return problem


@st.composite
def instances(draw):
    instance = Instance(_source_schema())
    for i in range(draw(st.integers(min_value=0, max_value=4))):
        b = draw(st.sampled_from(["b0", "b1", None]))
        instance.add("S1", (f"k{i}", f"a{i % 2}", NULL if b is None else b))
    for i in range(draw(st.integers(0, 3))):
        instance.add("S2", (f"k{i}", f"c{i}"))
    return instance


@settings(max_examples=40, deadline=None)
@given(problems(), instances())
def test_minimize_preserves_engine_output(problem, source):
    try:
        program = MappingSystem(problem, optimize=False).query_result().program
    except (NonFunctionalMappingError, HardKeyConflictError):
        return  # the paper's "signal an error and stop" — a valid outcome
    minimized = minimize_program(program)
    assert len(minimized.program.rules) + len(minimized.removed) == len(
        program.rules
    )
    before = evaluate(program, source).target
    after = evaluate(minimized.program, source).target
    assert before == after


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=100),
)
def test_minimize_preserves_figure_scenarios(n_persons, n_cars, seed):
    cases = [
        (cars.figure10_problem(), synthetic.cars3_instance(n_persons, n_cars, seed=seed)),
        (cars.figure14_problem(), synthetic.cars2_instance(n_persons, n_cars, seed=seed)),
    ]
    for problem, source in cases:
        program = MappingSystem(problem, optimize=False).query_result().program
        minimized = minimize_program(program)
        assert minimized.removed, problem.name
        assert evaluate(program, source).target == evaluate(
            minimized.program, source
        ).target, problem.name


@settings(max_examples=25, deadline=None)
@given(problems())
def test_verifier_certifies_random_problems(problem):
    try:
        system = MappingSystem(problem)
        report = system.verify()
    except (NonFunctionalMappingError, HardKeyConflictError):
        return
    assert report.ok, [c.detail for c in report.failures()]
