"""Join ordering without repeated work, checked against the loops it replaced.

* The reference interpreter's ``_join`` plans each depth once per rule
  evaluation instead of once per partial binding.  The per-binding version
  is copied here as the oracle: on random rules and stores (repeated
  variables, constants, ``null`` terms and values, empty relations, a body
  atom over a relation the store lacks) both yield the same bindings in the
  same order and stop with the same exception.
* :meth:`JoinOrderAdvisor.order` searches orders depth first with
  branch-and-bound.  The loop that priced every permutation from scratch is
  copied here as the oracle: both pick the same order on every rule body of
  the bundled scenarios, the deep-compile problems and the generator's
  DEFAULT seeds 0–199, and on random bodies with random source keys.
"""

from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.cost.advisor import MAX_EXHAUSTIVE_ATOMS, JoinOrderAdvisor
from repro.analysis.cost.bounds import _calibrate
from repro.analysis.cost.facts import CostFacts
from repro.analysis.cost.polynomial import ONE, Polynomial
from repro.core.pipeline import MappingSystem
from repro.datalog.engine import RowStore, _join, _match_atom, evaluate_rule
from repro.datalog.program import Rule
from repro.errors import EvaluationError, ReproError
from repro.logic.atoms import RelationalAtom
from repro.logic.terms import NULL_TERM, Constant, NullTerm, Variable
from repro.model.values import NULL
from repro.scenarios import bundled_problems, generated_problems
from repro.scenarios.synthetic import chain_problem, wide_problem

# ---------------------------------------------------------------------------
# The replaced per-binding join, as the oracle.


def per_binding_join(store, atoms, bindings):
    """All extensions of ``bindings`` satisfying every atom (greedy ordering)."""
    if not atoms:
        yield bindings
        return
    # Pick the atom with the most bound positions; break ties by relation size.
    def bound_positions(atom):
        positions = []
        for i, term in enumerate(atom.terms):
            if not isinstance(term, Variable) or term in bindings:
                positions.append(i)
        return tuple(positions)

    best_index = min(
        range(len(atoms)),
        key=lambda i: (
            -len(bound_positions(atoms[i])),
            store.size(atoms[i].relation),
        ),
    )
    atom = atoms[best_index]
    rest = atoms[:best_index] + atoms[best_index + 1:]
    positions = bound_positions(atom)
    if positions:
        wanted = []
        usable = True
        for p in positions:
            term = atom.terms[p]
            if isinstance(term, Variable):
                wanted.append(bindings[term])
            elif isinstance(term, Constant):
                wanted.append(term.value)
            elif isinstance(term, NullTerm):
                wanted.append(NULL)
            else:  # pragma: no cover
                usable = False
                break
        if usable:
            candidates = store.index(atom.relation, positions).get(tuple(wanted), [])
        else:  # pragma: no cover
            candidates = store.rows(atom.relation)
    else:
        candidates = store.rows(atom.relation)
    for row in candidates:
        extended = _match_atom(atom, row, bindings)
        if extended is None:
            continue
        yield from per_binding_join(store, rest, extended)


# ---------------------------------------------------------------------------
# Random rules and stores.

ARITIES = {"R": 1, "S": 2, "T": 2, "U": 3, "Missing": 2}
VALUES = st.sampled_from([0, 1, 2, NULL])


@st.composite
def join_cases(draw):
    variables = [Variable(f"x{i}") for i in range(4)]
    store = {}
    for name in ("R", "S", "T", "U"):
        # Relations may be empty; "Missing" never enters the store.
        rows = draw(
            st.lists(st.tuples(*[VALUES] * ARITIES[name]), max_size=6)
        )
        store[name] = rows
    term = st.one_of(
        st.sampled_from(variables),
        VALUES.map(lambda v: NULL_TERM if v is NULL else Constant(v)),
    )
    relation = st.sampled_from(sorted(ARITIES))
    atoms = draw(
        st.lists(
            relation.flatmap(
                lambda name: st.tuples(
                    st.just(name), st.tuples(*[term] * ARITIES[name])
                )
            ),
            max_size=4,
        )
    )
    bound = draw(st.dictionaries(st.sampled_from(variables), VALUES, max_size=2))
    return store, [RelationalAtom(name, terms) for name, terms in atoms], bound


def _fresh_store(relations):
    store = RowStore()
    for name, rows in relations.items():
        store.add_relation(name, rows)
    return store


def _outcome(join, relations, atoms, bindings):
    """The bindings a join yields, in order, and how it stopped."""
    yielded = []
    try:
        for extended in join(_fresh_store(relations), list(atoms), dict(bindings)):
            yielded.append(extended)
    except ReproError as error:
        return yielded, (type(error), str(error))
    return yielded, None


@settings(max_examples=400, deadline=None)
@given(join_cases())
def test_join_plans_each_depth_once_with_the_same_result(case):
    relations, atoms, bindings = case
    assert _outcome(_join, relations, atoms, bindings) == _outcome(
        per_binding_join, relations, atoms, bindings
    )


@pytest.mark.parametrize("unknown_first", [True, False])
def test_unknown_relation_raises_beside_an_empty_one(unknown_first):
    x = Variable("x")
    body = [RelationalAtom("Empty", (x,)), RelationalAtom("Nope", (x,))]
    if unknown_first:
        body.reverse()
    rule = Rule(head=RelationalAtom("T", (x,)), body=tuple(body))
    with pytest.raises(EvaluationError, match="Nope"):
        evaluate_rule(rule, _fresh_store({"Empty": []}))


def test_each_depth_is_planned_once(monkeypatch):
    """A rule over many bindings sizes its relations once per depth."""
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    atoms = [RelationalAtom("S", (x, y)), RelationalAtom("T", (y, z))]
    store = _fresh_store(
        {"S": [(i, i % 3) for i in range(30)], "T": [(j, j) for j in range(3)]}
    )
    sizes = []
    real = store.size
    monkeypatch.setattr(store, "size", lambda name: sizes.append(name) or real(name))
    assert len(list(_join(store, atoms, {}))) == 30
    # Depth 0 sizes both atoms and picks the smaller T, depth 1 sizes the
    # S left over; the later bindings that reach depth 1 size nothing more.
    assert sizes == ["S", "T", "S"]


# ---------------------------------------------------------------------------
# The replaced permutation loop, as the oracle.


def order_cost(advisor, atoms, order):
    """Price one order: (total intermediate rows, final degree)."""
    running = ONE
    total = Polynomial.const(0)
    bound_vars = set()
    for index in order:
        atom = atoms[index]
        running = running * advisor._step_bound(atom, bound_vars)
        total = total + running
        bound_vars.update(t for t in atom.terms if isinstance(t, Variable))
    return _calibrate(total), running.degree()


def permutation_order(advisor, atoms):
    """The provably cheapest join order, or ``None`` to keep greedy."""
    if len(atoms) < 2:
        return None
    if len(atoms) > MAX_EXHAUSTIVE_ATOMS:
        return None
    best = None
    best_key = None
    for candidate in permutations(range(len(atoms))):
        order = list(candidate)
        cost, degree = order_cost(advisor, atoms, order)
        key = (cost, degree, order)
        if best_key is None or key < best_key:
            best, best_key = order, key
    return best


def _programs():
    problems = dict(sorted(bundled_problems().items()))
    for depth in (4, 6, 8):
        problems[f"chain-{depth}"] = chain_problem(depth)
    for width in (8, 10, 12):
        problems[f"wide-{width}"] = wide_problem(width)
    problems.update(generated_problems(range(200)))
    for name, problem in problems.items():
        try:
            result = MappingSystem(problem).query_result()
        except ReproError:
            continue  # stage 2 signals the paper's errors on a few seeds
        yield name, result.unoptimized


def test_advisor_orders_every_compiled_body_like_the_permutation_loop():
    checked = 0
    for name, program in _programs():
        advisor = JoinOrderAdvisor.for_program(program)
        for rule in program.rules:
            assert advisor.order(rule.body) == permutation_order(
                advisor, rule.body
            ), (name, rule)
            checked += len(rule.body) >= 2
    assert checked > 1000


RELATIONS = {"A": 1, "B": 2, "C": 2, "D": 3}


@st.composite
def advisor_cases(draw):
    variables = [Variable(f"v{i}") for i in range(5)]
    keys = {
        name: tuple(
            draw(
                st.lists(
                    st.lists(st.integers(0, arity - 1), min_size=1, unique=True)
                    .map(lambda key: tuple(sorted(key))),
                    max_size=2,
                )
            )
        )
        for name, arity in RELATIONS.items()
    }
    term = st.one_of(st.sampled_from(variables), st.integers(0, 1).map(Constant))
    body = draw(
        st.lists(
            st.sampled_from(sorted(RELATIONS)).flatmap(
                lambda name: st.tuples(
                    st.just(name), st.tuples(*[term] * RELATIONS[name])
                )
            ),
            max_size=MAX_EXHAUSTIVE_ATOMS,
        )
    )
    return keys, tuple(RelationalAtom(name, terms) for name, terms in body)


@settings(max_examples=150, deadline=None)
@given(advisor_cases())
def test_advisor_search_matches_the_permutation_loop(case):
    keys, body = case
    advisor = JoinOrderAdvisor(CostFacts(keys=keys))
    assert advisor.order(body) == permutation_order(advisor, body)
