"""Join ordering without repeated work, checked against the loops it replaced.

* The reference interpreter's ``_join`` plans each depth once per rule
  evaluation instead of once per partial binding.  The per-binding version
  is copied here as the oracle: on random rules and stores (repeated
  variables, constants, ``null`` terms and values, empty relations, a body
  atom over a relation the store lacks) both yield the same bindings in the
  same order and stop with the same exception.
* A plan memo shared over many stores reuses a rule's plan wherever its
  body relations' sizes rank alike: on random rules over a sequence of
  random stores whose sizes change rank, ``evaluate_rule`` derives the same
  rows in the same order and raises the same exception with the memo as
  without it, and one chain-8 verification plans at most 1 700 join depths
  (33 000 when every evaluation planned afresh).
* :meth:`JoinOrderAdvisor.order` searches orders depth first with
  branch-and-bound.  The loop that priced every permutation from scratch is
  copied here as the oracle: both pick the same order on every rule body of
  the bundled scenarios, the deep-compile problems and the generator's
  DEFAULT seeds 0–199, and on random bodies with random source keys.
"""

from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.cost.advisor import MAX_EXHAUSTIVE_ATOMS, JoinOrderAdvisor
from repro.analysis.cost.bounds import _calibrate
from repro.analysis.cost.facts import CostFacts
from repro.analysis.cost.polynomial import ONE, Polynomial
from repro.analysis.semantic.verifier import verify_result
from repro.core.pipeline import MappingSystem
from repro.datalog import engine
from repro.datalog.engine import RowStore, _join, evaluate_rule
from repro.datalog.program import Rule
from repro.errors import EvaluationError, ReproError
from repro.logic.atoms import RelationalAtom
from repro.logic.terms import NULL_TERM, Constant, NullTerm, Variable
from repro.model.values import NULL, is_null
from repro.scenarios import bundled_problems, generated_problems
from repro.scenarios.synthetic import chain_problem, wide_problem

# ---------------------------------------------------------------------------
# The replaced per-binding join, as the oracle.


def match_atom(atom, row, bindings):
    """Extend bindings so the atom matches the row, or None on mismatch."""
    extended = dict(bindings)
    for term, value in zip(atom.terms, row):
        if isinstance(term, Variable):
            if term not in extended:
                extended[term] = value
            elif extended[term] != value:
                return None
        elif isinstance(term, NullTerm):
            if not is_null(value):
                return None
        elif term.value != value:
            return None
    return extended


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
        extended = match_atom(atom, row, bindings)
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
# One plan memo shared over many stores.


def _atoms(draw, variables, min_size, max_size):
    # Mostly variables, so joins match on several rows, and seldom the
    # relation the store lacks.
    term = st.sampled_from([*variables] * 2 + [NULL_TERM, Constant(0)])
    relation = st.sampled_from(["R", "S", "T", "U"] * 6 + ["Missing"])
    return tuple(
        RelationalAtom(name, terms)
        for name, terms in draw(
            st.lists(
                relation.flatmap(
                    lambda name: st.tuples(
                        st.just(name), st.tuples(*[term] * ARITIES[name])
                    )
                ),
                min_size=min_size,
                max_size=max_size,
            )
        )
    )


@st.composite
def memo_cases(draw):
    """Random rules, and random stores for them to run over in turn."""
    variables = [Variable(f"x{i}") for i in range(4)]
    rare = st.integers(0, 3).map(lambda n: n == 0)
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        body = _atoms(draw, variables, 1, 4)
        bound = sorted(
            {t for atom in body for t in atom.terms if isinstance(t, Variable)},
            key=lambda var: var.name,
        )
        # The head holds every body variable, so the rows' order shows the
        # join order; now and then it also holds one the body may not bind.
        head = bound + [draw(st.sampled_from(variables))] * draw(rare)
        conditioned = () if not bound or not draw(rare) else (
            draw(st.sampled_from(bound)),
        )
        null = draw(st.booleans())
        rules.append(
            Rule(
                head=RelationalAtom("H", tuple(head)),
                body=body,
                negated=_atoms(draw, variables, 1, 1) if draw(rare) else (),
                null_vars=conditioned if null else (),
                nonnull_vars=() if null else conditioned,
            )
        )
    stores = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    # An empty relation returns before any plan is read.
                    name: st.lists(
                        st.tuples(*[VALUES] * ARITIES[name]),
                        min_size=1,
                        max_size=8,
                    )
                    for name in ("R", "S", "T", "U")
                }
            ),
            min_size=2,
            max_size=5,
        )
    )
    return rules, stores


def _derived(rule, relations, **plans):
    """The rows ``evaluate_rule`` derives, or the exception it raises."""
    try:
        return evaluate_rule(rule, _fresh_store(relations), **plans)
    except Exception as error:
        return type(error), str(error)


def _size_ranks(relations):
    sizes = {name: len(set(rows)) for name, rows in relations.items()}
    distinct = sorted(set(sizes.values()))
    return tuple(distinct.index(sizes[name]) for name in sorted(sizes))


@settings(max_examples=300, deadline=None)
@given(memo_cases())
def test_a_shared_plan_memo_changes_no_result(case):
    rules, stores = case
    assume(len({_size_ranks(relations) for relations in stores}) > 1)
    plans = {}
    for relations in stores:
        for rule in rules:
            assert _derived(rule, relations, plans=plans) == _derived(
                rule, relations
            )


def test_a_shared_plan_starts_from_the_smaller_relation_each_time():
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    rule = Rule(
        head=RelationalAtom("H", (x, z)),
        body=(RelationalAtom("S", (x, y)), RelationalAtom("T", (y, z))),
    )
    small, large = [(0, 0)], [(0, 0), (1, 1), (2, 2)]
    plans = {}
    for smaller, relations in (
        ("S", {"S": small, "T": large}),
        ("T", {"S": large, "T": small}),
    ):
        store = _fresh_store(relations)
        read = []
        rows, index = store.rows, store.index
        store.rows = lambda name: read.append(name) or rows(name)
        store.index = lambda name, positions: read.append(name) or index(
            name, positions
        )
        assert evaluate_rule(rule, store, plans=plans) == [(0, 0)]
        # Sizing reads S and T; depth 0 then scans the smaller relation.
        assert read[:3] == ["S", "T", smaller]


def test_a_verification_plans_each_rule_once_per_size_ranking(monkeypatch):
    """Chain-8 plans 1 641 depths; no plan outlives the verification."""
    planned = []
    plan_step = engine._plan_step
    monkeypatch.setattr(
        engine, "_plan_step", lambda *args: planned.append(1) or plan_step(*args)
    )
    result = MappingSystem(chain_problem(8)).query_result()
    counts = []
    for _ in range(2):
        planned.clear()
        assert verify_result(result).ok
        counts.append(len(planned))
    assert 0 < counts[0] <= 1700
    # A memo kept on the rules or the program would spare the second run.
    assert counts[1] == counts[0]


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
