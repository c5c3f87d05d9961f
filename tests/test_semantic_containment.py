"""Curated containment pairs for the chase-based semantic engine.

Each test fixes one (contained, container) pair and asserts the engine's
verdict: a witness for provable containment, ``None`` otherwise.  ``None``
is conservative — some pairs below are semantically contained but outside
the sound fragment, and the tests document that too.
"""

import pytest

from repro.analysis.semantic.containment import (
    ConjunctiveQuery,
    ContainmentEngine,
    Witness,
    cq_from_rule,
    cq_from_tableau,
    cq_from_unitary,
    contained_in,
    equivalent,
)
from repro.core.chase import MODIFIED, logical_relations
from repro.datalog.program import Rule
from repro.logic.atoms import Disequality, Equality, RelationalAtom
from repro.logic.terms import NULL_TERM, Constant, SkolemTerm, Variable
from repro.scenarios import cars


def V(name):
    return Variable(name)


def cq(label, head, atoms, **kw):
    return ConjunctiveQuery(
        head_label=label, head=tuple(head), atoms=tuple(atoms), **kw
    )


class TestClassicalPairs:
    """Chandra–Merlin cases: plain conjunctive queries."""

    def test_renaming_is_equivalence(self):
        x, y = V("x"), V("y")
        u, v = V("u"), V("v")
        q1 = cq("Q", [x], [RelationalAtom("R", (x, y))])
        q2 = cq("Q", [u], [RelationalAtom("R", (u, v))])
        both = equivalent(q1, q2)
        assert both is not None
        assert all(w.kind == "homomorphism" for w in both)

    def test_extra_atom_is_contained_not_equal(self):
        x, y = V("x"), V("y")
        u, v = V("u"), V("v")
        bigger = cq(
            "Q", [x], [RelationalAtom("R", (x, y)), RelationalAtom("S", (y,))]
        )
        smaller = cq("Q", [u], [RelationalAtom("R", (u, v))])
        assert contained_in(bigger, smaller) is not None
        assert contained_in(smaller, bigger) is None

    def test_different_relation_not_contained(self):
        x, u = V("x"), V("u")
        q1 = cq("Q", [x], [RelationalAtom("R", (x,))])
        q2 = cq("Q", [u], [RelationalAtom("S", (u,))])
        assert contained_in(q1, q2) is None

    def test_head_label_and_arity_must_match(self):
        x, u = V("x"), V("u")
        q1 = cq("Q", [x], [RelationalAtom("R", (x,))])
        assert contained_in(q1, cq("P", [u], [RelationalAtom("R", (u,))])) is None
        v = V("v")
        assert (
            contained_in(q1, cq("Q", [u, v], [RelationalAtom("R", (u,))])) is None
        )

    def test_repeated_head_variable_one_direction(self):
        x, y = V("x"), V("y")
        u = V("u")
        diagonal = cq("Q", [u, u], [RelationalAtom("R", (u, u))])
        general = cq("Q", [x, y], [RelationalAtom("R", (x, y))])
        assert contained_in(diagonal, general) is not None
        assert contained_in(general, diagonal) is None

    def test_constant_restriction_one_direction(self):
        x, u, v = V("x"), V("u"), V("v")
        pinned = cq("Q", [x], [RelationalAtom("R", (x, Constant("a")))])
        free = cq("Q", [u], [RelationalAtom("R", (u, v))])
        assert contained_in(pinned, free) is not None
        assert contained_in(free, pinned) is None

    def test_self_join_collapse(self):
        # Q1 joins R with itself sharing the middle; Q2 walks two hops.
        x, y = V("x"), V("y")
        a, b, c = V("a"), V("b"), V("c")
        loop = cq("Q", [x], [RelationalAtom("R", (x, y)), RelationalAtom("R", (y, x))])
        path = cq("Q", [a], [RelationalAtom("R", (a, b)), RelationalAtom("R", (b, c))])
        assert contained_in(loop, path) is not None  # the loop is a path
        assert contained_in(path, loop) is None


class TestConditionsAndEqualities:
    def test_equality_collapses_to_repeated_variable(self):
        x, y = V("x"), V("y")
        u = V("u")
        with_eq = cq(
            "Q",
            [x],
            [RelationalAtom("R", (x, y))],
            equalities=(Equality(x, y),),
        )
        collapsed = cq("Q", [u], [RelationalAtom("R", (u, u))])
        both = equivalent(with_eq, collapsed)
        assert both is not None

    def test_nonnull_condition_strengthens(self):
        x, u = V("x"), V("u")
        strict = cq(
            "Q", [x], [RelationalAtom("R", (x,))], nonnull_vars=frozenset([x])
        )
        loose = cq("Q", [u], [RelationalAtom("R", (u,))])
        assert contained_in(strict, loose) is not None
        assert contained_in(loose, strict) is None

    def test_null_and_nonnull_conditions_incompatible(self):
        x, u = V("x"), V("u")
        nulled = cq("Q", [x], [RelationalAtom("R", (x,))], null_vars=frozenset([x]))
        nonnulled = cq(
            "Q", [u], [RelationalAtom("R", (u,))], nonnull_vars=frozenset([u])
        )
        assert contained_in(nulled, nonnulled) is None
        assert contained_in(nonnulled, nulled) is None

    def test_nonnull_mark_entails_null_disequality(self):
        x, u = V("x"), V("u")
        marked = cq(
            "Q", [x], [RelationalAtom("R", (x,))], nonnull_vars=frozenset([x])
        )
        diseq = cq(
            "Q",
            [u],
            [RelationalAtom("R", (u,))],
            disequalities=(Disequality(u, NULL_TERM),),
        )
        assert contained_in(marked, diseq) is not None
        # The reverse is semantically true but outside the sound fragment:
        # the engine only marks values from explicit non-null conditions.
        assert contained_in(diseq, marked) is None

    def test_explicit_disequality_must_be_entailed(self):
        x, y = V("x"), V("y")
        u, v = V("u"), V("v")
        with_diseq = cq(
            "Q",
            [x],
            [RelationalAtom("R", (x, y))],
            disequalities=(Disequality(x, y),),
        )
        container = cq(
            "Q",
            [u],
            [RelationalAtom("R", (u, v))],
            disequalities=(Disequality(u, v),),
        )
        a, b = V("a"), V("b")
        plain = cq("Q", [a], [RelationalAtom("R", (a, b))])
        assert contained_in(with_diseq, container) is not None
        assert contained_in(with_diseq, plain) is not None
        assert contained_in(plain, container) is None

    def test_unsatisfiable_query_vacuously_contained(self):
        x, u = V("x"), V("u")
        absurd = cq(
            "Q",
            [x],
            [RelationalAtom("R", (x,))],
            null_vars=frozenset([x]),
            nonnull_vars=frozenset([x]),
        )
        anything = cq("Q", [u], [RelationalAtom("R", (u,))])
        witness = contained_in(absurd, anything)
        assert witness is not None and witness.kind == "vacuous"
        assert "vacuous" in witness.render()

    def test_contradictory_disequality_is_unsatisfiable(self):
        x, u = V("x"), V("u")
        absurd = cq(
            "Q",
            [x],
            [RelationalAtom("R", (x, x))],
            disequalities=(Disequality(x, x),),
        )
        anything = cq("Q", [u], [RelationalAtom("R", (u, u))])
        witness = contained_in(absurd, anything)
        assert witness is not None and witness.kind == "vacuous"


class TestSkolemTerms:
    """Rule queries with invented-value heads (§6)."""

    def test_identical_skolem_heads(self):
        x, y = V("x"), V("y")
        r1 = Rule(
            RelationalAtom("T", (x, SkolemTerm("f", (x,)))),
            (RelationalAtom("S", (x, y)),),
        )
        u, v = V("u"), V("v")
        r2 = Rule(
            RelationalAtom("T", (u, SkolemTerm("f", (u,)))),
            (RelationalAtom("S", (u, v)),),
        )
        assert equivalent(cq_from_rule(r1), cq_from_rule(r2)) is not None

    def test_distinct_functors_not_contained(self):
        x = V("x")
        u = V("u")
        r1 = Rule(
            RelationalAtom("T", (x, SkolemTerm("f", (x,)))),
            (RelationalAtom("S", (x,)),),
        )
        r2 = Rule(
            RelationalAtom("T", (u, SkolemTerm("g", (u,)))),
            (RelationalAtom("S", (u,)),),
        )
        assert contained_in(cq_from_rule(r1), cq_from_rule(r2)) is None

    def test_skolem_argument_flow_checked(self):
        # f(x) vs f(y) over S(x,y): the invented value must be built from
        # the same frozen argument, not just any variable.
        x, y = V("x"), V("y")
        u, v = V("u"), V("v")
        r1 = Rule(
            RelationalAtom("T", (x, SkolemTerm("f", (x,)))),
            (RelationalAtom("S", (x, y)),),
        )
        r2 = Rule(
            RelationalAtom("T", (u, SkolemTerm("f", (v,)))),
            (RelationalAtom("S", (u, v)),),
        )
        assert contained_in(cq_from_rule(r1), cq_from_rule(r2)) is None

    def test_skolem_never_equals_constant_in_disequality(self):
        x, u = V("x"), V("u")
        invented = cq(
            "Q",
            [x, SkolemTerm("f", (x,))],
            [RelationalAtom("R", (x,))],
        )
        guarded = cq(
            "Q",
            [u, SkolemTerm("f", (u,))],
            [RelationalAtom("R", (u,))],
            disequalities=(Disequality(SkolemTerm("f", (u,)), Constant("a")),),
        )
        assert contained_in(invented, guarded) is not None


class TestNegation:
    def test_matching_negation_contained(self):
        x, u = V("x"), V("u")
        r1 = Rule(
            RelationalAtom("T", (x,)),
            (RelationalAtom("S", (x,)),),
            negated=(RelationalAtom("tmp", (x,)),),
        )
        r2 = Rule(
            RelationalAtom("T", (u,)),
            (RelationalAtom("S", (u,)),),
            negated=(RelationalAtom("tmp", (u,)),),
        )
        assert equivalent(cq_from_rule(r1), cq_from_rule(r2)) is not None

    def test_container_negation_must_be_required_by_contained(self):
        x, u = V("x"), V("u")
        plain = Rule(RelationalAtom("T", (x,)), (RelationalAtom("S", (x,)),))
        negating = Rule(
            RelationalAtom("T", (u,)),
            (RelationalAtom("S", (u,)),),
            negated=(RelationalAtom("tmp", (u,)),),
        )
        # The negating rule derives a subset: contained in the plain one.
        assert contained_in(cq_from_rule(negating), cq_from_rule(plain)) is not None
        # The plain rule may fire where tmp holds: not provably contained.
        assert contained_in(cq_from_rule(plain), cq_from_rule(negating)) is None


class TestReferencedAttributes:
    """Tableau queries from the modified chase of the cars scenarios."""

    @pytest.fixture(scope="class")
    def figure1_tableaux(self):
        problem = cars.figure1_problem()
        return {
            tuple(a.relation for a in t.atoms): t
            for t in logical_relations(problem.target_schema, mode=MODIFIED)
        }

    def test_chase_extension_is_rooted_containment(self, figure1_tableaux):
        # C2 chases to {C2} (p null) and to {C2, P2} (p non-null): the
        # extension is contained in the base when rooted at C2.
        base = figure1_tableaux[("C2",)]
        extension = figure1_tableaux[("C2", "P2")]
        assert contained_in(cq_from_tableau(extension), cq_from_tableau(base)) is None
        # Different null-conditions on the referencing attribute: the base
        # asserts p = null, which the extension contradicts (p != null), so
        # neither direction is provable — they partition C2.
        assert contained_in(cq_from_tableau(base), cq_from_tableau(extension)) is None

    def test_tableau_contained_in_itself_up_to_renaming(self, figure1_tableaux):
        problem = cars.figure1_problem()
        again = {
            tuple(a.relation for a in t.atoms): t
            for t in logical_relations(problem.target_schema, mode=MODIFIED)
        }
        for key, tableau in figure1_tableaux.items():
            rechased = again[key]
            assert tableau is not rechased  # distinct chase runs
            both = equivalent(cq_from_tableau(tableau), cq_from_tableau(rechased))
            assert both is not None, key


class TestEngineBehaviour:
    def test_generated_rules_self_contained(self):
        from repro.core.pipeline import MappingSystem

        system = MappingSystem(cars.figure1_problem())
        for rule in system.transformation.rules:
            query = cq_from_rule(rule)
            assert contained_in(query, query) is not None

    def test_unitary_mapping_queries(self):
        from repro.core.pipeline import MappingSystem

        system = MappingSystem(cars.figure10_problem())
        final = system.query_result().final
        queries = [cq_from_unitary(m) for m in final]
        p2a = [q for q in queries if q.head_label == "P2a"]
        # m1 (P3 -> P2a) contains m3's P2a projection (O3, C3, P3 -> P2a).
        small = min(p2a, key=lambda q: len(q.atoms))
        big = max(p2a, key=lambda q: len(q.atoms))
        assert len(big.atoms) > len(small.atoms)
        assert contained_in(big, small) is not None
        assert contained_in(small, big) is None

    def test_verdicts_are_cached_by_signature(self):
        engine = ContainmentEngine()
        x, y = V("x"), V("y")
        q1 = cq("Q", [x], [RelationalAtom("R", (x, y))])
        u, v = V("u"), V("v")
        q2 = cq("Q", [u], [RelationalAtom("R", (u, v))])
        first = engine.contained_in(q1, q2)
        size = engine.cache_size()
        second = engine.contained_in(q1, q2)
        assert first is second  # the cached witness object
        assert engine.cache_size() == size
        # A renamed copy hits a refutation's signature entry; a witness names
        # the asked queries' own variables, so the copy gets its own.
        a, b = V("a"), V("b")
        q1b = cq("Q", [a], [RelationalAtom("R", (a, b))])
        q3 = cq("Q", [u], [RelationalAtom("R", (u, v)), RelationalAtom("S", (v,))])
        assert engine.contained_in(q1, q3) is None
        size = engine.cache_size()
        assert engine.contained_in(q1b, q3) is None
        assert engine.cache_size() == size
        assert engine.contained_in(q1b, q2) == ContainmentEngine().contained_in(q1b, q2)

    def test_cached_witness_names_the_asked_queries(self):
        """Two alpha-equivalent queries, asked in both orders: each answer is
        the one a cold engine gives, not the first answer renamed."""
        x, y = V("x"), V("y")
        q1 = cq("Q", [x], [RelationalAtom("R", (x, y))])
        u, v = V("u"), V("v")
        q2 = cq("Q", [u], [RelationalAtom("R", (u, v))])
        for first, second in ((q1, q2), (q2, q1)):
            engine = ContainmentEngine()
            for contained, container in ((first, second), (second, first)):
                cold = ContainmentEngine().contained_in(contained, container)
                assert engine.contained_in(contained, container) == cold
        cold = ContainmentEngine()
        assert repr(cold.contained_in(q1, q2)) != repr(cold.contained_in(q2, q1))

    def test_witness_render_shape(self):
        x, y = V("x"), V("y")
        q1 = cq("Q", [x], [RelationalAtom("R", (x, y))])
        u, v = V("u"), V("v")
        q2 = cq("Q", [u], [RelationalAtom("R", (u, v))])
        witness = contained_in(q1, q2)
        assert isinstance(witness, Witness)
        text = witness.render()
        assert text.startswith("{") and "->" in text
