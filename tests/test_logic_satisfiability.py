"""Tests for the congruence closure under source key dependencies.

These checks back the functionality test and the key-conflict test of
Algorithm 4 and the certifier's key proofs, so the axioms (Skolem
injectivity, disjoint functor ranges, invented values distinct from source
values, null semantics, key fds) are each exercised.
"""

from repro.logic.atoms import Disequality, RelationalAtom
from repro.logic.satisfiability import EgdClosure
from repro.logic.terms import NULL_TERM, Constant, SkolemTerm, Variable
from repro.model.builder import SchemaBuilder


def V(name):
    return Variable(name)


def can_differ(atoms, schema, equalities, differ, null_terms=(), nonnull_terms=()):
    """Is ``atoms ∧ equalities ∧ differ[0] ≠ differ[1]`` satisfiable?"""
    closure = EgdClosure(schema)
    closure.add_atoms(atoms)
    for term in null_terms:
        closure.mark_null(term)
    for term in nonnull_terms:
        closure.mark_nonnull(term)
    for left, right in equalities:
        closure.equate(left, right)
    closure.saturate()
    return closure.contradiction is None and not closure.terms_equal(*differ)


class TestTermSolver:
    """Union, constant, null and Skolem axioms of the closure."""

    def test_basic_union(self):
        closure = EgdClosure(None)
        x, y, z = V("x"), V("y"), V("z")
        closure.equate(x, y)
        closure.equate(y, z)
        assert closure.terms_equal(x, z)
        assert closure.contradiction is None

    def test_distinct_constants_clash(self):
        closure = EgdClosure(None)
        x = V("x")
        closure.equate(x, Constant("a"))
        closure.equate(x, Constant("b"))
        assert closure.contradiction is not None

    def test_same_constant_no_clash(self):
        closure = EgdClosure(None)
        x = V("x")
        closure.equate(x, Constant("a"))
        closure.equate(x, Constant("a"))
        assert closure.contradiction is None

    def test_null_vs_constant_clash(self):
        closure = EgdClosure(None)
        x = V("x")
        closure.mark_null(x)
        closure.equate(x, Constant("a"))
        assert closure.contradiction is not None

    def test_null_vs_nonnull_clash(self):
        closure = EgdClosure(None)
        x = V("x")
        closure.mark_nonnull(x)
        closure.mark_null(x)
        assert closure.contradiction is not None

    def test_skolem_vs_variable_clash(self):
        # Invented values are distinct from every source value (paper sec. 6).
        closure = EgdClosure(None)
        x, y = V("x"), V("y")
        closure.equate(x, SkolemTerm("f", [y]))
        assert closure.contradiction is not None

    def test_skolem_vs_constant_clash(self):
        closure = EgdClosure(None)
        closure.equate(SkolemTerm("f", []), Constant("a"))
        assert closure.contradiction is not None

    def test_skolem_vs_null_clash(self):
        closure = EgdClosure(None)
        closure.equate(SkolemTerm("f", []), NULL_TERM)
        assert closure.contradiction is not None

    def test_different_functors_clash(self):
        closure = EgdClosure(None)
        x = V("x")
        closure.equate(SkolemTerm("f", [x]), SkolemTerm("g", [x]))
        assert closure.contradiction is not None

    def test_injectivity_decomposes_args(self):
        closure = EgdClosure(None)
        x, y = V("x"), V("y")
        closure.equate(SkolemTerm("f", [x]), SkolemTerm("f", [y]))
        assert closure.contradiction is None
        assert closure.terms_equal(x, y)

    def test_congruence_merges_applications(self):
        closure = EgdClosure(None)
        x, y = V("x"), V("y")
        fx, fy = SkolemTerm("f", [x]), SkolemTerm("f", [y])
        assert not closure.terms_equal(fx, fy)
        closure.equate(x, y)
        assert closure.terms_equal(fx, fy)

    def test_nested_congruence(self):
        closure = EgdClosure(None)
        x, y = V("x"), V("y")
        gfx = SkolemTerm("g", [SkolemTerm("f", [x])])
        gfy = SkolemTerm("g", [SkolemTerm("f", [y])])
        assert not closure.terms_equal(gfx, gfy)
        closure.equate(x, y)
        assert closure.terms_equal(gfx, gfy)

    def test_key_fd_chase(self):
        schema = SchemaBuilder("s").relation("R", "k", "v").build()
        closure = EgdClosure(schema)
        k1, v1, k2, v2 = V("k1"), V("v1"), V("k2"), V("v2")
        closure.add_atoms([RelationalAtom("R", (k1, v1)), RelationalAtom("R", (k2, v2))])
        closure.equate(k1, k2)
        closure.saturate()
        assert closure.terms_equal(v1, v2)

    def test_key_fd_chase_composite(self):
        schema = SchemaBuilder("s").relation("R", "a", "b", "v", key=["a", "b"]).build()
        closure = EgdClosure(schema)
        a1, b1, v1 = V("a1"), V("b1"), V("v1")
        a2, b2, v2 = V("a2"), V("b2"), V("v2")
        closure.add_atoms(
            [RelationalAtom("R", (a1, b1, v1)), RelationalAtom("R", (a2, b2, v2))]
        )
        closure.equate(a1, a2)
        closure.saturate()
        assert not closure.terms_equal(v1, v2)  # keys agree only on a
        closure.equate(b1, b2)
        closure.saturate()
        assert closure.terms_equal(v1, v2)


class TestCheckEqualAndDiffer:
    """Key-equal premises probed for one disequality, as Algorithm 4 asks."""

    def _schema(self):
        return (
            SchemaBuilder("s")
            .relation("R", "k", "v", "w?")
            .build()
        )

    def test_forced_equal_is_unsat(self):
        schema = self._schema()
        k1, v1, w1 = V("k1"), V("v1"), V("w1")
        k2, v2, w2 = V("k2"), V("v2"), V("w2")
        atoms = [RelationalAtom("R", (k1, v1, w1)), RelationalAtom("R", (k2, v2, w2))]
        # Same key forces same v by the key fd.
        assert not can_differ(atoms, schema, [(k1, k2)], (v1, v2))

    def test_unconstrained_can_differ(self):
        schema = self._schema()
        k1, v1, w1 = V("k1"), V("v1"), V("w1")
        k2, v2, w2 = V("k2"), V("v2"), V("w2")
        atoms = [RelationalAtom("R", (k1, v1, w1)), RelationalAtom("R", (k2, v2, w2))]
        assert can_differ(atoms, schema, [], (v1, v2))

    def test_mandatory_position_cannot_be_null(self):
        schema = self._schema()
        k, v, w = V("k"), V("v"), V("w")
        atoms = [RelationalAtom("R", (k, v, w))]
        # v = null contradicts v being in a mandatory position.
        assert not can_differ(atoms, schema, [(v, NULL_TERM)], (k, V("z")))

    def test_nullable_position_can_be_null(self):
        schema = self._schema()
        k, v, w = V("k"), V("v"), V("w")
        atoms = [RelationalAtom("R", (k, v, w))]
        assert can_differ(atoms, schema, [(w, NULL_TERM)], (k, V("z")))

    def test_null_condition_conflicts_with_nonnull(self):
        schema = self._schema()
        k, v, w = V("k"), V("v"), V("w")
        atoms = [RelationalAtom("R", (k, v, w))]
        assert not can_differ(
            atoms, schema, [], (k, V("z")), null_terms=[w], nonnull_terms=[w]
        )

    def test_null_vs_null_cannot_differ(self):
        schema = self._schema()
        k, v, w = V("k"), V("v"), V("w")
        atoms = [RelationalAtom("R", (k, v, w))]
        assert not can_differ(atoms, schema, [], (NULL_TERM, NULL_TERM))

    def test_skolem_key_equality_unsat_with_variable(self):
        # A mapping whose key is invented never conflicts with one whose key
        # is copied (paper Example 6.3).
        schema = self._schema()
        k1, v1, w1 = V("k1"), V("v1"), V("w1")
        k2, v2, w2 = V("k2"), V("v2"), V("w2")
        atoms = [RelationalAtom("R", (k1, v1, w1)), RelationalAtom("R", (k2, v2, w2))]
        skolem = SkolemTerm("f", [v1])
        assert not can_differ(atoms, schema, [(skolem, k2)], (v1, v2))

    def test_same_functor_keys_decompose(self):
        schema = self._schema()
        k1, v1, w1 = V("k1"), V("v1"), V("w1")
        k2, v2, w2 = V("k2"), V("v2"), V("w2")
        atoms = [RelationalAtom("R", (k1, v1, w1)), RelationalAtom("R", (k2, v2, w2))]
        # f(k1) = f(k2) forces k1 = k2, and the key fd then forces v1 = v2.
        assert not can_differ(
            atoms,
            schema,
            [(SkolemTerm("f", [k1]), SkolemTerm("f", [k2]))],
            (v1, v2),
        )


class TestSaturation:
    def test_deep_key_chain_reaches_fixpoint(self):
        # R(x_i, x_{i+1}) and R(y_i, y_{i+1}) with x_1 = y_1: the key fd
        # equates one more level per round when the deepest atoms come
        # first, so 150 levels need 150 productive rounds.
        depth = 150
        schema = SchemaBuilder("s").relation("R", "k", "v").build()
        xs = [V(f"x{i}") for i in range(1, depth + 2)]
        ys = [V(f"y{i}") for i in range(1, depth + 2)]
        closure = EgdClosure(schema)
        for i in reversed(range(depth)):
            closure.add_atoms(
                [
                    RelationalAtom("R", (xs[i], xs[i + 1])),
                    RelationalAtom("R", (ys[i], ys[i + 1])),
                ]
            )
        closure.equate(xs[0], ys[0])
        closure.saturate()
        assert closure.contradiction is None
        assert all(closure.terms_equal(x, y) for x, y in zip(xs, ys))

    def test_violated_disequality_is_a_contradiction(self):
        schema = SchemaBuilder("s").relation("R", "k", "v").build()
        k1, v1, k2, v2 = V("k1"), V("v1"), V("k2"), V("v2")
        closure = EgdClosure(schema)
        closure.load(
            [RelationalAtom("R", (k1, v1)), RelationalAtom("R", (k2, v2))],
            disequalities=[Disequality(v1, v2)],
        )
        closure.equate(k1, k2)
        closure.saturate()
        assert closure.contradiction == "disequality v1 != v2 is violated"


class TestFreeze:
    """The canonical instance the closure hands to homomorphism searches."""

    def test_classes_numbered_by_root_and_named_by_earliest_member(self):
        a, b, c, d, e, f = V("a"), V("b"), V("c"), V("d"), V("e"), V("f")
        closure = EgdClosure(None)
        closure.add_atoms(
            [RelationalAtom("R", (c, a, e)), RelationalAtom("S", (d, b, f))]
        )
        closure.equate(a, d)  # root d
        closure.equate(b, c)  # root c: numbered before d's class
        closure.equate(e, Constant(1))
        closure.mark_null(f)
        atoms, substitution = closure.freeze()
        assert [repr(atom) for atom in atoms] == [
            "R(<b#0>,<a#1>,1)",
            "S(<a#1>,<b#0>,<f#3=null>)",
        ]
        assert substitution[e] == Constant(1)  # a pinned class still takes #2
        assert substitution[a] is substitution[d]

    def test_skolem_equality_stays_residual(self):
        from repro.analysis.semantic.containment import (
            ConjunctiveQuery,
            ContainmentEngine,
        )
        from repro.logic.atoms import Equality

        x, y = V("x"), V("y")
        skolem = SkolemTerm("f", (y,))
        closure = EgdClosure(None)
        closure.equate(x, skolem)
        assert closure.contradiction is not None  # variables are read as ground
        # Lowered SQL can equate a column with an invented value, so the
        # query freezes with the equality left residual, not as vacuous.
        query = ConjunctiveQuery(
            head_label="Q",
            head=(x,),
            atoms=(RelationalAtom("T", (x, y)),),
            equalities=(Equality(x, skolem),),
        )
        assert not query.freeze().unsatisfiable
        unconstrained = ConjunctiveQuery(
            head_label="Q", head=(x,), atoms=(RelationalAtom("T", (x, y)),)
        )
        witness = ContainmentEngine().contained_in(query, unconstrained)
        assert witness is not None and witness.kind == "homomorphism"

    def test_contradictory_pin_is_unsatisfiable(self):
        from repro.analysis.semantic.containment import ConjunctiveQuery
        from repro.logic.atoms import Equality

        x = V("x")
        atoms = (RelationalAtom("R", (x,)),)
        two_constants = ConjunctiveQuery(
            head_label="Q",
            head=(x,),
            atoms=atoms,
            equalities=(Equality(x, Constant("a")), Equality(x, Constant("b"))),
        )
        assert two_constants.freeze().unsatisfiable
        pinned_null = ConjunctiveQuery(
            head_label="Q",
            head=(x,),
            atoms=atoms,
            null_vars=frozenset([x]),
            equalities=(Equality(Constant("a"), x),),
        )
        assert pinned_null.freeze().unsatisfiable
