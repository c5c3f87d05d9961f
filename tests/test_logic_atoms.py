"""Tests for atoms, equalities and negated premises."""

from repro.logic.atoms import (
    Equality,
    NegatedPremise,
    RelationalAtom,
    atoms_variables,
)
from repro.logic.terms import Constant, Variable


def test_atom_basics():
    x, y = Variable("x"), Variable("y")
    atom = RelationalAtom("R", (x, y, Constant("c")))
    assert atom.arity == 3
    assert atom.variables() == [x, y]
    assert repr(atom) == "R(x,y,'c')"


def test_atom_substitution():
    x, y = Variable("x"), Variable("y")
    atom = RelationalAtom("R", (x, x))
    result = atom.substitute({x: y})
    assert result.terms == (y, y)


def test_atom_equality_and_hash():
    x = Variable("x")
    assert RelationalAtom("R", (x,)) == RelationalAtom("R", (x,))
    assert RelationalAtom("R", (x,)) != RelationalAtom("S", (x,))
    assert len({RelationalAtom("R", (x,)), RelationalAtom("R", (x,))}) == 1


def test_equality_substitution():
    x, y = Variable("x"), Variable("y")
    equality = Equality(x, Constant("c"))
    assert equality.substitute({x: y}) == Equality(y, Constant("c"))
    assert equality.variables() == [x]


def test_atoms_variables_order():
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    atoms = [RelationalAtom("R", (x, y)), RelationalAtom("S", (y, z))]
    assert atoms_variables(atoms) == [x, y, z]


class TestNegatedPremise:
    def test_substitute_renames_correlated_only(self):
        k, k2, p = Variable("k"), Variable("k2"), Variable("p")
        negation = NegatedPremise([RelationalAtom("O", (k, p))], correlated=[k])
        renamed = negation.substitute({k: k2})
        assert renamed.correlated == (k2,)
        assert renamed.atoms[0].terms == (k2, p)

    def test_signature_invariant_under_renaming(self):
        k1, p1 = Variable("k"), Variable("p")
        k2, p2 = Variable("k'"), Variable("p'")
        a = NegatedPremise([RelationalAtom("O", (k1, p1))], correlated=[k1])
        b = NegatedPremise([RelationalAtom("O", (k2, p2))], correlated=[k2])
        assert a.signature() == b.signature()

    def test_signature_distinguishes_structure(self):
        k, p = Variable("k"), Variable("p")
        a = NegatedPremise([RelationalAtom("O", (k, p))], correlated=[k])
        b = NegatedPremise(
            [RelationalAtom("O", (k, p))], correlated=[k], nonnull_vars=[p]
        )
        assert a.signature() != b.signature()

    def test_repr_mentions_negation(self):
        k, p = Variable("k"), Variable("p")
        negation = NegatedPremise([RelationalAtom("O", (k, p))], correlated=[k])
        assert repr(negation).startswith("not{")
